//! End-to-end tests of [`run`]: each drives a command line the way
//! `main` does and checks its output files, metrics documents and
//! typed exit codes.

use super::*;
use crate::args::parse_args;
use palu::params::PaluParams;
use std::path::{Path, PathBuf};

fn parse(tokens: &[&str]) -> ParsedArgs {
    parse_args(tokens.iter().map(|s| s.to_string())).unwrap()
}

/// Run a command line of whitespace-separated tokens.
fn cli(line: &str) -> Result<(), CliError> {
    run(&parse_args(line.split_whitespace().map(str::to_string)).unwrap())
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("palu-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap()
}

/// The data lines' `D` column summed: a pooled series' mass.
fn pooled_mass(series: &str) -> f64 {
    series
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().nth(1).unwrap().parse::<f64>().unwrap())
        .sum()
}

/// The capture every simulate test shares, before its windows.
const CAPTURE: &str = "--core 0.5 --leaves 0.2 --lambda 2.0 --alpha 2.0 --nodes 20000 --nv 10000";

#[test]
fn help_and_unknown_commands() {
    assert!(run(&parse(&["help"])).is_ok());
    let e = run(&parse(&["frobnicate"])).unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("frobnicate"));
}

/// Every typed exit code has its line in USAGE's one authoritative
/// table, and the table has no line without a code.
#[test]
fn every_exit_code_has_its_usage_line() {
    let table = &USAGE[USAGE.find("EXIT CODES").expect("an exit-code table")..];
    let rows: Vec<&str> = table.lines().skip(1).filter(|l| !l.is_empty()).collect();
    let codes = [
        0,
        exit::RUNTIME,
        exit::USAGE,
        exit::ADMISSION_REFUSED,
        exit::JOURNAL_CORRUPT,
        exit::CONFIG_MISMATCH,
        exit::COVERAGE,
        exit::QUARANTINE_OVERFLOW,
        exit::SERVICE_UNAVAILABLE,
        exit::DISPATCH_FENCED,
    ];
    assert_eq!(rows.len(), codes.len(), "{table}");
    for code in codes {
        let prefix = format!("  {code} ");
        assert!(
            rows.iter().any(|row| row.starts_with(&prefix)),
            "exit code {code} has no line in\n{table}"
        );
    }
    // The budget text points at the admission code, not a generic one.
    assert!(USAGE.contains("floor cannot fit (exit 3,"), "{USAGE}");
}

#[test]
fn full_pipeline_generate_observe_degrees_fit() {
    let (net, obs) = (tmp("net.txt"), tmp("obs.txt"));
    let (deg, report) = (tmp("deg.txt"), tmp("report.txt"));
    cli(&format!(
        "generate --nodes 120000 --core 0.5 --leaves 0.2 --lambda 3.0 --alpha 2.0 --seed 7 \
         --out {}",
        net.display()
    ))
    .unwrap();
    cli(&format!(
        "observe --in {} --p 0.5 --seed 8 --out {}",
        net.display(),
        obs.display()
    ))
    .unwrap();
    cli(&format!(
        "degrees --in {} --out {}",
        obs.display(),
        deg.display()
    ))
    .unwrap();
    cli(&format!(
        "fit --in {} --p 0.5 --out {}",
        deg.display(),
        report.display()
    ))
    .unwrap();

    let report_text = read(&report);
    assert!(report_text.contains("zipf-mandelbrot"), "{report_text}");
    assert!(report_text.contains("csn power law"));
    assert!(report_text.contains("palu underlying"));
    // Recovered λ in the report should be near 3.
    let lambda_line = report_text
        .lines()
        .find(|l| l.starts_with("palu underlying"))
        .unwrap();
    let lambda: f64 = lambda_line
        .split("lambda = ")
        .nth(1)
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!((lambda - 3.0).abs() < 1.5, "recovered λ {lambda}");
}

#[test]
fn census_on_generated_network() {
    let (net, out) = (tmp("census_net.txt"), tmp("census_out.txt"));
    cli(&format!(
        "generate --nodes 10000 --core 0.4 --leaves 0.2 --lambda 2.0 --alpha 2.0 --seed 3 \
         --out {}",
        net.display()
    ))
    .unwrap();
    cli(&format!(
        "census --in {} --out {}",
        net.display(),
        out.display()
    ))
    .unwrap();
    let text = read(&out);
    assert!(text.contains("unattached links"));
    assert!(text.contains("global clustering"));
}

#[test]
fn observe_validates_p() {
    let net = tmp("p_net.txt");
    std::fs::write(&net, "0 1\n1 2\n").unwrap();
    let e = cli(&format!("observe --in {} --p 1.5", net.display())).unwrap_err();
    assert!(e.message.contains("[0,1]"));
}

#[test]
fn fit_errors_on_missing_and_empty_files() {
    let e = run(&parse(&["fit", "--in", "/nonexistent/x.txt"])).unwrap_err();
    assert_eq!(e.code, 2);
    let empty = tmp("empty_hist.txt");
    std::fs::write(&empty, "# nothing\n").unwrap();
    let e = cli(&format!("fit --in {}", empty.display())).unwrap_err();
    assert!(e.message.contains("empty"));
}

/// A bad `--p`, `--boot` or `--seed` is a usage error raised before
/// any fit runs, so `--out` is never created with a partial report.
#[test]
fn fit_refuses_bad_options_before_any_output() {
    let hist = tmp("fit_options_hist.txt");
    std::fs::write(&hist, "1 50\n2 20\n3 9\n4 5\n6 2\n9 1\n").unwrap();
    for (options, names) in [
        ("--p abc", "--p"),
        ("--p 2", "--p"),
        ("--p 0", "--p"),
        ("--boot x", "--boot"),
        ("--boot 3 --seed x", "--seed"),
    ] {
        let out = tmp("fit_options_out.txt");
        let _ = std::fs::remove_file(&out);
        let line = format!(
            "fit --in {} {options} --out {}",
            hist.display(),
            out.display()
        );
        let e = cli(&line).unwrap_err();
        assert_eq!(e.code, exit::USAGE, "{options}: {}", e.message);
        assert!(e.message.contains(names), "{options}: {}", e.message);
        assert!(!out.exists(), "{options} left a partial report");
    }
}

#[test]
fn simulate_produces_pooled_series() {
    let out = tmp("sim_out.txt");
    cli(&format!(
        "simulate --core 0.5 --leaves 0.2 --lambda 2.0 --alpha 2.0 --nodes 20000 --nv 20000 \
         --windows 4 --out {}",
        out.display()
    ))
    .unwrap();
    let text = read(&out);
    assert!(text.contains("pooled D(d_i)"));
    // Data lines: d_i D sigma, with D summing to ≈ 1.
    let total = pooled_mass(&text);
    assert!((total - 1.0).abs() < 1e-6, "pooled mass {total}");
}

#[test]
fn simulate_is_thread_count_invariant_and_writes_metrics() {
    let mut outputs = Vec::new();
    for threads in ["1", "2", "8"] {
        let out = tmp(&format!("sim_t{threads}.txt"));
        let metrics = tmp(&format!("sim_t{threads}_metrics.json"));
        cli(&format!(
            "simulate {CAPTURE} --windows 5 --seed 9 --threads {threads} --out {} --metrics {}",
            out.display(),
            metrics.display()
        ))
        .unwrap();
        outputs.push(read(&out));
        let m = read(&metrics);
        assert!(m.contains("\"synthesize\""), "{m}");
        // Worker count is clamped to the 5-window workload.
        let expected = threads.parse::<u64>().unwrap().min(5);
        assert!(m.contains(&format!("\"threads\": {expected}")), "{m}");
        assert!(m.contains("\"windows\": 5"), "{m}");
    }
    // Bit-identical pooled series for every thread count.
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
}

#[test]
fn simulate_rejects_zero_windows_and_bad_fault_flags() {
    let e = cli(&format!("simulate {CAPTURE} --windows 0")).unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("--windows"), "{}", e.message);

    // A zero-packet window has no degrees to pool.
    let e = cli(&format!("simulate {CAPTURE} --nv 0 --windows 2")).unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("--nv"), "{}", e.message);

    for (flag, named) in [
        ("--fail-policy bogus", "fail-policy"),
        ("--inject-faults truncate=2.0", "inject-faults"),
        ("--quarantine-threshold 1.5", "quarantine-threshold"),
        ("--window-deadline-ms 0", "window-deadline-ms"),
    ] {
        let e = cli(&format!("simulate {CAPTURE} --windows 2 {flag}")).unwrap_err();
        assert!(e.message.contains(named), "{}", e.message);
    }

    let e = cli(&format!("simulate {CAPTURE} --windows 2 --resume")).unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("--journal"), "{}", e.message);
}

/// First integer value after `"key": ` in a pretty-printed JSON
/// document (enough for the flat metrics counters the tests pin).
fn json_u64(doc: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let i = doc
        .find(&pat)
        .unwrap_or_else(|| panic!("{key} not in {doc}"))
        + pat.len();
    doc[i..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn parse_bytes_accepts_suffixes_and_rejects_garbage() {
    assert_eq!(parse_bytes("1024").unwrap(), 1024);
    assert_eq!(parse_bytes("64k").unwrap(), 64 << 10);
    assert_eq!(parse_bytes("64K").unwrap(), 64 << 10);
    assert_eq!(parse_bytes("2M").unwrap(), 2 << 20);
    assert_eq!(parse_bytes("1G").unwrap(), 1 << 30);
    assert!(parse_bytes("").is_err());
    assert!(parse_bytes("abc").is_err());
    assert!(parse_bytes("1.5G").is_err());
    assert!(parse_bytes("99999999999999999999G").is_err());
    assert!(parse_bytes("999999999999G").is_err(), "must catch overflow");
}

#[test]
fn simulate_budget_flags_are_validated() {
    let e = cli(&format!(
        "simulate {CAPTURE} --windows 2 --memory-budget twelve"
    ))
    .unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("memory-budget"), "{}", e.message);

    let e = cli(&format!("simulate {CAPTURE} --windows 2 --admission")).unwrap_err();
    assert_eq!(e.code, 2);
    assert!(e.message.contains("--memory-budget"), "{}", e.message);
}

/// The journal tests' capture: small but non-trivial.
const JOURNAL_BASE: &str = "simulate --core 0.5 --leaves 0.2 --lambda 2.0 --alpha 2.0 \
                            --nodes 20000 --nv 10000 --windows 6 --seed 9";

#[test]
fn simulate_infeasible_budget_is_refused_at_admission() {
    let e = cli(&format!("{JOURNAL_BASE} --memory-budget 4096")).unwrap_err();
    assert_eq!(e.code, exit::ADMISSION_REFUSED, "{}", e.message);
    assert!(e.message.contains("admission refused"), "{}", e.message);
}

#[test]
fn simulate_memory_budget_preserves_pooled_output() {
    use palu_traffic::budget::CostModel;
    use palu_traffic::observatory::{Observatory, ObservatoryConfig};
    use palu_traffic::packets::EdgeIntensity;

    // Baseline: the JOURNAL_BASE workload with no budget.
    let out_plain = tmp("sim_budget_plain.txt");
    cli(&format!(
        "{JOURNAL_BASE} --threads 4 --out {}",
        out_plain.display()
    ))
    .unwrap();
    let plain = read(&out_plain);

    // Ample budget: byte-identical output, a budget object in the
    // metrics document, zero degradations, a nonzero admission
    // estimate covering the recorded peak.
    let (out_ample, metrics_ample) = (tmp("sim_budget_ample.txt"), tmp("sim_budget_ample.json"));
    cli(&format!(
        "{JOURNAL_BASE} --threads 4 --memory-budget 1G --metrics {} --out {}",
        metrics_ample.display(),
        out_ample.display()
    ))
    .unwrap();
    assert_eq!(plain, read(&out_ample));
    let m = read(&metrics_ample);
    assert!(m.contains("\"budget\""), "{m}");
    assert_eq!(json_u64(&m, "limit"), 1 << 30);
    assert_eq!(json_u64(&m, "degradations"), 0, "{m}");
    let estimate = json_u64(&m, "admission_estimate_bytes");
    let peak = json_u64(&m, "peak_accounted_bytes");
    assert!(estimate > 0 && peak > 0, "{m}");
    assert!(estimate >= peak, "estimate {estimate} < peak {peak}");

    // Tight budget (floor + one window of transient headroom, from
    // the same cost model the pipeline consults): the capture must
    // degrade, record the rungs, and still produce identical bytes.
    let params = PaluParams::from_core_leaf_fractions(0.5, 0.2, 2.0, 2.0, 0.5).unwrap();
    let gen = params.generator(20_000).unwrap();
    let obs = Observatory::new(
        ObservatoryConfig {
            name: "cli".into(),
            date: String::new(),
            n_v: 10_000,
        },
        &gen,
        EdgeIntensity::Uniform,
        9,
    );
    let model = CostModel {
        n_v: 10_000,
        n_nodes: obs.underlying().n_nodes() as u64,
        windows: 6,
        threads: 4,
    };
    let limit = model.floor_bytes() + model.window_bytes();
    let (out_tight, metrics_tight) = (tmp("sim_budget_tight.txt"), tmp("sim_budget_tight.json"));
    cli(&format!(
        "{JOURNAL_BASE} --threads 4 --memory-budget {limit} --metrics {} --out {}",
        metrics_tight.display(),
        out_tight.display()
    ))
    .unwrap();
    assert_eq!(plain, read(&out_tight));
    let m = read(&metrics_tight);
    assert!(json_u64(&m, "degradations") > 0, "{m}");
    // The typed events also land in the fault report.
    assert!(m.contains("\"rung\""), "{m}");
}

/// The document from its `"fault_report"` key on.
fn fault_section(m: &str) -> &str {
    &m[m.find("\"fault_report\"").expect("fault report present")..]
}

#[test]
fn simulate_journal_resume_is_bit_identical() {
    let journal = tmp("sim_journal.journal");
    let _ = std::fs::remove_file(&journal);
    // Uninterrupted durable capture.
    let (out_a, metrics_a) = (tmp("sim_journal_a.txt"), tmp("sim_journal_a_metrics.json"));
    cli(&format!(
        "{JOURNAL_BASE} --journal {} --out {} --metrics {}",
        journal.display(),
        out_a.display(),
        metrics_a.display()
    ))
    .unwrap();
    // Simulate a kill: chop the journal mid-record, then resume at
    // a different thread count.
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() / 2]).unwrap();
    let (out_b, metrics_b) = (tmp("sim_journal_b.txt"), tmp("sim_journal_b_metrics.json"));
    cli(&format!(
        "{JOURNAL_BASE} --journal {} --resume --threads 3 --out {} --metrics {}",
        journal.display(),
        out_b.display(),
        metrics_b.display()
    ))
    .unwrap();
    assert_eq!(
        read(&out_a),
        read(&out_b),
        "resumed pooled series must be bit-identical"
    );
    let m = read(&metrics_b);
    assert!(m.contains("\"journal\""), "{m}");
    assert!(m.contains("\"windows_recovered\""), "{m}");
    let recovered = json_u64(&m, "windows_recovered");
    assert!(recovered > 0 && recovered < 6, "recovered {recovered}\n{m}");
    // The fault-report section is identical across the two runs.
    assert_eq!(fault_section(&read(&metrics_a)), fault_section(&m));
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn simulate_refuses_corrupt_and_mismatched_journals() {
    let journal = tmp("sim_journal_corrupt.journal");
    let _ = std::fs::remove_file(&journal);
    cli(&format!("{JOURNAL_BASE} --journal {}", journal.display())).unwrap();
    // Resuming under a different seed is a typed refusal…
    let line = format!("{JOURNAL_BASE} --journal {} --resume", journal.display());
    let e = cli(&line.replace("--seed 9", "--seed 10")).unwrap_err();
    assert_eq!(e.code, exit::CONFIG_MISMATCH);
    assert!(e.message.contains("seed mismatch"), "{}", e.message);
    // …and so is a flipped payload byte (checksum, not torn tail).
    let mut bytes = std::fs::read(&journal).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&journal, &bytes).unwrap();
    let e = cli(&line).unwrap_err();
    assert_eq!(e.code, exit::JOURNAL_CORRUPT);
    assert!(
        e.message.contains("checksum") || e.message.contains("malformed"),
        "{}",
        e.message
    );
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn simulate_stall_watchdog_reports_stalled_windows() {
    let metrics = tmp("sim_stall_metrics.json");
    let line = format!(
        "{JOURNAL_BASE} --inject-faults stall=1.0 --window-deadline-ms 40 \
         --fail-policy quarantine --metrics {}",
        metrics.display()
    );
    // `--out` with an empty value writes to stdout.
    let mut argv: Vec<&str> = line.split_whitespace().collect();
    let windows = argv.iter().position(|a| *a == "--windows").unwrap();
    argv[windows + 1] = "2";
    argv.extend(["--out", ""]);
    run(&parse(&argv)).unwrap();
    let m = read(&metrics);
    assert!(m.contains("\"stalled\""), "{m}");
    assert!(m.contains("\"quarantined\": 2"), "{m}");
}

#[test]
fn simulate_injection_quarantines_deterministically() {
    let mut outputs = Vec::new();
    let mut reports = Vec::new();
    for run_id in ["a", "b"] {
        let out = tmp(&format!("sim_fault_{run_id}.txt"));
        let metrics = tmp(&format!("sim_fault_{run_id}_metrics.json"));
        cli(&format!(
            "simulate {CAPTURE} --windows 8 --seed 9 --inject-faults truncate=0.4,dup=0.1 \
             --fail-policy quarantine --max-retries 1 --out {} --metrics {}",
            out.display(),
            metrics.display()
        ))
        .unwrap();
        outputs.push(read(&out));
        reports.push(read(&metrics));
    }
    // Rerun-identical pooled series and fault report (stage
    // wall-times in the metrics preamble legitimately vary).
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(fault_section(&reports[0]), fault_section(&reports[1]));
    let m = &reports[0];
    assert!(m.contains("\"fault_report\""), "{m}");
    assert!(m.contains("\"ladder\""), "{m}");
    // A 50% per-attempt rate over 8 windows injects something.
    assert!(json_u64(m, "injected") > 0, "{m}");
}

#[test]
fn simulate_certain_fault_aborts_under_default_policy() {
    let e = cli(&format!(
        "simulate {CAPTURE} --windows 3 --max-retries 0 --inject-faults truncate=1.0"
    ))
    .unwrap_err();
    assert_eq!(e.code, 1);
    assert!(e.message.contains("window"), "{}", e.message);
}

#[test]
fn gof_reports_on_palu_traffic() {
    let (net, deg, out) = (tmp("gof_net.txt"), tmp("gof_deg.txt"), tmp("gof_out.txt"));
    cli(&format!(
        "generate --nodes 60000 --core 0.5 --leaves 0.2 --lambda 2.0 --alpha 2.0 --seed 5 \
         --out {}",
        net.display()
    ))
    .unwrap();
    cli(&format!(
        "degrees --in {} --out {}",
        net.display(),
        deg.display()
    ))
    .unwrap();
    cli(&format!(
        "gof --in {} --boot 10 --out {}",
        deg.display(),
        out.display()
    ))
    .unwrap();
    let text = read(&out);
    assert!(text.contains("csn fit"), "{text}");
    assert!(text.contains("goodness of fit"));
    assert!(text.contains("vuong test"));
}

/// `gof --boot` output pinned for two seeds on a small observed
/// histogram (a 4080-node PALU network at α = 2.2, observed at
/// p = 0.5), as the ζ-per-draw tail sampler wrote it. A faster
/// bootstrap sampler must keep these bytes.
#[test]
fn gof_bootstrap_output_is_pinned() {
    const OBSERVED: &str = "1 1911\n2 228\n3 81\n4 42\n5 15\n6 13\n7 10\n8 5\n9 7\n10 5\n\
                            11 5\n12 2\n13 1\n14 2\n15 2\n16 3\n17 1\n20 2\n21 2\n23 2\n\
                            24 1\n28 1\n31 1\n37 1\n49 1\n60 1\n";
    const FIT: &str = "csn fit: alpha = 2.5088, x_min = 2, KS = 0.01470 (n_tail = 434, \
                       primary rung)\n";
    const VUONG: &str =
        "vuong test vs lognormal (x_min = 2): z = -0.24, p = 0.809 -> inconclusive\n";
    let hist = tmp("gof_pin_hist.txt");
    std::fs::write(&hist, OBSERVED).unwrap();
    for (seed, p) in [(1, "0.660"), (2, "0.500")] {
        let out = tmp(&format!("gof_pin_{seed}.txt"));
        cli(&format!(
            "gof --in {} --boot 50 --seed {seed} --out {}",
            hist.display(),
            out.display()
        ))
        .unwrap();
        let expected = format!(
            "{FIT}goodness of fit: p = {p} over 50 replicates (power law plausible)\n{VUONG}"
        );
        assert_eq!(read(&out), expected, "seed {seed}");
    }
}

#[test]
fn pool_streams_a_trace_file() {
    let trace = tmp("pool_trace.txt");
    // 250 packets over a tiny host space → 2 windows of 100,
    // 50-packet remnant discarded.
    let mut text = String::from("# trace\n");
    for i in 0..250u32 {
        text.push_str(&format!("{} {}\n", i % 17, (i * 7) % 23));
    }
    std::fs::write(&trace, text).unwrap();
    let out = tmp("pool_out.txt");
    cli(&format!(
        "pool --in {} --nv 100 --out {}",
        trace.display(),
        out.display()
    ))
    .unwrap();
    let result = read(&out);
    assert!(result.contains("over 2 windows"), "{result}");
    assert!((pooled_mass(&result) - 1.0).abs() < 1e-6);

    // Malformed trace → usage error naming the line.
    std::fs::write(&trace, "0 1\nnot a packet\n").unwrap();
    let e = cli(&format!("pool --in {} --nv 1", trace.display())).unwrap_err();
    assert!(e.message.contains("line 2"), "{}", e.message);

    // Too few packets → clear error.
    std::fs::write(&trace, "0 1\n").unwrap();
    let e = cli(&format!("pool --in {} --nv 100", trace.display())).unwrap_err();
    assert!(e.message.contains("no complete window"));
}

/// The capture flags shared by `simulate`, `shard`, and
/// `pool --merge` in the federation tests — identical so the
/// journal fingerprints agree.
const FED: &str = "--core 0.5 --leaves 0.2 --lambda 2.0 --alpha 2.0 --nodes 20000 --nv 10000 \
                   --windows 6 --seed 9";

/// Capture shard `i` of `n` into `fed_<tag>_<i>.journal`, returning
/// the journal path.
fn run_fed_shard(tag: &str, shard: usize, shards: usize) -> PathBuf {
    let journal = tmp(&format!("fed_{tag}_{shard}.journal"));
    let _ = std::fs::remove_file(&journal);
    cli(&format!(
        "shard {FED} --shard-index {shard} --shards {shards} --journal {}",
        journal.display()
    ))
    .unwrap();
    journal
}

#[test]
fn shard_then_merge_matches_simulate_byte_for_byte() {
    // Single-process reference.
    let reference = tmp("fed_reference.txt");
    cli(&format!("simulate {FED} --out {}", reference.display())).unwrap();

    // Two shards, each its own journal, merged back together.
    let a = run_fed_shard("ok", 0, 2);
    let b = run_fed_shard("ok", 1, 2);
    let (merged, metrics) = (tmp("fed_merged.txt"), tmp("fed_merged_metrics.json"));
    cli(&format!(
        "pool {FED} --merge {} {} --out {} --metrics {}",
        a.display(),
        b.display(),
        merged.display(),
        metrics.display()
    ))
    .unwrap();
    assert_eq!(
        read(&reference),
        read(&merged),
        "federated pooled series must be byte-identical to simulate"
    );
    let m = read(&metrics);
    assert!(m.contains("\"federation\""), "{m}");
    assert!(m.contains("\"merge_levels\""), "{m}");
    assert!(m.contains("\"covered\": 6"), "{m}");
    for p in [a, b] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn merge_refuses_low_coverage_with_typed_exit_code() {
    let a = run_fed_shard("cov", 0, 2);
    let missing = tmp("fed_cov_missing.journal");
    let _ = std::fs::remove_file(&missing);
    let merge = format!("pool {FED} --merge {} {}", a.display(), missing.display());
    // Default --min-coverage is 1.0: the lost shard refuses.
    let e = cli(&merge).unwrap_err();
    assert_eq!(e.code, exit::COVERAGE);
    assert!(
        e.message.contains("coverage below threshold"),
        "{}",
        e.message
    );
    // Relaxing the threshold lets the merge quarantine and proceed.
    let out = tmp("fed_cov_partial.txt");
    cli(&format!(
        "{merge} --min-coverage 0.5 --out {}",
        out.display()
    ))
    .unwrap();
    assert!(read(&out).contains("# pooled"));
    let _ = std::fs::remove_file(a);
}

#[test]
fn merge_refuses_fingerprint_skew_naming_the_parameter() {
    let a = run_fed_shard("skew", 0, 2);
    let b = run_fed_shard("skew", 1, 2);
    // Same journals, but the merge expects lambda 2.5: identity
    // skew is a hard refusal that names the mismatched flag.
    let skewed = FED.replace("--lambda 2.0", "--lambda 2.5");
    let e = cli(&format!(
        "pool {skewed} --merge {} {}",
        a.display(),
        b.display()
    ))
    .unwrap_err();
    assert_eq!(e.code, exit::CONFIG_MISMATCH);
    assert!(e.message.contains("lambda"), "{}", e.message);
    assert!(e.message.contains("2.5"), "{}", e.message);
    for p in [a, b] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn shard_validates_plan_and_requires_journal() {
    // Shard index outside the plan is a usage error.
    let e = cli(&format!(
        "shard {FED} --shard-index 5 --shards 2 --journal x.journal"
    ))
    .unwrap_err();
    assert_eq!(e.code, exit::USAGE);
    // More shards than windows can never cover the range.
    let e = cli(&format!(
        "shard {FED} --shard-index 0 --shards 7 --journal x.journal"
    ))
    .unwrap_err();
    assert_eq!(e.code, exit::USAGE);
    assert!(e.message.contains("shard"), "{}", e.message);
    // A shard without a journal has nothing to federate.
    let e = cli(&format!("shard {FED} --shard-index 0 --shards 2")).unwrap_err();
    assert_eq!(e.code, exit::USAGE);
    assert!(e.message.contains("--journal"), "{}", e.message);
}

#[test]
fn generate_validates_parameters() {
    let e = cli("generate --core 0.9 --leaves 0.9 --lambda 1.0 --alpha 2.0").unwrap_err();
    assert_eq!(e.code, 2);
    // Missing required options.
    let e = run(&parse(&["generate", "--core", "0.5"])).unwrap_err();
    assert!(e.message.contains("--leaves") || e.message.contains("leaves"));
}

#[test]
fn service_commands_validate_usage() {
    // serve needs the journal directory that makes it crash-tolerant.
    let e = cli(&format!("serve {FED}")).unwrap_err();
    assert_eq!(e.code, exit::USAGE);
    assert!(e.message.contains("--journal-dir"), "{}", e.message);
    // ... and a coverage threshold inside [0,1].
    let e = cli(&format!("serve {FED} --journal-dir d --min-coverage 1.5")).unwrap_err();
    assert_eq!(e.code, exit::USAGE);
    assert!(e.message.contains("min-coverage"), "{}", e.message);
    // submit needs a server address before anything else.
    let e = run(&parse(&["submit"])).unwrap_err();
    assert_eq!(e.code, exit::USAGE);
    assert!(e.message.contains("--server"), "{}", e.message);
    // ... and a journal to submit.
    let e = cli(&format!("submit --server 127.0.0.1:1 {FED}")).unwrap_err();
    assert_eq!(e.code, exit::USAGE);
    assert!(e.message.contains("--journal"), "{}", e.message);
    // A malformed wire-fault spec is refused before any connection.
    let e = cli(&format!(
        "submit --server 127.0.0.1:1 --journal x.journal --wire-faults frob=0.5 {FED}"
    ))
    .unwrap_err();
    assert_eq!(e.code, exit::USAGE);
    assert!(e.message.contains("wire-faults"), "{}", e.message);
    // A zero socket deadline would mean none at all: refused.
    let work_dir = std::env::temp_dir().join("palu-cli-zero-timeout");
    for (cmd, option) in [
        ("serve", "--read-timeout-ms"),
        ("dispatch", "--read-timeout-ms"),
        ("submit", "--io-timeout-ms"),
        ("work", "--io-timeout-ms"),
    ] {
        let e = cli(&format!(
            "{cmd} --server 127.0.0.1:1 --work-dir {} --journal-dir never-created {option} 0 \
             {FED}",
            work_dir.display()
        ))
        .unwrap_err();
        assert_eq!(e.code, exit::USAGE, "{cmd} {option} 0: {}", e.message);
        assert!(e.message.contains(option), "{}", e.message);
    }
    assert!(!Path::new("never-created").exists());
}

#[test]
fn fit_against_unreachable_server_exits_service_unavailable() {
    // A connection-refused fit with an immediate deadline must exit
    // with the service-unreachable code, not a generic runtime error.
    let e = cli(
        "fit --server 127.0.0.1:1 --retry-deadline-ms 1 --backoff-base-ms 1 --backoff-cap-ms 1",
    )
    .unwrap_err();
    assert_eq!(e.code, exit::SERVICE_UNAVAILABLE, "{}", e.message);
}
