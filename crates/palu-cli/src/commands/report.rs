//! Every JSON document the commands write: the `--metrics` files of
//! the capture, merge and service commands, and the sections they
//! share. Shard and fault rows keep shard/window order, so each
//! document is deterministic apart from its timings.

use crate::json::JsonValue;
use palu_traffic::{FaultReport, MetricsSnapshot};

/// Serialize a pipeline metrics snapshot as a JSON object: per-stage
/// wall-times in nanoseconds, the capture and set-up wall-times, plus
/// packet/window/thread counters. Shared by `simulate --metrics` and
/// the palu-bench binaries.
pub fn metrics_json(snap: &MetricsSnapshot) -> JsonValue {
    let stages = JsonValue::obj(snap.stages().iter().map(|&(name, ns)| (name, ns.into())));
    JsonValue::obj([
        ("stage_ns", stages),
        ("total_stage_ns", snap.total_ns().into()),
        ("capture_wall_ns", snap.capture_wall_ns.into()),
        ("setup_ns", snap.setup_ns.into()),
        ("packets", snap.packets.into()),
        ("packets_per_sec", snap.packets_per_sec().into()),
        ("windows", snap.windows.into()),
        ("threads", snap.threads.into()),
        ("retries", snap.retries.into()),
        ("quarantined", snap.quarantined.into()),
    ])
}

/// Serialize a [`FaultReport`] as a JSON object: headline counters,
/// per-window fault records (window order, so the document is
/// deterministic for a given seed and injection spec), the
/// fit-restart ladder's rung histogram, and the budget governor's
/// degradation events (empty unless a memory budget was set).
fn fault_report_json(report: &FaultReport) -> JsonValue {
    let records = JsonValue::array(report.records.iter().map(|r| {
        JsonValue::obj([
            ("window", r.window.into()),
            ("kind", r.kind.name().into()),
            ("attempts", r.attempts.into()),
            ("outcome", r.outcome.name().into()),
        ])
    }));
    let ladder = report.ladder.entries();
    let ladder = JsonValue::obj(ladder.into_iter().map(|(name, n)| (name, n.into())));
    let degradations = JsonValue::array(report.degradations.iter().map(|d| {
        JsonValue::obj([
            ("rung", d.rung.name().into()),
            ("window", d.window.into()),
            ("accounted_bytes", d.accounted_bytes.into()),
        ])
    }));
    JsonValue::obj([
        ("windows", report.windows.into()),
        ("survivors", report.survivors.into()),
        ("quarantined", report.quarantined.into()),
        ("substituted", report.substituted.into()),
        ("recovered", report.recovered.into()),
        ("injected", report.injected.into()),
        ("retries", report.retries.into()),
        ("records", records),
        ("ladder", ladder),
        ("degradations", degradations),
    ])
}

/// A capture or merge document: the metrics counters, then the
/// command's `sections` in order, then `fault_report` last — so a
/// slice from `"fault_report"` on (the ci.sh crash-recovery diff)
/// compares identical bytes for a resumed and an uninterrupted run.
pub(super) fn capture_json(
    snap: &MetricsSnapshot,
    sections: Vec<(&str, JsonValue)>,
    report: &FaultReport,
) -> JsonValue {
    let mut doc = metrics_json(snap);
    if let JsonValue::Object(pairs) = &mut doc {
        let sections = sections.into_iter().map(|(k, v)| (k.to_string(), v));
        pairs.extend(sections);
        pairs.push(("fault_report".to_string(), fault_report_json(report)));
    }
    doc
}

/// The `budget` section: the watermarks, the admission estimate
/// against the accounted peak, and how often each degradation rung
/// engaged.
pub(super) fn budget_json(
    budget: &palu_traffic::ResourceBudget,
    snap: &MetricsSnapshot,
    report: &FaultReport,
) -> JsonValue {
    let mut rungs = [0u64; 3];
    for d in &report.degradations {
        rungs[usize::from(d.rung.code())] += 1;
    }
    JsonValue::obj([
        ("limit", budget.hard().unwrap_or(0).into()),
        ("soft", budget.soft().unwrap_or(0).into()),
        (
            "admission_estimate_bytes",
            snap.admission_estimate_bytes.into(),
        ),
        ("peak_accounted_bytes", snap.peak_accounted_bytes.into()),
        ("degradations", snap.budget_degradations.into()),
        ("coarsen_bins", rungs[0].into()),
        ("shrink_workers", rungs[1].into()),
        ("spill_pooled", rungs[2].into()),
    ])
}

/// The `journal` section: what a resume replayed, and the bytes this
/// run appended.
pub(super) fn journal_json(snap: &MetricsSnapshot, bytes_appended: u64) -> JsonValue {
    JsonValue::obj([
        ("windows_recovered", snap.windows_recovered.into()),
        ("bytes_replayed", snap.journal_bytes_replayed.into()),
        ("torn_records_dropped", snap.journal_torn_dropped.into()),
        ("bytes_appended", bytes_appended.into()),
    ])
}

/// The `shard` section: which window range of the plan a shard
/// captured.
pub(super) fn shard_json(
    index: u64,
    shards: u64,
    range: &palu_traffic::ShardRange,
    bytes_appended: u64,
) -> JsonValue {
    JsonValue::obj([
        ("index", index.into()),
        ("shards", shards.into()),
        ("lo", range.lo.into()),
        ("hi", range.hi.into()),
        ("bytes_appended", bytes_appended.into()),
    ])
}

/// The torn-tail counters crash recovery leaves on every per-shard
/// row and roll-up.
fn torn(records: u64, bytes: u64) -> [(&'static str, JsonValue); 2] {
    [
        ("torn_records_dropped", records.into()),
        ("torn_bytes_dropped", bytes.into()),
    ]
}

/// Serialize a [`palu_traffic::FederationReport`] as a JSON object:
/// coverage arithmetic, per-shard accounting rows, and the typed
/// shard-fault list (all in shard order, so the document is
/// deterministic).
pub(super) fn federation_json(report: &palu_traffic::FederationReport) -> JsonValue {
    let shards = JsonValue::array(report.shards.iter().map(|s| {
        let counts = [
            ("shard", s.shard),
            ("lo", s.lo),
            ("hi", s.hi),
            ("journaled", s.journaled),
            ("accepted", s.accepted),
            ("survivors", s.survivors),
            ("quarantined", s.quarantined),
            ("injected", s.injected),
            ("retries", s.retries),
            ("stalled", s.stalled),
            ("missing", s.missing),
        ];
        let counts = counts.into_iter().map(|(k, v)| (k, v.into()));
        JsonValue::obj(
            counts
                .chain(torn(s.torn_records_dropped, s.torn_bytes_dropped))
                .chain([("quarantined_shard", s.quarantined_shard.into())]),
        )
    }));
    let faults = JsonValue::array(report.faults.iter().map(|f| {
        JsonValue::obj([
            ("shard", f.shard().into()),
            ("kind", f.name().into()),
            ("detail", f.to_string().into()),
        ])
    }));
    let torn_records = report.shards.iter().map(|s| s.torn_records_dropped).sum();
    let torn_bytes = report.shards.iter().map(|s| s.torn_bytes_dropped).sum();
    let head = [
        ("windows", report.windows.into()),
        ("covered", report.covered.into()),
        ("missing", report.missing.into()),
        ("recaptured", report.recaptured.into()),
        ("survivors", report.survivors.into()),
        ("min_coverage", report.min_coverage.into()),
        ("merge_levels", report.merge_levels.into()),
        ("duplicates_removed", report.duplicates_removed.into()),
    ];
    JsonValue::obj(
        head.into_iter()
            .chain(torn(torn_records, torn_bytes))
            .chain([
                ("shard_count", report.shards.len().into()),
                ("shards", shards),
                ("faults", faults),
            ]),
    )
}

/// Serialize a [`palu_traffic::ServiceReport`] as a JSON object:
/// coverage and submission accounting, per-shard rows — including the
/// per-shard torn-tail drop counts from crash recovery — and the
/// typed service-fault rows.
pub(super) fn service_json(report: &palu_traffic::ServiceReport) -> JsonValue {
    let shards = JsonValue::array(report.shard_rows.iter().map(|s| {
        let row = [
            ("shard", s.shard.into()),
            ("lo", s.lo.into()),
            ("hi", s.hi.into()),
            ("persisted", s.persisted.into()),
        ];
        JsonValue::obj(
            row.into_iter()
                .chain(torn(s.torn_records_dropped, s.torn_bytes_dropped)),
        )
    }));
    let faults = JsonValue::array(report.faults.iter().map(|f| {
        JsonValue::obj([
            ("kind", f.name.into()),
            ("code", u64::from(f.code).into()),
            ("detail", f.detail.clone().into()),
        ])
    }));
    let head = [
        ("windows", report.windows.into()),
        ("covered", report.covered.into()),
        ("min_coverage", report.min_coverage.into()),
        ("submissions", report.submissions.into()),
        ("frames_accepted", report.frames_accepted.into()),
        ("duplicates", report.duplicates.into()),
        ("rejected", report.rejected.into()),
        ("fits_served", report.fits_served.into()),
    ];
    let torn = torn(report.torn_records_dropped, report.torn_bytes_dropped);
    JsonValue::obj(head.into_iter().chain(torn).chain([
        ("shard_count", report.shards.into()),
        ("shards", shards),
        ("faults", faults),
    ]))
}

/// Serialize a [`palu_traffic::DispatchReport`] as a JSON object:
/// lease counters, the typed supervision events in arrival order, and
/// the dispatcher's own fault report (kind codes 10–14) — kept
/// separate from the merged capture's report, which stays
/// bit-identical to a single-process run.
pub(super) fn dispatch_json(report: &palu_traffic::DispatchReport) -> JsonValue {
    let events = JsonValue::array(report.events.iter().map(|e| {
        JsonValue::obj([
            ("kind", e.kind().name().into()),
            ("code", u64::from(e.kind().code()).into()),
            ("detail", e.to_string().into()),
        ])
    }));
    JsonValue::obj([
        ("shards", report.shards.into()),
        ("windows", report.windows.into()),
        ("shards_done", report.shards_done.into()),
        ("leases_granted", report.leases_granted.into()),
        ("leases_expired", report.leases_expired.into()),
        ("leases_fenced", report.leases_fenced.into()),
        ("leases_redispatched", report.leases_redispatched.into()),
        ("heartbeats", report.heartbeats.into()),
        ("stalled", report.stalled.into()),
        ("events", events),
        ("faults", fault_report_json(&report.faults)),
    ])
}

/// The `fit --server --metrics` document: the served snapshot's
/// coverage and the torn tails each shard's recovery dropped.
pub(super) fn fit_json(snap: &palu_traffic::FitSnapshot) -> JsonValue {
    let shard_torn = JsonValue::array(snap.shard_torn.iter().map(|row| {
        let shard = [("shard", row.shard.into())];
        JsonValue::obj(
            shard
                .into_iter()
                .chain(torn(row.torn_records_dropped, row.torn_bytes_dropped)),
        )
    }));
    JsonValue::obj([(
        "fit",
        JsonValue::obj([
            ("windows", snap.windows.into()),
            ("covered", snap.covered.into()),
            ("min_coverage", snap.min_coverage.into()),
            ("partial", snap.partial.into()),
            ("survivors", snap.survivors.into()),
            ("quarantined", snap.quarantined.into()),
            ("pooled_windows", snap.pooled_windows.into()),
            ("shard_torn", shard_torn),
        ]),
    )])
}

#[cfg(test)]
mod tests {
    //! The `--metrics` documents pinned across refactors of the command
    //! layer: each document's key sequence, and for capture documents
    //! the exact text from `"fault_report"` on (the slice ci.sh's crash
    //! recovery smoke diffs). Timings vary run to run; keys and the
    //! fault report do not. The pins were computed on the command
    //! layer before it was split into per-family files; the one
    //! document that moved since is `shard`'s, which became
    //! `simulate`'s plus its `shard` section.

    use crate::args::parse_args;
    use crate::commands::run;
    use std::path::{Path, PathBuf};

    /// Run one command line of whitespace-separated tokens.
    fn cli(line: &str) {
        let args = parse_args(line.split_whitespace().map(str::to_string)).unwrap();
        if let Err(e) = run(&args) {
            panic!("{line}: exit {}: {}", e.code, e.message);
        }
    }

    /// A fresh scratch directory for one test.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("palu-cli-pins").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn read(path: &Path) -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// Every key of a pretty-printed document, one per line, indented
    /// two spaces per nesting level below the top.
    fn keys(doc: &str) -> String {
        doc.lines()
            .filter_map(|line| {
                let key = line.trim_start();
                let depth = (line.len() - key.len()) / 2;
                let key = key.strip_prefix('"')?.split_once("\":")?.0;
                Some(format!("{}{key}\n", "  ".repeat(depth.saturating_sub(1))))
            })
            .collect()
    }

    /// The document from its `"fault_report"` line on, as ci.sh's
    /// `sed -n '/"fault_report"/,$p'` slices it.
    fn fault_tail(doc: &str) -> &str {
        let at = doc.find("\"fault_report\"").expect("a fault report");
        &doc[doc[..at].rfind('\n').map_or(0, |i| i + 1)..]
    }

    const SPEC: &str = "--core 0.5 --leaves 0.2 --lambda 2.0 --alpha 2.0 --nodes 20000 \
                        --nv 10000 --windows 6 --seed 9";
    const FED: &str = "--core 0.5 --leaves 0.2 --lambda 2.0 --alpha 2.0 --nodes 20000 \
                       --nv 10000 --windows 12 --seed 7 --fail-policy quarantine \
                       --max-retries 1";

    const COUNTERS: &str = "\
stage_ns
  synthesize
  window
  histogram
  bin
  merge
total_stage_ns
capture_wall_ns
setup_ns
packets
packets_per_sec
windows
threads
retries
quarantined
";

    const JOURNAL: &str = "\
journal
  windows_recovered
  bytes_replayed
  torn_records_dropped
  bytes_appended
";

    /// `fault_report`'s keys, with `records` and `degradations` rows
    /// spliced in.
    fn fault_keys(records: usize, degradations: usize) -> String {
        format!(
            "fault_report\n  windows\n  survivors\n  quarantined\n  substituted\n  recovered\n  \
             injected\n  retries\n  records\n{}  ladder\n    primary\n    perturbed\n    \
             profile\n    fallback\n  degradations\n{}",
            "      window\n      kind\n      attempts\n      outcome\n".repeat(records),
            "      rung\n      window\n      accounted_bytes\n".repeat(degradations)
        )
    }

    /// A clean capture's fault report over `windows` windows.
    fn clean_tail(windows: u64) -> String {
        format!(
            r#"  "fault_report": {{
    "windows": {windows},
    "survivors": {windows},
    "quarantined": 0,
    "substituted": 0,
    "recovered": 0,
    "injected": 0,
    "retries": 0,
    "records": [],
    "ladder": {{
      "primary": 0,
      "perturbed": 0,
      "profile": 0,
      "fallback": 0
    }},
    "degradations": []
  }}
}}
"#
        )
    }

    #[test]
    fn simulate_metrics_documents_are_pinned() {
        let dir = scratch("simulate");
        let m = dir.join("plain.json");
        cli(&format!(
            "simulate {SPEC} --metrics {} --out {}",
            m.display(),
            dir.join("plain.txt").display()
        ));
        let plain = read(&m);
        assert_eq!(keys(&plain), format!("{COUNTERS}{}", fault_keys(0, 0)));
        assert_eq!(fault_tail(&plain), clean_tail(6));

        // Journaled, then resumed from a journal torn in half.
        let journal = dir.join("capture.journal");
        let m = dir.join("journal.json");
        cli(&format!(
            "simulate {SPEC} --journal {} --metrics {} --out {}",
            journal.display(),
            m.display(),
            dir.join("journal.txt").display()
        ));
        let journaled = read(&m);
        assert_eq!(
            keys(&journaled),
            format!("{COUNTERS}{JOURNAL}{}", fault_keys(0, 0))
        );
        assert_eq!(fault_tail(&journaled), clean_tail(6));
        let bytes = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &bytes[..bytes.len() / 2]).unwrap();
        let m = dir.join("resume.json");
        cli(&format!(
            "simulate {SPEC} --journal {} --resume --metrics {} --out {}",
            journal.display(),
            m.display(),
            dir.join("resume.txt").display()
        ));
        let resumed = read(&m);
        assert_eq!(
            keys(&resumed),
            format!("{COUNTERS}{JOURNAL}{}", fault_keys(0, 0))
        );
        assert_eq!(fault_tail(&resumed), clean_tail(6));
    }

    #[test]
    fn budgeted_simulate_metrics_document_is_pinned() {
        let dir = scratch("budget");
        let m = dir.join("budget.json");
        cli(&format!(
            "simulate {SPEC} --threads 4 --memory-budget 1600000 --metrics {} --out {}",
            m.display(),
            dir.join("budget.txt").display()
        ));
        let doc = read(&m);
        assert_eq!(
            keys(&doc),
            format!(
                "{COUNTERS}budget\n  limit\n  soft\n  admission_estimate_bytes\n  \
                 peak_accounted_bytes\n  degradations\n  coarsen_bins\n  shrink_workers\n  \
                 spill_pooled\n{}",
                fault_keys(0, 3)
            )
        );
        let rung = |name: &str| {
            format!(
                "      {{\n        \"rung\": \"{name}\",\n        \"window\": 1,\n        \
                 \"accounted_bytes\": 1339220\n      }}"
            )
        };
        let degradations = format!(
            "    \"degradations\": [\n{},\n{},\n{}\n    ]\n",
            rung("coarsen_bins"),
            rung("shrink_workers"),
            rung("spill_pooled")
        );
        let tail = clean_tail(6).replace("    \"degradations\": []\n", &degradations);
        assert_eq!(fault_tail(&doc), tail);
    }

    #[test]
    fn injected_simulate_metrics_document_is_pinned() {
        let dir = scratch("inject");
        let m = dir.join("inject.json");
        cli(&format!("simulate {SPEC} --inject-faults truncate=0.4,dup=0.1 --fail-policy quarantine --metrics {} --out {}", m.display(), dir.join("inject.txt").display()));
        let doc = read(&m);
        assert_eq!(keys(&doc), format!("{COUNTERS}{}", fault_keys(2, 0)));
        assert_eq!(
            fault_tail(&doc),
            r#"  "fault_report": {
    "windows": 6,
    "survivors": 6,
    "quarantined": 0,
    "substituted": 0,
    "recovered": 2,
    "injected": 2,
    "retries": 2,
    "records": [
      {
        "window": 0,
        "kind": "truncated",
        "attempts": 2,
        "outcome": "recovered"
      },
      {
        "window": 3,
        "kind": "truncated",
        "attempts": 2,
        "outcome": "recovered"
      }
    ],
    "ladder": {
      "primary": 1,
      "perturbed": 0,
      "profile": 0,
      "fallback": 0
    },
    "degradations": []
  }
}
"#
        );
    }

    /// Capture the `FED` spec as three shard journals under `dir`.
    fn shard_journals(dir: &Path) -> Vec<PathBuf> {
        (0..3)
            .map(|i| {
                let journal = dir.join(format!("shard{i}.journal"));
                cli(&format!(
                    "shard {FED} --shard-index {i} --shards 3 --journal {} --out {}",
                    journal.display(),
                    dir.join(format!("shard{i}.txt")).display()
                ));
                journal
            })
            .collect()
    }

    const FEDERATION_SHARD_ROW: &str = "      shard\n      lo\n      hi\n      journaled\n      \
        accepted\n      survivors\n      quarantined\n      injected\n      retries\n      \
        stalled\n      missing\n      torn_records_dropped\n      torn_bytes_dropped\n      \
        quarantined_shard\n";

    #[test]
    fn merge_metrics_document_is_pinned() {
        let dir = scratch("merge");
        let journals = shard_journals(&dir);
        let m = dir.join("merge.json");
        cli(&format!(
            "pool {FED} --merge {} {} {} --metrics {} --out {}",
            journals[0].display(),
            journals[1].display(),
            journals[2].display(),
            m.display(),
            dir.join("merge.txt").display()
        ));
        let doc = read(&m);
        assert_eq!(
            keys(&doc),
            format!(
                "{COUNTERS}federation\n  windows\n  covered\n  missing\n  recaptured\n  \
                 survivors\n  min_coverage\n  merge_levels\n  duplicates_removed\n  \
                 torn_records_dropped\n  torn_bytes_dropped\n  shard_count\n  shards\n{}  \
                 faults\n{}",
                FEDERATION_SHARD_ROW.repeat(3),
                fault_keys(0, 0)
            )
        );
        assert_eq!(fault_tail(&doc), clean_tail(12));
    }

    /// `shard`'s document is `simulate`'s plus a `shard` section.
    #[test]
    fn shard_metrics_document_is_pinned() {
        let dir = scratch("shard");
        let m = dir.join("shard.json");
        cli(&format!(
            "shard {FED} --shard-index 1 --shards 3 --journal {} --metrics {} --out {}",
            dir.join("shard1.journal").display(),
            m.display(),
            dir.join("shard1.txt").display()
        ));
        let doc = read(&m);
        assert_eq!(
            keys(&doc),
            format!(
                "{COUNTERS}{JOURNAL}shard\n  index\n  shards\n  lo\n  hi\n  bytes_appended\n{}",
                fault_keys(0, 0)
            )
        );
        assert!(doc.contains("\"lo\": 4,\n    \"hi\": 8,"), "{doc}");
        assert_eq!(fault_tail(&doc), clean_tail(4));
    }

    /// Wait for a server's `--addr-file`.
    fn addr_of(file: &Path) -> String {
        for _ in 0..500 {
            if let Ok(addr) = std::fs::read_to_string(file) {
                if addr.ends_with('\n') {
                    return addr.trim().to_string();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        panic!("{} never written", file.display());
    }

    const SERVICE: &str = "service\n  windows\n  covered\n  min_coverage\n  submissions\n  \
        frames_accepted\n  duplicates\n  rejected\n  fits_served\n  torn_records_dropped\n  \
        torn_bytes_dropped\n  shard_count\n  shards\n";
    const SERVICE_SHARD_ROW: &str = "      shard\n      lo\n      hi\n      persisted\n      \
        torn_records_dropped\n      torn_bytes_dropped\n";
    const FIT: &str = "fit\n  windows\n  covered\n  min_coverage\n  partial\n  survivors\n  \
        quarantined\n  pooled_windows\n  shard_torn\n";
    const FIT_SHARD_ROW: &str = "      shard\n      torn_records_dropped\n      \
        torn_bytes_dropped\n";

    #[test]
    fn serve_and_served_fit_metrics_documents_are_pinned() {
        let dir = scratch("serve");
        let journals = shard_journals(&dir);
        let (addr_file, serve_m) = (dir.join("addr"), dir.join("serve.json"));
        let line = format!(
            "serve {FED} --shards 3 --journal-dir {} --addr-file {} --metrics {}",
            dir.join("journals").display(),
            addr_file.display(),
            serve_m.display()
        );
        let server = std::thread::spawn(move || cli(&line));
        let addr = addr_of(&addr_file);
        for (i, journal) in journals.iter().enumerate() {
            cli(&format!(
                "submit {FED} --server {addr} --journal {} --shard-index {i} --shards 3",
                journal.display()
            ));
        }
        let fit_m = dir.join("fit.json");
        cli(&format!(
            "fit --server {addr} --metrics {} --out {}",
            fit_m.display(),
            dir.join("fit.txt").display()
        ));
        cli(&format!("submit --server {addr} --shutdown"));
        server.join().unwrap();
        assert_eq!(
            keys(&read(&fit_m)),
            format!("{FIT}{}", FIT_SHARD_ROW.repeat(3))
        );
        assert_eq!(
            keys(&read(&serve_m)),
            format!("{SERVICE}{}  faults\n", SERVICE_SHARD_ROW.repeat(3))
        );
    }

    #[test]
    fn dispatch_metrics_document_is_pinned() {
        let dir = scratch("dispatch");
        let (addr_file, m) = (dir.join("addr"), dir.join("dispatch.json"));
        let line = format!(
            "dispatch {FED} --shards 2 --journal-dir {} --addr-file {} --metrics {} --linger",
            dir.join("journals").display(),
            addr_file.display(),
            m.display()
        );
        let dispatcher = std::thread::spawn(move || cli(&line));
        let addr = addr_of(&addr_file);
        cli(&format!(
            "work {FED} --server {addr} --worker 0 --work-dir {}",
            dir.join("work").display()
        ));
        let fit_m = dir.join("fit.json");
        cli(&format!(
            "fit --server {addr} --metrics {} --out {}",
            fit_m.display(),
            dir.join("fit.txt").display()
        ));
        cli(&format!("submit --server {addr} --shutdown"));
        dispatcher.join().unwrap();
        assert_eq!(
            keys(&read(&m)),
            format!(
                "dispatch\n  shards\n  windows\n  shards_done\n  leases_granted\n  \
                 leases_expired\n  leases_fenced\n  leases_redispatched\n  heartbeats\n  \
                 stalled\n  events\n  faults\n    windows\n    survivors\n    quarantined\n    \
                 substituted\n    recovered\n    injected\n    retries\n    records\n    \
                 ladder\n      primary\n      perturbed\n      profile\n      fallback\n    \
                 degradations\n{SERVICE}{}  faults\n",
                SERVICE_SHARD_ROW.repeat(2)
            )
        );
        assert_eq!(
            keys(&read(&fit_m)),
            format!("{FIT}{}", FIT_SHARD_ROW.repeat(2))
        );
    }
}
