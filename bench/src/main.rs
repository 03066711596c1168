//! `bench`: end-to-end and per-layer benchmark of the PALU capture,
//! federation, service and dispatch shapes (see `README.md`).
//!
//! ```text
//! bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! bench --compare PARENT CHANGE
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! line of standard output is its result as one JSON object. Without
//! it, every workload runs in a child process of its own. `--out`
//! appends each run's record (with quartiles and the output digest) to
//! FILE; `--compare` reads two such files and applies the regression
//! check. Human-readable progress and tables go to standard error.

mod compare;
mod harness;
mod probes;
mod run;
mod trace;
mod workloads;

use harness::{Json, WorkDir};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Kind, Size, Spec};

#[global_allocator]
static ALLOCATOR: harness::CountingAlloc = harness::CountingAlloc;

const USAGE: &str = "usage: bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       bench --compare PARENT CHANGE";

/// Seconds of timed samples per run, as `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Kind::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let parent = PathBuf::from(value()?);
                args.compare = Some((parent, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn append(path: &Path, records: &[Json]) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for r in records {
        writeln!(f, "{r}")?;
    }
    f.flush()
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.compare, args.workload) {
        (Some((parent, change)), _) => compare_files(parent, change),
        (None, Some(kind)) => run_one(kind, &args),
        (None, None) => run_all(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        ExitCode::FAILURE
    })
}

fn run_one(kind: Kind, args: &Args) -> Result<ExitCode, String> {
    let spec = Spec::new(kind, Size::of(kind), args.seed);
    let report = run::run(&spec, args.seconds, args.trace)?;
    run::print(&report);
    if let Some(out) = &args.out {
        append(out, &[report.record()]).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    println!("{}", report.result_line());
    Ok(if report.tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, each in a child process of its own so each one's
/// peak heap and allocator state are its own.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let work = WorkDir::new("all").map_err(|e| e.to_string())?;
    let records_path = work.path().join("records.jsonl");
    let mut all_ran = true;
    for kind in Kind::ALL {
        let status = Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&records_path)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("{}: {e}", kind.name()))?;
        all_ran &= status.success();
    }
    let text = std::fs::read_to_string(&records_path).map_err(|e| e.to_string())?;
    let records: Vec<Json> = text.lines().map(Json::parse).collect::<Result<_, _>>()?;
    if let Some(out) = &args.out {
        append(out, &records).map_err(|e| format!("{}: {e}", out.display()))?;
    }

    // The three shapes of the shared capture spec pool the same bytes.
    let digest_of = |name: &str| {
        records
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(name))
            .and_then(|r| r.get("digest"))
            .and_then(Json::as_f64)
    };
    let shared = [Kind::Simulate, Kind::Serve, Kind::Dispatch].map(|k| digest_of(k.name()));
    let cross_shape = shared[0].is_some() && shared.iter().all(|d| *d == shared[0]);
    eprintln!(
        "== cross-shape digest check (simulate, serve, dispatch): {}",
        if cross_shape {
            "identical"
        } else {
            "DIFFERENT"
        }
    );

    let mut attempted = 0.0;
    let mut failed = 0.0;
    let mut correct = all_ran && cross_shape && records.len() == Kind::ALL.len();
    let mut metrics = Vec::new();
    for r in &records {
        let workload = r.get("workload").and_then(Json::as_str).unwrap_or("?");
        attempted += r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        failed += r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        correct &= r.get("correct") == Some(&Json::Bool(true));
        for (name, m) in r.get("metrics").and_then(Json::as_obj).unwrap_or_default() {
            let field = |k| m.get(k).cloned().unwrap_or(Json::Null);
            metrics.push((
                format!("{workload}.{name}"),
                Json::obj([("value", field("value")), ("unit", field("unit"))]),
            ));
        }
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(parent: &Path, change: &Path) -> Result<ExitCode, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let benchmark = Json::parse(&read(Path::new("BENCHMARK.json"))?)?;
    let bounds = compare::bounds(&benchmark)?;
    let parent = compare::records(&read(parent)?)?;
    let change = compare::records(&read(change)?)?;
    let (table, failing) = compare::compare(&bounds, &parent, &change);
    print!("{table}");
    Ok(if failing {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload serve --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(a.workload, Some(Kind::Serve));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(args("--trace 2").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--bogus").is_err());
        assert_eq!(args("").expect("defaults").seconds, DEFAULT_SECONDS);
    }

    /// `BENCHMARK.json` lists exactly the workloads and metrics the
    /// program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let text = std::fs::read_to_string("../BENCHMARK.json")
            .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("list")
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let workloads: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(names("workloads"), workloads);
        let e2e: Vec<String> = run::END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let per_layer = names("per_layer");
        assert_eq!(per_layer.len(), run::PER_LAYER.len());
        for (name, unit) in run::PER_LAYER {
            assert!(
                per_layer.iter().any(|n| n == name),
                "{name} missing from per_layer"
            );
            let entry = doc
                .get("per_layer")
                .and_then(Json::as_arr)
                .and_then(|l| {
                    l.iter()
                        .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                })
                .expect("entry");
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(unit),
                "{name}"
            );
        }
    }
}
