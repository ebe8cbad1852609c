//! `suite` — the pinned four-workload GDPR-storage benchmark.
//!
//! ```text
//! suite --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (what BENCHMARK.json invokes)
//! suite run <workload> [seed=N] [seconds=S]                         same as --trace 0
//! suite trace <workload> [seed=N] [seconds=S]                       same as --trace 1
//! suite all [seed=N] [seconds=S]                                    every workload, untraced then traced
//! suite repeat [n=5] [seconds=S]                                    run-to-run spread against the bounds
//! ```
//!
//! A run prints two lines: a context object (sample counts, host, seed,
//! checks), then the result object
//! `{"correct", "attempted", "failed", "metrics"}`. See the README beside
//! the manifest for what is measured and why.

mod affinity;
mod drive;
mod env;
mod gen;
mod json;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use affinity::CpuPlan;
use gen::Workload;
use json::Json;
use run::{Report, RunConfig};

/// Seconds on the clock when the command line does not say.
const DEFAULT_SECONDS: f64 = 10.0;
/// Stream seed when the command line does not say.
const DEFAULT_SEED: u64 = 42;
/// Set-ups per untraced run; the median set-up time is reported.
const SETUPS: usize = 3;
/// A run that is still going after this long is aborted: nothing the suite
/// does takes a fraction of it, so something hangs.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Where journal, audit and trace files go: under the build directory, which
/// is on a real file system and ignored by git.
fn data_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

fn result_line(report: &Report) -> Json {
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "metrics",
            Json::obj(report.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })),
        ),
    ])
}

/// One run in this process.
fn run_one(workload: Workload, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!(
            "suite: watchdog: still in phase {:?} after {WATCHDOG:?}, aborting; threads:",
            run::phase()
        );
        // Which thread waits in which kernel call, for the bug report.
        for task in std::fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .flatten()
        {
            let read = |file: &str| {
                std::fs::read_to_string(task.path().join(file))
                    .unwrap_or_default()
                    .trim()
                    .to_string()
            };
            eprintln!(
                "  {} wchan={} syscall={}",
                read("comm"),
                read("wchan"),
                read("syscall")
            );
        }
        std::process::exit(3);
    });
    let cfg = RunConfig {
        spec: workload.spec(),
        seed,
        seconds,
        setups: SETUPS,
        plan: CpuPlan::detect(),
        root: data_root(),
    };
    // Before any thread of the stack exists, so that all of them inherit it.
    affinity::raise_priority();
    let report = if traced {
        trace::run_traced(&cfg)
    } else {
        run::run_untraced(&cfg)
    };
    match report {
        Ok(report) => {
            println!("{}", report.info.render());
            println!("{}", result_line(&report).render());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "suite: {}: a correctness check failed (see the context line)",
                    workload.name()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("suite: {}: {e}", workload.name());
            ExitCode::from(2)
        }
    }
}

/// Run this binary again for one workload and parse the result line.
fn child(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed}: exit {:?}; last line {last:?}",
            workload.name(),
            out.status.code()
        ));
    }
    Json::parse(last)
        .map_err(|e| format!("{} seed {seed}: unreadable result: {e}", workload.name()))
}

/// `suite all`: a child per workload and mode, merged into one object.
fn run_all(seed: u64, seconds: f64) -> ExitCode {
    let mut merged = Vec::new();
    let mut ok = true;
    for workload in Workload::ALL {
        let mut modes = Vec::new();
        for (label, traced) in [("end_to_end", false), ("per_layer", true)] {
            match child(workload, seed, seconds, traced) {
                Ok(result) => modes.push((label, result)),
                Err(e) => {
                    eprintln!("suite: {e}");
                    ok = false;
                }
            }
        }
        merged.push((workload.name(), Json::obj(modes)));
    }
    println!("{}", Json::obj(merged).render());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The regression bounds of `BENCHMARK.json` in the working directory.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .ok_or("BENCHMARK.json: no end_to_end")?;
    metrics
        .items()
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: an end_to_end entry lacks name or bound".to_string())
}

/// `suite repeat`: every workload `n` times on `n` seeds; per metric the
/// median, the quartiles and the spread (IQR / median). Fails if a spread
/// exceeds the metric's bound — except `setup_s`, which the contract holds
/// to its bound by median only.
fn repeat(n: u64, seconds: f64) -> ExitCode {
    if n < 2 {
        eprintln!("suite: repeat needs n >= 2");
        return ExitCode::from(2);
    }
    let bounds = match bounds() {
        Ok(bounds) => bounds,
        Err(e) => {
            eprintln!("suite: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let mut values: Vec<(String, Vec<f64>)> = bounds
            .iter()
            .map(|(name, _)| (name.clone(), Vec::new()))
            .collect();
        for i in 0..n {
            match child(workload, DEFAULT_SEED + i, seconds, false) {
                Ok(result) => {
                    for (name, series) in &mut values {
                        match result
                            .get("metrics")
                            .and_then(|m| m.get(name))
                            .and_then(|m| m.get("value"))
                            .and_then(Json::as_f64)
                        {
                            Some(v) => series.push(v),
                            None => {
                                eprintln!("suite: {}: no metric {name}", workload.name());
                                ok = false;
                            }
                        }
                    }
                }
                Err(e) => {
                    eprintln!("suite: {e}");
                    ok = false;
                }
            }
        }
        for ((name, series), (_, bound)) in values.iter().zip(&bounds) {
            if series.len() < 2 {
                continue;
            }
            let [q1, q2, q3] = stats::quartiles(series);
            let spread = stats::relative_spread(series);
            let within = spread <= *bound || name == "setup_s";
            ok &= within;
            println!(
                "{}",
                Json::obj([
                    ("workload", Json::Str(workload.name().to_string())),
                    ("metric", Json::Str(name.clone())),
                    ("runs", Json::Num(series.len() as f64)),
                    ("median", Json::Num(stats::median_f64(series))),
                    (
                        "quartiles",
                        Json::Arr(vec![Json::Num(q1), Json::Num(q2), Json::Num(q3)])
                    ),
                    ("spread", Json::Num(spread)),
                    ("bound", Json::Num(*bound)),
                    ("within_bound", Json::Bool(within)),
                ])
                .render()
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--flag value` and `key=value` arguments alike.
fn arg(args: &[String], key: &str) -> Option<String> {
    let flag = format!("--{key}");
    let prefix = format!("{key}=");
    args.iter().enumerate().find_map(|(i, a)| {
        if *a == flag {
            args.get(i + 1).cloned()
        } else {
            a.strip_prefix(&prefix).map(str::to_string)
        }
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: suite --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         suite run|trace <workload> [seed=N] [seconds=S]\n       \
         suite all [seed=N] [seconds=S]\n       \
         suite repeat [n=5] [seconds=S]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let number = |key: &str, default: f64| match arg(&args, key) {
        None => Some(default),
        Some(text) => text
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0),
    };
    let (Some(seed), Some(seconds), Some(n)) = (
        number("seed", DEFAULT_SEED as f64),
        number("seconds", DEFAULT_SECONDS),
        number("n", 5.0),
    ) else {
        return usage();
    };
    let seed = seed as u64;
    let command = args.first().map(String::as_str);
    match command {
        Some("all") => run_all(seed, seconds),
        Some("repeat") => repeat(n as u64, seconds),
        _ => {
            let (name, traced) = match command {
                Some("run") => (args.get(1).cloned(), false),
                Some("trace") => (args.get(1).cloned(), true),
                _ => (
                    arg(&args, "workload"),
                    arg(&args, "trace").as_deref() == Some("1"),
                ),
            };
            match name.as_deref().and_then(Workload::parse) {
                Some(workload) if seconds > 0.0 => run_one(workload, seed, seconds, traced),
                _ => usage(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn tiny(workload: Workload, seed: u64, tag: &str) -> RunConfig {
        RunConfig {
            spec: workload.spec().tiny(),
            seed,
            seconds: 0.05,
            setups: 1,
            // Affinity is per thread, so pinning this test's threads leaves the
            // other tests alone. Pinned, every thread shares a CPU and the
            // reactor's lost-wake-up race is as rare as in a real run;
            // unpinned it strikes every few hundred requests.
            plan: CpuPlan::detect(),
            root: std::env::temp_dir().join(format!("suite-test-{}-{tag}", std::process::id())),
        }
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the suite"))
            .unwrap()
    }

    fn listed(doc: &Json, section: &str) -> BTreeSet<(String, String)> {
        doc.get(section)
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    fn emitted(report: &Report) -> BTreeSet<(String, String)> {
        report
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    fn plain(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn every_workload_emits_exactly_the_listed_metrics_and_passes_its_checks() {
        let doc = benchmark_json();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        for workload in Workload::ALL {
            let untraced = run::run_untraced(&tiny(workload, 42, "u")).unwrap();
            assert!(
                untraced.correct,
                "{}: {}",
                workload.name(),
                untraced.info.render()
            );
            assert!(untraced.attempted > 0);
            assert_eq!(
                emitted(&untraced),
                listed(&doc, "end_to_end"),
                "{}",
                workload.name()
            );
            let traced = trace::run_traced(&tiny(workload, 42, "t")).unwrap();
            assert!(
                traced.correct,
                "{}: {}",
                workload.name(),
                traced.info.render()
            );
            assert_eq!(
                emitted(&traced),
                listed(&doc, "per_layer"),
                "{}",
                workload.name()
            );
            for metric in untraced.metrics.iter().chain(&traced.metrics) {
                assert!(plain(metric.name), "{}", metric.name);
                assert!(
                    metric.value.is_finite(),
                    "{} = {}",
                    metric.name,
                    metric.value
                );
            }
            assert!(Json::parse(&result_line(&untraced).render()).is_ok());
        }
    }

    #[test]
    fn same_seed_same_outcome_hash_other_seed_other_hash() {
        let hash = |seed: u64, tag: &str| {
            let report = run::run_untraced(&tiny(Workload::RightsTcp, seed, tag)).unwrap();
            assert!(report.correct, "{}", report.info.render());
            report
                .info
                .get("outcome_hash")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        };
        let a = hash(42, "h1");
        assert_eq!(a, hash(42, "h2"));
        assert_ne!(a, hash(7, "h3"));
    }

    #[test]
    fn arguments_come_as_flags_or_pairs() {
        let args: Vec<String> = ["--workload", "rights-tcp", "--seed", "7", "seconds=2.5"]
            .map(String::from)
            .to_vec();
        assert_eq!(arg(&args, "workload").as_deref(), Some("rights-tcp"));
        assert_eq!(arg(&args, "seed").as_deref(), Some("7"));
        assert_eq!(arg(&args, "seconds").as_deref(), Some("2.5"));
        assert_eq!(arg(&args, "trace"), None);
    }
}
