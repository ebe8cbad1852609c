//! The untraced run: set-up, the measured closed loop, the end-to-end
//! metrics and the correctness checks.

use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Instant;

use audit::sink::NullSink;
use gdpr_core::store::GdprStore;

use crate::affinity::{CpuPlan, SERVER_CPUS};
use crate::drive::{exec_tcp, Conns, CoreCaller, Recorder, SpanLog, HASH_PREFIX};
use crate::env::{audit_path, engine_config, policy_of, Env};
use crate::gen::{key_name, value, KvLane, Spec, Stream, Workload, LANES};
use crate::json::Json;
use crate::stats::{delta, median_f64, percentile, percentile_sorted, process_cpu_ns, ratio};

/// What the run is doing, for the watchdog's last words.
static PHASE: std::sync::Mutex<&'static str> = std::sync::Mutex::new("start");

/// Note the phase the run enters.
pub fn enter(phase: &'static str) {
    *PHASE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = phase;
}

/// The phase last entered.
pub fn phase() -> &'static str {
    *PHASE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The measured loop gives up once its wall time passes this multiple of
/// the seconds it was asked to put on the clock: waves that time out put
/// nothing on the clock, so a wedged server would otherwise never end it.
const OVERRUN_FACTOR: f64 = 3.0;

/// Keys (or subjects) read back after the run.
const READBACK: usize = 1_000;
/// Erased subjects re-queried after `rights-tcp`.
const ERASED_CHECKED: usize = 200;

/// Everything that parameterises one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Sizes and shape.
    pub spec: Spec,
    /// Stream seed.
    pub seed: u64,
    /// Time on the clock for the measured phase.
    pub seconds: f64,
    /// How many times the stack is set up (the median set-up time is
    /// reported; the last stack is the one measured).
    pub setups: usize,
    /// The CPU the run is confined to.
    pub plan: CpuPlan,
    /// Where journal, audit and trace files go.
    pub root: PathBuf,
}

impl RunConfig {
    /// Directory of one stack of this process.
    pub fn dir(&self, tag: &str) -> PathBuf {
        self.root.join(format!(
            "{}-{}-{tag}",
            self.spec.workload.name(),
            std::process::id()
        ))
    }
}

/// A metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// One named correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// Numbers behind the verdict.
    pub detail: String,
}

impl Check {
    fn new(name: &'static str, pass: bool, detail: String) -> Check {
        Check { name, pass, detail }
    }
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed and no op failed.
    pub correct: bool,
    /// Ops issued in the measured phase.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The metrics of the mode that ran.
    pub metrics: Vec<Metric>,
    /// Context: sample counts, host, seed, checks.
    pub info: Json,
}

/// A stack that is loaded, connected and warmed up.
pub struct Ready {
    /// The stack.
    pub env: Env,
    /// The stream, past its warm-up chunks.
    pub stream: Stream,
    /// The generator's connections (TCP workloads).
    pub conns: Option<Conns>,
    /// Open + server start + load + warm-up, in seconds.
    pub setup_s: f64,
}

impl Ready {
    /// If `rec` has seen a new stalled wave (see [`crate::drive::STALL`]),
    /// replace the server: once the reactor has lost a wake-up, every later
    /// reply waits for its one-second sweep, so nothing more could be
    /// measured on it. The stall stays counted in the recorder.
    pub fn recover_if_stalled(&mut self, rec: &Recorder, seen: &mut usize) -> Result<(), String> {
        if rec.stalled_waves() == *seen {
            return Ok(());
        }
        *seen = rec.stalled_waves();
        let conns = self.conns.as_mut().ok_or("stall without connections")?;
        conns.hang_up();
        let addr = self.env.restart_server()?;
        conns.move_to(addr)
    }
}

/// Open, load, connect and warm up one stack under `dir(tag)`.
pub fn setup(cfg: &RunConfig, tag: &str) -> Result<Ready, String> {
    let started = Instant::now();
    enter("set-up: open");
    let env = Env::open(&cfg.spec, &cfg.dir(tag))?;
    enter("set-up: load");
    env.load(cfg.seed)?;
    enter("set-up: warm-up");
    let conns = match &env.server {
        Some(server) => Some(Conns::connect(server.local_addr(), None)?),
        None => None,
    };
    let mut ready = Ready {
        env,
        stream: Stream::new(&cfg.spec, cfg.seed),
        conns,
        setup_s: 0.0,
    };
    let mut rec = Recorder::default();
    let mut stalls_seen = 0;
    while rec.tally.attempted < cfg.spec.warm_ops {
        let chunk = ready.stream.next_chunk();
        match ready.conns.as_mut() {
            Some(conns) => {
                exec_tcp(conns, &chunk, &cfg.spec, &mut rec, None, &|_| false)?;
                ready.recover_if_stalled(&rec, &mut stalls_seen)?;
            }
            None => CoreCaller::new(&ready.env.store, cfg.spec.value_len)?.exec(
                &chunk,
                &cfg.spec,
                &mut Default::default(),
                &mut rec.tally,
                &mut SpanLog::new(0),
            ),
        }
    }
    // Push the load's buffered audit records and journal bytes out now, so
    // the measured phase's byte counts hold only its own writes.
    ready
        .env
        .store
        .tick()
        .map_err(|e| format!("flush after set-up: {e}"))?;
    if rec.tally.failed > 0 {
        return Err(format!(
            "warm-up: {} of {} ops failed: {:?}",
            rec.tally.failed, rec.tally.attempted, rec.tally.errors
        ));
    }
    ready.setup_s = started.elapsed().as_secs_f64();
    Ok(ready)
}

/// Drive the TCP closed loop until `seconds` are on the clock (and, however
/// short the run, until the outcome hash has its full prefix, so two runs of
/// one seed always hash the same ops). Chunks are generated between
/// stretches, off the clock.
pub fn measure_tcp(
    ready: &mut Ready,
    cfg: &RunConfig,
    seconds: f64,
    rec: &mut Recorder,
) -> Result<(), String> {
    let budget = (seconds * 1e9) as u64;
    let wall = Instant::now();
    let overran = || wall.elapsed().as_secs_f64() > seconds * OVERRUN_FACTOR + 5.0;
    let done = |rec: &Recorder| {
        overran()
            || (rec.timed_ns() >= budget && rec.tally.hashed.iter().all(|&n| n >= HASH_PREFIX))
    };
    let mut stalls_seen = 0;
    while !done(rec) {
        let chunk = ready.stream.next_chunk();
        let conns = ready
            .conns
            .as_mut()
            .ok_or("TCP workload without connections")?;
        exec_tcp(conns, &chunk, &cfg.spec, rec, None, &done)?;
        ready.recover_if_stalled(rec, &mut stalls_seen)?;
    }
    if overran() {
        rec.tally.overran();
    }
    Ok(())
}

/// Drive the in-process closed loop: one caller thread per lane, each until
/// `seconds` are on its clock. Returns one recorder per
/// lane; with `spans`, each call is also logged.
pub fn measure_inproc(
    ready: &mut Ready,
    cfg: &RunConfig,
    seconds: f64,
    mut spans: Option<&mut SpanLog>,
) -> Result<Vec<Recorder>, String> {
    let Stream::Kv { lanes, chunk_ops } = &mut ready.stream else {
        return Err("the in-process workload is key-value".to_string());
    };
    let budget = (seconds * 1e9) as u64;
    let barrier = Barrier::new(LANES);
    let span_cap = spans.as_ref().map_or(0, |log| log.capacity_left() / LANES);
    // Built before the threads start: a caller that cannot be built must
    // not leave its sibling waiting at the barrier.
    let mut callers = Vec::new();
    for _ in 0..LANES {
        callers.push(CoreCaller::new(&ready.env.store, cfg.spec.value_len)?);
    }
    let results: Vec<Result<(Recorder, SpanLog), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(callers)
            .enumerate()
            .map(|(lane_no, (lane, mut caller))| {
                let (barrier, chunk_ops) = (&barrier, *chunk_ops);
                scope.spawn(move || {
                    let mut log = SpanLog::new(span_cap);
                    let mut rec = Recorder::default();
                    barrier.wait();
                    while rec.timed_ns() < budget {
                        run_lane_chunk(
                            &mut caller,
                            lane,
                            lane_no,
                            chunk_ops,
                            cfg,
                            &mut rec,
                            &mut log,
                        );
                    }
                    (rec, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a caller thread panicked".to_string()))
            .collect()
    });
    let mut recorders = Vec::new();
    for result in results {
        let (rec, log) = result?;
        if let Some(all) = spans.as_deref_mut() {
            all.absorb(&log);
        }
        recorders.push(rec);
    }
    Ok(recorders)
}

fn run_lane_chunk(
    caller: &mut CoreCaller,
    lane: &mut KvLane,
    lane_no: usize,
    chunk_ops: usize,
    cfg: &RunConfig,
    rec: &mut Recorder,
    log: &mut SpanLog,
) {
    for item in lane.take(chunk_ops) {
        let (verdict, [t0, t1]) = caller.call(&item, None, cfg.spec.value_len);
        let ns = (t1 - t0).as_nanos() as u64;
        rec.lat.push(&item, ns);
        rec.push_wave(ns, 1);
        let op_id = log.op();
        log.push("core.op", "", op_id, t0, t1);
        rec.tally.note(lane_no, &item, &verdict, cfg.spec.value_len);
    }
}

/// Throughput, CPU cost, median and tail latency of a measured phase.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Throughput of each slice, in order.
    pub slice_ops_per_s: Vec<f64>,
    /// Median over the slices (one second on the clock each) of the
    /// per-slice throughput, summed over concurrent generators.
    pub ops_per_s: f64,
    /// Median over the slices of process CPU time per op.
    pub cpu_us_per_op: f64,
    /// Exact median over every latency sample.
    pub p50_us: f64,
    /// Median of the per-slice 99th percentiles.
    pub p99_us: f64,
    /// Latency samples behind `p50_us`.
    pub samples: usize,
    /// Smallest per-slice sample count behind a slice p99.
    pub samples_per_slice: usize,
}

/// Summarise the recorders of concurrent generators (one for the TCP
/// workloads, one per thread in process). Concurrent generators start
/// together and each cuts its own clock into seconds, so their i-th slices
/// cover the same second but for scheduling: throughputs add up, and the
/// process CPU time of that second is the mean of what each saw.
pub fn summarize(recorders: &[Recorder]) -> Summary {
    let per_rec: Vec<_> = recorders.iter().map(Recorder::slices_or_rest).collect();
    let slices = per_rec.iter().map(Vec::len).min().unwrap_or(0);
    let mut throughput = Vec::with_capacity(slices);
    let mut cpu = Vec::with_capacity(slices);
    let mut tails = Vec::with_capacity(slices);
    let mut samples_per_slice = usize::MAX;
    for i in 0..slices {
        let (mut ops_per_s, mut ops, mut cpu_ns) = (0.0, 0u64, 0u64);
        let mut lat = Vec::new();
        for (rec, slices) in recorders.iter().zip(&per_rec) {
            let slice = slices[i];
            ops_per_s += ratio(slice.ops as f64 * 1e9, slice.dur_ns as f64);
            ops += slice.ops;
            cpu_ns += slice.cpu_ns;
            let lat_start = if i == 0 { 0 } else { slices[i - 1].lat_end };
            lat.extend_from_slice(&rec.lat.all[lat_start..slice.lat_end]);
        }
        throughput.push(ops_per_s);
        cpu.push(ratio(
            cpu_ns as f64 / recorders.len() as f64 / 1_000.0,
            ops as f64,
        ));
        samples_per_slice = samples_per_slice.min(lat.len());
        tails.push(percentile(&lat, 0.99) as f64 / 1_000.0);
    }
    let mut all: Vec<u64> = recorders
        .iter()
        .flat_map(|rec| rec.lat.all.iter().copied())
        .collect();
    all.sort_unstable();
    Summary {
        ops_per_s: median_f64(&throughput),
        slice_ops_per_s: throughput,
        cpu_us_per_op: median_f64(&cpu),
        p50_us: percentile_sorted(&all, 0.5) as f64 / 1_000.0,
        p99_us: median_f64(&tails),
        samples: all.len(),
        samples_per_slice: if slices == 0 { 0 } else { samples_per_slice },
    }
}

/// Bytes the journal devices and the audit sink have written so far.
fn storage_bytes(env: &Env) -> [u64; 2] {
    [
        env.store.engine().stats().device.bytes_on_device,
        env.sink.snapshot().bytes,
    ]
}

/// Read back a sample of the model and the store's size.
pub fn readback(store: &GdprStore, stream: &Stream, spec: &Spec, seed: u64) -> Vec<Check> {
    let ctx = Env::kv_ctx();
    let mut checks = Vec::new();
    match stream {
        Stream::Kv { lanes, .. } => {
            let mut wrong = 0;
            for lane in lanes {
                for (key, version) in lane.sample(READBACK / LANES, seed) {
                    let stored = store.get(&ctx, &key_name(key)).ok().flatten();
                    wrong += usize::from(stored != Some(value(key, version, spec.value_len)));
                }
            }
            checks.push(Check::new(
                "readback",
                wrong == 0,
                format!("{wrong} of {READBACK} sampled keys differ from the model"),
            ));
            let len = store.len() as u64;
            checks.push(Check::new(
                "len",
                len == spec.records,
                format!("{len} records, model {}", spec.records),
            ));
        }
        Stream::Rights(rights) => {
            let mut wrong = 0;
            for (subject, held) in rights.sample(READBACK, seed) {
                let keys = store
                    .keys_of_subject(&gdprbench::ops::subject_name(subject))
                    .map_or(usize::MAX, |keys| keys.len());
                wrong += usize::from(keys != usize::from(held));
            }
            checks.push(Check::new(
                "readback",
                wrong == 0,
                format!("{wrong} of {READBACK} sampled subjects differ from the model"),
            ));
            let len = store.len() as u64;
            checks.push(Check::new(
                "len",
                len == rights.live_records(),
                format!("{len} records, model {}", rights.live_records()),
            ));
            let gone = rights.erased_and_gone(ERASED_CHECKED);
            let mut served = 0;
            for &subject in &gone {
                let listed = store
                    .keys_of_subject(&gdprbench::ops::subject_name(subject))
                    .map_or(1, |keys| keys.len());
                let readable = (0..crate::gen::KEYS_PER_SUBJECT)
                    .filter(|&k| {
                        !matches!(
                            store.get(&ctx, &gdprbench::ops::key_name(subject, k)),
                            Ok(None)
                        )
                    })
                    .count();
                served += listed + readable;
            }
            checks.push(Check::new(
                "no_erased_data_served",
                served == 0,
                format!(
                    "{served} keys or values of {} erased subjects still served",
                    gone.len()
                ),
            ));
        }
    }
    checks
}

/// `kv-inproc-strict`: reopen the closed store from its journal, re-check
/// the sample, and verify the audit hash chain over the file trail.
fn reopen_checks(
    cfg: &RunConfig,
    dir: &std::path::Path,
    stream: &Stream,
    audit_records: u64,
) -> Result<Vec<Check>, String> {
    let policy = policy_of(cfg.spec.workload);
    let reopened = GdprStore::open(
        policy.clone(),
        engine_config(&policy, dir),
        Box::new(NullSink::new()),
    )
    .map_err(|e| format!("reopen from the journal: {e}"))?;
    reopened.grant(gdpr_core::acl::Grant::new(
        crate::gen::KV_ACTOR,
        crate::gen::KV_PURPOSE,
    ));
    let mut checks = readback(&reopened, stream, &cfg.spec, cfg.seed ^ 1);
    for check in &mut checks {
        check.name = match check.name {
            "readback" => "reopen_readback",
            _ => "reopen_len",
        };
    }
    let trail =
        std::fs::read_to_string(audit_path(dir)).map_err(|e| format!("read audit trail: {e}"))?;
    let records =
        audit::reader::parse_trail(&trail).map_err(|e| format!("parse audit trail: {e}"))?;
    let chain = audit::chain::verify_chain(&records);
    checks.push(Check::new(
        "audit_chain",
        chain.is_ok() && records.len() as u64 == audit_records,
        format!(
            "{} chained records on file, store emitted {audit_records}, chain {}",
            records.len(),
            if chain.is_ok() { "intact" } else { "broken" }
        ),
    ));
    Ok(checks)
}

/// Post-run verification; consumes and closes the stack.
pub fn verify_and_close(cfg: &RunConfig, ready: Ready) -> Result<Vec<Check>, String> {
    let Ready {
        env, stream, conns, ..
    } = ready;
    drop(conns);
    let mut checks = readback(&env.store, &stream, &cfg.spec, cfg.seed);
    if cfg.spec.workload == Workload::KvInprocStrict {
        let audit_records = env.store.stats().audit_records;
        let dir = env.dir.clone();
        env.close_keep_files()?;
        checks.extend(reopen_checks(cfg, &dir, &stream, audit_records)?);
        let _ = std::fs::remove_dir_all(dir);
    } else {
        env.close()?;
    }
    Ok(checks)
}

/// Render checks for the info line.
pub fn checks_json(checks: &[Check]) -> Json {
    Json::Arr(
        checks
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::Str(c.name.to_string())),
                    ("pass", Json::Bool(c.pass)),
                    ("detail", Json::Str(c.detail.clone())),
                ])
            })
            .collect(),
    )
}

/// Context shared by both modes' info lines.
pub fn host_info(cfg: &RunConfig) -> Vec<(&'static str, Json)> {
    vec![
        ("workload", Json::Str(cfg.spec.workload.name().to_string())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        (
            "records_loaded",
            Json::Num(cfg.spec.loaded_records() as f64),
        ),
        ("host_cores", Json::Num(cfg.plan.host_cpus() as f64)),
        ("server_cpus", Json::Num(SERVER_CPUS as f64)),
        ("pinned", Json::Bool(cfg.plan.pinned())),
        (
            "cpu",
            cfg.plan.cpu.map_or(Json::Null, |cpu| Json::Num(cpu as f64)),
        ),
        (
            "priority_raised",
            Json::Bool(crate::affinity::priority_raised()),
        ),
    ]
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(cfg: &RunConfig) -> Result<Report, String> {
    cfg.plan.pin();
    let report = untraced(cfg);
    cfg.plan.release();
    report
}

fn untraced(cfg: &RunConfig) -> Result<Report, String> {
    // Set up several times: the median is the reported set-up time, the last
    // stack is the one measured.
    let mut setup_times = Vec::new();
    let mut ready = None;
    for i in 0..cfg.setups.max(1) {
        if let Some(previous) = ready.take() {
            enter("set-up: close the previous stack");
            let Ready { env, conns, .. } = previous;
            drop(conns);
            env.close()?;
        }
        let stack = setup(cfg, &format!("s{i}"))?;
        setup_times.push(stack.setup_s);
        ready = Some(stack);
    }
    let mut ready = ready.expect("at least one set-up");

    enter("measure");
    let bytes_before = storage_bytes(&ready.env);
    let cpu_before = process_cpu_ns();
    let wall = Instant::now();
    let recorders = if cfg.spec.workload.over_tcp() {
        let mut rec = Recorder::default();
        measure_tcp(&mut ready, cfg, cfg.seconds, &mut rec)?;
        vec![rec]
    } else {
        measure_inproc(&mut ready, cfg, cfg.seconds, None)?
    };
    let wall_s = wall.elapsed().as_secs_f64();
    let cpu_ns = process_cpu_ns().saturating_sub(cpu_before);
    // Flush what the eventual policy still buffers, so the bytes of every
    // measured write are counted.
    let _ = ready.env.store.tick();
    let bytes_after = storage_bytes(&ready.env);
    let journal_bytes = delta(bytes_before[0], bytes_after[0]);
    let audit_bytes = delta(bytes_before[1], bytes_after[1]);
    let bytes_written = journal_bytes + audit_bytes;

    let mut tally = recorders[0].tally.clone();
    for rec in &recorders[1..] {
        tally.absorb(&rec.tally);
    }
    let summary = summarize(&recorders);
    let peak_rss_mb = crate::stats::peak_rss_mb();
    enter("verify and close");
    let checks = verify_and_close(cfg, ready)?;
    let correct = tally.failed == 0 && checks.iter().all(|c| c.pass);

    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median_f64(&setup_times),
            unit: "s",
        },
        Metric {
            name: "ops_per_s",
            value: summary.ops_per_s,
            unit: "1/s",
        },
        Metric {
            name: "p50_us",
            value: summary.p50_us,
            unit: "us",
        },
        Metric {
            name: "cpu_us_per_op",
            value: summary.cpu_us_per_op,
            unit: "us",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MiB",
        },
        Metric {
            name: "write_amp",
            value: ratio(bytes_written, tally.user_bytes as f64),
            unit: "ratio",
        },
    ];
    let mut info = host_info(cfg);
    info.extend([
        ("mode", Json::Str("untraced".to_string())),
        (
            "setup_runs_s",
            Json::Arr(setup_times.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("measured_wall_s", Json::Num(wall_s)),
        ("latency_samples", Json::Num(summary.samples as f64)),
        (
            "latency_samples_per_slice",
            Json::Num(summary.samples_per_slice as f64),
        ),
        (
            "slice_ops_per_s",
            Json::Arr(
                summary
                    .slice_ops_per_s
                    .iter()
                    .map(|&v| Json::Num(v.round()))
                    .collect(),
            ),
        ),
        ("p99_us", Json::Num(summary.p99_us)),
        (
            "cpu_us_per_op_whole_phase",
            Json::Num(ratio(cpu_ns as f64 / 1_000.0, tally.attempted as f64)),
        ),
        ("timeouts", Json::Num(tally.timeouts as f64)),
        (
            "stalled_waves",
            Json::Num(recorders.iter().map(|r| r.stalled_waves()).sum::<usize>() as f64),
        ),
        ("user_bytes_written", Json::Num(tally.user_bytes as f64)),
        ("journal_bytes_written", Json::Num(journal_bytes)),
        ("audit_bytes_written", Json::Num(audit_bytes)),
        ("outcome_hash", Json::Str(tally.outcome_hash())),
        (
            "outcomes_hashed",
            Json::Num((tally.hashed[0] + tally.hashed[1]) as f64),
        ),
        (
            "errors",
            Json::Arr(tally.errors.iter().map(|e| Json::Str(e.clone())).collect()),
        ),
        ("checks", checks_json(&checks)),
    ]);
    Ok(Report {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        info: Json::obj(info),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::Slice;

    /// A recorder holding the given `(ops, cpu_ns)` slices of one second
    /// each, with one latency sample per op: the second divided by the ops.
    fn recorder(slices: &[(u64, u64)]) -> Recorder {
        let mut rec = Recorder::default();
        for &(ops, cpu_ns) in slices {
            for _ in 0..ops {
                rec.lat.all.push(1_000_000_000 / ops);
            }
            rec.slices.push(Slice {
                dur_ns: 1_000_000_000,
                ops,
                cpu_ns,
                lat_end: rec.lat.all.len(),
            });
        }
        rec
    }

    #[test]
    fn summary_is_the_median_second() {
        // Five seconds, two of them slowed to half speed at double the cost.
        let rec = recorder(&[
            (100, 500_000_000),
            (50, 500_000_000),
            (100, 500_000_000),
            (50, 500_000_000),
            (100, 500_000_000),
        ]);
        let summary = summarize(&[rec]);
        assert_eq!(
            summary.slice_ops_per_s,
            vec![100.0, 50.0, 100.0, 50.0, 100.0]
        );
        assert_eq!(summary.ops_per_s, 100.0);
        assert_eq!(summary.cpu_us_per_op, 5_000.0);
        assert_eq!(summary.samples, 400);
        assert_eq!(summary.samples_per_slice, 50);
        assert_eq!(summary.p50_us, 10_000.0);
        assert_eq!(summary.p99_us, 10_000.0, "median of the per-second tails");
    }

    #[test]
    fn concurrent_callers_add_up_per_second() {
        // Two callers; each sees the whole process's CPU time of the second.
        let a = recorder(&[(100, 900_000), (100, 900_000), (100, 900_000)]);
        let b = recorder(&[(50, 900_000), (200, 900_000)]);
        let summary = summarize(&[a, b]);
        assert_eq!(
            summary.slice_ops_per_s,
            vec![150.0, 300.0],
            "the shorter recorder decides"
        );
        assert_eq!(summary.ops_per_s, 225.0);
        // 900 us of process CPU per second over 150 and 300 ops.
        assert_eq!(summary.cpu_us_per_op, (6.0 + 3.0) / 2.0);
        assert_eq!(summarize(&[]).ops_per_s, 0.0);
    }
}
