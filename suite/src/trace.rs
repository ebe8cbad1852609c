//! The traced run: the same seeded stream pushed through every level of the
//! stack from outside, a span per call, and the per-layer metrics derived
//! from them and from the public stats snapshots.
//!
//! All levels that involve the compliance store share one loaded stack and
//! one stream. The stream is dealt out in turns of about a thousand ops —
//! over TCP without spans, over TCP with spans, through the dispatcher,
//! straight into `GdprStore`, and round again — so every level sees the same
//! mix and the same store state, and every reply is still checked against
//! the one model. Levels below the compliance store
//! (`KvStore::execute`, the audit and crypto primitives) run on instances
//! of their own with the workload's configuration.
//!
//! A layer's self time is its level minus the level below. Levels are
//! compared by their typical op (`Timings::typical_us`: per-kind medians
//! weighted by the mix), which the once-a-second flush of the `everysec`
//! policies cannot move. `server.transport_us_per_op` is the remainder of the
//! end-to-end per-op time after codec and dispatcher, so the ladder adds up
//! to it by construction; sockets, reactor, hand-offs and those flushes are
//! all in it.

use std::time::Instant;

use audit::log::AuditLog;
use audit::record::{AuditRecord, Operation};
use audit::sink::FileSink;
use gdpr_crypto::aead::ChaCha20Poly1305;
use kvstore::commands::Command;
use kvstore::store::KvStore;

use crate::affinity::SERVER_CPUS;
use crate::drive::{
    exec_kv, exec_tcp, CodecTimings, CoreCaller, DispatchCaller, Recorder, SpanLog, Tally, Timings,
};
use crate::env::{engine_config, policy_of, Env};
use crate::gen::{key_name, value, Kind, Stream, Workload};
use crate::json::Json;
use crate::run::{
    checks_json, host_info, measure_inproc, readback, setup, summarize, Metric, Ready, Report,
    RunConfig,
};
use crate::stats::{delta, median_us, percentile, ratio};

/// Spans kept per run (the first ones; the file stays a few MiB).
const SPAN_CAP: usize = 200_000;
/// Share of the run spent on the rotation through the compliance store's
/// levels; the rest goes to the raw engine and the primitives.
const ROTATION_SHARE: f64 = 0.75;
const RAW_ENGINE_SHARE: f64 = 0.12;
const PRIMITIVES_SHARE: f64 = 0.05;
/// Ops a level runs before the next level takes over the stream.
const TURN_OPS: usize = 1_024;

/// Counters read before and after the rotation.
struct Snapshot {
    engine: kvstore::stats::EngineStats,
    gdpr: gdpr_core::store::GdprStats,
    sink: audit::sink::SinkStats,
    lock_hold_us: u128,
    commit_wait_us: u128,
    queue_wait_us: u128,
    reactor_wakeups: u64,
}

impl Snapshot {
    fn take(env: &Env) -> Snapshot {
        let stage = |stages: &[(&'static str, obs::LatencyHistogram)], name: &str| {
            stages
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, h)| h.sum_micros())
        };
        let engine_stages = env.store.engine().stage_latencies();
        let (queue_wait_us, reactor_wakeups) = env.server.as_ref().map_or((0, 0), |server| {
            let d = server.dispatcher();
            (
                stage(&d.metrics().stage_snapshots(), "worker_queue_wait"),
                d.client_stats().reactor_wakeups,
            )
        });
        Snapshot {
            engine: env.store.engine().stats(),
            gdpr: env.store.stats(),
            sink: env.sink.snapshot(),
            lock_hold_us: stage(&engine_stages, "shard_lock_hold"),
            commit_wait_us: stage(&engine_stages, "aof_commit_wait"),
            queue_wait_us,
            reactor_wakeups,
        }
    }
}

/// What the rotation measured.
#[derive(Default)]
struct Rotation {
    /// Top level without spans: one recorder per concurrent generator.
    plain: Vec<Recorder>,
    /// Top level with spans.
    traced: Vec<Recorder>,
    codec: CodecTimings,
    core: Timings,
    /// Ops that went through `GdprStore` below the top level.
    inner: Tally,
}

fn rotate_tcp(
    ready: &mut Ready,
    cfg: &RunConfig,
    seconds: f64,
    spans: &mut SpanLog,
) -> Result<Rotation, String> {
    let mut rot = Rotation {
        plain: vec![Recorder::default()],
        traced: vec![Recorder::default()],
        ..Rotation::default()
    };
    let dispatcher = ready
        .env
        .server
        .as_ref()
        .ok_or("TCP workload without a server")?
        .dispatcher()
        .clone();
    let mut via_dispatch = DispatchCaller::new(dispatcher);
    let mut via_core = CoreCaller::new(&ready.env.store, cfg.spec.value_len)?;
    let budget = (seconds * 1e9) as u64;
    let started = Instant::now();
    // The clock here is wall time: the in-process levels have no waves to
    // sum, and generation is a small share of every level alike.
    let done = |_: &Recorder| (started.elapsed().as_nanos() as u64) >= budget;
    // A level keeps the stream for a turn of at least TURN_OPS ops and of an
    // even number of chunks (`rights-tcp` alternates its two roles).
    let ops_per_chunk = match cfg.spec.workload {
        Workload::RightsTcp => cfg.spec.chunk_ops,
        _ => cfg.spec.chunk_ops * crate::gen::LANES,
    };
    let chunks_per_turn = (TURN_OPS / ops_per_chunk).max(2);
    let mut chunk_no = 0usize;
    let mut stalls_seen = [0usize; 2];
    while !done(&rot.plain[0]) {
        let chunk = ready.stream.next_chunk();
        let conns = ready
            .conns
            .as_mut()
            .ok_or("TCP workload without connections")?;
        match (chunk_no / chunks_per_turn) % 4 {
            0 => exec_tcp(conns, &chunk, &cfg.spec, &mut rot.plain[0], None, &done)?,
            1 => {
                exec_tcp(
                    conns,
                    &chunk,
                    &cfg.spec,
                    &mut rot.traced[0],
                    Some(&mut *spans),
                    &done,
                )?;
            }
            2 => via_dispatch.exec(&chunk, &cfg.spec, &mut rot.codec, &mut rot.inner, spans)?,
            _ => via_core.exec(&chunk, &cfg.spec, &mut rot.core, &mut rot.inner, spans),
        }
        chunk_no += 1;
        ready.recover_if_stalled(&rot.plain[0], &mut stalls_seen[0])?;
        ready.recover_if_stalled(&rot.traced[0], &mut stalls_seen[1])?;
    }
    Ok(rot)
}

/// Raw-engine level: `KvStore::execute` on the workload's journal
/// configuration, loaded with the workload's records.
fn raw_engine_level(
    stream: &Stream,
    cfg: &RunConfig,
    seconds: f64,
    spans: &mut SpanLog,
) -> Result<(Vec<u64>, Vec<u64>), String> {
    let dir = cfg.dir("raw");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let policy = policy_of(cfg.spec.workload);
    let kv =
        KvStore::open(engine_config(&policy, &dir)).map_err(|e| format!("open raw engine: {e}"))?;
    let load = |command: Command| kv.execute(command).map_err(|e| format!("raw load: {e}"));
    match cfg.spec.workload {
        Workload::RightsTcp => {
            for op in cfg.spec.rights_load_ops(cfg.seed) {
                if let gdprbench::ops::GdprOp::Put { key, value, .. } = op {
                    load(Command::Set { key, value })?;
                }
            }
        }
        _ => {
            for key in 0..cfg.spec.records {
                load(Command::Set {
                    key: key_name(key),
                    value: value(key, 0, cfg.spec.value_len),
                })?;
            }
        }
    }
    // A copy of the stream: these ops never reach the compliance store, so
    // its model must not see them.
    let mut stream = stream.clone();
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let budget = (seconds * 1e9) as u64;
    let started = Instant::now();
    while (started.elapsed().as_nanos() as u64) < budget {
        let chunk = stream.next_chunk();
        exec_kv(&kv, &chunk, &cfg.spec, &mut reads, &mut writes, spans)?;
    }
    drop(kv);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((reads, writes))
}

/// `AuditLog::record` on a file sink under the workload's flush policy.
fn audit_level(cfg: &RunConfig, seconds: f64, spans: &mut SpanLog) -> Result<Vec<u64>, String> {
    let dir = cfg.dir("audit");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let sink = FileSink::open(dir.join("audit.log")).map_err(|e| format!("audit sink: {e}"))?;
    let mut log = AuditLog::new(Box::new(sink), policy_of(cfg.spec.workload).audit_flush);
    let mut samples = Vec::new();
    let budget = (seconds * 1e9) as u64;
    let started = Instant::now();
    let mut n = 0u64;
    while (started.elapsed().as_nanos() as u64) < budget {
        let name = key_name(n % cfg.spec.records.max(1));
        let now_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let record = AuditRecord::new(now_ms, crate::gen::KV_ACTOR, Operation::Read)
            .key(&name)
            .subject(&name)
            .purpose(crate::gen::KV_PURPOSE)
            .detail("GET 100 bytes");
        let t0 = Instant::now();
        log.record(record)
            .map_err(|e| format!("audit record: {e}"))?;
        let t1 = Instant::now();
        samples.push((t1 - t0).as_nanos() as u64);
        let op_id = spans.op();
        spans.push("audit.record", "kvstore.exec", op_id, t0, t1);
        n += 1;
    }
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(samples)
}

/// `ChaCha20Poly1305` seal and open at 128 B and 1 KiB, the two payload
/// sizes the journal's encrypted device sees; returns ns per byte.
fn crypto_level(seconds: f64, spans: &mut SpanLog) -> (f64, f64) {
    let aead = ChaCha20Poly1305::new(&[7u8; 32]);
    let nonce = [3u8; 12];
    let payloads = [vec![0x5au8; 128], vec![0xa5u8; 1_024]];
    let (mut seal_ns, mut open_ns, mut bytes) = (0u64, 0u64, 0u64);
    let budget = (seconds * 1e9) as u64;
    let started = Instant::now();
    while (started.elapsed().as_nanos() as u64) < budget {
        for payload in &payloads {
            let t0 = Instant::now();
            let sealed =
                std::hint::black_box(aead.seal(&nonce, b"", std::hint::black_box(payload)));
            let t1 = Instant::now();
            let opened = std::hint::black_box(aead.open(&nonce, b"", &sealed));
            let t2 = Instant::now();
            debug_assert!(opened.is_ok());
            seal_ns += (t1 - t0).as_nanos() as u64;
            open_ns += (t2 - t1).as_nanos() as u64;
            bytes += payload.len() as u64;
            let op_id = spans.op();
            spans.push("crypto.seal", "kvstore.exec", op_id, t0, t1);
        }
    }
    (
        ratio(seal_ns as f64, bytes as f64),
        ratio(open_ns as f64, bytes as f64),
    )
}

/// Closed-loop throughput of concurrent generators, each on its own clock.
fn throughput(recorders: &[Recorder]) -> f64 {
    recorders
        .iter()
        .map(|rec| ratio(rec.wave_ops() as f64 * 1e9, rec.timed_ns() as f64))
        .sum()
}

fn delta_u128(before: u128, after: u128) -> f64 {
    after.saturating_sub(before) as f64
}

/// The traced run: every per-layer metric and the span file.
pub fn run_traced(cfg: &RunConfig) -> Result<Report, String> {
    cfg.plan.pin();
    let report = traced(cfg);
    cfg.plan.release();
    report
}

fn traced(cfg: &RunConfig) -> Result<Report, String> {
    let mut spans = SpanLog::new(SPAN_CAP);
    let mut ready = setup(cfg, "t0")?;
    crate::run::enter("traced levels");
    let before = Snapshot::take(&ready.env);

    // The levels that go through the compliance store.
    let rotation_s = cfg.seconds * ROTATION_SHARE;
    let rot = if cfg.spec.workload.over_tcp() {
        rotate_tcp(&mut ready, cfg, rotation_s, &mut spans)?
    } else {
        // In process the top level *is* the store: once without spans, once
        // with, on the two caller threads of the untraced run.
        let plain = measure_inproc(&mut ready, cfg, rotation_s / 2.0, None)?;
        let traced = measure_inproc(&mut ready, cfg, rotation_s / 2.0, Some(&mut spans))?;
        let mut core = Timings::default();
        for rec in plain.iter().chain(&traced) {
            core.all.extend_from_slice(&rec.lat.all);
            for (dst, src) in core.by_kind.iter_mut().zip(&rec.lat.by_kind) {
                dst.extend_from_slice(src);
            }
        }
        Rotation {
            plain,
            traced,
            core,
            ..Rotation::default()
        }
    };
    let after = Snapshot::take(&ready.env);
    let hwm = ready
        .env
        .server
        .as_ref()
        .map_or(0, |s| s.dispatcher().client_stats().worker_queue_hwm);
    let records_now = ready.env.store.len();

    // Below the compliance store.
    let (kv_reads, kv_writes) = raw_engine_level(
        &ready.stream,
        cfg,
        cfg.seconds * RAW_ENGINE_SHARE,
        &mut spans,
    )?;
    let audit_samples = audit_level(cfg, cfg.seconds * PRIMITIVES_SHARE, &mut spans)?;
    let (seal_ns_per_byte, open_ns_per_byte) =
        crypto_level(cfg.seconds * PRIMITIVES_SHARE, &mut spans);

    let mut tally = Tally::default();
    for rec in rot.plain.iter().chain(&rot.traced) {
        tally.absorb(&rec.tally);
    }
    tally.absorb(&rot.inner);

    crate::run::enter("verify, close and replay");
    // Check the live store against the model, then close it and time the
    // replay of the journal it leaves behind.
    let Ready {
        env, stream, conns, ..
    } = ready;
    drop(conns);
    let checks = readback(&env.store, &stream, &cfg.spec, cfg.seed);
    let journal_dir = env.dir.clone();
    env.close_keep_files()?;
    let replay_started = Instant::now();
    let replayed = KvStore::open(engine_config(&policy_of(cfg.spec.workload), &journal_dir))
        .map_err(|e| format!("replay: {e}"))?;
    let replay_s = replay_started.elapsed().as_secs_f64();
    drop(replayed);
    let _ = std::fs::remove_dir_all(&journal_dir);

    // ---- derive the metrics ------------------------------------------------
    let over_tcp = cfg.spec.workload.over_tcp();
    let top_ops: f64 = rot
        .plain
        .iter()
        .chain(&rot.traced)
        .map(|r| r.wave_ops() as f64)
        .sum();
    let tcp_ops = if over_tcp { top_ops } else { 0.0 };
    let store_ops = tally.attempted as f64;
    let engine_writes = delta(before.engine.writes, after.engine.writes);
    let gets = delta(
        before.gdpr.cache_hits + before.gdpr.cache_misses,
        after.gdpr.cache_hits + after.gdpr.cache_misses,
    );
    let e2e_us_per_op = ratio(1e6, throughput(&rot.plain));
    let decode = median_us(&rot.codec.decode);
    let encode = median_us(&rot.codec.encode);
    let dispatch = rot.codec.dispatch.typical_us();
    let core_typical = rot.core.typical_us();
    let core_reads = rot.core.reads_or_writes(false);
    let core_writes = rot.core.reads_or_writes(true);
    let client = |kind: Kind, p: f64| {
        let all: Vec<u64> = rot
            .plain
            .iter()
            .chain(&rot.traced)
            .flat_map(|rec| rec.lat.of(kind).iter().copied())
            .collect();
        if over_tcp {
            percentile(&all, p) as f64 / 1_000.0
        } else {
            0.0
        }
    };
    let codec_ops = rot.codec.decode.len() as f64;
    let lines = delta(before.sink.lines, after.sink.lines);
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("resp.decode_us_per_op", decode, "us"),
        m("resp.encode_us_per_op", encode, "us"),
        m(
            "resp.req_bytes_per_op",
            ratio(rot.codec.req_bytes as f64, codec_ops),
            "B",
        ),
        m(
            "resp.reply_bytes_per_op",
            ratio(rot.codec.reply_bytes as f64, codec_ops),
            "B",
        ),
        m(
            "server.dispatch_self_us_per_op",
            if over_tcp {
                dispatch - core_typical
            } else {
                0.0
            },
            "us",
        ),
        m(
            "server.transport_us_per_op",
            if over_tcp {
                e2e_us_per_op - dispatch - decode - encode
            } else {
                0.0
            },
            "us",
        ),
        m(
            "server.worker_queue_wait_us_per_op",
            ratio(
                delta_u128(before.queue_wait_us, after.queue_wait_us),
                tcp_ops,
            ),
            "us",
        ),
        m("server.worker_queue_hwm", hwm as f64, "count"),
        m(
            "server.reactor_wakeups_per_op",
            ratio(
                delta(before.reactor_wakeups, after.reactor_wakeups),
                tcp_ops,
            ),
            "count",
        ),
        m(
            "core.read_self_us",
            median_us(&core_reads) - median_us(&kv_reads),
            "us",
        ),
        m(
            "core.write_self_us",
            median_us(&core_writes) - median_us(&kv_writes),
            "us",
        ),
        m(
            "core.cache_hit_ratio",
            ratio(delta(before.gdpr.cache_hits, after.gdpr.cache_hits), gets),
            "ratio",
        ),
        m(
            "core.cache_admissions_per_read",
            ratio(
                delta(before.gdpr.cache_admissions, after.gdpr.cache_admissions),
                gets,
            ),
            "ratio",
        ),
        m(
            "core.cache_invalidations_per_write",
            ratio(
                delta(
                    before.gdpr.cache_invalidations,
                    after.gdpr.cache_invalidations,
                ),
                tally.writes as f64,
            ),
            "ratio",
        ),
        m(
            "core.audit_records_per_op",
            ratio(
                delta(before.gdpr.audit_records, after.gdpr.audit_records),
                store_ops,
            ),
            "ratio",
        ),
        m(
            "core.denied_share",
            ratio(
                delta(before.gdpr.denied_ops, after.gdpr.denied_ops),
                store_ops,
            ),
            "ratio",
        ),
        m("core.keysof_us", median_us(rot.core.of(Kind::KeysOf)), "us"),
        m(
            "core.export_us_per_key",
            median_us(&rot.core.per_key[Kind::Export as usize]),
            "us",
        ),
        m(
            "core.setmeta_us",
            median_us(rot.core.of(Kind::SetMeta)),
            "us",
        ),
        m(
            "core.erase_us_per_key",
            median_us(&rot.core.per_key[Kind::Erase as usize]),
            "us",
        ),
        m("core.object_us", median_us(rot.core.of(Kind::Object)), "us"),
        m(
            "core.live_hit_share",
            ratio(tally.fan_live as f64, tally.fan_attempts as f64),
            "ratio",
        ),
        m("audit.record_us", median_us(&audit_samples), "us"),
        m(
            "audit.bytes_per_record",
            ratio(delta(before.sink.bytes, after.sink.bytes), lines),
            "B",
        ),
        m(
            "audit.syncs_per_record",
            ratio(delta(before.sink.syncs, after.sink.syncs), lines),
            "ratio",
        ),
        m("kvstore.read_us", median_us(&kv_reads), "us"),
        m("kvstore.write_us", median_us(&kv_writes), "us"),
        m(
            "kvstore.shard_lock_hold_us_per_op",
            ratio(
                delta_u128(before.lock_hold_us, after.lock_hold_us),
                store_ops,
            ),
            "us",
        ),
        m(
            "kvstore.aof_commit_wait_us_per_write",
            ratio(
                delta_u128(before.commit_wait_us, after.commit_wait_us),
                engine_writes,
            ),
            "us",
        ),
        m(
            "kvstore.aof_bytes_per_write",
            ratio(
                delta(
                    before.engine.aof.bytes_appended,
                    after.engine.aof.bytes_appended,
                ),
                engine_writes,
            ),
            "B",
        ),
        m(
            "kvstore.fsyncs_per_write",
            ratio(
                delta(before.engine.aof.fsyncs, after.engine.aof.fsyncs),
                engine_writes,
            ),
            "ratio",
        ),
        m(
            "kvstore.group_commit_avg_batch",
            ratio(
                delta(
                    before.engine.aof.group_commit_records,
                    after.engine.aof.group_commit_records,
                ),
                delta(
                    before.engine.aof.group_commits,
                    after.engine.aof.group_commits,
                ),
            ),
            "ratio",
        ),
        m(
            "kvstore.device_appends_per_write",
            ratio(
                delta(before.engine.device.appends, after.engine.device.appends),
                engine_writes,
            ),
            "ratio",
        ),
        m(
            "kvstore.device_expansion",
            ratio(
                delta(
                    before.engine.device.bytes_on_device,
                    after.engine.device.bytes_on_device,
                ),
                delta(
                    before.engine.device.bytes_written,
                    after.engine.device.bytes_written,
                ),
            ),
            "ratio",
        ),
        m(
            "kvstore.keyspace_hit_ratio",
            ratio(
                delta(
                    before.engine.db.keyspace_hits,
                    after.engine.db.keyspace_hits,
                ),
                delta(
                    before.engine.db.keyspace_hits + before.engine.db.keyspace_misses,
                    after.engine.db.keyspace_hits + after.engine.db.keyspace_misses,
                ),
            ),
            "ratio",
        ),
        m(
            "kvstore.mem_bytes_per_record",
            ratio(after.engine.db.mem_bytes as f64, records_now as f64),
            "B",
        ),
        m("kvstore.replay_s", replay_s, "s"),
        m("crypto.seal_ns_per_byte", seal_ns_per_byte, "ns"),
        m("crypto.open_ns_per_byte", open_ns_per_byte, "ns"),
        m("client.p99_us", summarize(&rot.plain).p99_us, "us"),
        m("client.keysof_p50_us", client(Kind::KeysOf, 0.5), "us"),
        m("client.export_p50_us", client(Kind::Export, 0.5), "us"),
        m("client.setmeta_p50_us", client(Kind::SetMeta, 0.5), "us"),
        m("client.erase_p50_us", client(Kind::Erase, 0.5), "us"),
        m("client.erase_p99_us", client(Kind::Erase, 0.99), "us"),
        m(
            "bench.trace_overhead_share",
            1.0 - ratio(throughput(&rot.traced), throughput(&rot.plain)),
            "ratio",
        ),
        m("bench.server_cpus", SERVER_CPUS as f64, "count"),
        m(
            "bench.pinned",
            f64::from(u8::from(cfg.plan.pinned())),
            "bool",
        ),
    ];

    let trace_path = cfg
        .root
        .join(format!("{}.trace.jsonl", cfg.spec.workload.name()));
    spans
        .write_jsonl(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let correct = tally.failed == 0 && checks.iter().all(|c| c.pass);
    let mut info = host_info(cfg);
    info.extend([
        ("mode", Json::Str("traced".to_string())),
        ("trace_file", Json::Str(trace_path.display().to_string())),
        ("spans", Json::Num(spans.len() as f64)),
        ("e2e_us_per_op", Json::Num(e2e_us_per_op)),
        ("dispatch_us_per_op", Json::Num(dispatch)),
        ("core_us_per_op", Json::Num(core_typical)),
        ("ops_tcp", Json::Num(tcp_ops)),
        ("ops_dispatch", Json::Num(codec_ops)),
        ("ops_core", Json::Num(rot.core.all.len() as f64)),
        (
            "ops_raw_engine",
            Json::Num((kv_reads.len() + kv_writes.len()) as f64),
        ),
        ("audit_records_timed", Json::Num(audit_samples.len() as f64)),
        ("timeouts", Json::Num(tally.timeouts as f64)),
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
