//! Hot-cache scaling bench: the TinyLFU hot-read cache against the full
//! compliance slow path, plus the bounded-memory story under write
//! pressure.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin cache_scaling \
//!     [records=N] [ops=N] [seed=N] [threads=N] [maxmemory=bytes]
//! ```
//!
//! Two experiments, emitted together into `BENCH_cache_scaling.json`:
//!
//! 1. **Hot reads** — a zipfian GET mix over a preloaded keyspace, run
//!    once with the hot cache disabled and once enabled, same seed. The
//!    cache serves repeat reads of the hot set without re-walking the
//!    metadata index, so the on/off ratio is the compliance overhead the
//!    cache removes; the hit rate says how much of the load it absorbed.
//! 2. **Bounded memory** — write several ceilings' worth of data into an
//!    engine capped by `maxmemory` under `sampled-lru` (footprint must
//!    stay at or under the ceiling, evictions do the work) and under
//!    `noeviction` (growth must be refused with OOM instead).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bench::arg_value;
use gdpr_core::acl::Grant;
use gdpr_core::hot_cache::HotCacheConfig;
use gdpr_core::metadata::PersonalMetadata;
use gdpr_core::policy::CompliancePolicy;
use gdpr_core::store::{AccessContext, GdprStore};
use kvstore::config::{EvictionPolicy, StoreConfig};
use kvstore::store::KvStore;
use kvstore::StoreError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ycsb::generator::{NumberGenerator, ScrambledZipfianGenerator};

const VALUE_BYTES: usize = 100;
const ACTOR: &str = "bench";
const PURPOSE: &str = "benchmarking";

struct HotReadCell {
    hotcache: &'static str,
    ops_per_sec: f64,
    hit_rate: f64,
    cache_hits: u64,
    cache_misses: u64,
}

struct BoundedCell {
    maxmemory: u64,
    bytes_written: u64,
    mem_bytes: u64,
    evicted_keys: u64,
    bounded: bool,
    oom_errors_noeviction: u64,
}

fn open_store(shards: usize, hotcache: bool) -> GdprStore {
    let config = StoreConfig::in_memory().aof_in_memory().shards(shards);
    let mut store = GdprStore::open(
        CompliancePolicy::eventual(),
        config,
        Box::new(audit::sink::NullSink::new()),
    )
    .expect("open GDPR store");
    // Pin the cache state explicitly: the sweep compares on against off.
    store.set_hot_cache(HotCacheConfig::default().enabled(hotcache));
    store.grant(Grant::new(ACTOR, PURPOSE));
    store
}

fn preload(store: &GdprStore, ctx: &AccessContext, records: u64) {
    for i in 0..records {
        let meta = PersonalMetadata::new("bench-subject").with_purpose(PURPOSE);
        store
            .put(ctx, &format!("user{i:08}"), vec![b'x'; VALUE_BYTES], meta)
            .expect("preload");
    }
}

/// Zipfian GET storm over `threads` client threads; returns ops/s
/// measured against process CPU time (wall clock when the platform does
/// not expose it), so a noisy co-tenant stealing the host's cores does
/// not masquerade as a slowdown of the code under test.
fn read_storm(store: &GdprStore, records: u64, ops: u64, threads: usize, seed: u64) -> f64 {
    let errors = AtomicU64::new(0);
    let cpu_started = bench::process_cpu_seconds();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let errors = &errors;
            let store = &store;
            scope.spawn(move || {
                let ctx = AccessContext::new(ACTOR, PURPOSE);
                let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9e37));
                let mut chooser = ScrambledZipfianGenerator::new(records);
                for _ in 0..ops / threads as u64 {
                    let key = format!("user{:08}", chooser.next_value(&mut rng));
                    if store.get(&ctx, &key).is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let elapsed = match (cpu_started, bench::process_cpu_seconds()) {
        (Some(before), Some(after)) if after > before => after - before,
        _ => started.elapsed().as_secs_f64(),
    };
    assert_eq!(errors.load(Ordering::Relaxed), 0, "GETs must not error");
    (ops / threads as u64 * threads as u64) as f64 / elapsed
}

/// Timed rounds alternated between the two configurations; the
/// per-configuration median compares like with like even when residual
/// noise (cache pollution from co-tenants) drifts over the run.
const ROUNDS: usize = 5;

fn hot_read_cells(records: u64, ops: u64, threads: usize, seed: u64) -> [HotReadCell; 2] {
    let stores = [
        open_store(threads.max(1), false),
        open_store(threads.max(1), true),
    ];
    let ctx = AccessContext::new(ACTOR, PURPOSE);
    let round_ops = (ops / ROUNDS as u64).max(1);
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for store in &stores {
        preload(store, &ctx, records);
        // Warm pass (untimed): lets TinyLFU admit the hot set so the timed
        // rounds measure steady state, not cold misses.
        read_storm(store, records, records, threads, seed.wrapping_add(1));
    }
    let before: Vec<_> = stores.iter().map(GdprStore::stats).collect();
    for round in 0..ROUNDS {
        for (i, store) in stores.iter().enumerate() {
            let rate = read_storm(
                store,
                records,
                round_ops,
                threads,
                seed.wrapping_add(round as u64),
            );
            println!(
                "    round {round} {}: {rate:.0} ops/s",
                if i == 1 { "on " } else { "off" }
            );
            rates[i].push(rate);
        }
    }
    let cells: Vec<HotReadCell> = stores
        .iter()
        .enumerate()
        .map(|(i, store)| {
            let mut sorted = rates[i].clone();
            sorted.sort_by(f64::total_cmp);
            let after = store.stats();
            let hits = after.cache_hits - before[i].cache_hits;
            let misses = after.cache_misses - before[i].cache_misses;
            HotReadCell {
                hotcache: if i == 1 { "on" } else { "off" },
                ops_per_sec: sorted[sorted.len() / 2],
                hit_rate: if hits + misses > 0 {
                    hits as f64 / (hits + misses) as f64
                } else {
                    0.0
                },
                cache_hits: hits,
                cache_misses: misses,
            }
        })
        .collect();
    cells.try_into().ok().expect("two cells")
}

/// Write `4 × maxmemory` worth of values through a capped engine and
/// report whether the footprint stayed bounded (lru) and whether growth
/// was refused (noeviction).
fn bounded_memory_cell(maxmemory: u64, seed: u64) -> BoundedCell {
    let writes = (4 * maxmemory).div_ceil(VALUE_BYTES as u64);
    let lru = KvStore::open(
        StoreConfig::in_memory()
            .shards(4)
            .max_memory(maxmemory)
            .eviction_policy(EvictionPolicy::SampledLru),
    )
    .expect("open lru store");
    for i in 0..writes {
        lru.set(&format!("w{seed}k{i:08}"), vec![b'y'; VALUE_BYTES])
            .expect("lru write never OOMs");
    }
    let stats = lru.stats();

    let strict = KvStore::open(
        StoreConfig::in_memory()
            .shards(4)
            .max_memory(maxmemory)
            .eviction_policy(EvictionPolicy::Noeviction),
    )
    .expect("open noeviction store");
    let mut oom_errors = 0u64;
    for i in 0..writes {
        match strict.set(&format!("w{seed}k{i:08}"), vec![b'y'; VALUE_BYTES]) {
            Ok(()) => {}
            Err(StoreError::Oom { .. }) => oom_errors += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    BoundedCell {
        maxmemory,
        bytes_written: writes * VALUE_BYTES as u64,
        mem_bytes: stats.db.mem_bytes,
        evicted_keys: stats.db.evicted_keys,
        bounded: stats.db.mem_bytes <= maxmemory,
        oom_errors_noeviction: oom_errors,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let records = arg_value(&args, "records").unwrap_or(8_000);
    // Rounds are timed against process CPU time, whose 10ms granularity
    // wants each round to run a few hundred milliseconds.
    let ops = arg_value(&args, "ops").unwrap_or(200_000);
    let seed = arg_value(&args, "seed").unwrap_or(42);
    let threads =
        arg_value(&args, "threads").unwrap_or_else(|| bench::host_cores() as u64) as usize;
    let maxmemory = arg_value(&args, "maxmemory").unwrap_or(64 * 1024);

    println!(
        "cache_scaling — zipfian GETs, records={records}, ops={ops}, threads={threads}, \
         cores={}",
        bench::host_cores()
    );

    let cells = hot_read_cells(records, ops, threads, seed);
    for cell in &cells {
        println!(
            "  hotcache={:<3}  {:>10.0} ops/s   hit rate {:>5.1}%   ({} hits / {} misses)",
            cell.hotcache,
            cell.ops_per_sec,
            cell.hit_rate * 100.0,
            cell.cache_hits,
            cell.cache_misses,
        );
    }
    let speedup = cells[1].ops_per_sec / cells[0].ops_per_sec;
    println!("  speedup on/off = {speedup:.2}x");

    let bounded = bounded_memory_cell(maxmemory, seed);
    println!(
        "  maxmemory={} bytes: wrote {} bytes, resident {} bytes (bounded={}), \
         {} evictions; noeviction refused {} writes with OOM",
        bounded.maxmemory,
        bounded.bytes_written,
        bounded.mem_bytes,
        bounded.bounded,
        bounded.evicted_keys,
        bounded.oom_errors_noeviction,
    );

    let json = render_json(records, ops, seed, threads, &cells, speedup, &bounded);
    std::fs::write("BENCH_cache_scaling.json", &json).expect("write BENCH_cache_scaling.json");
    println!("\nwrote BENCH_cache_scaling.json");
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    records: u64,
    ops: u64,
    seed: u64,
    threads: usize,
    cells: &[HotReadCell],
    speedup: f64,
    bounded: &BoundedCell,
) -> String {
    let mut out = bench::json_envelope("cache_scaling");
    out.push_str(&format!("  \"records\": {records},\n"));
    out.push_str(&format!("  \"operations\": {ops},\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"value_bytes\": {VALUE_BYTES},\n"));
    out.push_str("  \"hot_read\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"hotcache\": \"{}\", \"ops_per_sec\": {:.1}, \"hit_rate\": {:.4}, \
             \"cache_hits\": {}, \"cache_misses\": {}}}{}\n",
            cell.hotcache,
            cell.ops_per_sec,
            cell.hit_rate,
            cell.cache_hits,
            cell.cache_misses,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"speedup_on_vs_off\": {speedup:.2},\n"));
    out.push_str(&format!(
        "  \"bounded_memory\": {{\"maxmemory\": {}, \"policy\": \"sampled-lru\", \
         \"bytes_written\": {}, \"mem_bytes\": {}, \"bounded\": {}, \"evicted_keys\": {}, \
         \"oom_errors_noeviction\": {}}}\n",
        bounded.maxmemory,
        bounded.bytes_written,
        bounded.mem_bytes,
        bounded.bounded,
        bounded.evicted_keys,
        bounded.oom_errors_noeviction,
    ));
    out.push_str("}\n");
    out
}
