//! Reproduces **Figure 2** of the paper: the delay between a key's TTL
//! expiring and the key actually being erased, as a function of database
//! size, for stock Redis' lazy probabilistic expiry versus the paper's
//! strict ("fast active expiry") modification.
//!
//! The experiment runs on a simulated clock, so the paper's three-hour
//! wall-clock measurement at 128k keys completes in well under a second of
//! real time while reporting the same simulated-seconds quantity.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin fig2_erasure [seed=N]
//! ```
//!
//! Any other argument, or a seed that is not an unsigned integer, is
//! printed back and the process exits with status 2.

use bench::fig2::{render_table, run_figure2};
use bench::{arg_value, args_or_exit};

fn main() {
    let args = args_or_exit(&["seed"]);
    let seed = arg_value(&args, "seed").unwrap_or(7);

    println!("Figure 2 reproduction — erasure delay of expired keys (20% of keys expire at +5min)");
    println!("simulated clock; Redis active-expiry parameters: 100ms cycle, 20 samples, repeat at ≥5 expired\n");

    let (lazy, strict) = run_figure2(seed);
    println!("{}", render_table(&lazy, &strict));

    println!("observations:");
    if let (Some(first), Some(last)) = (lazy.first(), lazy.last()) {
        println!(
            "  lazy erasure delay grows from {:.0}s at {} keys to {:.0}s at {} keys (paper: 41s → 10728s)",
            first.erase_seconds, first.total_keys, last.erase_seconds, last.total_keys
        );
    }
    let max_strict = strict
        .iter()
        .map(|p| p.erase_seconds)
        .fold(0.0f64, f64::max);
    println!(
        "  strict erasure completes within {max_strict:.3}s even at 1M keys (paper: sub-second up to 1M keys)"
    );
}
