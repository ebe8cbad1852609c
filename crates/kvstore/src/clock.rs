//! Time sources for the engine.
//!
//! Redis' expiry behaviour is a function of wall-clock time: keys carry an
//! absolute expiration timestamp in milliseconds and the active-expiry
//! cycle runs ten times per second. Figure 2 of the paper measures how long
//! (in wall-clock *hours*) it takes the lazy cycle to erase expired keys —
//! an experiment that is impractical to repeat literally. The engine
//! therefore reads time through the [`Clock`] trait: production code uses
//! [`SystemClock`], while benchmarks drive a shared [`SimClock`] forward in
//! milliseconds and measure the same delays in simulated seconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Milliseconds since the Unix epoch (the engine's native time unit,
/// mirroring Redis' `mstime_t`).
pub type UnixMillis = u64;

/// A source of "now" in Unix milliseconds.
///
/// Implementations must be cheap to call: the engine consults the clock on
/// every read (lazy expiry check) and on every active-expiry cycle.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Current time in milliseconds since the Unix epoch.
    fn now_millis(&self) -> UnixMillis;

    /// Current time as a [`Duration`] since the Unix epoch.
    fn now(&self) -> Duration {
        Duration::from_millis(self.now_millis())
    }
}

/// The real wall clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now_millis(&self) -> UnixMillis {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO)
            .as_millis() as u64
    }
}

/// A manually advanced clock shared between the engine and a test/benchmark
/// driver.
///
/// Cloning a `SimClock` yields a handle to the *same* underlying instant, so
/// a benchmark can hold one handle while the database holds another.
///
/// # Example
///
/// ```
/// use kvstore::clock::{Clock, SimClock};
/// use std::time::Duration;
///
/// let clock = SimClock::new(1_000);
/// let handle = clock.clone();
/// handle.advance(Duration::from_secs(5));
/// assert_eq!(clock.now_millis(), 6_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Arc<AtomicU64>,
}

impl SimClock {
    /// Create a simulated clock starting at `start_millis`.
    #[must_use]
    pub fn new(start_millis: UnixMillis) -> Self {
        SimClock {
            now: Arc::new(AtomicU64::new(start_millis)),
        }
    }

    /// Advance the clock by `delta` and return the new time.
    pub fn advance(&self, delta: Duration) -> UnixMillis {
        self.now
            .fetch_add(delta.as_millis() as u64, Ordering::SeqCst)
            + delta.as_millis() as u64
    }

    /// Advance the clock by `millis` milliseconds and return the new time.
    pub fn advance_millis(&self, millis: u64) -> UnixMillis {
        self.now.fetch_add(millis, Ordering::SeqCst) + millis
    }

    /// Jump the clock to an absolute time. The target may be in the past,
    /// as when a wall clock is stepped back.
    pub fn set(&self, millis: UnixMillis) {
        self.now.store(millis, Ordering::SeqCst);
    }
}

impl Clock for SimClock {
    fn now_millis(&self) -> UnixMillis {
        self.now.load(Ordering::SeqCst)
    }
}

/// A shared, dynamically dispatched clock handle as stored by the engine.
pub type SharedClock = Arc<dyn Clock>;

/// Convenience constructor for the default system clock handle.
#[must_use]
pub fn system_clock() -> SharedClock {
    Arc::new(SystemClock)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic_enough() {
        let c = SystemClock;
        let a = c.now_millis();
        let b = c.now_millis();
        assert!(b >= a);
        // Sanity: later than 2020-01-01 in ms.
        assert!(a > 1_577_836_800_000);
    }

    #[test]
    fn sim_clock_starts_at_given_time() {
        let c = SimClock::new(123);
        assert_eq!(c.now_millis(), 123);
        assert_eq!(c.now(), Duration::from_millis(123));
    }

    #[test]
    fn sim_clock_advance_is_shared_across_clones() {
        let c = SimClock::new(0);
        let h = c.clone();
        assert_eq!(h.advance(Duration::from_millis(250)), 250);
        assert_eq!(c.now_millis(), 250);
        assert_eq!(c.advance_millis(750), 1_000);
        assert_eq!(h.now_millis(), 1_000);
    }

    #[test]
    fn sim_clock_set_jumps_forward() {
        let c = SimClock::new(10);
        c.set(500);
        assert_eq!(c.now_millis(), 500);
    }

    #[test]
    fn shared_clock_trait_object_works() {
        let shared: SharedClock = Arc::new(SimClock::new(77));
        assert_eq!(shared.now_millis(), 77);
        let sys = system_clock();
        assert!(sys.now_millis() > 0);
    }
}
