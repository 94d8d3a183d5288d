//! Monotonic CAS generation.
//!
//! Couchbase derives CAS tokens from a hybrid logical clock: physical
//! nanoseconds, bumped to strictly exceed the last issued value so that CAS
//! tokens are unique and monotone even when the wall clock stalls or steps
//! backwards. We reproduce that scheme: it gives (a) unique tokens for
//! optimistic locking and (b) a roughly time-ordered metadata field usable
//! as an XDCR conflict-resolution tiebreaker (paper §4.6.1).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::ids::Cas;

/// Current wall-clock time as whole seconds since the Unix epoch.
///
/// This (together with [`Deadline`] and [`CasClock`]) is the blessed
/// wall-clock read point for the workspace: hot-path and simulated-cluster
/// code must route through `cbs_common::time` rather than calling
/// `SystemTime::now` / `Instant::now` directly, so time access stays at one
/// auditable choke point (`cargo xtask analyze` enforces this for the cluster
/// transport).
pub fn now_unix_secs() -> u32 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs() as u32).unwrap_or(0)
}

/// A monotonic deadline for timeout/retry loops.
///
/// Wraps the two `Instant::now` reads a deadline loop needs (creation and
/// expiry checks) behind one type, so call sites carry no direct wall-clock
/// reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Deadline {
        Deadline { at: Instant::now() + timeout }
    }

    /// Has the deadline passed?
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left until the deadline (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// The underlying instant, for `Condvar::wait_until`-style APIs.
    pub fn instant(&self) -> Instant {
        self.at
    }
}

/// A process-wide monotone CAS generator.
#[derive(Debug, Default)]
pub struct CasClock {
    last: AtomicU64,
}

impl CasClock {
    /// New clock starting from the current wall time.
    pub fn new() -> Self {
        CasClock { last: AtomicU64::new(0) }
    }

    /// Issue a fresh CAS token, strictly greater than any previously issued
    /// by this clock, seeded from wall-clock nanoseconds when possible.
    pub fn next(&self) -> Cas {
        let now =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
        let mut prev = self.last.load(Ordering::Relaxed);
        loop {
            let candidate = now.max(prev + 1);
            match self.last.compare_exchange_weak(
                prev,
                candidate,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Cas(candidate),
                Err(actual) => prev = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn deadline_expires() {
        let d = Deadline::after(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
        let far = Deadline::after(Duration::from_secs(3600));
        assert!(!far.expired());
        assert!(far.remaining() > Duration::from_secs(3000));
        assert!(far.instant() > Instant::now());
    }

    #[test]
    fn unix_secs_is_sane() {
        let s = now_unix_secs();
        // After 2020-01-01, before 2100.
        assert!(s > 1_577_836_800, "unix seconds too small: {s}");
    }

    #[test]
    fn cas_is_strictly_monotone() {
        let clock = CasClock::new();
        let mut prev = Cas(0);
        for _ in 0..10_000 {
            let c = clock.next();
            assert!(c > prev, "CAS must be strictly increasing");
            prev = c;
        }
    }

    #[test]
    fn cas_unique_across_threads() {
        let clock = Arc::new(CasClock::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let clock = Arc::clone(&clock);
            handles.push(std::thread::spawn(move || {
                (0..5_000).map(|_| clock.next().0).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "CAS tokens must be unique across threads");
    }
}
