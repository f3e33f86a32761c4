//! Decorrelated-jitter retry backoff.
//!
//! Paces the shard supervisor's ([`crate::shard`]) restarts of crashed
//! or wedged worker processes, avoiding the retry-herd synchronization
//! plain exponential backoff suffers from. The generator is a tiny
//! xorshift64 PRNG — deterministic from its seed, dependency-free, and
//! explicitly *not* for anything security- or statistics-sensitive.

use std::time::Duration;

/// xorshift64 — a tiny, dependency-free PRNG for backoff jitter.
#[derive(Debug, Clone)]
pub struct XorShift64(u64);

impl XorShift64 {
    /// A generator seeded with `seed` (zero is remapped — xorshift has a
    /// single absorbing state at zero).
    pub fn new(seed: u64) -> Self {
        XorShift64(seed | 1)
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Decorrelated-jitter backoff: uniform in `[base, 3 · prev]`,
    /// clamped to `cap`. Successive sleeps are decorrelated (each draws
    /// from a window anchored at the *previous* sleep), which avoids the
    /// retry-herd synchronization plain exponential backoff suffers from.
    pub fn backoff(&mut self, base: Duration, prev: Duration, cap: Duration) -> Duration {
        let lo = base.as_micros() as u64;
        let hi = (prev.as_micros() as u64).saturating_mul(3).max(lo);
        let pick = if hi > lo {
            lo + self.next_u64() % (hi - lo + 1)
        } else {
            lo
        };
        Duration::from_micros(pick).min(cap)
    }
}

/// How a supervisor restarts a dead or wedged engine.
#[derive(Debug, Clone, Copy)]
pub struct RestartPolicy {
    /// Restarts allowed per shard/engine before its work migrates (or
    /// the supervisor gives up).
    pub max_restarts: u32,
    /// Lower bound of every backoff sleep.
    pub base_backoff: Duration,
    /// Upper clamp of every backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the backoff jitter (any value; zero is remapped).
    pub seed: u64,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 2,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(250),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_seed_is_remapped_and_stream_advances() {
        let mut r = XorShift64::new(0);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn backoff_is_decorrelated_within_bounds() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        let mut rng = XorShift64::new(42);
        let mut prev = base;
        for _ in 0..1000 {
            let next = rng.backoff(base, prev, cap);
            assert!(next >= base.min(cap), "sleep below base: {next:?}");
            assert!(next <= cap, "sleep above cap: {next:?}");
            assert!(
                next <= (prev * 3).max(base).min(cap),
                "sleep {next:?} outside the decorrelated window of prev {prev:?}"
            );
            prev = next;
        }
    }

    #[test]
    fn backoff_with_degenerate_window_returns_base() {
        let mut rng = XorShift64::new(7);
        let base = Duration::from_millis(30);
        // prev so small that 3·prev < base: the window collapses to base.
        let got = rng.backoff(base, Duration::from_micros(1), Duration::from_secs(1));
        assert_eq!(got, base);
    }

    #[test]
    fn backoff_is_deterministic_under_a_fixed_seed() {
        let base = Duration::from_millis(25);
        let cap = Duration::from_millis(250);
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut rng = XorShift64::new(seed);
            let mut prev = base;
            (0..64)
                .map(|_| {
                    prev = rng.backoff(base, prev, cap);
                    prev
                })
                .collect()
        };
        assert_eq!(schedule(0xC0FFEE), schedule(0xC0FFEE));
        assert_ne!(
            schedule(0xC0FFEE),
            schedule(0xBAD_C0DE),
            "different seeds must decorrelate the schedules"
        );
    }

    #[test]
    fn backoff_never_exceeds_a_cap_below_base() {
        // A cap below base is degenerate but must still be honored:
        // the clamp wins over the lower bound.
        let mut rng = XorShift64::new(3);
        let base = Duration::from_millis(100);
        let cap = Duration::from_millis(40);
        for _ in 0..100 {
            let got = rng.backoff(base, Duration::from_millis(500), cap);
            assert!(got <= cap, "{got:?} above cap {cap:?}");
        }
    }

    #[test]
    fn backoff_reaches_both_ends_of_the_window() {
        // The jitter must actually spread over [base, 3·prev]: over many
        // draws from a fixed window we expect samples near both ends.
        let base = Duration::from_millis(10);
        let prev = Duration::from_millis(100);
        let cap = Duration::from_secs(10);
        let mut rng = XorShift64::new(99);
        let draws: Vec<Duration> = (0..2000).map(|_| rng.backoff(base, prev, cap)).collect();
        let lo = draws.iter().min().unwrap();
        let hi = draws.iter().max().unwrap();
        assert!(*lo < Duration::from_millis(25), "never drew low: {lo:?}");
        assert!(*hi > Duration::from_millis(285), "never drew high: {hi:?}");
        assert!(*lo >= base && *hi <= Duration::from_millis(300));
    }
}
