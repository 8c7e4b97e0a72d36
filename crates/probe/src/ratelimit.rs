//! Token-bucket rate limiting with a virtual clock.
//!
//! Appendix A: the paper "significantly rate-limit\[s\] all scans to ten
//! thousand packets per second." The limiter here enforces the same policy;
//! in simulation it advances a *virtual* clock (so experiments report how
//! long a scan *would* take without actually sleeping), and a real
//! deployment would sleep for the returned durations.
//!
//! # The `acquire`/`advance` contract
//!
//! Tokens accrue continuously at `rate` per virtual second, capped at
//! `burst`. The virtual clock `now` moves in exactly two ways:
//!
//! - [`TokenBucket::acquire`] — takes one token. If none is available it
//!   advances `now` by the time one token takes to accrue and reports that
//!   wait. Accrual since the last refill is credited *lazily here*,
//!   against `now`, so time injected by `advance` is never lost.
//! - [`TokenBucket::advance`] — injects `dt` seconds of virtual time spent
//!   *outside* the limiter (e.g. response processing). It only moves the
//!   clock; the matching refill is computed on the next `acquire` /
//!   [`TokenBucket::available`] call.
//!
//! Under this contract a sequence of interleaved `advance` and `acquire`
//! calls can never mint more than `burst` tokens of headroom, no matter
//! how the calls are sliced. A scanner holds one bucket for its lifetime:
//! every scan, and every round and protocol of a campaign, spends from it
//! in turn.

/// A token bucket: `rate` tokens/second, capacity `burst`.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    /// Tokens as of `refilled_at`; the live balance additionally includes
    /// everything accrued between `refilled_at` and `now`.
    tokens: f64,
    /// Virtual time in seconds since the limiter was created.
    now: f64,
    /// Virtual timestamp at which `tokens` was last made exact.
    refilled_at: f64,
    /// Total virtual time spent waiting.
    waited: f64,
    /// Number of acquires that had to wait for a token.
    stalls: u64,
}

impl TokenBucket {
    /// A bucket permitting `rate` packets/second with `burst` of headroom.
    ///
    /// # Panics
    /// Panics if `rate` is not positive.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        let burst = burst.max(1.0);
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            now: 0.0,
            refilled_at: 0.0,
            waited: 0.0,
            stalls: 0,
        }
    }

    /// Snapshot the full limiter state for a campaign checkpoint. `f64`
    /// fields travel as `to_bits` so the round-trip is exact.
    pub fn snapshot(&self) -> BucketSnapshot {
        BucketSnapshot {
            rate: self.rate.to_bits(),
            burst: self.burst.to_bits(),
            tokens: self.tokens.to_bits(),
            now: self.now.to_bits(),
            refilled_at: self.refilled_at.to_bits(),
            waited: self.waited.to_bits(),
            stalls: self.stalls,
        }
    }

    /// Rebuild a limiter from a checkpoint snapshot, bit-exactly.
    pub fn restore(snap: &BucketSnapshot) -> TokenBucket {
        TokenBucket {
            rate: f64::from_bits(snap.rate),
            burst: f64::from_bits(snap.burst),
            tokens: f64::from_bits(snap.tokens),
            now: f64::from_bits(snap.now),
            refilled_at: f64::from_bits(snap.refilled_at),
            waited: f64::from_bits(snap.waited),
            stalls: snap.stalls,
        }
    }

    /// Credit all tokens accrued since the last refill, against `now`.
    fn refill_to_now(&mut self) {
        let dt = self.now - self.refilled_at;
        if dt > 0.0 {
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        }
        self.refilled_at = self.now;
    }

    /// Acquire one token, advancing the virtual clock as needed. Returns
    /// the seconds a real deployment would have slept.
    pub fn acquire(&mut self) -> f64 {
        self.refill_to_now();
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return 0.0;
        }
        // must wait until one token accrues
        let deficit = 1.0 - self.tokens;
        let wait = deficit / self.rate;
        self.now += wait;
        self.refilled_at = self.now;
        self.waited += wait;
        self.stalls += 1;
        self.tokens = 0.0;
        wait
    }

    /// Inject `dt` virtual seconds elapsed outside `acquire`. Only moves
    /// the clock; the refill is applied lazily on the next `acquire` or
    /// `available` call.
    pub fn advance(&mut self, dt: f64) {
        self.now += dt;
    }

    /// Tokens available right now (including accrual not yet credited).
    pub fn available(&mut self) -> f64 {
        self.refill_to_now();
        self.tokens
    }

    /// Total virtual seconds spent rate-limited.
    pub fn total_waited(&self) -> f64 {
        self.waited
    }

    /// Number of acquires that stalled (returned a non-zero wait).
    pub fn total_stalls(&self) -> u64 {
        self.stalls
    }
}

/// A [`TokenBucket`]'s complete state with floats as raw bits, so campaign
/// checkpoints restore the limiter's virtual clock bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketSnapshot {
    /// `rate` as `f64::to_bits`.
    pub rate: u64,
    /// `burst` as `f64::to_bits`.
    pub burst: u64,
    /// `tokens` as `f64::to_bits`.
    pub tokens: u64,
    /// `now` as `f64::to_bits`.
    pub now: u64,
    /// `refilled_at` as `f64::to_bits`.
    pub refilled_at: u64,
    /// `waited` as `f64::to_bits`.
    pub waited: u64,
    /// Stall count.
    pub stalls: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_is_free_then_limited() {
        let mut tb = TokenBucket::new(10.0, 5.0);
        for _ in 0..5 {
            assert_eq!(tb.acquire(), 0.0);
        }
        let w = tb.acquire();
        assert!(w > 0.0, "sixth packet should wait");
        assert!((w - 0.1).abs() < 1e-9, "1 token at 10/s = 0.1s, got {w}");
    }

    #[test]
    fn sustained_rate_is_enforced() {
        let mut tb = TokenBucket::new(100.0, 1.0);
        let mut total = 0.0;
        for _ in 0..1000 {
            total += tb.acquire();
        }
        // 1000 packets at 100 pps ≈ 10 seconds of waiting (minus burst)
        assert!((total - 9.99).abs() < 0.5, "waited {total}");
        assert_eq!(tb.total_waited(), total);
    }

    #[test]
    fn advance_refills() {
        let mut tb = TokenBucket::new(10.0, 10.0);
        for _ in 0..10 {
            tb.acquire();
        }
        tb.advance(1.0); // refill fully
        assert!((tb.available() - 10.0).abs() < 1e-9);
        assert_eq!(tb.acquire(), 0.0);
    }

    /// Regression (PR 4): `acquire` used to "refill" with the dead
    /// expression `(tokens + 0.0).min(burst)`, i.e. not at all — it only
    /// worked because `advance` refilled eagerly. Under the documented
    /// contract `advance` moves the clock only, so `acquire` itself must
    /// credit the elapsed virtual time or every post-drought acquire
    /// stalls spuriously.
    #[test]
    fn acquire_credits_time_injected_by_advance() {
        let mut tb = TokenBucket::new(10.0, 5.0);
        for _ in 0..5 {
            tb.acquire(); // drain the burst
        }
        tb.advance(0.35); // 3.5 tokens of virtual time pass
        assert_eq!(tb.acquire(), 0.0, "accrued tokens must be credited");
        assert_eq!(tb.acquire(), 0.0);
        assert_eq!(tb.acquire(), 0.0);
        // 3.5 accrued, 3 spent: the fourth acquire waits for the last 0.5.
        let w = tb.acquire();
        assert!((w - 0.05).abs() < 1e-9, "expected 0.05s wait, got {w}");
    }

    /// Interleaved `advance` + `acquire` can never mint more than `burst`
    /// free acquires, no matter how the idle time is sliced.
    #[test]
    fn interleaved_advance_acquire_never_exceeds_burst() {
        let mut tb = TokenBucket::new(10.0, 4.0);
        // A huge drought, injected in many slices: only `burst` free.
        for _ in 0..1000 {
            tb.advance(1.0);
        }
        let mut free = 0;
        while tb.acquire() == 0.0 {
            free += 1;
            assert!(free <= 4, "more than burst tokens after a drought");
        }
        assert_eq!(free, 4);

        // Alternating small advances with acquires: each 0.1s slice at
        // 10 pps accrues exactly one token, so nothing ever stalls and
        // nothing accumulates beyond burst.
        let mut tb = TokenBucket::new(10.0, 4.0);
        for _ in 0..4 {
            tb.acquire();
        }
        for _ in 0..50 {
            tb.advance(0.1);
            // 0.1 is not exactly representable; allow float dust.
            assert!(
                tb.acquire() < 1e-9,
                "an exact-refill acquire must not stall"
            );
            assert!(tb.available() <= 4.0 + 1e-9);
        }
    }

    #[test]
    fn paper_policy_is_10k_pps() {
        let mut tb = TokenBucket::new(10_000.0, 10_000.0);
        // consume the burst
        for _ in 0..10_000 {
            assert_eq!(tb.acquire(), 0.0);
        }
        let w = tb.acquire();
        assert!((w - 1.0 / 10_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        TokenBucket::new(0.0, 1.0);
    }

    #[test]
    fn snapshot_restore_is_bit_exact() {
        let mut tb = TokenBucket::new(333.0, 7.0);
        for _ in 0..23 {
            tb.acquire();
        }
        tb.advance(0.017);
        let snap = tb.snapshot();
        let mut restored = TokenBucket::restore(&snap);
        // The restored bucket must behave identically from here on.
        for _ in 0..40 {
            assert_eq!(tb.acquire().to_bits(), restored.acquire().to_bits());
        }
        assert_eq!(tb.snapshot(), restored.snapshot());
        assert_eq!(tb.total_stalls(), restored.total_stalls());
    }

    #[test]
    fn stalls_count_nonzero_waits_exactly() {
        let mut tb = TokenBucket::new(10.0, 5.0);
        let mut nonzero = 0u64;
        for _ in 0..20 {
            if tb.acquire() > 0.0 {
                nonzero += 1;
            }
        }
        assert_eq!(tb.total_stalls(), nonzero);
        assert_eq!(nonzero, 15, "5 burst tokens, then every acquire stalls");
    }

    #[test]
    fn burst_acquires_record_no_stalls() {
        let mut tb = TokenBucket::new(100.0, 8.0);
        for _ in 0..8 {
            assert_eq!(tb.acquire(), 0.0);
        }
        assert_eq!(tb.total_stalls(), 0);
        assert_eq!(tb.total_waited(), 0.0);
        // A refill makes the next acquire free again.
        tb.acquire();
        assert_eq!(tb.total_stalls(), 1);
        tb.advance(1.0);
        assert_eq!(tb.acquire(), 0.0);
        assert_eq!(tb.total_stalls(), 1, "refilled acquire is not a stall");
    }
}
