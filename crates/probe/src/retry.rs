//! Adaptive retries and per-prefix circuit breakers.
//!
//! Hostile networks answer probes with silence, rate-limit escalation, and
//! blackholed prefixes. Two mechanisms keep a campaign productive there
//! without losing the workspace's determinism contract:
//!
//! - [`RetryPolicy`] — how many times to re-probe an unresponsive target
//!   and how long to back off between attempts. Backoff delays are
//!   *virtual* seconds (they advance the token-bucket clock, never the
//!   wall clock) and jitter is drawn from a seeded SplitMix64 stream keyed
//!   by `(salt, address, attempt)`, so every run replays identically.
//! - [`BreakerMap`] — a per-`(prefix, protocol)` circuit breaker. After
//!   `threshold` consecutive silent/unreachable targets inside one prefix
//!   the breaker opens and the scanner skips the prefix's remaining
//!   targets (counting them in [`ScanReport::skipped`](crate::ScanReport::skipped)),
//!   then half-opens after `cooldown` skips to let one trial probe through.
//!   Cooldown is measured in *skipped targets*, not time, which keeps the
//!   state machine a pure function of the per-prefix target sequence.

use std::net::Ipv6Addr;

use netmodel::mix::{mix2, mix3, mix_addr};
use netmodel::Protocol;
use v6addr::AddrMap;

/// Domain-separation constant for backoff jitter draws.
const JITTER_SALT: u64 = 0x6a17_7e55;

/// Map a mixed word to `[0, 1)` using its top 53 bits.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// When and how often to re-probe an unresponsive target.
///
/// `fixed(n)` reproduces the historical behaviour (n retries, no delay);
/// `exponential(..)` adds capped exponential backoff with deterministic
/// jitter and an optional per-target backoff budget.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per target, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in virtual seconds (0 = no backoff).
    pub base_delay_s: f64,
    /// Multiplier applied to the delay for each further retry.
    pub multiplier: f64,
    /// Cap on a single backoff delay (0 = uncapped).
    pub max_delay_s: f64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor drawn from `[1 - jitter, 1]`.
    pub jitter: f64,
    /// Total backoff budget per target, in virtual seconds. Attempts whose
    /// cumulative backoff would exceed the budget are not made
    /// (`INFINITY` = unlimited).
    pub budget_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::fixed(1)
    }
}

impl RetryPolicy {
    /// The historical fixed-retry behaviour: `retries` re-probes after the
    /// first attempt, no backoff, no budget.
    pub fn fixed(retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: retries.saturating_add(1),
            base_delay_s: 0.0,
            multiplier: 1.0,
            max_delay_s: 0.0,
            jitter: 0.0,
            budget_s: f64::INFINITY,
        }
    }

    /// Capped exponential backoff: delays `base, 2·base, 4·base, …` capped
    /// at `16·base`, with 50% deterministic jitter and no budget.
    pub fn exponential(max_attempts: u32, base_delay_s: f64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_delay_s: base_delay_s.max(0.0),
            multiplier: 2.0,
            max_delay_s: base_delay_s.max(0.0) * 16.0,
            jitter: 0.5,
            budget_s: f64::INFINITY,
        }
    }

    /// The backoff delay taken before `attempt` (0-based; attempt 0 is the
    /// first probe and never waits). Pure in `(self, attempt, salt, addr)`.
    pub fn delay_before(&self, attempt: u32, salt: u64, addr: u128) -> f64 {
        if attempt == 0 || self.base_delay_s <= 0.0 {
            return 0.0;
        }
        let mut raw = self.base_delay_s * self.multiplier.powi(attempt as i32 - 1);
        if self.max_delay_s > 0.0 {
            raw = raw.min(self.max_delay_s);
        }
        let j = self.jitter.clamp(0.0, 1.0);
        if j == 0.0 {
            return raw;
        }
        let h = mix3(
            mix2(salt, JITTER_SALT),
            mix_addr(salt, addr),
            u64::from(attempt),
        );
        raw * (1.0 - j * unit(h))
    }

    /// How many attempts the budget allows for `addr`: the largest
    /// `n ≤ max_attempts` whose cumulative backoff stays within
    /// `budget_s`. Always at least 1.
    pub fn attempts_allowed(&self, salt: u64, addr: u128) -> u32 {
        let max = self.max_attempts.max(1);
        if self.budget_s.is_infinite() || self.base_delay_s <= 0.0 {
            return max;
        }
        self.walk(max, self.budget_s, salt, addr).0
    }

    /// Total backoff taken across a target that used `used` attempts.
    /// Pure, so the engine accounts for backoff after the burst and lands
    /// on the same number a packet-at-a-time sender would.
    pub fn total_backoff(&self, used: u32, salt: u64, addr: u128) -> f64 {
        self.walk(used, f64::INFINITY, salt, addr).1
    }

    /// Walk `addr`'s backoff schedule — the delays before attempts
    /// `1..attempts`, summed in that order — until the sum exceeds
    /// `cap_s`. Returns how many attempts fit under the cap (at least 1)
    /// and the sum reached.
    fn walk(&self, attempts: u32, cap_s: f64, salt: u64, addr: u128) -> (u32, f64) {
        let mut spent = 0.0;
        let mut fit = 1;
        for attempt in 1..attempts {
            spent += self.delay_before(attempt, salt, addr);
            if spent > cap_s {
                break;
            }
            fit = attempt + 1;
        }
        (fit, spent)
    }
}

/// Circuit-breaker tuning. One breaker exists per
/// `(address >> (128 - prefix_len), protocol)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Prefix length that defines a breaker domain (default /48, the
    /// granularity the paper's seed datasets aggregate at).
    pub prefix_len: u8,
    /// Consecutive silent/unreachable targets that open the breaker.
    pub threshold: u32,
    /// Targets skipped while open before one trial probe is let through.
    pub cooldown: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            prefix_len: 48,
            threshold: 8,
            cooldown: 32,
        }
    }
}

impl BreakerConfig {
    /// `prefix_len` clamped to a usable range.
    pub fn effective_prefix_len(&self) -> u8 {
        self.prefix_len.clamp(1, 128)
    }
}

/// One breaker's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Probing normally; `failures` consecutive failures so far.
    Closed {
        /// Consecutive silent/unreachable targets.
        failures: u32,
    },
    /// Skipping targets; `skipped` skipped since opening.
    Open {
        /// Targets skipped while open.
        skipped: u32,
    },
    /// One trial probe is in flight; its outcome closes or re-opens.
    HalfOpen,
}

impl BreakerState {
    /// Stable numeric encoding for checkpoints: `(tag, count)`.
    pub fn encode(self) -> (u8, u32) {
        match self {
            BreakerState::Closed { failures } => (0, failures),
            BreakerState::Open { skipped } => (1, skipped),
            BreakerState::HalfOpen => (2, 0),
        }
    }

    /// Inverse of [`encode`](Self::encode); `None` for a tag it never
    /// writes.
    pub fn decode(tag: u8, count: u32) -> Option<BreakerState> {
        match tag {
            0 => Some(BreakerState::Closed { failures: count }),
            1 => Some(BreakerState::Open { skipped: count }),
            2 => Some(BreakerState::HalfOpen),
            _ => None,
        }
    }

    /// Stable state name for telemetry (journal breaker events and the
    /// `seedscan watch` breaker map).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed { .. } => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// What [`BreakerMap::admit`] decided for a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Probe the target (breaker closed, or half-open trial).
    Probe,
    /// Skip the target without sending any packet.
    Skip,
}

/// All breaker state for one scanner, keyed by
/// `(prefix bits, protocol index)`. The table is hashed, so every probe's
/// `admit` and `record` cost one hash lookup each; order is imposed only
/// where states are read out ([`BreakerMap::entries`] sorts by key), which
/// is what keeps checkpoints deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerMap {
    cfg: BreakerConfig,
    states: AddrMap<(u128, u8), BreakerState>,
    opened: u64,
    skipped: u64,
}

impl BreakerMap {
    /// An empty map with the given tuning.
    pub fn new(cfg: BreakerConfig) -> BreakerMap {
        BreakerMap {
            cfg,
            states: AddrMap::default(),
            opened: 0,
            skipped: 0,
        }
    }

    /// The tuning this map was built with.
    pub fn config(&self) -> &BreakerConfig {
        &self.cfg
    }

    /// The breaker domain of an address: its top `prefix_len` bits.
    pub fn domain_of(&self, addr: Ipv6Addr) -> u128 {
        u128::from(addr) >> (128 - u32::from(self.cfg.effective_prefix_len()))
    }

    fn key(&self, addr: Ipv6Addr, proto: Protocol) -> (u128, u8) {
        (self.domain_of(addr), proto.index() as u8)
    }

    /// Decide whether to probe `addr` on `proto`. Skips count toward the
    /// open breaker's cooldown; once `cooldown` targets have been skipped
    /// the breaker half-opens and the next target becomes a trial probe.
    pub fn admit(&mut self, addr: Ipv6Addr, proto: Protocol) -> Admission {
        let cooldown = self.cfg.cooldown.max(1);
        let state = self
            .states
            .entry(self.key(addr, proto))
            .or_insert(BreakerState::Closed { failures: 0 });
        match *state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => Admission::Probe,
            BreakerState::Open { skipped } => {
                if skipped + 1 >= cooldown {
                    *state = BreakerState::HalfOpen;
                } else {
                    *state = BreakerState::Open {
                        skipped: skipped + 1,
                    };
                }
                self.skipped += 1;
                Admission::Skip
            }
        }
    }

    /// Record a probed target's outcome. `failure` means silent or
    /// unreachable. Returns `true` when this record opened the breaker.
    pub fn record(&mut self, addr: Ipv6Addr, proto: Protocol, failure: bool) -> bool {
        let threshold = self.cfg.threshold.max(1);
        let state = self
            .states
            .entry(self.key(addr, proto))
            .or_insert(BreakerState::Closed { failures: 0 });
        match *state {
            BreakerState::Closed { failures } => {
                if !failure {
                    *state = BreakerState::Closed { failures: 0 };
                    false
                } else if failures + 1 >= threshold {
                    *state = BreakerState::Open { skipped: 0 };
                    self.opened += 1;
                    true
                } else {
                    *state = BreakerState::Closed {
                        failures: failures + 1,
                    };
                    false
                }
            }
            BreakerState::HalfOpen => {
                if failure {
                    *state = BreakerState::Open { skipped: 0 };
                    self.opened += 1;
                    true
                } else {
                    *state = BreakerState::Closed { failures: 0 };
                    false
                }
            }
            // An open breaker never probes, so there is nothing to record;
            // tolerate the call for robustness.
            BreakerState::Open { .. } => false,
        }
    }

    /// Cumulative count of open transitions.
    pub fn opened(&self) -> u64 {
        self.opened
    }

    /// Cumulative count of targets skipped by open breakers.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// All breaker states, sorted by key (for checkpoints and tests).
    pub fn entries(&self) -> Vec<((u128, u8), BreakerState)> {
        let mut rows: Vec<_> = self.states.iter().map(|(&k, &v)| (k, v)).collect();
        rows.sort_unstable_by_key(|&(key, _)| key);
        rows
    }

    /// One breaker's state by `(domain, protocol index)` key; `None` for a
    /// breaker no target has consulted yet.
    pub fn state_of(&self, key: (u128, u8)) -> Option<BreakerState> {
        self.states.get(&key).copied()
    }

    /// Rebuild a map from checkpointed state.
    pub fn restore(
        cfg: BreakerConfig,
        entries: impl IntoIterator<Item = ((u128, u8), BreakerState)>,
        opened: u64,
        skipped: u64,
    ) -> BreakerMap {
        BreakerMap {
            cfg,
            states: entries.into_iter().collect(),
            opened,
            skipped,
        }
    }

    /// Move on to a later round boundary: `changed` states overwrite or
    /// join this map's and the counters are replaced — what one round line
    /// of a checkpoint (every line after the first) replays.
    pub(crate) fn advance(
        &mut self,
        changed: impl IntoIterator<Item = ((u128, u8), BreakerState)>,
        opened: u64,
        skipped: u64,
    ) {
        self.states.extend(changed);
        self.opened = opened;
        self.skipped = skipped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(prefix: u16, low: u16) -> Ipv6Addr {
        Ipv6Addr::from((u128::from(prefix) << 112) | u128::from(low))
    }

    #[test]
    fn fixed_policy_matches_legacy_retries() {
        let p = RetryPolicy::fixed(3);
        assert_eq!(p.max_attempts, 4);
        assert_eq!(p.attempts_allowed(1, 42), 4);
        assert_eq!(p.delay_before(1, 1, 42), 0.0);
        assert_eq!(p.total_backoff(4, 1, 42), 0.0);
    }

    #[test]
    fn exponential_delays_grow_and_cap() {
        let mut p = RetryPolicy::exponential(8, 1.0);
        p.jitter = 0.0;
        assert_eq!(p.delay_before(0, 0, 0), 0.0);
        assert_eq!(p.delay_before(1, 0, 0), 1.0);
        assert_eq!(p.delay_before(2, 0, 0), 2.0);
        assert_eq!(p.delay_before(3, 0, 0), 4.0);
        assert_eq!(p.delay_before(7, 0, 0), 16.0, "capped at 16·base");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::exponential(4, 1.0);
        let d1 = p.delay_before(1, 7, 42);
        let d2 = p.delay_before(1, 7, 42);
        assert_eq!(d1, d2, "same inputs, same jitter");
        assert!(
            d1 > 0.5 - 1e-9 && d1 <= 1.0,
            "jitter scales into [0.5, 1]: {d1}"
        );
        assert_ne!(
            p.delay_before(1, 7, 42),
            p.delay_before(1, 8, 42),
            "salt decorrelates"
        );
    }

    #[test]
    fn budget_caps_attempts_but_always_allows_one() {
        let mut p = RetryPolicy::exponential(8, 1.0);
        p.budget_s = 3.5;
        p.jitter = 0.0;
        // cumulative backoff: 1, 3, 7 … → attempts 3 fit within 3.5s
        assert_eq!(p.attempts_allowed(0, 0), 3);
        let mut tight = RetryPolicy::exponential(8, 10.0);
        tight.budget_s = 0.0;
        assert_eq!(tight.attempts_allowed(0, 0), 1);
    }

    #[test]
    fn total_backoff_sums_the_delays_taken() {
        let mut p = RetryPolicy::exponential(8, 1.0);
        p.jitter = 0.0;
        assert_eq!(p.total_backoff(1, 0, 0), 0.0);
        assert_eq!(p.total_backoff(3, 0, 0), 3.0);
    }

    #[test]
    fn breaker_opens_after_threshold_consecutive_failures() {
        let cfg = BreakerConfig {
            prefix_len: 112,
            threshold: 3,
            cooldown: 2,
        };
        let mut b = BreakerMap::new(cfg);
        let p = Protocol::Icmp;
        assert!(!b.record(addr(1, 0), p, true));
        assert!(!b.record(addr(1, 1), p, true));
        // success resets the streak
        assert!(!b.record(addr(1, 2), p, false));
        assert!(!b.record(addr(1, 3), p, true));
        assert!(!b.record(addr(1, 4), p, true));
        assert!(
            b.record(addr(1, 5), p, true),
            "third consecutive failure opens"
        );
        assert_eq!(b.opened(), 1);
        assert_eq!(b.admit(addr(1, 6), p), Admission::Skip);
    }

    #[test]
    fn breaker_half_opens_after_cooldown_and_recovers() {
        let cfg = BreakerConfig {
            prefix_len: 112,
            threshold: 1,
            cooldown: 2,
        };
        let mut b = BreakerMap::new(cfg);
        let p = Protocol::Tcp80;
        assert!(
            b.record(addr(9, 0), p, true),
            "threshold 1 opens immediately"
        );
        assert_eq!(b.admit(addr(9, 1), p), Admission::Skip);
        assert_eq!(
            b.admit(addr(9, 2), p),
            Admission::Skip,
            "cooldown reached → half-open"
        );
        assert_eq!(b.admit(addr(9, 3), p), Admission::Probe, "trial probe");
        assert!(!b.record(addr(9, 3), p, false));
        assert_eq!(b.admit(addr(9, 4), p), Admission::Probe, "closed again");
        assert_eq!(b.skipped(), 2);
    }

    #[test]
    fn breaker_reopens_on_failed_trial() {
        let cfg = BreakerConfig {
            prefix_len: 112,
            threshold: 1,
            cooldown: 1,
        };
        let mut b = BreakerMap::new(cfg);
        let p = Protocol::Udp53;
        b.record(addr(3, 0), p, true);
        assert_eq!(
            b.admit(addr(3, 1), p),
            Admission::Skip,
            "skip counts as the full cooldown"
        );
        assert_eq!(b.admit(addr(3, 2), p), Admission::Probe);
        assert!(b.record(addr(3, 2), p, true), "failed trial re-opens");
        assert_eq!(b.opened(), 2);
    }

    #[test]
    fn breakers_are_per_prefix_and_per_protocol() {
        let cfg = BreakerConfig {
            prefix_len: 112,
            threshold: 1,
            cooldown: 8,
        };
        let mut b = BreakerMap::new(cfg);
        b.record(addr(1, 0), Protocol::Icmp, true);
        assert_eq!(b.admit(addr(1, 1), Protocol::Icmp), Admission::Skip);
        assert_eq!(
            b.admit(addr(1, 1), Protocol::Tcp80),
            Admission::Probe,
            "other proto unaffected"
        );
        assert_eq!(
            b.admit(addr(2, 1), Protocol::Icmp),
            Admission::Probe,
            "other prefix unaffected"
        );
    }

    /// The ordered map `BreakerMap` was built on: the same state machine
    /// over a `BTreeMap`. The model test holds the hashed map to it.
    #[derive(Debug, Default)]
    struct Reference {
        states: std::collections::BTreeMap<(u128, u8), BreakerState>,
        opened: u64,
        skipped: u64,
    }

    impl Reference {
        fn admit(&mut self, cfg: &BreakerConfig, key: (u128, u8)) -> Admission {
            let state = self
                .states
                .entry(key)
                .or_insert(BreakerState::Closed { failures: 0 });
            match *state {
                BreakerState::Closed { .. } | BreakerState::HalfOpen => Admission::Probe,
                BreakerState::Open { skipped } => {
                    *state = if skipped + 1 >= cfg.cooldown.max(1) {
                        BreakerState::HalfOpen
                    } else {
                        BreakerState::Open {
                            skipped: skipped + 1,
                        }
                    };
                    self.skipped += 1;
                    Admission::Skip
                }
            }
        }

        fn record(&mut self, cfg: &BreakerConfig, key: (u128, u8), failure: bool) -> bool {
            let state = self
                .states
                .entry(key)
                .or_insert(BreakerState::Closed { failures: 0 });
            let next = match (*state, failure) {
                (BreakerState::Open { .. }, _) => return false,
                (_, false) => BreakerState::Closed { failures: 0 },
                (BreakerState::Closed { failures }, true)
                    if failures + 1 < cfg.threshold.max(1) =>
                {
                    BreakerState::Closed {
                        failures: failures + 1,
                    }
                }
                (_, true) => BreakerState::Open { skipped: 0 },
            };
            *state = next;
            let opened = matches!(next, BreakerState::Open { .. });
            self.opened += u64::from(opened);
            opened
        }

        fn entries(&self) -> Vec<((u128, u8), BreakerState)> {
            self.states.iter().map(|(&k, &v)| (k, v)).collect()
        }
    }

    fn agrees(map: &BreakerMap, model: &Reference, at: &str) {
        assert_eq!(map.entries(), model.entries(), "{at}: entries");
        assert_eq!(
            (map.opened(), map.skipped()),
            (model.opened, model.skipped),
            "{at}: counters"
        );
    }

    /// Random admit / record sequences over a few dozen domains: the
    /// hashed map lists, counts, looks up and decides exactly what the
    /// ordered one does.
    #[test]
    fn breaker_map_agrees_with_the_ordered_model() {
        for seed in 0..40u64 {
            let mut rng = v6addr::SplitMix64::new(seed);
            let mut draw = |n: u64| (rng.next_u64() % n) as u16;
            let cfg = BreakerConfig {
                prefix_len: 112,
                threshold: 1 + u32::from(draw(4)),
                cooldown: 1 + u32::from(draw(4)),
            };
            let (mut map, mut model) = (BreakerMap::new(cfg), Reference::default());
            let key = |a: Ipv6Addr, p: Protocol| (u128::from(a) >> 16, p.index() as u8);
            for step in 0..400 {
                let (a, p) = (
                    addr(draw(24), draw(1000)),
                    netmodel::PROTOCOLS[usize::from(draw(4))],
                );
                if draw(2) == 0 {
                    assert_eq!(
                        map.admit(a, p),
                        model.admit(&cfg, key(a, p)),
                        "seed {seed} step {step}"
                    );
                } else {
                    let failure = draw(4) != 0;
                    assert_eq!(
                        map.record(a, p, failure),
                        model.record(&cfg, key(a, p), failure)
                    );
                }
                agrees(&map, &model, &format!("seed {seed} step {step}"));
                let probe = key(addr(draw(24), 0), p);
                assert_eq!(
                    map.state_of(probe),
                    model.states.get(&probe).copied(),
                    "seed {seed} step {step}: state_of"
                );
            }
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        for s in [
            BreakerState::Closed { failures: 5 },
            BreakerState::Open { skipped: 2 },
            BreakerState::HalfOpen,
        ] {
            let (t, c) = s.encode();
            assert_eq!(BreakerState::decode(t, c), Some(s));
        }
        assert_eq!(
            BreakerState::decode(3, 0),
            None,
            "a tag nobody wrote is not a closed breaker"
        );
    }
}
