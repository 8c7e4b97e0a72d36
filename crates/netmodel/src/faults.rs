//! Deterministic hostile-network fault injection.
//!
//! Real IPv6 scans run against networks that throttle, blackhole, and
//! rate-limit scanners (PAPERS.md: Egloff et al. on scanner adaptation,
//! the CoNEXT'25 telescope study on per-source ICMP rate-limit
//! escalation). The static `base_loss`/`alias_loss` model cannot express
//! those regimes, so a [`FaultPlan`] layers four *correlated, stateful*
//! fault families on top of the oracle, all keyed by the shared
//! splitmix64 so every decision is reproducible:
//!
//! - **Correlated loss bursts** — per-prefix epochs during which every
//!   probe sees elevated loss (congestion events, not i.i.d. noise).
//! - **Rate-limit escalation** — the more a prefix has been probed, the
//!   more likely the next probe is policed, up to a cap (the telescope
//!   study's per-source ICMP escalation against dense probers).
//! - **Prefix blackholes** — a fraction of prefixes go completely dark,
//!   flipping on/off at epoch boundaries (BGP withdrawal / RTBH analog).
//! - **Throttle epochs** — probes pass but accrue extra virtual latency.
//!
//! # The virtual clock
//!
//! Fault state must be *identical under any shard interleaving* (the
//! scan engine's sequential and sharded paths must produce bit-identical
//! reports). Wall-clock time cannot provide that, so the plan's time
//! axis is the **per-prefix probe index** ("density"): the nth probe a
//! scanner sends into a prefix on a protocol sees the same network
//! no matter how probes to *other* prefixes interleave around it. Under
//! a fixed probe rate this is exactly proportional to virtual time, and
//! it is the same determinism device the oracle already uses for
//! per-`(address, attempt)` loss. The density counter itself lives in
//! the transport (it is scanner-side state); the plan is pure.

use crate::mix::{chance, mix2, mix3};
use crate::services::Protocol;

/// What the fault layer does to one probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEffect {
    /// No fault: the probe reaches the oracle untouched.
    Pass,
    /// The probe (or its response) is dropped silently.
    Drop(FaultKind),
    /// The probe passes but accrues extra virtual latency (seconds).
    Delay(f64),
}

/// Which fault family dropped a probe (for accounting/debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The prefix is blackholed in the current epoch.
    Blackhole,
    /// Rate-limit escalation policed the probe.
    RateLimit,
    /// A correlated loss burst ate the probe.
    Burst,
}

/// All knobs of the fault layer. `FaultConfig::default()` (and the
/// `off` preset) disables every family, so worlds built from older
/// configurations behave exactly as before.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Master switch; when false every probe passes untouched.
    pub enabled: bool,
    /// Fault-domain granularity: faults are decided per /`prefix_len`
    /// (default 48, the breaker's granularity too).
    pub prefix_len: u8,
    /// Probability a given per-prefix epoch is a correlated loss burst.
    pub burst_rate: f64,
    /// Per-probe drop probability inside a burst epoch.
    pub burst_loss: f64,
    /// Probes per burst epoch (per prefix).
    pub burst_epoch: u32,
    /// Probes a prefix absorbs before rate-limit escalation starts.
    pub ratelimit_threshold: u32,
    /// Drop probability added per probe beyond the threshold.
    pub ratelimit_slope: f64,
    /// Escalation cap.
    pub ratelimit_max: f64,
    /// Fraction of prefixes that are blackhole candidates.
    pub blackhole_fraction: f64,
    /// Fraction of epochs a candidate prefix is actually dark.
    pub blackhole_duty: f64,
    /// Probes per blackhole epoch (per prefix).
    pub blackhole_epoch: u32,
    /// Probability a given per-prefix epoch is throttled.
    pub throttle_rate: f64,
    /// Extra virtual seconds added to each probe in a throttled epoch.
    pub throttle_delay_s: f64,
    /// Probes per throttle epoch (per prefix).
    pub throttle_epoch: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl FaultConfig {
    /// The cooperative-network baseline: no faults at all.
    pub fn off() -> FaultConfig {
        FaultConfig {
            enabled: false,
            prefix_len: 48,
            burst_rate: 0.0,
            burst_loss: 0.0,
            burst_epoch: 64,
            ratelimit_threshold: u32::MAX,
            ratelimit_slope: 0.0,
            ratelimit_max: 0.0,
            blackhole_fraction: 0.0,
            blackhole_duty: 0.0,
            blackhole_epoch: 256,
            throttle_rate: 0.0,
            throttle_delay_s: 0.0,
            throttle_epoch: 64,
        }
    }

    /// Correlated congestion: 20% of epochs lose 60% of probes.
    pub fn bursty() -> FaultConfig {
        FaultConfig {
            enabled: true,
            burst_rate: 0.2,
            burst_loss: 0.6,
            burst_epoch: 32,
            ..Self::off()
        }
    }

    /// Telescope-style per-source rate-limit escalation: after 32 probes
    /// into a prefix, every further probe adds 1% drop chance, to 90%.
    pub fn ratelimited() -> FaultConfig {
        FaultConfig {
            enabled: true,
            ratelimit_threshold: 32,
            ratelimit_slope: 0.01,
            ratelimit_max: 0.9,
            ..Self::off()
        }
    }

    /// `fraction` of prefixes blackholed, dark `duty` of the time.
    pub fn blackholes(fraction: f64, duty: f64) -> FaultConfig {
        FaultConfig {
            enabled: true,
            blackhole_fraction: fraction,
            blackhole_duty: duty,
            blackhole_epoch: 64,
            ..Self::off()
        }
    }

    /// Latency epochs: 30% of epochs add 50 ms of virtual delay per probe.
    pub fn throttled() -> FaultConfig {
        FaultConfig {
            enabled: true,
            throttle_rate: 0.3,
            throttle_delay_s: 0.05,
            throttle_epoch: 32,
            ..Self::off()
        }
    }

    /// Everything at once, at moderate intensity — the chaos-test regime.
    pub fn hostile() -> FaultConfig {
        FaultConfig {
            enabled: true,
            burst_rate: 0.15,
            burst_loss: 0.5,
            burst_epoch: 32,
            ratelimit_threshold: 64,
            ratelimit_slope: 0.005,
            ratelimit_max: 0.8,
            blackhole_fraction: 0.1,
            blackhole_duty: 0.6,
            blackhole_epoch: 64,
            throttle_rate: 0.2,
            throttle_delay_s: 0.02,
            throttle_epoch: 32,
            ..Self::off()
        }
    }

    /// Every named preset, as the CLI's `--faults` spells it, in the
    /// order its usage lists them.
    pub const PRESETS: &[Preset] = &[
        ("off", Self::off),
        ("bursty", Self::bursty),
        ("ratelimited", Self::ratelimited),
        ("blackholes", || Self::blackholes(0.5, 1.0)),
        ("throttled", Self::throttled),
        ("hostile", Self::hostile),
    ];

    /// Look up a preset by CLI name.
    pub fn preset(name: &str) -> Option<FaultConfig> {
        let (_, make) = Self::PRESETS.iter().find(|(n, _)| *n == name)?;
        Some(make())
    }
}

/// A named preset: its `--faults` name and its constructor.
type Preset = (&'static str, fn() -> FaultConfig);

/// A compiled, seeded fault schedule. Pure: every decision is a
/// function of `(prefix, protocol, density)` and the plan seed, so two
/// scans that send the same probe sequence into a prefix see the same
/// faults — regardless of shard count or interleaving.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    seed: u64,
}

/// The epoch indices of each fault family at one probe density — what
/// [`FaultPlan::epochs_at`] reads off the per-prefix virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEpochs {
    /// Correlated-loss burst epoch index.
    pub burst: u32,
    /// Blackhole on/off epoch index.
    pub blackhole: u32,
    /// Throttle epoch index.
    pub throttle: u32,
}

impl FaultEpochs {
    /// `(family name, epoch index)` in a fixed order, for diffing and
    /// event emission.
    pub fn families(&self) -> [(&'static str, u32); 3] {
        [
            ("burst", self.burst),
            ("blackhole", self.blackhole),
            ("throttle", self.throttle),
        ]
    }
}

/// Domain-separation constants for the plan's independent decision
/// streams (arbitrary, fixed).
const BH_SITE: u64 = 0xb1ac_401e;
const BH_EPOCH: u64 = 0xb1ac_e90c;
const RL_ROLL: u64 = 0x4a7e_1137;
const BURST_EPOCH: u64 = 0xb045_7e90;
const BURST_ROLL: u64 = 0xb045_7011;
const THROTTLE_EPOCH: u64 = 0x7407_7e90;

impl FaultPlan {
    /// Compile `cfg` under `world_seed` (epoch lengths are normalized to
    /// at least one probe, `prefix_len` to the `1..=128` that
    /// [`FaultPlan::domain_of`] can shift by).
    pub fn new(mut cfg: FaultConfig, world_seed: u64) -> FaultPlan {
        cfg.prefix_len = cfg.prefix_len.clamp(1, 128);
        cfg.burst_epoch = cfg.burst_epoch.max(1);
        cfg.blackhole_epoch = cfg.blackhole_epoch.max(1);
        cfg.throttle_epoch = cfg.throttle_epoch.max(1);
        FaultPlan {
            cfg,
            seed: mix2(world_seed, 0xfa_017),
        }
    }

    /// The configuration this plan was compiled from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Does the plan do anything at all? (Hot-path gate: one branch.)
    #[inline]
    pub fn active(&self) -> bool {
        self.cfg.enabled
    }

    /// Fault-domain granularity in bits, always in `1..=128`.
    pub fn prefix_len(&self) -> u8 {
        self.cfg.prefix_len
    }

    /// The fault-domain key of an address: its top `prefix_len` bits.
    #[inline]
    pub fn domain_of(&self, addr: u128) -> u128 {
        if self.cfg.prefix_len >= 128 {
            addr
        } else {
            addr >> (128 - u32::from(self.cfg.prefix_len))
        }
    }

    /// Is this prefix a blackhole candidate (dark for `blackhole_duty`
    /// of its epochs)? Exposed so tests and breakers can partition the
    /// world into live and dark prefixes.
    pub fn blackhole_candidate(&self, domain: u128) -> bool {
        chance(
            mix2(self.seed, BH_SITE),
            domain,
            self.cfg.blackhole_fraction,
        )
    }

    /// The per-family epoch indices of the `density`-th probe into a
    /// domain — the fault layer's virtual-clock readout. Campaign
    /// telemetry diffs these across round boundaries to report epoch
    /// transitions without re-deriving epoch arithmetic from the config.
    pub fn epochs_at(&self, density: u32) -> FaultEpochs {
        FaultEpochs {
            burst: density / self.cfg.burst_epoch,
            blackhole: density / self.cfg.blackhole_epoch,
            throttle: density / self.cfg.throttle_epoch,
        }
    }

    /// Whether `domain` is dark during blackhole epoch `epoch` — the same
    /// decision [`FaultPlan::effect`] applies, exposed per epoch so
    /// observers can label a transition as entering or leaving darkness.
    pub fn blackhole_dark(&self, domain: u128, epoch: u32) -> bool {
        self.blackhole_candidate(domain)
            && chance(
                mix3(self.seed, BH_EPOCH, u64::from(epoch)),
                domain,
                self.cfg.blackhole_duty,
            )
    }

    /// Decide the fate of the `density`-th probe into `domain` on
    /// `proto`. Precedence: blackhole, then rate-limit policing, then
    /// correlated burst loss, then throttle latency.
    pub fn effect(&self, domain: u128, proto: Protocol, density: u32) -> FaultEffect {
        if !self.cfg.enabled {
            return FaultEffect::Pass;
        }
        let proto_seed = mix2(self.seed, proto.index() as u64);

        // The on/off schedule is per prefix (not per protocol): a
        // withdrawn route is dark for every probe type.
        if self.blackhole_dark(domain, density / self.cfg.blackhole_epoch) {
            return FaultEffect::Drop(FaultKind::Blackhole);
        }

        if density > self.cfg.ratelimit_threshold {
            let over = f64::from(density - self.cfg.ratelimit_threshold);
            let p = (over * self.cfg.ratelimit_slope).min(self.cfg.ratelimit_max);
            if chance(mix3(proto_seed, RL_ROLL, u64::from(density)), domain, p) {
                return FaultEffect::Drop(FaultKind::RateLimit);
            }
        }

        if self.cfg.burst_rate > 0.0 {
            let epoch = u64::from(density / self.cfg.burst_epoch);
            // One roll decides the whole epoch — that is what makes the
            // loss *correlated* rather than i.i.d. like `base_loss`.
            if chance(
                mix3(proto_seed, BURST_EPOCH, epoch),
                domain,
                self.cfg.burst_rate,
            ) && chance(
                mix3(proto_seed, BURST_ROLL, u64::from(density)),
                domain,
                self.cfg.burst_loss,
            ) {
                return FaultEffect::Drop(FaultKind::Burst);
            }
        }

        if self.cfg.throttle_rate > 0.0 {
            let epoch = u64::from(density / self.cfg.throttle_epoch);
            if chance(
                mix3(proto_seed, THROTTLE_EPOCH, epoch),
                domain,
                self.cfg.throttle_rate,
            ) {
                return FaultEffect::Delay(self.cfg.throttle_delay_s);
            }
        }

        FaultEffect::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(cfg: FaultConfig) -> FaultPlan {
        FaultPlan::new(cfg, 0x5eed)
    }

    #[test]
    fn disabled_plan_always_passes() {
        let p = plan(FaultConfig::off());
        assert!(!p.active());
        for d in 0..500 {
            assert_eq!(p.effect(0xabc, Protocol::Icmp, d), FaultEffect::Pass);
        }
    }

    #[test]
    fn out_of_range_prefix_len_is_clamped_once() {
        let with_len = |prefix_len| {
            plan(FaultConfig {
                prefix_len,
                ..FaultConfig::hostile()
            })
        };
        let addr = 0x2001_0db8_0000_0001_0000_0000_0000_0042u128;
        for (given, effective) in [(0u8, 1u8), (1, 1), (128, 128), (200, 128)] {
            let (got, want) = (with_len(given), with_len(effective));
            assert_eq!(got.prefix_len(), effective, "prefix_len {given}");
            assert_eq!(
                got.domain_of(addr),
                want.domain_of(addr),
                "prefix_len {given}"
            );
            assert_eq!(
                got.domain_of(u128::MAX),
                want.domain_of(u128::MAX),
                "prefix_len {given}"
            );
        }
        assert_eq!(with_len(0).domain_of(addr), 0, "a /1 domain is the top bit");
        assert_eq!(
            with_len(200).domain_of(addr),
            addr,
            "a /128 domain is the address"
        );
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = plan(FaultConfig::hostile());
        let b = plan(FaultConfig::hostile());
        for d in 0..2000 {
            assert_eq!(
                a.effect(77, Protocol::Icmp, d),
                b.effect(77, Protocol::Icmp, d)
            );
        }
    }

    #[test]
    fn blackhole_fraction_is_approximately_respected() {
        let p = plan(FaultConfig::blackholes(0.5, 1.0));
        let dark = (0..2000u128)
            .filter(|&pre| p.blackhole_candidate(pre))
            .count();
        let frac = dark as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.05, "dark fraction {frac}");
        // duty 1.0: a candidate is dark at every density
        let cand = (0..2000u128)
            .find(|&pre| p.blackhole_candidate(pre))
            .unwrap();
        for d in [0, 63, 64, 1000] {
            assert_eq!(
                p.effect(cand, Protocol::Udp53, d),
                FaultEffect::Drop(FaultKind::Blackhole)
            );
        }
        // a non-candidate is never blackholed
        let live = (0..2000u128)
            .find(|&pre| !p.blackhole_candidate(pre))
            .unwrap();
        for d in 0..200 {
            assert_eq!(p.effect(live, Protocol::Icmp, d), FaultEffect::Pass);
        }
    }

    #[test]
    fn partial_duty_blackholes_flip_at_epoch_boundaries() {
        let p = plan(FaultConfig::blackholes(1.0, 0.5));
        // Within one epoch the verdict is constant; across epochs it flips.
        let epoch_len = p.config().blackhole_epoch;
        let mut dark_epochs = 0;
        let mut seen_flip = false;
        let mut prev = None;
        for e in 0..64u32 {
            let verdict = p.effect(42, Protocol::Icmp, e * epoch_len);
            for i in 1..epoch_len {
                assert_eq!(p.effect(42, Protocol::Icmp, e * epoch_len + i), verdict);
            }
            let dark = verdict != FaultEffect::Pass;
            dark_epochs += usize::from(dark);
            if prev.is_some_and(|p: bool| p != dark) {
                seen_flip = true;
            }
            prev = Some(dark);
        }
        assert!(seen_flip, "duty 0.5 must flip on/off across epochs");
        assert!(
            (8..=56).contains(&dark_epochs),
            "dark {dark_epochs}/64 epochs"
        );
    }

    #[test]
    fn ratelimit_escalates_with_density() {
        let p = plan(FaultConfig::ratelimited());
        let drops_low: usize = (0..2000u128)
            .filter(|&pre| matches!(p.effect(pre, Protocol::Icmp, 40), FaultEffect::Drop(_)))
            .count();
        let drops_high: usize = (0..2000u128)
            .filter(|&pre| matches!(p.effect(pre, Protocol::Icmp, 120), FaultEffect::Drop(_)))
            .count();
        assert!(
            drops_low < drops_high,
            "policing must escalate: {drops_low} vs {drops_high}"
        );
        // Below the threshold nothing is ever policed.
        for pre in 0..500u128 {
            assert_eq!(p.effect(pre, Protocol::Icmp, 10), FaultEffect::Pass);
        }
    }

    #[test]
    fn burst_loss_is_correlated_within_epochs() {
        let p = plan(FaultConfig::bursty());
        let epoch = p.config().burst_epoch;
        // Find a bursty epoch, then confirm its drops cluster inside it
        // while a quiet epoch of the same prefix has none.
        let mut bursty_prefix = None;
        'outer: for pre in 0..200u128 {
            let e0_drops = (0..epoch)
                .filter(|&d| matches!(p.effect(pre, Protocol::Icmp, d), FaultEffect::Drop(_)))
                .count();
            let e1_drops = (0..epoch)
                .filter(|&d| {
                    matches!(
                        p.effect(pre, Protocol::Icmp, epoch + d),
                        FaultEffect::Drop(_)
                    )
                })
                .count();
            if e0_drops > 0 && e1_drops == 0 || e0_drops == 0 && e1_drops > 0 {
                bursty_prefix = Some(pre);
                break 'outer;
            }
        }
        assert!(
            bursty_prefix.is_some(),
            "some prefix has a bursty epoch next to a quiet one"
        );
    }

    #[test]
    fn throttle_delays_whole_epochs() {
        let p = plan(FaultConfig::throttled());
        let epoch = p.config().throttle_epoch;
        let delayed =
            |pre: u128, d: u32| matches!(p.effect(pre, Protocol::Icmp, d), FaultEffect::Delay(_));
        let mut throttled_epochs = 0;
        for pre in 0..50u128 {
            for e in 0..8u32 {
                let first = delayed(pre, e * epoch);
                for i in 1..epoch {
                    assert_eq!(delayed(pre, e * epoch + i), first, "delay is per epoch");
                }
                throttled_epochs += usize::from(first);
            }
        }
        let frac = throttled_epochs as f64 / 400.0;
        assert!((frac - 0.3).abs() < 0.1, "throttled fraction {frac}");
    }

    #[test]
    fn epoch_readout_matches_effect_boundaries() {
        let p = plan(FaultConfig::hostile());
        let cfg = p.config().clone();
        for d in [0, 1, 31, 32, 63, 64, 1000] {
            let e = p.epochs_at(d);
            assert_eq!(e.burst, d / cfg.burst_epoch);
            assert_eq!(e.blackhole, d / cfg.blackhole_epoch);
            assert_eq!(e.throttle, d / cfg.throttle_epoch);
        }
        let families = p.epochs_at(64).families();
        assert_eq!(
            families.map(|(name, _)| name),
            ["burst", "blackhole", "throttle"]
        );
        // blackhole_dark agrees with effect(): at duty 1.0 a candidate is
        // dark in every epoch, and effect() reports the same drop.
        let bh = plan(FaultConfig::blackholes(1.0, 1.0));
        for d in [0u32, 63, 64, 500] {
            let epoch = bh.epochs_at(d).blackhole;
            assert_eq!(
                bh.blackhole_dark(42, epoch),
                bh.effect(42, Protocol::Icmp, d) == FaultEffect::Drop(FaultKind::Blackhole),
            );
        }
    }

    #[test]
    fn presets_resolve_by_name() {
        assert!(FaultConfig::preset("off").is_some_and(|c| !c.enabled));
        assert!(FaultConfig::preset("hostile").is_some_and(|c| c.enabled));
        assert!(FaultConfig::preset("blackholes").is_some_and(|c| c.blackhole_fraction == 0.5));
        assert!(FaultConfig::preset("nope").is_none());
        for &(name, make) in FaultConfig::PRESETS {
            let cfg = FaultConfig::preset(name);
            assert!(cfg.is_some_and(|c| c == make()), "{name}");
        }
    }

    #[test]
    fn epoch_lengths_are_normalized() {
        let cfg = FaultConfig {
            burst_epoch: 0,
            blackhole_epoch: 0,
            throttle_epoch: 0,
            ..FaultConfig::hostile()
        };
        let p = FaultPlan::new(cfg, 1);
        assert!(p.config().burst_epoch >= 1);
        assert!(p.config().blackhole_epoch >= 1);
        assert!(p.config().throttle_epoch >= 1);
    }
}
