//! The eight Target Generation Algorithms of the study (§2.1, §4.1).
//!
//! Clean-room Rust implementations, each following its paper's algorithm:
//!
//! | TGA | Style | Core idea |
//! |-----|-------|-----------|
//! | [`entropy_ip`] (EIP) | offline | nybble-entropy segmentation + conditional segment model |
//! | [`six_gen`] (6Gen) | offline | cluster seeds into tight nybble ranges, enumerate densest |
//! | [`six_tree`] (6Tree) | offline | divisive hierarchical space tree, expand dense leaves |
//! | [`six_graph`] (6Graph) | offline | entropy-split tree + outlier-pruned pattern mining |
//! | [`six_hit`] (6Hit) | online | reinforcement (hit-reward) budget allocation over regions |
//! | [`six_scan`] (6Scan) | online | region ids encoded *in probe packets*, reward by echoed tag |
//! | [`det`] (DET) | online | density/entropy tree, hit re-insertion, UCB-style exploration |
//! | [`six_sense`] (6Sense) | online | per-segment generative model + prefix bandit + AS-diversity budget + integrated online dealiasing |
//!
//! Every generator consumes a seed list and produces `budget` unique
//! candidate addresses — a contract kept in one place, the candidate sink
//! ([`sink::Candidates`]), which every generator emits through. Online
//! generators additionally probe through a [`ScanOracle`] while generating,
//! one target per call, in emit order (re-run per scan target, per §4.1:
//! "for online generators we rerun generation for each port and protocol
//! scanned").
//!
//! The study runs every TGA at its published defaults (§4.1), so the
//! parameters are not options: each module holds them as documented
//! constants, and each generator type is a unit struct. What varies per run
//! is [`GenConfig`].
//!
//! Only generation reruns per port. What a TGA first builds from its seeds
//! — the space tree, 6Graph's pruned regions, 6Gen's clusters, 6Sense's
//! /48 arms, Entropy/IP's segment chain — depends on the seed list alone,
//! so it is a step of its own ([`TargetGenerator::fit`]): fit once per seed
//! list, then [`SeedModel::generate_tagged`] once per port, budget or RNG
//! seed. The model is read-only; a generator clones what it mutates.

pub mod det;
pub mod entropy_ip;
pub mod pattern;
pub mod sink;
pub mod six_gen;
pub mod six_graph;
pub mod six_hit;
pub mod six_scan;
pub mod six_sense;
pub mod six_tree;
pub mod space_tree;

pub use pattern::{Pattern, ValueHist};
pub use space_tree::{Region, SplitStrategy};

use std::cmp::Ordering;
use std::net::Ipv6Addr;

use netmodel::Protocol;
use sos_probe::provenance::ProvenanceLog;
use sos_probe::ScanOracle;

/// Identifies one of the eight studied TGAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TgaId {
    /// 6Sense (Williams et al., USENIX Security 2024).
    SixSense,
    /// DET (Song et al., ToN 2022).
    Det,
    /// 6Tree (Liu et al., Computer Networks 2019).
    SixTree,
    /// 6Scan (Hou et al., ToN 2023).
    SixScan,
    /// 6Graph (Yang et al., Computer Networks 2022).
    SixGraph,
    /// 6Gen (Murdock et al., IMC 2017).
    SixGen,
    /// 6Hit (Hou et al., INFOCOM 2021).
    SixHit,
    /// Entropy/IP (Foremski et al., IMC 2016).
    EntropyIp,
}

impl TgaId {
    /// All eight, in the paper's usual presentation order.
    pub const ALL: [TgaId; 8] = [
        TgaId::SixSense,
        TgaId::Det,
        TgaId::SixTree,
        TgaId::SixScan,
        TgaId::SixGraph,
        TgaId::SixGen,
        TgaId::SixHit,
        TgaId::EntropyIp,
    ];

    /// Display label as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            TgaId::SixSense => "6Sense",
            TgaId::Det => "DET",
            TgaId::SixTree => "6Tree",
            TgaId::SixScan => "6Scan",
            TgaId::SixGraph => "6Graph",
            TgaId::SixGen => "6Gen",
            TgaId::SixHit => "6Hit",
            TgaId::EntropyIp => "EIP",
        }
    }

    /// Online TGAs adapt to scan results during generation (§1).
    pub fn is_online(self) -> bool {
        matches!(
            self,
            TgaId::SixSense | TgaId::Det | TgaId::SixScan | TgaId::SixHit
        )
    }

    /// Compact provenance source id (this TGA's index in [`Self::ALL`]) —
    /// the `source` byte carried by every
    /// [`Provenance`](sos_probe::Provenance) tag.
    #[expect(
        clippy::expect_used,
        reason = "ALL contains every variant by construction"
    )]
    pub fn code(self) -> u8 {
        TgaId::ALL
            .iter()
            .position(|&t| t == self)
            .expect("TgaId in ALL") as u8
    }

    /// Inverse of [`Self::code`] (`None` for ids no TGA owns, e.g. the
    /// raw-target-list source `255`).
    pub fn from_code(code: u8) -> Option<TgaId> {
        TgaId::ALL.get(usize::from(code)).copied()
    }
}

impl std::fmt::Display for TgaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Generation parameters shared by all TGAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenConfig {
    /// Number of unique candidate addresses to produce.
    pub budget: usize,
    /// RNG seed (generation is deterministic given seeds + config +
    /// oracle behavior).
    pub seed: u64,
    /// The scan target online generators adapt to.
    pub proto: Protocol,
}

impl GenConfig {
    /// Convenience constructor.
    pub fn new(budget: usize, seed: u64, proto: Protocol) -> Self {
        GenConfig {
            budget,
            seed,
            proto,
        }
    }

    /// Returns `self` unchanged. Generation runs on one thread; this is
    /// kept only so callers written against the former worker count
    /// still compile, and goes with them.
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }
}

/// Clamp a generation round counter into the `u16` provenance birth-round
/// field, so long-budget runs that pass 65 535 rounds saturate identically
/// for every TGA ([`sink::Tag::new`] records rounds through it).
pub fn clamp_round(round: usize) -> u16 {
    round.min(u16::MAX as usize) as u16
}

/// The exploration constant of [`arm_score`].
const UCB_C: f64 = 0.15;

/// An unprobed bandit arm's score: a *seed-density estimate* from its
/// (densest) region's [`Region::density`], capped below live hit rates.
pub(crate) fn density_prior(density: f64) -> f64 {
    0.35 * (density / 4.0).exp().min(1.0)
}

/// DET's and 6Sense's arm score: its `prior` ([`density_prior`]) until
/// it is probed, then its recent hit rate `q` (exponentially decayed, so a
/// saturated arm falls off fast) plus a small bonus over its `probes`,
/// `ln_total` being the log of all arms' probes (at least 2). Density
/// first, not a classic explore-everything UCB: with far more arms than
/// rounds, a novelty bonus would never let the bandit exploit anything.
pub(crate) fn arm_score(prior: f64, probes: f64, q: f64, ln_total: f64) -> f64 {
    if probes < 1.0 {
        return prior;
    }
    q + UCB_C * (ln_total / probes).sqrt()
}

/// The indices of the first `k` keys by `order`, ties by index: the first
/// `k` of a stable sort of `0..keys.len()` by `order`. Ranking by (key in
/// `order`, index ascending) is a total order that ranks exactly as the
/// stable sort does, so a selection of the top `k` plus a sort of just
/// those `k` returns the same prefix without sorting every key.
pub(crate) fn slate(keys: &[f64], k: usize, order: impl Fn(&f64, &f64) -> Ordering) -> Vec<usize> {
    let rank = |&a: &usize, &b: &usize| order(&keys[a], &keys[b]).then(a.cmp(&b)); // a, b < keys.len()
    let mut picked: Vec<usize> = (0..keys.len()).collect();
    if k < picked.len() {
        let Some(last) = k.checked_sub(1) else {
            return Vec::new();
        };
        picked.select_nth_unstable_by(last, rank);
        picked.truncate(k);
    }
    picked.sort_unstable_by(rank);
    picked
}

/// A target generation algorithm: a seed model ([`Self::fit`]) and the
/// generation that runs on it ([`SeedModel::generate_tagged`]).
pub trait TargetGenerator {
    /// Which TGA this is.
    fn id(&self) -> TgaId;

    /// Build this TGA's model of `seeds`. Pure: it draws no RNG and probes
    /// no oracle. One fit therefore serves every port, budget and RNG
    /// seed generated from the same seed list.
    fn fit<'a>(&'a self, seeds: &'a [Ipv6Addr]) -> Box<dyn SeedModel + 'a>;

    /// [`Self::fit`] on `seeds`, then [`SeedModel::generate_tagged`].
    fn generate_tagged(
        &mut self,
        seeds: &[Ipv6Addr],
        cfg: &GenConfig,
        oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        self.fit(seeds).generate_tagged(cfg, oracle, prov)
    }

    /// [`Self::generate_tagged`] without provenance recording.
    fn generate(
        &mut self,
        seeds: &[Ipv6Addr],
        cfg: &GenConfig,
        oracle: &mut dyn ScanOracle,
    ) -> Vec<Ipv6Addr> {
        self.generate_tagged(seeds, cfg, oracle, &mut ProvenanceLog::disabled())
    }
}

/// A TGA's model of one seed list ([`TargetGenerator::fit`]).
pub trait SeedModel {
    /// Generate exactly `cfg.budget` unique candidates from the fitted
    /// seeds, with one provenance tag per candidate (internal
    /// region/cluster id, contributing-seed digest, generation round) in
    /// `prov`, in emission order. Implementations keep this emit contract —
    /// dedup, budget, one tag per address, mutation fill tagged
    /// [`REGION_FILL`](sos_probe::provenance::REGION_FILL) once the model
    /// is exhausted — by emitting only through [`sink::Candidates`] and
    /// returning its [`finish`](sink::Candidates::finish); the tagged and
    /// untagged paths are the same code, so candidate streams are
    /// bit-identical with a disabled log (`provenance_identity` test).
    ///
    /// Offline generators ignore `oracle`; online ones probe through it
    /// and adapt.
    fn generate_tagged(
        &self,
        cfg: &GenConfig,
        oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr>;
}

/// Instantiate a TGA by id (§4.1 uses default TGA parameters throughout;
/// they are the modules' constants).
///
/// ```
/// use netmodel::Protocol;
/// use sos_probe::NullOracle;
/// use tga::{build, GenConfig, TgaId};
/// let seeds: Vec<std::net::Ipv6Addr> =
///     (1..=8u128).map(|i| std::net::Ipv6Addr::from(0x2600u128 << 112 | i)).collect();
/// let out = build(TgaId::SixTree).generate(
///     &seeds,
///     &GenConfig::new(100, 42, Protocol::Icmp),
///     &mut NullOracle::default(),
/// );
/// assert_eq!(out.len(), 100); // every TGA fills its budget
/// ```
pub fn build(id: TgaId) -> Box<dyn TargetGenerator> {
    let inner: Box<dyn TargetGenerator> = match id {
        TgaId::SixSense => Box::new(six_sense::SixSense),
        TgaId::Det => Box::new(det::Det),
        TgaId::SixTree => Box::new(six_tree::SixTree),
        TgaId::SixScan => Box::new(six_scan::SixScan),
        TgaId::SixGraph => Box::new(six_graph::SixGraph),
        TgaId::SixGen => Box::new(six_gen::SixGen),
        TgaId::SixHit => Box::new(six_hit::SixHit),
        TgaId::EntropyIp => Box::new(entropy_ip::EntropyIp),
    };
    Box::new(Instrumented { inner })
}

/// Central metric-name table for this crate (`obs-metric-names` policy:
/// registry names are consts, never inline literals, so the journal,
/// manifest, and dashboards can never drift from the code).
pub mod names {
    /// Addresses generated, summed over every TGA.
    pub const GENERATED_ADDRS: &str = "tga.generated_addrs";
    /// Oracle probe packets spent during generation.
    pub const GEN_PACKETS: &str = "tga.gen_packets";
    /// Candidates emitted with a provenance tag (tagged runs only).
    pub const PROV_TAGGED: &str = "tga.provenance.tagged";
    /// Distinct provenance regions the generators emitted into.
    pub const PROV_REGIONS: &str = "tga.provenance.regions";
}

/// Transparent observability wrapper around any generator: every fit runs
/// inside a `fit` span, and every generation from its model inside a
/// `generate` span that reports throughput (`tga.generated_addrs` and
/// per-TGA counters: `generated_addrs`, and the sink's [`sink::Work`] as
/// `draws` and `fill`) without touching the address stream.
struct Instrumented {
    inner: Box<dyn TargetGenerator>,
}

impl TargetGenerator for Instrumented {
    fn id(&self) -> TgaId {
        self.inner.id()
    }

    fn fit<'a>(&'a self, seeds: &'a [Ipv6Addr]) -> Box<dyn SeedModel + 'a> {
        let label = self.inner.id().label();
        let _span = sos_obs::span_detail("fit", format!("tga={label} seeds={}", seeds.len()));
        Box::new(InstrumentedModel {
            label,
            inner: self.inner.fit(seeds),
        })
    }
}

/// [`Instrumented`]'s model: the `generate` span and counters.
struct InstrumentedModel<'a> {
    label: &'static str,
    inner: Box<dyn SeedModel + 'a>,
}

impl SeedModel for InstrumentedModel<'_> {
    fn generate_tagged(
        &self,
        cfg: &GenConfig,
        oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let label = self.label;
        let _span = sos_obs::span_detail(
            "generate",
            format!("tga={label} budget={} proto={:?}", cfg.budget, cfg.proto),
        );
        let start = sos_obs::now_s();
        let packets_before = oracle.packets_sent();
        let tagged_before = prov.len();
        let work_before = sink::work_done();
        let out = self.inner.generate_tagged(cfg, oracle, prov);
        let dur_s = sos_obs::now_s() - start;
        let gen_packets = oracle.packets_sent() - packets_before;
        let work = sink::work_done().since(work_before);
        sos_obs::counter(names::GENERATED_ADDRS).add(out.len() as u64);
        sos_obs::counter(&format!("tga.{label}.generated_addrs")).add(out.len() as u64);
        sos_obs::counter(&format!("tga.{label}.draws")).add(work.draws);
        sos_obs::counter(&format!("tga.{label}.fill")).add(work.fill);
        sos_obs::counter(names::GEN_PACKETS).add(gen_packets);
        if prov.is_enabled() {
            sos_obs::counter(names::PROV_TAGGED).add((prov.len() - tagged_before) as u64);
            let mut regions: Vec<u32> = (tagged_before..prov.len())
                .filter_map(|i| prov.get(i))
                .map(|p| p.region)
                .collect();
            regions.sort_unstable();
            regions.dedup();
            sos_obs::counter(names::PROV_REGIONS).add(regions.len() as u64);
        }
        if dur_s > 0.0 {
            let rate = (out.len() as f64 / dur_s) as u64;
            sos_obs::debug!(
                "{label}: {} addrs in {dur_s:.3}s ({rate} addrs/s), {gen_packets} online pkts",
                out.len(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_tgas_with_distinct_labels() {
        let mut labels: Vec<&str> = TgaId::ALL.iter().map(|t| t.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn online_classification_matches_paper() {
        assert!(TgaId::SixSense.is_online());
        assert!(TgaId::Det.is_online());
        assert!(TgaId::SixScan.is_online());
        assert!(TgaId::SixHit.is_online());
        assert!(!TgaId::SixTree.is_online());
        assert!(!TgaId::SixGraph.is_online());
        assert!(!TgaId::SixGen.is_online());
        assert!(!TgaId::EntropyIp.is_online());
    }

    #[test]
    fn build_constructs_every_tga() {
        for id in TgaId::ALL {
            assert_eq!(build(id).id(), id);
        }
    }

    #[test]
    fn codes_round_trip_and_stay_dense() {
        for (i, id) in TgaId::ALL.into_iter().enumerate() {
            assert_eq!(id.code(), i as u8, "code is the ALL index");
            assert_eq!(TgaId::from_code(id.code()), Some(id));
        }
        assert_eq!(TgaId::from_code(8), None);
        assert_eq!(TgaId::from_code(sos_probe::SOURCE_TARGETS), None);
    }

    #[test]
    fn clamp_round_saturates_exactly_at_the_u16_boundary() {
        assert_eq!(clamp_round(0), 0);
        assert_eq!(clamp_round(65534), 65534);
        assert_eq!(
            clamp_round(65535),
            u16::MAX,
            "boundary value is representable"
        );
        assert_eq!(clamp_round(65536), u16::MAX, "first overflow saturates");
        assert_eq!(clamp_round(usize::MAX), u16::MAX);
    }

    /// The slate as first written, kept as the reference: every index in
    /// a stable sort by `order`, cut to `k`.
    fn slate_by_full_sort(keys: &[f64], k: usize, order: fn(&f64, &f64) -> Ordering) -> Vec<usize> {
        let mut picked: Vec<usize> = (0..keys.len()).collect();
        picked.sort_by(|&a, &b| order(&keys[a], &keys[b]));
        picked.truncate(k);
        picked
    }

    /// Both orders a slate is drawn in: DET's and 6Sense's UCB scores
    /// descending, and 6Sense's least-probed arms, probes ascending.
    #[test]
    fn the_slate_is_the_stable_sorts_prefix() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(36);
        let mut cases: Vec<Vec<f64>> = vec![
            vec![],
            vec![0.5],
            vec![0.2; 40],                        // every key tied
            vec![0.0, -0.0, 0.0, -0.0, 1.0, 1.0], // signed zeros rank apart under total_cmp
            vec![f64::NEG_INFINITY, 3.0, f64::INFINITY, 3.0],
            vec![0.0, 1e6, 48.0, 0.0, 1e6 + 48.0, 48.0], // probes: unprobed, retired, probed
        ];
        for _ in 0..300 {
            // few distinct values, so ties straddle the cut
            let n = rng.gen_range(0..120);
            let levels = rng.gen_range(1..6);
            cases.push(
                (0..n)
                    .map(|_| f64::from(rng.gen_range(0..levels)) * 0.125)
                    .collect(),
            );
        }
        let descending: fn(&f64, &f64) -> Ordering = |a, b| b.total_cmp(a);
        for keys in &cases {
            for order in [descending, f64::total_cmp] {
                // fewer keys than slots, exactly as many, and more
                for k in [0, 1, 2, 4, 5, 20, 31, 32, 33, keys.len(), keys.len() + 5] {
                    assert_eq!(
                        slate(keys, k, order),
                        slate_by_full_sort(keys, k, order),
                        "k {k} over {keys:?}"
                    );
                }
            }
        }
    }
}
