//! Contract tests every generator must satisfy, across edge-case inputs:
//! degenerate budgets, duplicate/identical seeds, hostile oracles. The
//! paper's methodology depends on "all TGAs successfully generated [the
//! budget] from each seed dataset" — these tests pin that guarantee.

use std::net::Ipv6Addr;

use netmodel::Protocol;
use sos_probe::provenance::ProvenanceLog;
use sos_probe::{NullOracle, ScanOracle};
use tga::{build, GenConfig, TgaId};

fn normal_seeds() -> Vec<Ipv6Addr> {
    let mut v = Vec::new();
    for site in 1..=3u128 {
        for host in 1..=15u128 {
            v.push(Ipv6Addr::from(
                0x2600_00aa_0000_0000_0000_0000_0000_0000u128 | site << 80 | host,
            ));
        }
    }
    v
}

/// `subnets` /64s × 40 seeds each, hosts spread over three nybbles.
fn subnet_seeds(subnets: u128) -> Vec<Ipv6Addr> {
    (1..=40 * subnets)
        .map(|i| {
            Ipv6Addr::from(
                0x2600_0abc_0001_0000_0000_0000_0000_0000u128 | (i % subnets) << 64 | (i * 7 + 1),
            )
        })
        .collect()
}

fn assert_budget_filled(id: TgaId, seeds: &[Ipv6Addr], budget: usize, oracle: &mut dyn ScanOracle) {
    let mut prov = ProvenanceLog::recording(id.code());
    let cfg = GenConfig::new(budget, 7, Protocol::Icmp);
    let out = build(id).generate_tagged(seeds, &cfg, oracle, &mut prov);
    assert_eq!(out.len(), budget, "{id} budget");
    assert_eq!(prov.len(), out.len(), "{id} one tag per candidate");
    let mut uniq: Vec<u128> = out.iter().map(|&a| u128::from(a)).collect();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), budget, "{id} uniqueness");
}

#[test]
fn zero_budget_yields_empty_output() {
    for id in TgaId::ALL {
        let out = build(id).generate(
            &normal_seeds(),
            &GenConfig::new(0, 7, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert!(out.is_empty(), "{id} must emit nothing for budget 0");
    }
}

#[test]
fn budget_of_one() {
    for id in TgaId::ALL {
        assert_budget_filled(id, &normal_seeds(), 1, &mut NullOracle::default());
    }
}

#[test]
fn budget_smaller_than_the_seed_set() {
    // 45 seeds, budget 10: generators must emit exactly 10 unique
    // candidates — not the seed list, not zero, no panic.
    let seeds = normal_seeds();
    assert!(seeds.len() > 10);
    for id in TgaId::ALL {
        assert_budget_filled(id, &seeds, 10, &mut NullOracle::default());
    }
}

#[test]
fn budget_smaller_than_duplicated_seed_set() {
    // Duplicates + a budget below even the *unique* seed count.
    let mut seeds = normal_seeds();
    seeds.extend(normal_seeds());
    for id in TgaId::ALL {
        assert_budget_filled(id, &seeds, 7, &mut NullOracle::default());
    }
}

#[test]
fn budgets_the_regions_do_not_divide_evenly() {
    // Per-region shares are rounded: their sum must still stop at the
    // budget (6Hit returned 2 072 for 2 048 and 684 for 683).
    for subnets in [3, 7, 13] {
        let seeds = subnet_seeds(subnets);
        for budget in [683, 2048, 3000] {
            for id in TgaId::ALL {
                assert_budget_filled(id, &seeds, budget, &mut NullOracle::default());
            }
        }
    }
}

#[test]
fn duplicate_seeds_are_harmless() {
    let mut seeds = normal_seeds();
    seeds.extend(normal_seeds());
    seeds.extend(normal_seeds());
    for id in TgaId::ALL {
        assert_budget_filled(id, &seeds, 800, &mut NullOracle::default());
    }
}

#[test]
fn single_identical_seed_universe() {
    let seeds = vec!["2600:1::1".parse().unwrap(); 50];
    for id in TgaId::ALL {
        assert_budget_filled(id, &seeds, 400, &mut NullOracle::default());
    }
}

#[test]
fn single_seed() {
    let seeds: Vec<Ipv6Addr> = vec!["2600:1:2:3::42".parse().unwrap()];
    for id in TgaId::ALL {
        assert_budget_filled(id, &seeds, 300, &mut NullOracle::default());
    }
}

/// An oracle claiming everything is alive — the worst case for online
/// generators (an all-aliased Internet). They must still terminate and
/// fill the budget uniquely.
struct YesOracle(u64);
impl ScanOracle for YesOracle {
    fn probe(&mut self, _a: Ipv6Addr, _p: Protocol) -> bool {
        self.0 += 1;
        true
    }
    fn packets_sent(&self) -> u64 {
        self.0
    }
}

#[test]
fn online_generators_survive_an_all_responsive_internet() {
    for id in TgaId::ALL.iter().copied().filter(|t| t.is_online()) {
        assert_budget_filled(id, &normal_seeds(), 1500, &mut YesOracle(0));
    }
}

/// An oracle that flips its answer on every call — maximal feedback
/// churn; generators must stay deterministic and within budget.
struct FlipOracle(u64);
impl ScanOracle for FlipOracle {
    fn probe(&mut self, _a: Ipv6Addr, _p: Protocol) -> bool {
        self.0 += 1;
        self.0 % 2 == 0
    }
    fn packets_sent(&self) -> u64 {
        self.0
    }
}

#[test]
fn online_generators_survive_flapping_feedback() {
    for id in TgaId::ALL.iter().copied().filter(|t| t.is_online()) {
        assert_budget_filled(id, &normal_seeds(), 1200, &mut FlipOracle(0));
    }
}

#[test]
fn generation_is_deterministic_per_seed_and_differs_across_seeds() {
    let seeds = normal_seeds();
    for id in TgaId::ALL {
        let a = build(id).generate(
            &seeds,
            &GenConfig::new(600, 11, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        let b = build(id).generate(
            &seeds,
            &GenConfig::new(600, 11, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(a, b, "{id} must be deterministic");
        let c = build(id).generate(
            &seeds,
            &GenConfig::new(600, 12, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_ne!(a, c, "{id} must vary with the RNG seed");
    }
}

#[test]
fn offline_generators_ignore_the_oracle_entirely() {
    let seeds = normal_seeds();
    for id in TgaId::ALL.iter().copied().filter(|t| !t.is_online()) {
        let mut oracle = NullOracle::default();
        build(id).generate(&seeds, &GenConfig::new(500, 3, Protocol::Icmp), &mut oracle);
        assert_eq!(oracle.packets_sent(), 0, "{id} is offline");
        // and output is invariant to oracle behavior
        let x = build(id).generate(
            &seeds,
            &GenConfig::new(500, 3, Protocol::Icmp),
            &mut YesOracle(0),
        );
        let y = build(id).generate(
            &seeds,
            &GenConfig::new(500, 3, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(x, y, "{id} output must not depend on the oracle");
    }
}

#[test]
fn generated_addresses_expand_around_seed_patterns() {
    // every generator should put a meaningful share of a small budget
    // inside the seeds' /40 neighborhood (they mine patterns, not noise)
    let seeds = normal_seeds();
    for id in TgaId::ALL {
        let out = build(id).generate(
            &seeds,
            &GenConfig::new(400, 5, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        let near40 = out
            .iter()
            .filter(|&&a| {
                u128::from(a) >> 88 == (0x2600_00aa_0000_0000_0000_0000_0000_0000u128 >> 88)
            })
            .count();
        assert!(
            near40 * 2 >= out.len(),
            "{id}: only {near40}/{} near the seeds",
            out.len()
        );
    }
}

/// `stream_pins`' live oracle: one /48 site answers everywhere
/// (alias-like), and one /64 in every other site answers on a dense low
/// range (real hosts, which feed the DET / 6Hit tree rebuilds).
struct Live(u64);
impl ScanOracle for Live {
    fn probe(&mut self, addr: Ipv6Addr, _p: Protocol) -> bool {
        self.0 += 1;
        let bits = u128::from(addr);
        (bits >> 80) & 0xf == 2 || ((bits >> 64) & 7 == 5 && bits as u64 <= 0x200)
    }
    fn packets_sent(&self) -> u64 {
        self.0
    }
}

/// A fitted model is read-only: one fit, generated from on every port and
/// at two budgets (in that order, so each run follows others on the same
/// model), gives every run the candidates, tags and oracle traffic of an
/// independent fit-and-generate call.
#[test]
fn one_fit_gives_the_same_streams_on_every_port_and_budget() {
    for seeds in [normal_seeds(), subnet_seeds(16)] {
        for id in TgaId::ALL {
            let generator = build(id);
            let model = generator.fit(&seeds);
            for proto in netmodel::PROTOCOLS {
                for budget in [600, 2500] {
                    let cfg = GenConfig::new(budget, 0x5EED ^ u64::from(proto.bit()), proto);
                    let (mut shared, mut own) = (
                        ProvenanceLog::recording(id.code()),
                        ProvenanceLog::recording(id.code()),
                    );
                    let (mut shared_oracle, mut own_oracle) = (Live(0), Live(0));
                    let from_model = model.generate_tagged(&cfg, &mut shared_oracle, &mut shared);
                    let independent =
                        build(id).generate_tagged(&seeds, &cfg, &mut own_oracle, &mut own);
                    let at = format!("{id} {proto:?} budget {budget} over {} seeds", seeds.len());
                    assert_eq!(from_model, independent, "{at}: candidates");
                    assert_eq!(from_model.len(), budget, "{at}: budget");
                    let tags = |log: &ProvenanceLog| {
                        (0..log.len())
                            .map(|i| log.get_or_fill(i))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(tags(&shared), tags(&own), "{at}: tags");
                    assert_eq!(shared_oracle.0, own_oracle.0, "{at}: oracle packets");
                }
            }
        }
    }
}
