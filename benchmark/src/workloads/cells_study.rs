//! `cells-study`: the same cell code on the scale rung.
//!
//! Set-up `Study::new` on the study configuration with the world at half
//! scale (1 200 ASes, scale 0.5: ≈250 k hosts, ≈170 k seeds, ≈1.3 s);
//! timed `run_tga` for all 8 TGAs on `AllActive` (≈105 k seeds), ICMP,
//! budget 150 000 (1.2 M candidates). Five times `grid-small`'s seeds and
//! budget expose the per-seed stages that grow faster than linearly (6Graph,
//! EIP, tree builds), and its `setup_s` is the one place `netmodel`,
//! `seeds`, `dealias` and the `ScanOracle::probe_batch` path do most of the
//! work while `tga` does none.
//!
//! The full `StudyConfig::study` world (1.16 M hosts) needs ≈6 s to set up
//! and ≈8 s per repetition; three repetitions of it do not fit the
//! driver's run-time cap, so the rung is taken at half scale.

use std::net::Ipv6Addr;
use std::sync::Arc;

use dealias::{DealiasMode, JointDealiaser, OfflineDealiaser, OnlineConfig, OnlineDealiaser};
use netmodel::{Protocol, World, PROTOCOLS};
use seeds::{collect_all, verify_active, SeedPipeline};
use sos_core::study::DatasetKind;
use sos_core::{run_tga, RunResult, Study, StudyConfig};
use sos_probe::{RetryPolicy, Scanner, ScannerConfig, SimTransport};
use tga::TgaId;
use v6addr::{Prefix, PrefixTrie};

use crate::names::tga_slug;
use crate::trace;
use crate::workloads::cell::{self, cell_ok, digest_cell, grid_salt, single_threaded};
use crate::workloads::{timed, with_tracing, Digest, Layers, Outcome, Workload};

const DATASET: DatasetKind = DatasetKind::AllActive;
const PROTO: Protocol = Protocol::Icmp;

/// The study configuration on the half-scale world.
pub fn config(seed: u64) -> StudyConfig {
    let mut cfg = single_threaded(StudyConfig::study(seed));
    cfg.world.num_ases = 1200;
    cfg.world.scale = 0.5;
    cfg.world.alias_regions = 240;
    cfg
}

pub struct CellsStudy;

impl Workload for CellsStudy {
    type State = Study;
    type Raw = Vec<RunResult>;

    fn setup(seed: u64) -> Study {
        Study::new(config(seed))
    }

    fn timed(study: &mut Study) -> Vec<RunResult> {
        let seeds = study.dataset(DATASET);
        let budget = study.config().budget;
        TgaId::ALL
            .into_iter()
            .map(|id| {
                run_tga(
                    study,
                    id,
                    seeds,
                    PROTO,
                    budget,
                    grid_salt(DATASET, PROTO, id),
                )
            })
            .collect()
    }

    fn verify(study: &Study, cells: Vec<RunResult>) -> Outcome {
        let budget = study.config().budget;
        let mut digest = Digest::default();
        let mut out = Outcome {
            candidates: 0,
            packets: 0,
            ops: 0,
            failed: 0,
            digest: 0,
        };
        for r in &cells {
            out.ops += 1;
            out.failed += u64::from(!cell_ok(r, budget, true));
            out.candidates += r.metrics.generated as u64;
            out.packets += r.metrics.probe_packets;
            digest_cell(&mut digest, r);
        }
        out.digest = digest.finish();
        out
    }
}

/// `Study::new(cfg)` step by step, through the same public calls, with a
/// span around each: world build, the twelve collectors, their union, the
/// three dealiasing modes, and the four-port pre-scan.
pub struct SetupParts {
    pub world: Arc<World>,
    pub collected: u64,
    pub pipeline: SeedPipeline,
    pub online_pkts: u64,
    pub joint_aliased: usize,
}

pub fn decomposed_setup(cfg: &StudyConfig) -> SetupParts {
    let world = trace::in_span("netmodel.world_build", || {
        Arc::new(World::build(cfg.world.clone()))
    });
    let collection = trace::in_span("seeds.collect", || collect_all(&world, cfg.collector));
    let collected = collection
        .sources
        .iter()
        .map(|s| s.addrs.len() as u64)
        .sum();
    let full = trace::in_span("seeds.combined", || collection.combined());

    let mut dealiaser = JointDealiaser::new(
        OfflineDealiaser::new(world.published_alias_list()),
        OnlineDealiaser::new(OnlineConfig {
            seed: cfg.gen_seed ^ 0x0a11_a5ed,
            ..OnlineConfig::default()
        }),
    );
    let mut scanner = Scanner::new(
        ScannerConfig {
            salt: 0x5eed,
            retry: RetryPolicy::fixed(cfg.scan_retries),
            rate_pps: None,
            ..ScannerConfig::default()
        },
        SimTransport::new(world.clone()),
    );

    // SeedPipeline::build, in its own order: the online dealiaser caches
    // per-prefix decisions, so the order is part of the result.
    let mut run = |span: &str, mode| {
        trace::in_span(span, || {
            dealiaser.run(mode, &mut scanner, &full, Protocol::Icmp)
        })
    };
    let offline = run("dealias.offline", DealiasMode::OfflineOnly);
    let online = run("dealias.online", DealiasMode::OnlineOnly);
    let joint = run("dealias.joint", DealiasMode::Joint);
    let activeness = trace::in_span("seeds.verify_active", || {
        verify_active(&mut scanner, &joint.clean)
    });

    let all_active: Vec<Ipv6Addr> = joint
        .clean
        .iter()
        .copied()
        .filter(|&a| activeness.is_active(a))
        .collect();
    let port_specific = PROTOCOLS.map(|proto| {
        all_active
            .iter()
            .copied()
            .filter(|&a| activeness.is_active_on(a, proto))
            .collect::<Vec<_>>()
    });
    SetupParts {
        world,
        collected,
        online_pkts: online.probe_packets,
        joint_aliased: joint.aliased.len(),
        pipeline: SeedPipeline {
            full,
            offline_dealiased: offline.clean,
            online_dealiased: online.clean,
            dealias_packets: online.probe_packets + joint.probe_packets,
            joint_dealiased: joint.clean,
            all_active,
            port_specific,
            prescan_packets: activeness.probe_packets,
        },
    }
}

/// Field-wise equality (`SeedPipeline` has no `PartialEq`).
pub fn same_pipeline(a: &SeedPipeline, b: &SeedPipeline) -> bool {
    a.full == b.full
        && a.offline_dealiased == b.offline_dealiased
        && a.online_dealiased == b.online_dealiased
        && a.joint_dealiased == b.joint_dealiased
        && a.all_active == b.all_active
        && a.port_specific == b.port_specific
        && a.dealias_packets == b.dealias_packets
        && a.prescan_packets == b.prescan_packets
}

/// Nanoseconds per call of `f` over `items`.
fn ns_per_call<T: Copy, R>(items: &[T], mut f: impl FnMut(T) -> R) -> f64 {
    let ((), s) = timed(|| {
        for &item in items {
            std::hint::black_box(f(item));
        }
    });
    s * 1e9 / items.len() as f64
}

/// The traced run: set-up and cells, each once as the product runs them
/// and once taken apart, plus the address-lookup structures the set-up
/// leans on.
pub fn traced(seed: u64, layers: &mut Layers) {
    let cfg = config(seed);
    let mut study = CellsStudy::setup(seed);
    let (composite, untraced_s) = timed(|| CellsStudy::timed(&mut study));

    let (parts, _, _) = with_tracing(|| decomposed_setup(&cfg));
    layers.check(same_pipeline(study.pipeline(), &parts.pipeline));
    layers.check(study.world().hosts().len() == parts.world.hosts().len());

    let budget = cfg.budget;
    let seeds = study.dataset(DATASET);
    let ((), traced_s, _) = with_tracing(|| {
        for (id, composite) in TgaId::ALL.into_iter().zip(&composite) {
            let cell = cell::decomposed(
                &study,
                id,
                seeds,
                PROTO,
                budget,
                grid_salt(DATASET, PROTO, id),
            );
            layers.check(cell::same_result(composite, &cell.result, true));
        }
    });
    let spans = trace::take();

    for id in TgaId::ALL {
        let slug = tga_slug(id);
        layers.set(
            format!("tga.{slug}.study_gen_s"),
            trace::total_s(&spans, &format!("tga.{slug}.generate")),
        );
    }
    let span_s = |name: &str| trace::total_s(&spans, name);
    let hosts = parts.world.hosts().len() as f64;
    layers.set("netmodel.world_build_s", span_s("netmodel.world_build"));
    layers.set(
        "netmodel.hosts_per_s",
        hosts / span_s("netmodel.world_build"),
    );
    layers.set("seeds.collect_s", span_s("seeds.collect"));
    layers.set(
        "seeds.collected_per_s",
        parts.collected as f64 / span_s("seeds.collect"),
    );
    layers.set("seeds.combined_s", span_s("seeds.combined"));
    layers.set("dealias.offline_s", span_s("dealias.offline"));
    layers.set("dealias.online_s", span_s("dealias.online"));
    layers.set("dealias.joint_s", span_s("dealias.joint"));
    layers.set("dealias.online_pkts", parts.online_pkts as f64);
    layers.set(
        "dealias.aliased_share",
        parts.joint_aliased as f64 / parts.pipeline.full.len() as f64,
    );
    layers.set("seeds.verify_active_s", span_s("seeds.verify_active"));
    layers.set(
        "seeds.verify_active_pps",
        parts.pipeline.prescan_packets as f64 / span_s("seeds.verify_active"),
    );
    layers.set_trace_overhead(traced_s, untraced_s);
    layers.spans = spans;

    // Direct calls: origin-AS lookup, and the prefix trie over this
    // world's host /64s.
    let world = study.world();
    let addrs: Vec<Ipv6Addr> = world.hosts().iter().map(|(a, _)| a).collect();
    layers.set(
        "netmodel.asn_of_ns",
        ns_per_call(&addrs, |a| world.asn_of(a)),
    );
    let mut subnets: Vec<Prefix> = addrs.iter().map(|&a| Prefix::new(a, 64)).collect();
    subnets.dedup();
    let mut trie: PrefixTrie<u32> = PrefixTrie::new();
    layers.set(
        "v6addr.trie_insert_ns",
        ns_per_call(&subnets, |p| trie.insert(p, 0)),
    );
    layers.set(
        "v6addr.trie_lookup_ns",
        ns_per_call(&addrs, |a| trie.lookup_value(a).copied()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposed_setup_reproduces_study_new_on_the_tiny_world() {
        let cfg = single_threaded(StudyConfig::tiny(29));
        let study = Study::new(cfg.clone());
        let parts = decomposed_setup(&cfg);
        assert!(same_pipeline(study.pipeline(), &parts.pipeline));
        assert_eq!(study.world().hosts().len(), parts.world.hosts().len());
        assert!(
            parts.collected >= parts.pipeline.full.len() as u64,
            "sources overlap"
        );
        assert!(!parts.pipeline.all_active.is_empty());

        let mut other = parts.pipeline.clone();
        other.all_active.pop();
        assert!(!same_pipeline(study.pipeline(), &other));
    }

    #[test]
    fn half_scale_keeps_the_study_budget() {
        let cfg = config(7);
        assert_eq!(cfg.budget, StudyConfig::study(7).budget);
        assert_eq!(
            (cfg.effective_threads(), cfg.scan_shards, cfg.gen_workers),
            (1, 1, 1)
        );
    }
}
