//! Shared study state: the world, the collected seeds, and the Table 2
//! dataset family — built once, then read by every experiment.

use std::collections::BTreeSet;
use std::net::Ipv6Addr;
use std::sync::Arc;

use dealias::{JointDealiaser, OfflineDealiaser, OnlineConfig, OnlineDealiaser};
use netmodel::{Asn, Protocol, World};
use seeds::{collect_all, SeedCollection, SeedPipeline};
use sos_probe::provenance::{AttributionTable, Provenance, ProvenanceLog};
use sos_probe::{RetryPolicy, Scanner, ScannerConfig, SimTransport};
use v6addr::AddrMap;

use crate::config::StudyConfig;
use crate::metrics::RunMetrics;

/// The Table 2 dataset selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Everything collected ("Full Dataset").
    Full,
    /// Offline-dealiased only.
    OfflineDealiased,
    /// Online-dealiased only.
    OnlineDealiased,
    /// Joint dealiased ("Dealiased").
    JointDealiased,
    /// Dealiased ∩ responsive on ≥1 target ("All Active").
    AllActive,
    /// All-active ∩ responsive on the given target ("Port-Specific").
    PortSpecific(Protocol),
}

impl DatasetKind {
    /// Row label as used in the paper's tables.
    pub fn label(self) -> String {
        match self {
            DatasetKind::Full => "All".to_string(),
            DatasetKind::OfflineDealiased => "Offline Dealiased".to_string(),
            DatasetKind::OnlineDealiased => "Online Dealiased".to_string(),
            DatasetKind::JointDealiased => "Dealiased".to_string(),
            DatasetKind::AllActive => "All Active".to_string(),
            DatasetKind::PortSpecific(p) => p.label().to_string(),
        }
    }
}

/// Evaluation of one generated address list (§4.1–§4.2).
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// The §4.1 metrics.
    pub metrics: RunMetrics,
    /// Dealiased responsive addresses (megapattern-AS filtered for ICMP).
    pub clean_hits: Vec<Ipv6Addr>,
    /// Their origin ASes.
    pub ases: BTreeSet<Asn>,
    /// Per-region discovery attribution (`Some` only when the candidates
    /// were evaluated through [`Study::evaluate_tagged`] with a recording
    /// provenance log). Probes/hits are scan-level; aliases are folded in
    /// post-dealias.
    pub attribution: Option<AttributionTable>,
}

/// One fully prepared study: world + seeds + preprocessed datasets.
pub struct Study {
    cfg: StudyConfig,
    world: Arc<World>,
    collection: SeedCollection,
    pipeline: SeedPipeline,
}

impl Study {
    /// Build the study: synthesize the world, run all twelve collectors,
    /// and materialize the Table 2 dataset family (dealiasing + pre-scan).
    pub fn new(cfg: StudyConfig) -> Study {
        let _span = sos_obs::span("study_build");
        let world = {
            let _s = sos_obs::span("world_build");
            Arc::new(World::build(cfg.world.clone()))
        };
        let collection = {
            let _s = sos_obs::span("seed_collect");
            collect_all(&world, cfg.collector)
        };
        let full = collection.combined();
        let _s = sos_obs::span("seed_pipeline");
        let mut dealiaser = JointDealiaser::new(
            OfflineDealiaser::new(world.published_alias_list()),
            OnlineDealiaser::new(OnlineConfig {
                seed: cfg.gen_seed ^ 0x0a11_a5ed,
                ..OnlineConfig::default()
            }),
        );
        let mut scanner = Self::make_scanner(&cfg, world.clone(), 0x5eed);
        let pipeline = SeedPipeline::build(full, &mut dealiaser, &mut scanner);
        Study {
            cfg,
            world,
            collection,
            pipeline,
        }
    }

    fn make_scanner(cfg: &StudyConfig, world: Arc<World>, salt: u64) -> Scanner<SimTransport> {
        Scanner::new(
            ScannerConfig {
                salt,
                retry: RetryPolicy::fixed(cfg.scan_retries),
                rate_pps: None, // virtual-time limiting is opt-in for scans
                ..ScannerConfig::default()
            },
            SimTransport::new(world),
        )
    }

    /// The study configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.cfg
    }

    /// The simulated Internet.
    pub fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// The per-source seed datasets.
    pub fn collection(&self) -> &SeedCollection {
        &self.collection
    }

    /// The preprocessed Table 2 dataset family.
    pub fn pipeline(&self) -> &SeedPipeline {
        &self.pipeline
    }

    /// A fresh scanner bound to this study's world.
    pub fn scanner(&self, salt: u64) -> Scanner<SimTransport> {
        Self::make_scanner(&self.cfg, self.world.clone(), salt)
    }

    /// The seed list for a Table 2 dataset.
    pub fn dataset(&self, kind: DatasetKind) -> &[Ipv6Addr] {
        match kind {
            DatasetKind::Full => &self.pipeline.full,
            DatasetKind::OfflineDealiased => &self.pipeline.offline_dealiased,
            DatasetKind::OnlineDealiased => &self.pipeline.online_dealiased,
            DatasetKind::JointDealiased => &self.pipeline.joint_dealiased,
            DatasetKind::AllActive => &self.pipeline.all_active,
            DatasetKind::PortSpecific(p) => self.pipeline.port_dataset(p),
        }
    }

    /// Evaluate a generated address list on `proto` per the paper's
    /// methodology: scan (§4.1 classification), two-tier dealias the
    /// responsive set (§4.2), and filter the megapattern AS from ICMP
    /// results (§4.1's AS12322 filter).
    pub fn evaluate(&self, generated: &[Ipv6Addr], proto: Protocol, salt: u64) -> EvalOutcome {
        self.evaluate_tagged(generated, proto, salt, &ProvenanceLog::disabled())
    }

    /// [`evaluate`](Study::evaluate), plus discovery attribution: when
    /// `prov` is a recording log aligned with `generated` (one tag per
    /// candidate, as produced by `generate_tagged`), the outcome carries
    /// an [`AttributionTable`] whose probe/hit sums equal the scan's
    /// top-level counters, with dealiaser-removed addresses folded in as
    /// per-region alias counts. A disabled log takes the identical scan
    /// path and yields `attribution: None` — candidate classification is
    /// bit-identical either way.
    pub fn evaluate_tagged(
        &self,
        generated: &[Ipv6Addr],
        proto: Protocol,
        salt: u64,
        prov: &ProvenanceLog,
    ) -> EvalOutcome {
        let mut scanner = self.scanner(salt);
        let report = {
            let _s = sos_obs::span_detail(
                "scan",
                format!("proto={proto:?} targets={}", generated.len()),
            );
            // One call for every case: a disabled log scans untagged.
            scanner.scan_attributed(generated.iter().copied(), proto, prov)
        };

        // Two-tier output dealiasing.
        let mut dealiaser = JointDealiaser::new(
            OfflineDealiaser::new(self.world.published_alias_list()),
            OnlineDealiaser::new(OnlineConfig {
                seed: salt ^ 0x0a11_a5ed,
                ..OnlineConfig::default()
            }),
        );
        let outcome = {
            let _s = sos_obs::span_detail(
                "dealias",
                format!("proto={proto:?} hits={}", report.hits.len()),
            );
            dealiaser.run(
                dealias::DealiasMode::Joint,
                &mut scanner,
                &report.hits,
                proto,
            )
        };

        // §4.1: the megapattern AS is filtered from ICMP evaluation.
        let mega_asn = self.world.megapattern().map(|m| m.asn);
        let mut clean_hits = outcome.clean;
        if proto == Protocol::Icmp {
            if let Some(mega_asn) = mega_asn {
                clean_hits.retain(|&a| self.world.asn_of(a) != Some(mega_asn));
            }
        }

        let ases: BTreeSet<Asn> = clean_hits
            .iter()
            .filter_map(|&a| self.world.asn_of(a))
            .collect();
        let attribution = if prov.is_enabled() {
            let mut table = report.attribution.clone();
            // Fold dealiaser-removed addresses back into the per-region
            // table. First occurrence wins, matching the scanner's dedup
            // of repeated targets. Only the aliased addresses are keyed
            // (a handful against a budget of candidates), and the walk
            // over `generated` ends with the last of them.
            let mut tag_of: AddrMap<Ipv6Addr, Option<Provenance>> =
                outcome.aliased.iter().map(|&a| (a, None)).collect();
            let mut untagged = tag_of.len();
            for (i, a) in generated.iter().enumerate() {
                if untagged == 0 {
                    break;
                }
                if let Some(slot @ None) = tag_of.get_mut(a) {
                    *slot = Some(prov.get_or_fill(i));
                    untagged -= 1;
                }
            }
            for p in outcome
                .aliased
                .iter()
                .filter_map(|a| tag_of.get(a).copied().flatten())
            {
                table.note_alias(p);
            }
            Some(table)
        } else {
            None
        };
        EvalOutcome {
            metrics: RunMetrics {
                hits: clean_hits.len(),
                ases: ases.len(),
                aliases: outcome.aliased.len(),
                generated: report.probed,
                probe_packets: scanner.packets_sent(),
            },
            clean_hits,
            ases,
            attribution,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> Study {
        Study::new(StudyConfig::tiny(123))
    }

    #[test]
    fn datasets_shrink_along_table_2() {
        let s = study();
        let full = s.dataset(DatasetKind::Full).len();
        let joint = s.dataset(DatasetKind::JointDealiased).len();
        let active = s.dataset(DatasetKind::AllActive).len();
        let icmp = s.dataset(DatasetKind::PortSpecific(Protocol::Icmp)).len();
        let udp = s.dataset(DatasetKind::PortSpecific(Protocol::Udp53)).len();
        assert!(full >= joint && joint >= active && active >= icmp);
        assert!(icmp > udp, "ICMP dataset dominates UDP53 (Table 3)");
    }

    #[test]
    fn evaluating_live_hosts_counts_them_as_hits() {
        let s = study();
        let live: Vec<Ipv6Addr> = s
            .world()
            .hosts()
            .iter()
            .filter(|(a, r)| r.responds(Protocol::Icmp) && !s.world().is_aliased(*a))
            .map(|(a, _)| a)
            .take(100)
            .collect();
        let out = s.evaluate(&live, Protocol::Icmp, 42);
        // base loss + single retry: expect ≥95% counted
        assert!(out.metrics.hits >= 95, "hits {}", out.metrics.hits);
        assert!(out.metrics.ases >= 1);
        assert_eq!(out.metrics.aliases, 0);
    }

    #[test]
    fn evaluating_aliases_counts_them_separately() {
        let s = study();
        let region = s
            .world()
            .alias_regions()
            .iter()
            .find(|r| r.loss == 0.0 && r.ports.contains(Protocol::Icmp))
            .unwrap()
            .clone();
        use rand::{rngs::SmallRng, Rng as _, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(9);
        let mut addrs = Vec::new();
        for _ in 0..50 {
            let low: u32 = rng.gen();
            addrs.push(Ipv6Addr::from(
                u128::from(region.prefix.network()) | u128::from(low),
            ));
        }
        let out = s.evaluate(&addrs, Protocol::Icmp, 43);
        assert_eq!(out.metrics.hits, 0, "aliased addresses are never hits");
        assert!(out.metrics.aliases >= 45, "aliases {}", out.metrics.aliases);
    }

    #[test]
    fn aliases_are_attributed_to_their_first_tag() {
        let s = study();
        let region = s
            .world()
            .alias_regions()
            .iter()
            .find(|r| r.loss == 0.0 && r.ports.contains(Protocol::Icmp))
            .unwrap()
            .clone();
        let aliased = |low: u128| Ipv6Addr::from(u128::from(region.prefix.network()) | low);
        // dead filler, then aliased addresses in regions 1 and 2; the
        // repeat of the first one carries region 3, which must get nothing
        let mut generated: Vec<Ipv6Addr> = (0..40u128)
            .map(|i| Ipv6Addr::from(0x3fff << 112 | i))
            .collect();
        let mut log = ProvenanceLog::recording(7);
        generated.iter().for_each(|_| log.push(0, 0xd0, 0));
        for i in 0..20u128 {
            generated.push(aliased(0x1000 + i));
            log.push(1 + (i % 2) as u32, 0xd1, 1);
        }
        generated.push(aliased(0x1000));
        log.push(3, 0xd3, 2);
        let out = s.evaluate_tagged(&generated, Protocol::Icmp, 45, &log);
        let table = out.attribution.unwrap();
        let aliases_of = |region: u32| {
            table
                .rows()
                .find(|&(_, r, _)| r == region)
                .map_or(0, |(_, _, t)| t.aliases)
        };
        assert!(out.metrics.aliases >= 18, "aliases {}", out.metrics.aliases);
        assert_eq!(
            table.totals().2,
            out.metrics.aliases as u64,
            "every alias lands in a row"
        );
        assert_eq!(aliases_of(1) + aliases_of(2), out.metrics.aliases as u64);
        assert!(aliases_of(1) > 0 && aliases_of(2) > 0);
        assert_eq!(
            (aliases_of(0), aliases_of(3)),
            (0, 0),
            "first occurrence wins"
        );
    }

    #[test]
    fn megapattern_filtered_from_icmp_only() {
        let s = study();
        let mega = s.world().megapattern().unwrap().clone();
        let world_seed = s.world().config().seed;
        let pattern: Vec<Ipv6Addr> = (0..mega.population())
            .map(|i| mega.address(i))
            .filter(|&a| mega.responds(world_seed, a))
            .take(50)
            .collect();
        assert!(!pattern.is_empty());
        let out = s.evaluate(&pattern, Protocol::Icmp, 44);
        assert_eq!(out.metrics.hits, 0, "megapattern AS filtered on ICMP");
    }

    #[test]
    fn dead_addresses_are_not_hits() {
        let s = study();
        let dead: Vec<Ipv6Addr> = (0..50u128)
            .map(|i| Ipv6Addr::from(0x3fff << 112 | i))
            .collect();
        let out = s.evaluate(&dead, Protocol::Tcp443, 45);
        assert_eq!(out.metrics.hits, 0);
        assert_eq!(out.metrics.ases, 0);
    }
}
