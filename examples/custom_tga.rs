//! Bring your own generator: implement [`tga::TargetGenerator`] (fit a
//! model of the seeds) and [`tga::SeedModel`] (generate from it), and
//! evaluate it with the paper's methodology against the built-in eight.
//!
//! The custom generator here is deliberately naive — "LastByte": take every
//! seed's /64 and enumerate `::0 … ::ff` in each — yet it beats Entropy/IP
//! on hits in most worlds, which is itself a finding the paper would
//! appreciate: structure exploitation beats statistical resampling.
//!
//! ```sh
//! cargo run --release -p sos-core --example custom_tga
//! ```

use std::collections::HashSet;
use std::net::Ipv6Addr;

use netmodel::Protocol;
use sos_core::study::DatasetKind;
use sos_core::{Study, StudyConfig};
use sos_probe::provenance::{seed_digest, ProvenanceLog};
use sos_probe::ScanOracle;
use tga::{GenConfig, SeedModel, TargetGenerator, TgaId};

/// The naive baseline: sweep `::0..=::ff` of every seed /64.
struct LastByte;

/// LastByte's model of a seed list: its /64s in address order.
struct SeedNets<'a> {
    seeds: &'a [Ipv6Addr],
    prefixes: Vec<u128>,
}

impl TargetGenerator for LastByte {
    fn id(&self) -> TgaId {
        // Custom generators piggyback on an existing id for labeling; a
        // production integration would extend the enum instead.
        TgaId::SixGen
    }

    fn fit<'a>(&'a self, seeds: &'a [Ipv6Addr]) -> Box<dyn SeedModel + 'a> {
        let mut prefixes: Vec<u128> = seeds.iter().map(|&s| u128::from(s) >> 64).collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        Box::new(SeedNets { seeds, prefixes })
    }
}

impl SeedModel for SeedNets<'_> {
    fn generate_tagged(
        &self,
        cfg: &GenConfig,
        _oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        // Provenance: each seed /64 is a region; the sweep byte is the
        // round. Tagging is free when the log is disabled.
        let digest = if prov.is_enabled() {
            seed_digest(self.seeds.iter().copied())
        } else {
            0
        };
        let mut out = Vec::with_capacity(cfg.budget);
        let mut seen: HashSet<u128> = HashSet::with_capacity(cfg.budget * 2);
        'outer: for byte in 0u128..=0xff {
            for (pi, &p) in self.prefixes.iter().enumerate() {
                let bits = (p << 64) | byte;
                if seen.insert(bits) {
                    out.push(Ipv6Addr::from(bits));
                    prov.push(pi as u32, digest, byte as u16);
                    if out.len() >= cfg.budget {
                        break 'outer;
                    }
                }
            }
        }
        out
    }
}

fn main() {
    let study = Study::new(StudyConfig::small(0xD17));
    let seeds = study.dataset(DatasetKind::AllActive).to_vec();
    let budget = study.config().budget;
    println!(
        "evaluating on {} All-Active seeds, budget {budget}, ICMP\n",
        seeds.len()
    );

    // Evaluate the custom generator with the exact §4.1/§4.2 pipeline.
    let mut custom = LastByte;
    let mut oracle = study.scanner(0xCAFE);
    let generated = custom.generate(
        &seeds,
        &GenConfig::new(budget, 1, Protocol::Icmp),
        &mut oracle,
    );
    let eval = study.evaluate(&generated, Protocol::Icmp, 0xCAFE);
    println!(
        "{:<10} {:>8} hits  {:>5} ASes  {:>7} aliases",
        "LastByte", eval.metrics.hits, eval.metrics.ases, eval.metrics.aliases
    );

    // Compare against the studied eight under identical conditions.
    for id in TgaId::ALL {
        let r = sos_core::run_tga(&study, id, &seeds, Protocol::Icmp, budget, 0xCAFE);
        println!(
            "{:<10} {:>8} hits  {:>5} ASes  {:>7} aliases",
            id.label(),
            r.metrics.hits,
            r.metrics.ases,
            r.metrics.aliases
        );
    }
}
