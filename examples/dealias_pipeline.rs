//! Walk the seed-preprocessing pipeline step by step (RQ1's subject):
//! collect from all twelve sources, dealias offline/online/jointly, then
//! pre-scan for responsiveness — printing what each stage removes and how
//! many probe packets the online stages cost.
//!
//! ```sh
//! cargo run --release -p sos-core --example dealias_pipeline
//! ```

use dealias::{DealiasMode, JointDealiaser, OfflineDealiaser, OnlineConfig, OnlineDealiaser};
use netmodel::{Protocol, World, WorldConfig, PROTOCOLS};
use seeds::{collect_all, verify_active, CollectorConfig};
use sos_probe::{Scanner, ScannerConfig, SimTransport};
use std::sync::Arc;

fn main() {
    let world = Arc::new(World::build(WorldConfig::small(2024)));
    println!(
        "world: {} responsive hosts, {} aliased regions ({} published)",
        world.stats().responsive_any,
        world.alias_regions().len(),
        world.alias_regions().iter().filter(|r| r.published).count()
    );

    // Stage 0: collect from all twelve sources.
    let collection = collect_all(&world, CollectorConfig::default());
    for s in &collection.sources {
        println!(
            "  {:<14} {:>8} unique addresses",
            s.id.label(),
            s.addrs.len()
        );
    }
    let full = collection.combined();
    let truly_aliased = full.iter().filter(|&&a| world.is_aliased(a)).count();
    println!(
        "combined pool: {} unique ({} inside truly aliased space)",
        full.len(),
        truly_aliased
    );

    // Stage 1: the three dealiasing regimes, compared.
    let mut scanner = Scanner::new(
        ScannerConfig {
            retry: sos_probe::RetryPolicy::fixed(2), // 3 attempts, per §4.2
            rate_pps: None,
            ..ScannerConfig::default()
        },
        SimTransport::new(world.clone()),
    );
    let mut dealiaser = JointDealiaser::new(
        OfflineDealiaser::new(world.published_alias_list()),
        OnlineDealiaser::new(OnlineConfig::default()),
    );
    for mode in DealiasMode::ALL {
        let out = dealiaser.run(mode, &mut scanner, &full, Protocol::Icmp);
        let leaked = out.clean.iter().filter(|&&a| world.is_aliased(a)).count();
        println!(
            "  {:<10} kept {:>6}, removed {:>6} as aliased, {:>5} true aliases leaked, {:>8} dealias packets",
            mode.label(),
            out.clean.len(),
            out.aliased.len(),
            leaked,
            out.probe_packets,
        );
    }

    // Stage 2: the activity pre-scan over the joint-dealiased survivors.
    let joint = dealiaser.run(DealiasMode::Joint, &mut scanner, &full, Protocol::Icmp);
    let activeness = verify_active(&mut scanner, &joint.clean);
    println!(
        "pre-scan spent {} packets; per-target responsiveness:",
        activeness.probe_packets
    );
    for proto in PROTOCOLS {
        println!(
            "  {:<7} {:>6} responsive",
            proto.label(),
            activeness.count_active_on(proto)
        );
    }
    println!(
        "final All-Active dataset: {} of {} dealiased seeds ({}%)",
        activeness.count_active(),
        joint.clean.len(),
        100 * activeness.count_active() / joint.clean.len().max(1)
    );
}
