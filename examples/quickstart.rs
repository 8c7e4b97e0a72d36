//! Quickstart: build a simulated Internet, collect seeds, run one TGA,
//! and evaluate it with the paper's metrics — the whole pipeline in ~40
//! lines.
//!
//! ```sh
//! cargo run --release -p sos-core --example quickstart
//! ```

use netmodel::Protocol;
use sos_core::study::DatasetKind;
use sos_core::{run_tga, Study, StudyConfig};
use tga::TgaId;

fn main() {
    // 1. A deterministic world + twelve seed collectors + the Table 2
    //    preprocessing pipeline (dealias, pre-scan), all from one seed.
    let study = Study::new(StudyConfig::small(42));
    let stats = study.world().stats();
    println!(
        "world: {} modeled addresses, {} responsive ({} ASes)",
        stats.modeled_hosts, stats.responsive_any, stats.responsive_ases
    );
    println!(
        "seeds: {} collected -> {} dealiased -> {} responsive",
        study.pipeline().full.len(),
        study.pipeline().joint_dealiased.len(),
        study.pipeline().all_active.len()
    );

    // 2. Run 6Tree on the All-Active dataset, scanning ICMP.
    let seeds = study.dataset(DatasetKind::AllActive);
    let result = run_tga(
        &study,
        TgaId::SixTree,
        seeds,
        Protocol::Icmp,
        study.config().budget,
        7,
    );

    // 3. The §4.1 metrics: dealiased hits, active ASes, aliases.
    println!(
        "6Tree on ICMP: generated {} -> {} hits in {} ASes ({} aliases filtered), {:.1}% hit rate",
        result.metrics.generated,
        result.metrics.hits,
        result.metrics.ases,
        result.metrics.aliases,
        100.0 * result.metrics.hit_rate()
    );
    println!(
        "probe packets spent (generation + scan + dealiasing): {}",
        result.metrics.probe_packets
    );

    // 4. Every run is deterministic: same seed, same world, same numbers.
    let again = run_tga(
        &study,
        TgaId::SixTree,
        seeds,
        Protocol::Icmp,
        study.config().budget,
        7,
    );
    assert_eq!(result.metrics, again.metrics);
    println!("re-run reproduced identical metrics — the study is deterministic");
}
