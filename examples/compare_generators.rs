//! Compare all eight TGAs head-to-head on one dataset and port — a small
//! RQ4-style experiment: who wins on hits, who wins on ASes, and how much
//! coverage a combination buys.
//!
//! ```sh
//! cargo run --release -p sos-core --example compare_generators [icmp|tcp80|tcp443|udp53]
//! ```

use netmodel::Protocol;
use sos_core::experiments::grid::grid_over;
use sos_core::experiments::rq4;
use sos_core::report::{fmt_count, Table};
use sos_core::study::DatasetKind;
use sos_core::{Study, StudyConfig};
use tga::TgaId;

fn main() {
    let proto = match std::env::args().nth(1).as_deref() {
        None | Some("icmp") => Protocol::Icmp,
        Some("tcp80") => Protocol::Tcp80,
        Some("tcp443") => Protocol::Tcp443,
        Some("udp53") => Protocol::Udp53,
        Some(other) => {
            eprintln!("unknown protocol {other}; use icmp|tcp80|tcp443|udp53");
            std::process::exit(1);
        }
    };

    let study = Study::new(StudyConfig::small(0xFACE));
    eprintln!(
        "running all 8 TGAs on the All-Active dataset ({} seeds), {} budget, {} scans...",
        study.dataset(DatasetKind::AllActive).len(),
        study.config().budget,
        proto
    );
    let grid = grid_over(&study, &[DatasetKind::AllActive], &[proto], &TgaId::ALL);

    let mut t = Table::new(format!("Head-to-head on {proto} (All-Active seeds)"))
        .header(["TGA", "Hits", "ASes", "Aliases", "HitRate", "Packets"]);
    let mut rows: Vec<(TgaId, _)> = TgaId::ALL
        .iter()
        .map(|&id| (id, grid.get(DatasetKind::AllActive, proto, id).metrics))
        .collect();
    rows.sort_by_key(|(_, m)| std::cmp::Reverse(m.hits));
    for (id, m) in &rows {
        t.row([
            id.label().to_string(),
            fmt_count(m.hits),
            fmt_count(m.ases),
            fmt_count(m.aliases),
            format!("{:.1}%", 100.0 * m.hit_rate()),
            fmt_count(m.probe_packets as usize),
        ]);
    }
    println!("{}", t.render());

    // The RQ4 combination analysis: how much do generators overlap?
    let hits = rq4::combination_hits(&grid, proto);
    println!("{}", rq4::render_contribution(&hits, "hit"));
    let ases = rq4::combination_ases(&grid, proto);
    println!("{}", rq4::render_contribution(&ases, "AS"));
    println!(
        "top-3 generators cover {:.0}% of all hits and {:.0}% of all ASes — \
         run multiple TGAs (the paper's RQ4/RQ5 takeaway)",
        100.0 * hits.coverage_after(3),
        100.0 * ases.coverage_after(3)
    );
}
