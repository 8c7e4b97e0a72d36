//! Every experiment-level `par_map` fan-out renders the same bytes at any
//! worker count. `par_map` promises per-slot results merged in input
//! order; a closure that instead pushed into captured state would hand
//! back its cells in completion order, and this is the pin that sees it
//! wherever the caller keeps that order.

use netmodel::Protocol;
use sos_core::experiments::{as_kind, budget, grid, rq3, stability};
use sos_core::study::DatasetKind;
use sos_core::{RunResult, Study, StudyConfig};
use tga::TgaId;

fn study(threads: usize) -> Study {
    Study::new(StudyConfig {
        threads: Some(threads),
        ..StudyConfig::tiny(0x91d)
    })
}

/// A cell at full precision: metrics, the hit list in order, the ASes.
fn cell(r: &RunResult) -> String {
    format!("{:?} {:?} {:?}\n", r.metrics, r.clean_hits, r.ases)
}

/// The one fan-out whose caller keeps the result order: a rep's place
/// reaches the bytes only through the order of the stddev's float sum,
/// printed whole by `{:?}`. That sum is exact when the mean is (a
/// power-of-two rep count, or reps that all hit alike, as 6Gen's do), so:
/// seven reps of three generators whose hits vary with the salt.
fn render_stability(study: &Study) -> String {
    let varying = [TgaId::SixTree, TgaId::SixScan, TgaId::Det];
    let rows = stability::stability(study, &varying, 7, Protocol::Icmp);
    stability::render(&rows, Protocol::Icmp) + &format!("{rows:?}\n")
}

/// Each fan-out's result, rendered by its own table code and then dumped
/// whole (`{:?}` prints every float's shortest round-tripping digits, so a
/// moved last bit shows).
fn render_every_fan_out(study: &Study) -> String {
    let mut out = String::new();

    let datasets = [DatasetKind::AllActive];
    let protos = [Protocol::Icmp, Protocol::Tcp80];
    let g = grid::grid_over(study, &datasets, &protos, &TgaId::ALL);
    for d in datasets {
        for p in protos {
            for t in TgaId::ALL {
                out += &format!("grid {d:?} {p:?} {t} ");
                out += &cell(g.get(d, p, t));
            }
        }
    }

    let tgas = [TgaId::SixTree, TgaId::SixScan, TgaId::SixGen];
    let curves = budget::budget_sweep(study, &tgas, &budget::default_ladder(study), Protocol::Icmp);
    out += &budget::render(&curves, Protocol::Icmp);
    out += &format!("{curves:?}\n");

    out += &render_stability(study);

    let kinds = as_kind::run_by_kind(study, &tgas[..2]);
    out += &kinds.render(study);
    for ((kind, tga), r) in &kinds.cells {
        out += &format!("kind {kind} {tga} ");
        out += &cell(r);
    }

    let r3 = rq3::run_rq3(study, &[Protocol::Icmp], &tgas[..1]);
    out += &rq3::render_table5(&r3);
    out += &rq3::render_source_raw(&r3, Protocol::Icmp);
    for (tga, r) in &r3.big_runs {
        out += &format!("big {tga} ");
        out += &cell(r);
    }
    for source in seeds::SourceId::ALL {
        for t in &tgas[..1] {
            out += &format!("rq3 {source:?} {t} ");
            out += &cell(r3.get(source, Protocol::Icmp, *t));
        }
    }
    out
}

fn assert_same(sequential: &str, wide: &str, threads: usize) {
    if let Some((i, (a, b))) = sequential
        .lines()
        .zip(wide.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!("threads={threads}: line {i} differs\n  1: {a}\n  {threads}: {b}");
    }
    assert_eq!(sequential, wide, "threads={threads}");
}

#[test]
fn every_grid_fan_out_renders_the_same_at_1_2_and_8_threads() {
    let narrow = study(1);
    let sequential = render_every_fan_out(&narrow);
    for threads in [2, 8] {
        assert_same(&sequential, &render_every_fan_out(&study(threads)), threads);
    }
    // A completion order is one draw, and most reorderings of a stability
    // row leave its float sums' bits as they were: draw the 8-wide order
    // three more times.
    let (sequential, wide) = (render_stability(&narrow), study(8));
    for _ in 0..3 {
        assert_same(&sequential, &render_stability(&wide), 8);
    }
}
