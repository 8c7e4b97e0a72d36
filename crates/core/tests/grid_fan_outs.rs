//! Every experiment fan-out (`run_cells` under `grid_over`,
//! `budget_sweep`, `stability`, `run_by_kind` and both of `run_rq3`'s)
//! renders the same bytes at any worker count. `run_cells` promises its
//! results in input order; a fan-out that instead pushed into captured
//! state would hand back its cells in completion order, and this is the
//! pin that sees it wherever the caller keeps that order.
//!
//! Each fan-out also records exactly one `cell` span per cell, and one
//! `fit` span per (seed list, TGA) it runs, inside the one span of its
//! experiment. The span table is process-wide, so this file holds one
//! test: nothing else records spans while it counts them.

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

/// Run `experiment` on a cleared span table, then require one span per
/// fan-out it names, each holding exactly its counts of `cell` and `fit`
/// spans (nested under it at one thread, on a worker's lane otherwise).
fn counted<T>(fan_outs: &[(&str, usize, usize)], experiment: impl FnOnce() -> T) -> T {
    sos_obs::span::clear();
    let out = experiment();
    let records = sos_obs::span::records();
    let mut inside = vec![[0, 0]; fan_outs.len()];
    for c in &records {
        let (kind, slot) = match c.path.rsplit('>').next() {
            Some("cell") => ("cell", 0),
            Some("fit") => ("fit", 1),
            _ => continue,
        };
        // An end is start + duration, so allow it a microsecond of rounding.
        let holds = |name: &str| {
            records.iter().any(|o| {
                o.path == name
                    && o.start_s <= c.start_s
                    && c.start_s + c.dur_s <= o.start_s + o.dur_s + 1e-6
            })
        };
        let holders: Vec<usize> = (0..fan_outs.len())
            .filter(|&i| holds(fan_outs[i].0))
            .collect();
        assert_eq!(
            holders.len(),
            1,
            "{kind} [{}] inside exactly one fan-out span",
            c.detail
        );
        inside[holders[0]][slot] += 1;
    }
    for (&(name, cells, fits), got) in fan_outs.iter().zip(inside) {
        assert_eq!(
            records.iter().filter(|r| r.path == name).count(),
            1,
            "one {name} span"
        );
        assert_eq!(
            got,
            [cells, fits],
            "{name}: one cell span per cell, one fit span per (seed list, TGA)"
        );
    }
    out
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
    let rows = counted(&[("stability", 21, 3)], || {
        stability::stability(study, &varying, 7, Protocol::Icmp)
    });
    stability::render(&rows, Protocol::Icmp) + &format!("{rows:?}\n")
}

/// Each fan-out's result, rendered by its own table code and then dumped
/// whole (`{:?}` prints every float's shortest round-tripping digits, so a
/// moved last bit shows).
fn render_every_fan_out(study: &Study) -> String {
    let mut out = String::new();

    let datasets = [DatasetKind::AllActive];
    let protos = [Protocol::Icmp, Protocol::Tcp80];
    let g = counted(&[("grid", 16, 8)], || {
        grid::grid_over(study, &datasets, &protos, &TgaId::ALL)
    });
    for d in datasets {
        for p in protos {
            for t in TgaId::ALL {
                out += &format!("grid {d:?} {p:?} {t} ");
                out += &cell(g.get(d, p, t));
            }
        }
    }

    let tgas = [TgaId::SixTree, TgaId::SixScan, TgaId::SixGen];
    let ladder = budget::default_ladder(study);
    let curves = counted(
        &[("budget_sweep", tgas.len() * ladder.len(), tgas.len())],
        || budget::budget_sweep(study, &tgas, &ladder, Protocol::Icmp),
    );
    out += &budget::render(&curves, Protocol::Icmp);
    out += &format!("{curves:?}\n");

    out += &render_stability(study);

    let slices = as_kind::seeds_by_kind(study).len();
    let kinds = counted(&[("as_kind", slices * 2, slices * 2)], || {
        as_kind::run_by_kind(study, &tgas[..2])
    });
    out += &kinds.render();
    for ((kind, tga), r) in &kinds.cells {
        out += &format!("kind {kind} {tga} ");
        out += &cell(r);
    }

    let sources = seeds::SourceId::ALL.len();
    let r3 = counted(
        &[("rq3_sources", sources, sources), ("rq3_big_runs", 1, 1)],
        || rq3::run_rq3(study, &[Protocol::Icmp], &tgas[..1]),
    );
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
