//! `grid-small`: the paper's RQ grid on the small world.
//!
//! Set-up `Study::new(StudyConfig::small(seed))`; timed
//! `experiments::grid::grid_over` over 2 datasets × 4 ports × 8 TGAs = 64
//! cells at budget 30 000 (1.92 M candidates). It is what `seedscan rq1`
//! runs, and `tga` owns about three quarters of it (`probe` ≈ 17 %,
//! `dealias` ≈ 2 %); set-up is negligible. The two datasets are the
//! extremes of Table 2 — everything collected, aliases included, and the
//! dealiased responsive set — so both the alias-heavy and the clean
//! generation paths run.

use netmodel::{Protocol, PROTOCOLS};
use sos_core::experiments::grid::{grid_over, Grid};
use sos_core::study::DatasetKind;
use sos_core::{Study, StudyConfig};
use tga::TgaId;

use crate::names::tga_slug;
use crate::stats::percentile;
use crate::trace;
use crate::workloads::cell::{self, cell_ok, digest_cell, grid_salt, single_threaded};
use crate::workloads::{timed, with_tracing, Digest, Layers, Outcome, Workload};

/// The dataset rows of the benchmark grid.
pub const DATASETS: [DatasetKind; 2] = [DatasetKind::Full, DatasetKind::AllActive];

/// The grid keeps hit lists only for these rows.
fn hits_kept(dataset: DatasetKind) -> bool {
    matches!(
        dataset,
        DatasetKind::AllActive | DatasetKind::PortSpecific(_)
    )
}

fn config(seed: u64) -> StudyConfig {
    single_threaded(StudyConfig::small(seed))
}

/// Every `(dataset, proto, tga)` of the benchmark grid, in `grid_over`'s
/// own work order.
fn cells() -> impl Iterator<Item = (DatasetKind, Protocol, TgaId)> {
    DATASETS.into_iter().flat_map(|d| {
        PROTOCOLS
            .into_iter()
            .flat_map(move |p| TgaId::ALL.into_iter().map(move |t| (d, p, t)))
    })
}

pub struct GridSmall;

impl Workload for GridSmall {
    type State = Study;
    type Raw = Grid;

    fn setup(seed: u64) -> Study {
        Study::new(config(seed))
    }

    fn timed(study: &mut Study) -> Grid {
        grid_over(study, &DATASETS, &PROTOCOLS, &TgaId::ALL)
    }

    fn verify(study: &Study, grid: Grid) -> Outcome {
        let budget = study.config().budget;
        let mut digest = Digest::default();
        let mut out = Outcome {
            candidates: 0,
            packets: 0,
            ops: 0,
            failed: 0,
            digest: 0,
        };
        for (dataset, proto, tga) in cells() {
            out.ops += 1;
            let Some(r) = grid.try_get(dataset, proto, tga) else {
                out.failed += 1;
                continue;
            };
            out.failed += u64::from(!cell_ok(r, budget, hits_kept(dataset)));
            out.candidates += r.metrics.generated as u64;
            out.packets += r.metrics.probe_packets;
            digest_cell(&mut digest, r);
        }
        out.digest = digest.finish();
        out
    }
}

/// The traced run: the grid once as the product runs it, then cell by cell
/// through [`cell::decomposed`], which must reproduce every cell.
pub fn traced(seed: u64, layers: &mut Layers) {
    let mut study = GridSmall::setup(seed);
    let budget = study.config().budget;
    let (grid, untraced_s) = timed(|| GridSmall::timed(&mut study));

    let mut per_tga = [(0u64, 0u64, 0u64); 8]; // (generated, oracle packets, hits) per TGA
    let mut dealias_pkts = 0u64;
    let mut generated = 0u64;
    let ((), traced_s, (allocs, _bytes)) = with_tracing(|| {
        for (dataset, proto, tga) in cells() {
            let salt = grid_salt(dataset, proto, tga);
            let parts = cell::decomposed(&study, tga, study.dataset(dataset), proto, budget, salt);
            let same = grid.try_get(dataset, proto, tga).is_some_and(|composite| {
                cell::same_result(composite, &parts.result, hits_kept(dataset))
            });
            layers.check(same);
            let slot = &mut per_tga[usize::from(tga.code())]; // code() indexes TgaId::ALL
            slot.0 += parts.result.metrics.generated as u64;
            slot.1 += parts.oracle_pkts;
            slot.2 += parts.result.metrics.hits as u64;
            dealias_pkts += parts.dealias_pkts;
            generated += parts.result.metrics.generated as u64;
        }
    });
    let spans = trace::take();

    for tga in TgaId::ALL {
        let slug = tga_slug(tga);
        let (cands, oracle_pkts, hits) = per_tga[usize::from(tga.code())];
        let gen_s = trace::total_s(&spans, &format!("tga.{slug}.generate"));
        layers.set(format!("tga.{slug}.gen_s"), gen_s);
        layers.set(format!("tga.{slug}.cand_per_s"), cands as f64 / gen_s);
        layers.set(format!("tga.{slug}.oracle_pkts"), oracle_pkts as f64);
        layers.set(format!("tga.{slug}.hit_rate"), hits as f64 / cands as f64);
    }
    let cell_s = trace::durations_s(&spans, "core.cell");
    layers.set(
        "probe.cell_scan_s",
        trace::total_s(&spans, "probe.cell_scan"),
    );
    layers.set("dealias.cell_s", trace::total_s(&spans, "dealias.cell"));
    layers.set("dealias.cell_pkts", dealias_pkts as f64);
    layers.set("core.metrics_s", trace::total_s(&spans, "core.metrics"));
    layers.set(
        "core.cell_overhead_share",
        trace::self_s(&spans, "core.cell") / cell_s.iter().sum::<f64>(),
    );
    layers.set("core.cell_p50_ms", percentile(&cell_s, 0.5) * 1e3);
    layers.set("core.cell_p90_ms", percentile(&cell_s, 0.9) * 1e3);
    layers.set("core.allocs_per_cand", allocs as f64 / generated as f64);
    layers.set_trace_overhead(traced_s, untraced_s);
    layers.spans = spans;

    // Parallel speed-up on one grid row; reported with env.nproc, and a
    // value below 1 is a finding, not a failure.
    let row = |threads: usize| {
        let wide = Study::new(StudyConfig {
            threads: Some(threads),
            ..config(seed)
        });
        timed(|| {
            grid_over(
                &wide,
                &[DatasetKind::AllActive],
                &[Protocol::Icmp],
                &TgaId::ALL,
            )
        })
        .1
    };
    layers.set(
        "core.grid_speedup",
        row(1) / row(crate::env::speedup_width()),
    );
}
