//! Every metric and workload name, with unit, direction and bound.
//!
//! These names are the contract later performance and simplicity changes
//! are judged by. `BENCHMARK.json` repeats this table for the driver;
//! `tests/contract.rs` fails when the two disagree.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees, measured with
/// tracing off. `bound` is the share of the baseline median by which the
/// metric may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// The metric may also worsen by this much in its own unit regardless
    /// of the share (`compare` only; the driver knows shares alone).
    pub abs_slack: f64,
}

/// Reported by every workload. `failed_share` is the sixth end-to-end
/// number: it is 0 today, so the driver-facing output carries it as the
/// `failed` / `attempted` pair instead of a metric that would read 0.
///
/// Every bound is 0.25, the widest the driver accepts, because that is what
/// the recording box can resolve: identical back-to-back runs of one seed
/// differ by ±20 % for minutes at a time (a shared two-core VM), so ten
/// 20-second runs spread 9–17 % (interquartile, as a share of the median)
/// on every timing metric, and a one-minute slow spell that catches three
/// of the ten runs pushes that past 25 %. `peak_rss_mb` repeats to ±1 % for
/// one seed and spreads 1–10 % across seeds (world sizes differ). On a
/// quiet box 0.10 for the timings and 0.05 for memory would do.
///
/// `setup_s` alone has an absolute slack, 0.1 s: the `grid-small` set-up
/// is ≈0.2 s, where even 25 % is within timer noise.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_slack: 0.1,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_slack: 0.0,
    },
    EndToEnd {
        name: "cand_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        abs_slack: 0.0,
    },
    EndToEnd {
        name: "probes_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        abs_slack: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        abs_slack: 0.0,
    },
];

/// A per-layer metric of the traced run. No bound: these explain an
/// end-to-end movement, they do not gate.
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The workload whose traced run measures it; `None` for the `env.*`
    /// metrics every traced run reports.
    pub workload: Option<&'static str>,
}

/// Metric-name spelling of each TGA, in `TgaId::ALL` order.
pub const TGA_SLUGS: [&str; 8] = [
    "6sense", "det", "6tree", "6scan", "6graph", "6gen", "6hit", "eip",
];

/// The slug of a TGA.
pub fn tga_slug(id: tga::TgaId) -> &'static str {
    TGA_SLUGS[usize::from(id.code())] // code() is the index into TgaId::ALL
}

const GRID: Option<&str> = Some("grid-small");
const CELLS: Option<&str> = Some("cells-study");
const SCAN: Option<&str> = Some("scan-oneshot");
const CAMPAIGN: Option<&str> = Some("campaign-rounds");

/// `(suffix-or-name, unit, better, workload)` rows; `tga.*` rows are
/// expanded per TGA by [`per_layer`].
const PER_TGA: [(&str, &str, Better, Option<&str>); 5] = [
    ("gen_s", "s", Better::Lower, GRID),
    ("cand_per_s", "1/s", Better::Higher, GRID),
    ("oracle_pkts", "count", Better::Lower, GRID),
    ("hit_rate", "ratio", Better::Higher, GRID),
    ("study_gen_s", "s", Better::Lower, CELLS),
];

const FIXED: [(&str, &str, Better, Option<&str>); 52] = [
    // A grid cell, decomposed (grid-small).
    ("probe.cell_scan_s", "s", Better::Lower, GRID),
    ("dealias.cell_s", "s", Better::Lower, GRID),
    ("dealias.cell_pkts", "count", Better::Lower, GRID),
    ("core.metrics_s", "s", Better::Lower, GRID),
    ("core.cell_overhead_share", "ratio", Better::Lower, GRID),
    ("core.cell_p50_ms", "ms", Better::Lower, GRID),
    ("core.cell_p90_ms", "ms", Better::Lower, GRID),
    ("core.allocs_per_cand", "count", Better::Lower, GRID),
    ("core.grid_speedup", "ratio", Better::Higher, GRID),
    // Study set-up, decomposed (cells-study).
    ("netmodel.world_build_s", "s", Better::Lower, CELLS),
    ("netmodel.hosts_per_s", "1/s", Better::Higher, CELLS),
    ("netmodel.asn_of_ns", "ns", Better::Lower, CELLS),
    ("seeds.collect_s", "s", Better::Lower, CELLS),
    ("seeds.collected_per_s", "1/s", Better::Higher, CELLS),
    ("seeds.combined_s", "s", Better::Lower, CELLS),
    ("dealias.offline_s", "s", Better::Lower, CELLS),
    ("dealias.online_s", "s", Better::Lower, CELLS),
    ("dealias.joint_s", "s", Better::Lower, CELLS),
    ("dealias.online_pkts", "count", Better::Lower, CELLS),
    ("dealias.aliased_share", "ratio", Better::Lower, CELLS),
    ("seeds.verify_active_s", "s", Better::Lower, CELLS),
    ("seeds.verify_active_pps", "1/s", Better::Higher, CELLS),
    ("v6addr.trie_insert_ns", "ns", Better::Lower, CELLS),
    ("v6addr.trie_lookup_ns", "ns", Better::Lower, CELLS),
    // Both scan paths (scan-oneshot).
    ("probe.scan_wire_s", "s", Better::Lower, SCAN),
    ("probe.scan_wire_pps", "1/s", Better::Higher, SCAN),
    ("probe.scan_sharded1_s", "s", Better::Lower, SCAN),
    ("probe.scan_sharded1_pps", "1/s", Better::Higher, SCAN),
    ("probe.retry_share", "ratio", Better::Lower, SCAN),
    ("probe.hit_share", "ratio", Better::Higher, SCAN),
    ("probe.allocs_per_probe", "count", Better::Lower, SCAN),
    ("probe.alloc_bytes_per_probe", "bytes", Better::Lower, SCAN),
    ("netmodel.probe_ns", "ns", Better::Lower, SCAN),
    ("probe.shard_speedup", "ratio", Better::Higher, SCAN),
    // The resumable path and its writes (campaign-rounds).
    ("probe.campaign_s", "s", Better::Lower, CAMPAIGN),
    ("probe.campaign_bare_s", "s", Better::Lower, CAMPAIGN),
    (
        "probe.campaign_telemetry_overhead",
        "ratio",
        Better::Lower,
        CAMPAIGN,
    ),
    ("probe.campaign_rounds", "count", Better::Lower, CAMPAIGN),
    ("probe.round_first_ms", "ms", Better::Lower, CAMPAIGN),
    ("probe.round_last_ms", "ms", Better::Lower, CAMPAIGN),
    ("probe.round_growth", "ratio", Better::Lower, CAMPAIGN),
    (
        "probe.breaker_skipped_share",
        "ratio",
        Better::Lower,
        CAMPAIGN,
    ),
    ("probe.checkpoint_bytes", "bytes", Better::Lower, CAMPAIGN),
    ("probe.checkpoint_save_ms", "ms", Better::Lower, CAMPAIGN),
    ("probe.checkpoint_load_ms", "ms", Better::Lower, CAMPAIGN),
    ("obs.journal_bytes", "bytes", Better::Lower, CAMPAIGN),
    ("obs.journal_records", "count", Better::Lower, CAMPAIGN),
    ("obs.journal_write_us", "us", Better::Lower, CAMPAIGN),
    ("obs.json_parse_mb_s", "MB/s", Better::Higher, CAMPAIGN),
    // Normalisation only (every traced run).
    ("env.nproc", "count", Better::Higher, None),
    ("env.calib_spin_s", "s", Better::Lower, None),
    ("env.trace_overhead_share", "ratio", Better::Lower, None),
];

/// Every per-layer metric, `tga.<id>.*` first (TGA-major), then the fixed
/// rows in table order.
pub fn per_layer() -> Vec<PerLayer> {
    let per_tga = TGA_SLUGS.iter().flat_map(|slug| {
        PER_TGA
            .iter()
            .map(move |&(suffix, unit, better, workload)| PerLayer {
                name: format!("tga.{slug}.{suffix}"),
                unit,
                better,
                workload,
            })
    });
    let fixed = FIXED
        .iter()
        .map(|&(name, unit, better, workload)| PerLayer {
            name: name.to_string(),
            unit,
            better,
            workload,
        });
    per_tga.chain(fixed).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_driver_limits() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut seen = std::collections::BTreeSet::new();
        let names = layers
            .iter()
            .map(|m| m.name.clone())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()));
        for name in names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(seen.insert(name.clone()), "duplicate {name}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert_eq!(END_TO_END[0].name, "setup_s");
    }

    #[test]
    fn slugs_follow_tga_order() {
        assert_eq!(tga_slug(tga::TgaId::SixSense), "6sense");
        assert_eq!(tga_slug(tga::TgaId::EntropyIp), "eip");
        assert_eq!(TGA_SLUGS.len(), tga::TgaId::ALL.len());
    }
}
