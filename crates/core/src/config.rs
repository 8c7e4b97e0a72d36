//! Study-wide configuration.

use netmodel::WorldConfig;
use seeds::CollectorConfig;

/// Every knob of one end-to-end study run.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyConfig {
    /// The simulated Internet.
    pub world: WorldConfig,
    /// Seed collection sampling.
    pub collector: CollectorConfig,
    /// Per-TGA generation budget (the paper's 50M, scaled).
    pub budget: usize,
    /// RNG seed for generation.
    pub gen_seed: u64,
    /// Scanner retransmissions after the first attempt.
    pub scan_retries: u32,
    /// Worker shards for each scan pass (`Scanner::scan_parallel`). With
    /// 1 the scan runs as a single task on the calling thread — the same
    /// probe loop, no clones, no spawns; results are bit-identical at
    /// every value, the shards only split the pps budget and the wall
    /// clock.
    pub scan_shards: usize,
    /// Unused: generation runs on one thread, and nothing reads this. It
    /// is kept only so callers that still set it compile, and goes with
    /// them.
    pub gen_workers: usize,
    /// Worker threads for the independent (tga × port) experiment cells
    /// of a grid (`--threads`). `None` picks [`default_threads`]; the tiny
    /// preset pins 1.
    pub threads: Option<usize>,
}

/// Default worker count: physical parallelism capped at 8 (the grids are
/// memory-bandwidth-bound beyond that at study scale).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

impl StudyConfig {
    /// Full study scale: the paper's 50M budget scaled by the same factor
    /// as the world (≈300×), preserving budget-to-population ratios.
    pub fn study(seed: u64) -> Self {
        StudyConfig {
            world: WorldConfig::study(seed),
            collector: CollectorConfig {
                seed: seed ^ 0xc0_11ec,
            },
            budget: 150_000,
            gen_seed: seed ^ 0x9e4,
            scan_retries: 1,
            scan_shards: 1,
            gen_workers: 1,
            threads: None,
        }
    }

    /// Worker threads experiment grids should use: `threads` clamped to
    /// at least one, or the default worker count when unset. Cell results
    /// never depend on the thread count (each cell owns its RNG and
    /// scanner), so this only affects wall-clock time.
    pub fn effective_threads(&self) -> usize {
        self.threads.map_or_else(default_threads, |n| n.max(1))
    }

    /// Mid-size: for quick experiment iterations and integration tests.
    pub fn small(seed: u64) -> Self {
        StudyConfig {
            world: WorldConfig::small(seed),
            budget: 30_000,
            ..Self::study(seed)
        }
    }

    /// Tiny: unit-test scale; a full RQ runs in seconds.
    pub fn tiny(seed: u64) -> Self {
        StudyConfig {
            world: WorldConfig::tiny(seed),
            budget: 6_000,
            threads: Some(1),
            ..Self::study(seed)
        }
    }
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self::study(0xC0FFEE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_budget_with_world() {
        let t = StudyConfig::tiny(1);
        let s = StudyConfig::small(1);
        let f = StudyConfig::study(1);
        assert!(t.budget < s.budget && s.budget < f.budget);
        assert!(t.world.num_ases < f.world.num_ases);
    }

    #[test]
    fn effective_threads_resolution() {
        let mut c = StudyConfig::tiny(1);
        assert_eq!(c.effective_threads(), 1, "tiny is sequential by default");
        c.threads = Some(3);
        assert_eq!(c.effective_threads(), 3, "explicit threads override");
        c.threads = Some(0);
        assert_eq!(c.effective_threads(), 1, "zero clamps to one worker");
        let f = StudyConfig::study(1);
        assert_eq!(f.effective_threads(), default_threads());
    }

    #[test]
    fn budget_to_population_ratio_matches_paper_order() {
        // Paper: 50M budget vs ≈11M responsive ≈ 4.5×. Ours should be of
        // the same order (within a factor of ~4 either way).
        let f = StudyConfig::study(1);
        // study-scale world has ≈600K responsive (see netmodel tests)
        let ratio = f.budget as f64 / 600_000.0;
        assert!(ratio > 0.1 && ratio < 10.0, "ratio {ratio}");
    }
}
