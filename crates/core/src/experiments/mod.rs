//! One module per research question; one function per table/figure; and
//! [`EXPERIMENTS`], the table of `seedscan` experiments that print them,
//! with the [`Run`] they run over.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table 3 | [`summary::dataset_summary`] |
//! | Table 8 | [`summary::domain_volume`] |
//! | Figures 1–2 | [`summary::overlap_full`], [`summary::overlap_active`] |
//! | Figure 3 / Table 4 / Figure 4 / Tables 9–12 | [`grid::master_grid`] + [`rq1`] |
//! | Figure 5 | [`rq2::port_specific_ratios`] |
//! | Table 5 / Table 6 / Tables 13–15 | [`rq3`] |
//! | Figure 6 | [`rq4::combination_hits`] / [`rq4::combination_ases`] |
//! | Figure 7 (Appendix D) | [`appendix_d::cross_port_matrix`] |
//! | RQ5 recommendations | [`recommend::recommendations`] |
//! | extension: AS-category slices (Steger-style) | [`as_kind::run_by_kind`] |
//! | extension: budget saturation curves | [`budget::budget_sweep`] |
//! | §5.3 collection pass as a resumable, fault-tolerant campaign | [`campaign::run`] |
//! | the simulated Internet's composition and ground truth | [`world`] |

pub mod appendix_d;
pub mod as_kind;
pub mod budget;
pub mod campaign;
pub mod grid;
pub mod recommend;
pub mod rq1;
pub mod rq2;
pub mod rq3;
pub mod rq4;
pub mod stability;
pub mod summary;
pub mod world;

pub use grid::{master_grid, Grid};

use std::cell::{OnceCell, RefCell, RefMut};
use std::io::Write as _;

use netmodel::{World, PROTOCOLS};
use sos_obs::manifest::Manifest;

use crate::cli::Options;
use crate::study::Study;

/// One `seedscan` experiment: a row of [`EXPERIMENTS`].
#[derive(Debug)]
pub struct Experiment {
    /// The name `seedscan` takes.
    pub name: &'static str,
    /// What it prints, as `--help` lists it.
    pub about: &'static str,
    /// Whether `seedscan all` runs it.
    pub in_all: bool,
    /// The flags only it accepts, spelled as `--help` lists them
    /// (`--resume FILE`); any other experiment refuses them.
    pub flags: &'static [&'static str],
    /// The directory it writes into, created before anything is built.
    pub out_dir: fn(&Options) -> Option<&str>,
    /// What it runs.
    pub run: Emit,
}

/// What an experiment runs: it prints its blocks, each digested into the
/// run manifest.
pub type Emit = fn(&Run) -> Result<(), String>;

impl Experiment {
    /// An entry `all` runs, with no flags of its own and no directory.
    const fn new(name: &'static str, about: &'static str, run: Emit) -> Self {
        Experiment {
            name,
            about,
            in_all: true,
            flags: &[],
            out_dir: |_| None,
            run,
        }
    }
}

/// Every experiment `seedscan` runs, in the order `all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment::new("summary", "Table 3 + Table 8 (dataset composition)", |r| {
        let study = r.study();
        r.emit("summary.datasets", summary::dataset_summary(study).render())?;
        r.emit("summary.domains", summary::domain_volume(study).render())
    }),
    Experiment::new("overlap", "Figures 1–2 (source overlap matrices)", |r| {
        let full = summary::overlap_full(r.study());
        let title = "Figure 1 — seed overlap (IP %)";
        r.emit("overlap.full", summary::render_overlap(&full, title))?;
        let active = summary::overlap_active(r.study());
        let title = "Figure 2 — responsive seed overlap (IP %)";
        r.emit("overlap.active", summary::render_overlap(&active, title))
    }),
    Experiment::new("rq1", "Figure 3, Table 4, Figure 4", |r| {
        r.emit("rq1.fig3", rq1::fig3_dealias_ratio(r.grid()).render())?;
        r.emit("rq1.table4", rq1::table4_alias_regimes(r.grid()).render())?;
        r.emit("rq1.fig4", rq1::fig4_active_ratio(r.grid()).render())
    }),
    Experiment::new("rq2", "Figure 5", |r| {
        r.emit("rq2.fig5", rq2::port_specific_ratios(r.grid()).render())
    }),
    Experiment::new("rq4", "Figure 6", |r| {
        for p in PROTOCOLS {
            let name = |metric| format!("rq4.{metric}.{}", p.label());
            let hits = rq4::combination_hits(r.grid(), p);
            r.emit(&name("hits"), rq4::render_contribution(&hits, "hit"))?;
            let ases = rq4::combination_ases(r.grid(), p);
            r.emit(&name("ases"), rq4::render_contribution(&ases, "AS"))?;
        }
        Ok(())
    }),
    Experiment::new("appendix-d", "Figure 7", |r| {
        let m = appendix_d::cross_port_matrix(r.grid());
        for p in PROTOCOLS {
            r.emit(&format!("appendix_d.{}", p.label()), m.render_panel(p))?;
        }
        Ok(())
    }),
    Experiment::new("raw", "Tables 9–12", |r| {
        for p in PROTOCOLS {
            let table = rq1::raw_numbers_table(r.grid(), p);
            r.emit(&format!("raw.{}", p.label()), table)?;
        }
        Ok(())
    }),
    Experiment::new("recommend", "RQ5 recommendation list", |r| {
        let recs = recommend::recommendations(r.grid());
        r.emit("recommend", recommend::render(&recs))
    }),
    Experiment {
        out_dir: |_| Some("export"),
        ..Experiment::new(
            "export",
            "write grid + figure CSVs to ./export/",
            crate::export::emit,
        )
    },
    Experiment::new(
        "budget-sweep",
        "extension: hits/ASes saturation vs generation budget",
        budget::emit,
    ),
    Experiment::new(
        "as-kind",
        "extension: Steger-style AS-category seed slices",
        |r| {
            let kinds = as_kind::run_by_kind(r.study(), &tga::TgaId::ALL);
            r.emit("as_kind", kinds.render())
        },
    ),
    Experiment::new(
        "rq3",
        "Tables 5, 6, 13–15 (Table 5 on ICMP, the rest on all four ports)",
        rq3::emit,
    ),
    Experiment {
        in_all: false,
        flags: &[
            "--breaker",
            "--checkpoint FILE",
            "--checkpoint-every N",
            "--resume FILE",
            "--stop-after N",
            "--journal FILE",
            "--snapshot-every N",
        ],
        ..Experiment::new(
            "campaign",
            "checkpointable multi-protocol scan of the full dataset (hostile-network demo)",
            campaign::emit,
        )
    },
    Experiment {
        in_all: false,
        flags: &["--dump-dir DIR"],
        out_dir: |o| o.dump_dir.as_deref(),
        ..Experiment::new(
            "world",
            "the simulated Internet's composition and ground-truth lists",
            world::emit,
        )
    },
];

/// The entries `name` runs: `all` is every entry marked for it, in table
/// order; `None` when `name` is neither.
pub(crate) fn select(name: &str) -> Option<Vec<&'static Experiment>> {
    if name == "all" {
        return Some(EXPERIMENTS.iter().filter(|e| e.in_all).collect());
    }
    EXPERIMENTS.iter().find(|e| e.name == name).map(|e| vec![e])
}

/// What experiments run over: the command line, the world, study and
/// master grid (each built when an experiment first asks for it), and the
/// manifest every emitted block is digested into.
pub struct Run {
    /// The command line.
    pub opts: Options,
    manifest: RefCell<Manifest>,
    world: OnceCell<World>,
    study: OnceCell<Study>,
    grid: OnceCell<Grid>,
}

impl Run {
    /// A run of `opts`, its configuration recorded in a fresh manifest.
    pub fn new(opts: Options) -> Run {
        let mut m = Manifest::new("seedscan");
        let cfg = &opts.cfg;
        m.set("experiment", opts.experiment.as_str());
        m.config("scale", opts.scale.as_str());
        m.config("seed", opts.seed);
        m.config("budget", cfg.budget);
        m.config("threads", cfg.effective_threads());
        m.config("scan_shards", cfg.scan_shards);
        m.config("scan_retries", cfg.scan_retries);
        m.config("gen_seed", cfg.gen_seed);
        m.config("faults", opts.faults.as_str());
        m.config("breaker", if opts.breaker { "on" } else { "off" });
        m.config(
            "checkpoint_every",
            opts.checkpoint_every.unwrap_or(0) as u64,
        );
        Run {
            opts,
            manifest: RefCell::new(m),
            world: OnceCell::new(),
            study: OnceCell::new(),
            grid: OnceCell::new(),
        }
    }

    /// The world alone, for an experiment that needs no seeds.
    pub(crate) fn world(&self) -> &World {
        self.world.get_or_init(|| {
            let o = &self.opts;
            sos_obs::info!(
                "seedscan: building world, scale={} seed={:#x}",
                o.scale,
                o.seed
            );
            let world = {
                let _span = sos_obs::span_detail("world_build", format!("scale={}", o.scale));
                World::build(o.cfg.world.clone())
            };
            let stats = world.stats();
            self.manifest()
                .config("modeled_hosts", stats.modeled_hosts)
                .config("responsive_any", stats.responsive_any)
                .config("responsive_ases", stats.responsive_ases)
                .config("alias_regions", world.alias_regions().len());
            world
        })
    }

    /// The study: world, seed collection and preprocessed datasets.
    pub(crate) fn study(&self) -> &Study {
        self.study.get_or_init(|| {
            let (o, cfg) = (&self.opts, &self.opts.cfg);
            sos_obs::info!(
                "seedscan: building study, scale={} seed={:#x} budget={} threads={}",
                o.scale,
                o.seed,
                cfg.budget,
                cfg.effective_threads(),
            );
            let study = Study::new(cfg.clone());
            let stats = study.world().stats();
            self.manifest()
                .config("modeled_hosts", stats.modeled_hosts)
                .config("responsive_any", stats.responsive_any)
                .config("seeds_collected", study.pipeline().full.len());
            study
        })
    }

    /// The master grid every grid view reads.
    pub(crate) fn grid(&self) -> &Grid {
        self.grid.get_or_init(|| master_grid(self.study()))
    }

    /// The run manifest.
    pub(crate) fn manifest(&self) -> RefMut<'_, Manifest> {
        self.manifest.borrow_mut()
    }

    /// Record a rendered block's digest under `name`, then print it. The
    /// error is stdout's (a closed pipe, say).
    pub(crate) fn emit(&self, name: &str, text: String) -> Result<(), String> {
        self.manifest().record_digest(name, &text);
        writeln!(std::io::stdout(), "{text}").map_err(|e| format!("writing stdout: {e}"))
    }

    /// Render a file into memory, write it to `path` and record its
    /// digest under `name`. The error names the path.
    pub(crate) fn write_file(
        &self,
        path: &str,
        name: &str,
        render: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>,
    ) -> Result<(), String> {
        let mut buf = Vec::new();
        render(&mut buf)
            .and_then(|()| std::fs::write(path, &buf))
            .map_err(|e| format!("writing {path}: {e}"))?;
        self.manifest()
            .record_digest(name, &String::from_utf8_lossy(&buf));
        sos_obs::info!("wrote {path}");
        Ok(())
    }

    /// Write the manifest, trace and flame profile the command line asks
    /// for, once every experiment has run.
    pub fn finish(self) -> Result<(), String> {
        self.opts.artifacts.write(self.manifest.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_all_runs_its_entries_in_table_order() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "a name is listed twice");
        assert!(!names.contains(&"all"), "`all` is not an entry");

        let all: Vec<&str> = select("all").unwrap().iter().map(|e| e.name).collect();
        let marked: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.in_all)
            .map(|e| e.name)
            .collect();
        assert_eq!(all, marked);
        // The order `all` prints in, which `all_tiny.sha256` pins.
        assert_eq!(
            all,
            [
                "summary",
                "overlap",
                "rq1",
                "rq2",
                "rq4",
                "appendix-d",
                "raw",
                "recommend",
                "export",
                "budget-sweep",
                "as-kind",
                "rq3"
            ]
        );
        for e in EXPERIMENTS {
            let one: Vec<&str> = select(e.name).unwrap().iter().map(|e| e.name).collect();
            assert_eq!(one, [e.name]);
        }
        assert!(select("rq5").is_none());
    }

    #[test]
    fn an_entrys_own_flags_are_refused_by_the_others() {
        let parse = |args: &[&str]| Options::parse(args.iter().map(|a| a.to_string()));
        let owners: Vec<(&str, &str)> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.flags.iter().map(move |f| (*f, e.name)))
            .collect();
        assert!(owners.len() >= 8, "{owners:?}");
        for (spelled, owner) in owners {
            let mut flag: Vec<&str> = spelled.split(' ').collect();
            if flag.len() == 2 {
                flag[1] = "1";
            }
            let mut mine = vec![owner];
            mine.extend(&flag);
            assert!(parse(&mine).is_ok(), "{mine:?}: {:?}", parse(&mine).err());
            for other in ["summary", "all"] {
                let mut theirs = vec![other];
                theirs.extend(&flag);
                let e = parse(&theirs).unwrap_err();
                assert_eq!(
                    e,
                    format!("{} applies to the {owner} experiment only", flag[0])
                );
            }
        }
    }
}
