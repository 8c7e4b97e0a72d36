//! The `seedscan` command line: one way to read a flag's value, the
//! parsed [`Options`] every experiment runs from, the usage text, and one
//! writer for the run artifacts (`--manifest`, `--trace`, `--flame`).
//! The experiments themselves, and the flags only one of them takes, are
//! [`EXPERIMENTS`].

use std::fmt::{Display, Write as _};
use std::io;
use std::path::Path;
use std::str::FromStr;

use sos_obs::manifest::Manifest;

use crate::experiments::{Experiment, EXPERIMENTS};
use crate::StudyConfig;

/// The value after `flag`, parsed as `T`. A flag with nothing after it
/// and a value that does not parse are both errors naming the flag.
pub fn value<T>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|e| format!("bad {flag} value {raw:?}: {e}"))
}

/// A worker count, which must be at least 1: asking for zero workers is a
/// configuration mistake, not a request for the sequential path.
fn workers(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<Option<usize>, String> {
    match value(it, flag)? {
        0 => Err(format!("{flag} must be >= 1 (1 is the sequential path)")),
        n => Ok(Some(n)),
    }
}

/// Every `--faults` preset name, joined by `sep`.
fn fault_presets(sep: &str) -> String {
    let names: Vec<&str> = netmodel::FaultConfig::PRESETS
        .iter()
        .map(|(n, _)| *n)
        .collect();
    names.join(sep)
}

/// A checked `seedscan <experiment> [flags]` command line.
#[derive(Debug, Default)]
pub struct Options {
    /// The experiment as named: a table entry, or `all`.
    pub experiment: String,
    /// The entries that name runs, in table order.
    pub selected: Vec<&'static Experiment>,
    /// `--scale tiny|small|study` (default small).
    pub scale: String,
    /// `--seed N`: the world, collector and generator seeds derive from it.
    pub seed: u64,
    /// `--faults PRESET`: a deterministic hostile-world preset baked into
    /// the world model, for any experiment.
    pub faults: String,
    /// What the scale preset, `--seed`, `--faults`, `--budget` and
    /// `--threads` name. `--threads` sizes the grid; results are
    /// bit-identical at any width.
    pub cfg: StudyConfig,
    /// `--breaker`: per-/48 circuit breakers in the campaign.
    pub breaker: bool,
    /// `--checkpoint FILE`: the campaign's resumable checkpoint.
    pub checkpoint: Option<String>,
    /// `--checkpoint-every N`: targets between checkpoint writes.
    pub checkpoint_every: Option<usize>,
    /// `--resume FILE`: continue a killed campaign bit-identically.
    pub resume: Option<String>,
    /// `--stop-after N`: stop after N rounds, to simulate a kill.
    pub stop_after: Option<usize>,
    /// `--journal FILE`: one JSON line per campaign event, with counter
    /// snapshots as Prometheus-style text beside it (`.prom`).
    pub journal: Option<String>,
    /// `--snapshot-every N`: round boundaries between snapshots (default 1).
    pub snapshot_every: Option<usize>,
    /// `--dump-dir DIR`: where `world` writes its ground-truth lists.
    pub dump_dir: Option<String>,
    /// `--manifest`, `--trace` and `--flame`.
    pub artifacts: Artifacts,
}

impl Options {
    /// Parse the arguments after the program name. Every value is checked
    /// here, before any work: `Err("")` is a bare usage request.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut o = Options {
            scale: "small".to_string(),
            seed: 0xC0FFEE,
            faults: "off".to_string(),
            ..Options::default()
        };
        let (mut budget, mut threads) = (None, None);
        // Flags an entry owns, to check against the selection at the end.
        let mut owned = Vec::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if o.artifacts.flag(&a, &mut it)? {
                continue;
            }
            let spelled = |f: &&str| f.split(' ').next() == Some(&a);
            if let Some(owner) = EXPERIMENTS.iter().find(|e| e.flags.iter().any(spelled)) {
                owned.push((a.clone(), owner));
            }
            let it = &mut it;
            match a.as_str() {
                "--scale" => o.scale = value(it, "--scale")?,
                "--seed" => o.seed = value(it, "--seed")?,
                "--budget" => budget = Some(value(it, "--budget")?),
                "--threads" => threads = workers(it, "--threads")?,
                "--faults" => o.faults = value(it, "--faults")?,
                "--breaker" => o.breaker = true,
                "--checkpoint" => o.checkpoint = Some(value(it, "--checkpoint")?),
                "--checkpoint-every" => o.checkpoint_every = Some(value(it, "--checkpoint-every")?),
                "--resume" => o.resume = Some(value(it, "--resume")?),
                "--stop-after" => o.stop_after = Some(value(it, "--stop-after")?),
                "--journal" => o.journal = Some(value(it, "--journal")?),
                "--snapshot-every" => o.snapshot_every = Some(value(it, "--snapshot-every")?),
                "--dump-dir" => o.dump_dir = Some(value(it, "--dump-dir")?),
                "--help" | "-h" => return Err(String::new()),
                other if o.experiment.is_empty() => o.experiment = other.to_string(),
                other => return Err(format!("unexpected argument: {other}")),
            }
        }
        if o.experiment.is_empty() {
            return Err("no experiment given".to_string());
        }
        o.selected = crate::experiments::select(&o.experiment)
            .ok_or_else(|| format!("unknown experiment: {}", o.experiment))?;
        if let Some((flag, owner)) = owned
            .iter()
            .find(|(_, owner)| !o.selected.iter().any(|e| e.name == owner.name))
        {
            return Err(format!(
                "{flag} applies to the {} experiment only",
                owner.name
            ));
        }
        o.cfg = match o.scale.as_str() {
            "tiny" => StudyConfig::tiny(o.seed),
            "small" => StudyConfig::small(o.seed),
            "study" => StudyConfig::study(o.seed),
            other => {
                return Err(format!(
                    "bad --scale value {other:?}: expected tiny|small|study"
                ))
            }
        };
        o.cfg.world.faults = netmodel::FaultConfig::preset(&o.faults).ok_or_else(|| {
            format!(
                "bad --faults value {:?}: expected {}",
                o.faults,
                fault_presets("|")
            )
        })?;
        o.cfg.budget = budget.unwrap_or(o.cfg.budget);
        o.cfg.threads = threads.or(o.cfg.threads);
        Ok(o)
    }
}

/// The usage text: the common flags, then every experiment in the table
/// with the flags only it takes.
pub fn usage() -> String {
    let mut u = String::from(
        "usage: seedscan <experiment> [--scale tiny|small|study] [--seed N] [--budget N]\n\
         \u{20}                [--threads N] [--faults PRESET]\n\
         \u{20}                [--manifest FILE] [--trace FILE] [--flame FILE] [its own flags]\n\
         \u{20}      seedscan watch <journal> [--interval-ms N] [--max-idle-polls N]\n\
         \u{20}      seedscan explain <manifest|journal> [--json] [--top N]\n\
         experiments (all runs each one marked *):\n",
    );
    for e in EXPERIMENTS {
        let all = if e.in_all { '*' } else { ' ' };
        let _ = writeln!(u, "  {:<13}{all} {}", e.name, e.about);
        for flags in e.flags.chunks(4) {
            let flags: Vec<String> = flags.iter().map(|f| format!("[{f}]")).collect();
            let _ = writeln!(u, "{:17}{}", "", flags.join(" "));
        }
    }
    let _ = write!(
        u,
        "fault presets: {}\n\
         env: SOS_LOG=off|error|warn|info|debug|trace (stderr verbosity, default info)",
        fault_presets(" ")
    );
    u
}

/// Where a run writes its manifest, Chrome trace and collapsed-stack
/// profile; each is optional.
#[derive(Debug, Default)]
pub struct Artifacts {
    /// `--manifest FILE`: the JSON run manifest.
    pub manifest: Option<String>,
    /// `--trace FILE`: the Chrome trace-event timeline.
    pub trace: Option<String>,
    /// `--flame FILE`: self-time attribution as collapsed stacks.
    pub flame: Option<String>,
}

impl Artifacts {
    /// Take `flag`'s value when it is one of the three artifact flags;
    /// `Ok(false)` leaves any other flag to the caller.
    pub fn flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let slot = match flag {
            "--manifest" => &mut self.manifest,
            "--trace" => &mut self.trace,
            "--flame" => &mut self.flame,
            _ => return Ok(false),
        };
        *slot = Some(value(args, flag)?);
        Ok(true)
    }

    /// Refuse a path whose directory does not exist (a bare file name is
    /// in the current directory), so a run that could not write an
    /// artifact fails before it starts instead of after it finishes.
    pub fn check(&self) -> Result<(), String> {
        for (flag, path) in [
            ("--manifest", &self.manifest),
            ("--trace", &self.trace),
            ("--flame", &self.flame),
        ] {
            let Some(path) = path else { continue };
            let dir = Path::new(path)
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
                .unwrap_or(Path::new("."));
            if !dir.is_dir() {
                return Err(format!("{flag} {path}: no directory {}", dir.display()));
            }
        }
        Ok(())
    }

    /// Write the manifest, then the trace, then the flame profile, each
    /// only when asked for. The first failure names the artifact and path.
    pub fn write(&self, manifest: Manifest) -> Result<(), String> {
        written(&self.manifest, "manifest", |path| {
            manifest.write_to_file(path)
        })?;
        written(&self.trace, "trace", sos_obs::trace::write_chrome_trace)?;
        written(
            &self.flame,
            "flame profile",
            sos_obs::trace::write_collapsed,
        )
    }
}

fn written(
    path: &Option<String>,
    what: &str,
    write: impl FnOnce(&Path) -> io::Result<()>,
) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    write(Path::new(path)).map_err(|e| format!("writing {what} {path}: {e}"))?;
    sos_obs::info!("wrote {what} {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> impl Iterator<Item = String> {
        v.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn value_parses_or_names_the_flag() {
        assert_eq!(value::<u64>(&mut args(&["42"]), "--seed"), Ok(42));
        let missing = value::<String>(&mut args(&[]), "--manifest").unwrap_err();
        assert_eq!(missing, "--manifest needs a value");
        let bad = value::<usize>(&mut args(&["abc"]), "--threads").unwrap_err();
        assert!(bad.starts_with("bad --threads value \"abc\""), "{bad}");
    }

    #[test]
    fn artifact_flags_are_taken_and_others_left() {
        let mut a = Artifacts::default();
        let mut rest = args(&["m.json", "t.json"]);
        assert_eq!(a.flag("--manifest", &mut rest), Ok(true));
        assert_eq!(a.flag("--seed", &mut rest), Ok(false));
        assert_eq!(a.flag("--trace", &mut rest), Ok(true));
        assert_eq!(
            (a.manifest.as_deref(), a.trace.as_deref()),
            (Some("m.json"), Some("t.json"))
        );
        assert!(a
            .flag("--flame", &mut rest)
            .unwrap_err()
            .contains("--flame"));
    }

    #[test]
    fn check_wants_each_artifacts_directory_to_exist() {
        let here = Artifacts {
            manifest: Some("m.json".into()),
            ..Artifacts::default()
        };
        assert_eq!(
            here.check(),
            Ok(()),
            "a bare file name is in the current directory"
        );
        let missing = std::env::temp_dir()
            .join(format!("sos-cli-none-{}", std::process::id()))
            .join("f.txt");
        let flame = Artifacts {
            flame: Some(missing.display().to_string()),
            ..Artifacts::default()
        };
        assert!(
            flame.check().unwrap_err().starts_with("--flame "),
            "{:?}",
            flame.check()
        );
    }
}
