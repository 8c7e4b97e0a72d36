//! What `seedscan` and `worldgen` share of their command lines: one way to
//! read a flag's value, and one writer for the run artifacts
//! (`--manifest`, `--trace`, `--flame`) both binaries accept.

use std::fmt::Display;
use std::io;
use std::path::Path;
use std::str::FromStr;

use sos_obs::manifest::Manifest;

/// The value after `flag`, parsed as `T`. A flag with nothing after it
/// and a value that does not parse are both errors naming the flag.
pub fn value<T>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|e| format!("bad {flag} value {raw:?}: {e}"))
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
    pub fn flag(&mut self, flag: &str, args: &mut impl Iterator<Item = String>) -> Result<bool, String> {
        let slot = match flag {
            "--manifest" => &mut self.manifest,
            "--trace" => &mut self.trace,
            "--flame" => &mut self.flame,
            _ => return Ok(false),
        };
        *slot = Some(value(args, flag)?);
        Ok(true)
    }

    /// Write the manifest, then the trace, then the flame profile, each
    /// only when asked for. The first failure names the artifact and path.
    pub fn write(&self, manifest: Manifest) -> Result<(), String> {
        written(&self.manifest, "manifest", |path| manifest.write_to_file(path))?;
        written(&self.trace, "trace", sos_obs::trace::write_chrome_trace)?;
        written(&self.flame, "flame profile", sos_obs::trace::write_collapsed)
    }
}

fn written(path: &Option<String>, what: &str, write: impl FnOnce(&Path) -> io::Result<()>) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    write(Path::new(path)).map_err(|e| format!("writing {what} {path}: {e}"))?;
    sos_obs::info!("wrote {what} {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> impl Iterator<Item = String> {
        v.iter().map(|s| s.to_string()).collect::<Vec<_>>().into_iter()
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
        assert_eq!((a.manifest.as_deref(), a.trace.as_deref()), (Some("m.json"), Some("t.json")));
        assert!(a.flag("--flame", &mut rest).unwrap_err().contains("--flame"));
    }
}
