//! §5.3's collection pass as one resumable campaign — `seedscan campaign`.
//!
//! The full seed collection is scanned on all four protocols through one
//! scanner, in checkpointable rounds ([`Campaign::run_with`]), against
//! whatever fault preset the study's world was built with. Every target
//! is tagged with its /32 region (a pure observer: results stay
//! bit-identical to an untagged run), so the pass reports under both of
//! the paper's metrics — hits and origin ASes (§4.1) — and says where its
//! probes landed. That summary is a [`ManifestExplain`]: the caller
//! records it in the run manifest and `seedscan explain` reads it back.
//! Not part of `seedscan all`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sos_probe::provenance::ProvenanceLog;
use sos_probe::{
    BreakerConfig, Campaign, CampaignCheckpoint, CampaignRun, RetryPolicy, RunOptions, Scanner,
    ScannerConfig, SimTransport,
};

use crate::experiments::Run;
use crate::explain::ManifestExplain;
use crate::study::Study;

/// `seedscan campaign`: [`run`] with the command line's hostile-network
/// flags; print the report and record its summary in the manifest.
pub(crate) fn emit(r: &Run) -> Result<(), String> {
    let o = &r.opts;
    let journal = o.journal.as_ref().map(PathBuf::from);
    let opts = RunOptions {
        shards: o.cfg.scan_shards,
        checkpoint_every: o.checkpoint_every.unwrap_or(0),
        checkpoint_path: o.checkpoint.as_ref().map(PathBuf::from),
        cancel: None,
        stop_after_rounds: o.stop_after,
        // The Prometheus-style text snapshot rides next to the journal.
        snapshot_path: journal.as_ref().map(|j| j.with_extension("prom")),
        journal_path: journal,
        snapshot_every: o.snapshot_every.unwrap_or(1),
        // `run` tags the targets itself.
        provenance: None,
    };
    let resume = o.resume.as_deref().map(Path::new);
    let c = run(r.study(), o.seed, &o.faults, o.breaker, opts, resume)?;
    r.emit("campaign", c.text)?;
    c.summary.record(&c.counters, &mut r.manifest());
    Ok(())
}

/// What [`run`] produced.
pub struct CampaignReport {
    /// The campaign's outcome (partial when it was stopped or cancelled).
    pub run: CampaignRun,
    /// The scanner's counters after the run.
    pub counters: BTreeMap<String, u64>,
    /// Where the discoveries came from; with `counters`, what
    /// [`ManifestExplain::record`] writes into the manifest.
    pub summary: ManifestExplain,
    /// The rendered result: header, per-protocol table, attribution line.
    pub text: String,
}

/// Scan the study's full seed collection on every protocol.
///
/// `seed` salts the scanner, `faults` is the preset's label (for the
/// header only — the faults themselves are in the study's world) and
/// `breaker` arms per-/48 circuit breakers. `opts` is passed to
/// [`Campaign::run_with`] with `provenance` replaced by the target list's
/// /32 tags. `resume` names a checkpoint to continue from; one that does
/// not load is this function's error, like any failure of the run itself.
pub fn run(
    study: &Study,
    seed: u64,
    faults: &str,
    breaker: bool,
    opts: RunOptions,
    resume: Option<&Path>,
) -> Result<CampaignReport, String> {
    let resume = match resume {
        None => None,
        Some(path) => {
            let c = CampaignCheckpoint::load(path)?;
            sos_obs::info!(
                "resuming from {}: {} targets done, {} rounds",
                path.display(),
                c.done,
                c.rounds
            );
            Some(c)
        }
    };
    let scan_cfg = ScannerConfig {
        salt: seed ^ 0x5ca9,
        retry: RetryPolicy::exponential(study.config().scan_retries + 1, 0.05),
        breaker: breaker.then(BreakerConfig::default),
        rate_pps: None,
        ..ScannerConfig::default()
    };
    let mut scanner = Scanner::new(scan_cfg, SimTransport::new(study.world().clone()));
    let targets = &study.pipeline().full;
    let opts = RunOptions {
        provenance: Some(Arc::new(ProvenanceLog::for_targets(targets))),
        ..opts
    };
    let run = Campaign::standard(&mut scanner).run_with(targets, &opts, resume.as_ref())?;
    let summary = ManifestExplain::from_run(study.world(), targets, &run.result.reports);

    let mut text = format!(
        "Campaign over {} targets (faults={faults}, breaker={}, shards={})\n\
         completed={} rounds={} resumed_targets={}\n\
         {:<7} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8} {:>8}\n",
        targets.len(),
        if breaker { "on" } else { "off" },
        opts.shards.max(1),
        run.completed,
        run.rounds,
        run.resumed_targets,
        "proto",
        "probed",
        "hits",
        "skipped",
        "retries",
        "packets",
        "faults",
        "opened",
    );
    for (proto, r) in &run.result.reports {
        let _ = writeln!(
            text,
            "{:<7} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8} {:>8}",
            proto.label(),
            r.probed,
            r.hits.len(),
            r.skipped,
            r.retries,
            r.packets_sent,
            r.faults_injected,
            r.breaker_opened,
        );
    }
    let (a_probes, a_hits, _) = summary.attribution.totals();
    let _ = write!(
        text,
        "responsive on >=1 protocol: {}\n\
         attribution: {} region(s), {a_hits} hits / {a_probes} probes ({} wasted), \
         {} scheme(s), {} AS(es); coverage {} /32 cell(s), {} missed, {} blind",
        run.result.responsive_count(),
        summary.attribution.len(),
        summary.attribution.wasted(),
        summary.scheme_hits.len(),
        summary.as_hits.len(),
        summary.coverage.len(),
        summary.coverage.missed_cells(),
        summary.coverage.blind_cells(),
    );
    Ok(CampaignReport {
        run,
        counters: scanner.metrics().counters(),
        summary,
        text,
    })
}
