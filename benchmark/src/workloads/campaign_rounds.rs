//! `campaign-rounds`: the `probe` layer used as a resumable campaign.
//!
//! Set-up `World::build` of the study world with the `hostile` fault
//! preset plus 160 000 targets; timed
//! `Campaign::standard(..).run_with(..)` with `RetryPolicy::exponential(2,
//! 0.05)`, default breakers, one shard, 4 096-target rounds, and the
//! checkpoint, journal and snapshot written every round into a fresh
//! directory (40 rounds; the checkpoint, rewritten each round, ends at
//! ≈8 MB). Rounds, back-off, breakers and the `obs` writers run beside the
//! reads, so a scan-path gain that costs the resumable path — or a
//! journal/checkpoint gain no one-shot scan can see — shows here and only
//! here.
//!
//! `sos_obs::Json::parse` re-validates the rest of the document for every
//! string character, so loading the final checkpoint takes minutes (≈160 s
//! for 3.3 MB). The end-to-end check therefore reads only the
//! checkpoint's header, and the traced run measures `load` and `parse` on
//! the checkpoint a campaign leaves after [`PROBE_ROUNDS`] rounds.

use std::net::Ipv6Addr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use netmodel::{FaultConfig, World, WorldConfig, PROTOCOLS};
use sos_obs::journal::{read_records, Record};
use sos_obs::{Event, JournalWriter, Json};
use sos_probe::{
    BreakerConfig, Campaign, CampaignCheckpoint, CampaignRun, RetryPolicy, RunOptions, Scanner,
    ScannerConfig, SimTransport,
};

use crate::inputs::target_list;
use crate::stats::summarize;
use crate::trace;
use crate::workloads::{timed, with_tracing, Digest, Layers, Outcome, Workload};

pub const TARGETS: usize = 160_000;
pub const ROUND: usize = 4096;
/// Rounds after which the traced run stops a campaign to time checkpoint
/// save, load and parse (4 096 targets done).
pub const PROBE_ROUNDS: usize = 1;

pub struct State {
    world: Arc<World>,
    targets: Vec<Ipv6Addr>,
    /// Scratch directory for checkpoint, journal and snapshot; removed on drop.
    dir: PathBuf,
}

impl State {
    fn checkpoint(&self) -> PathBuf {
        self.dir.join("checkpoint.json")
    }
    fn journal(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }
}

impl Drop for State {
    fn drop(&mut self) {
        // Best effort: a leftover directory under out/ is harmless.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A fresh scratch directory under `out/`, unique per process and call.
fn scratch_dir() -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    // Relaxed: a unique-id counter that publishes nothing else.
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = crate::report::out_dir().join(format!("campaign.{}.{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir
}

fn scanner(world: &Arc<World>) -> Scanner<SimTransport> {
    let cfg = ScannerConfig {
        retry: RetryPolicy::exponential(2, 0.05),
        breaker: Some(BreakerConfig::default()),
        rate_pps: None,
        ..ScannerConfig::default()
    };
    Scanner::new(cfg, SimTransport::new(world.clone()))
}

/// The workload's options; `telemetry` switches checkpoint, journal and
/// snapshot.
fn options(state: &State, telemetry: bool) -> RunOptions {
    RunOptions {
        shards: 1,
        checkpoint_every: ROUND,
        checkpoint_path: telemetry.then(|| state.checkpoint()),
        journal_path: telemetry.then(|| state.journal()),
        snapshot_path: telemetry.then(|| state.dir.join("snapshot.prom")),
        snapshot_every: 1,
        ..RunOptions::default()
    }
}

fn run(state: &State, opts: &RunOptions) -> Result<CampaignRun, String> {
    let mut scanner = scanner(&state.world);
    Campaign::standard(&mut scanner).run_with(&state.targets, opts, None)
}

/// `(done, rounds)` from the head of a checkpoint file: the scalar fields
/// `CampaignCheckpoint::to_json` writes before `"reports"`, parsed as a
/// document of their own (see the module note on why not the whole file).
fn checkpoint_header(path: &Path) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let head = text
        .split("\"reports\"")
        .next()?
        .trim_end()
        .trim_end_matches(',');
    let doc = Json::parse(&format!("{head}}}")).ok()?;
    Some((doc.get("done")?.as_u64()?, doc.get("rounds")?.as_u64()?))
}

/// Every journal line parses, the first record announces the campaign and
/// the last one ends it; returns the prepared-target count it announced.
fn journal_prepared(path: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let records: Vec<Record> = text
        .lines()
        .map(Record::parse_line)
        .collect::<Result<_, _>>()
        .ok()?;
    let ended = matches!(
        records.last()?.event,
        Event::CampaignEnd {
            completed: true,
            ..
        }
    );
    match records.first()?.event {
        Event::CampaignStart { targets, .. } if ended => Some(targets),
        _ => None,
    }
}

pub struct CampaignRounds;

impl Workload for CampaignRounds {
    type State = State;
    type Raw = Result<CampaignRun, String>;

    fn setup(seed: u64) -> State {
        let faults = FaultConfig::preset("hostile").expect("the hostile preset exists");
        let world = Arc::new(World::build(WorldConfig {
            faults,
            ..WorldConfig::study(seed)
        }));
        let targets = target_list(&world, TARGETS);
        State {
            world,
            targets,
            dir: scratch_dir(),
        }
    }

    fn timed(state: &mut State) -> Self::Raw {
        run(state, &options(state, true))
    }

    fn verify(state: &State, raw: Self::Raw) -> Outcome {
        let mut out = Outcome {
            candidates: 0,
            packets: 0,
            ops: 1,
            failed: 1,
            digest: 0,
        };
        let Ok(run) = raw else { return out };
        let mut digest = Digest::default();
        for (_, r) in &run.result.reports {
            out.candidates += (r.probed + r.skipped) as u64;
            digest.u64(r.packets_sent);
            digest.addrs(&r.hits);
        }
        out.packets = run.result.packets_sent();
        out.digest = digest.finish();

        let prepared = journal_prepared(&state.journal());
        let ok = run.completed
            && prepared.is_some_and(|p| run.rounds as u64 == p.div_ceil(ROUND as u64))
            && prepared.zip(Some(run.rounds as u64)) == checkpoint_header(&state.checkpoint())
            && run.result.reports.len() == PROTOCOLS.len();
        out.failed = u64::from(!ok);
        out
    }
}

/// Milliseconds between each `round_start` and its `round_end`.
fn round_ms(records: &[Record]) -> Vec<f64> {
    let mut started = 0.0;
    let mut rounds = Vec::new();
    for r in records {
        match r.event {
            Event::RoundStart { .. } => started = r.wall_s,
            Event::RoundEnd { .. } => rounds.push((r.wall_s - started) * 1e3),
            _ => {}
        }
    }
    rounds
}

/// The traced run: the campaign with and without its telemetry, the round
/// times its own journal recorded, and the writers and parsers on their own.
pub fn traced(seed: u64, layers: &mut Layers) {
    let mut state = CampaignRounds::setup(seed);
    let (untraced, untraced_s) = timed(|| CampaignRounds::timed(&mut state));
    let untraced = CampaignRounds::verify(&state, untraced);

    let (full, traced_s, _) =
        with_tracing(|| trace::in_span("probe.campaign", || run(&state, &options(&state, true))));
    let records = read_records(&state.journal()).unwrap_or_default();
    let journal_bytes = std::fs::metadata(state.journal()).map_or(0, |m| m.len());
    let full_outcome = CampaignRounds::verify(&state, full);
    layers.check(full_outcome.failed == 0 && full_outcome.digest == untraced.digest);

    let checkpoint_bytes = std::fs::metadata(state.checkpoint()).map_or(0, |m| m.len());

    let (bare, _, _) = with_tracing(|| {
        trace::in_span("probe.campaign_bare", || {
            run(&state, &options(&state, false))
        })
    });
    let spans = trace::take();
    let bare = bare.ok();
    layers.check(
        bare.as_ref()
            .is_some_and(|b| b.completed && b.result.packets_sent() == full_outcome.packets),
    );

    let campaign_s = trace::total_s(&spans, "probe.campaign");
    let bare_s = trace::total_s(&spans, "probe.campaign_bare");
    let rounds = round_ms(&records);
    let (first, last) = (
        rounds.first().copied().unwrap_or(0.0),
        rounds.last().copied().unwrap_or(0.0),
    );
    let skipped: usize = bare
        .iter()
        .flat_map(|b| &b.result.reports)
        .map(|(_, r)| r.skipped)
        .sum();
    layers.set("probe.campaign_s", campaign_s);
    layers.set("probe.campaign_bare_s", bare_s);
    layers.set(
        "probe.campaign_telemetry_overhead",
        campaign_s / bare_s - 1.0,
    );
    layers.set("probe.campaign_rounds", rounds.len() as f64);
    layers.set("probe.round_first_ms", first);
    layers.set("probe.round_last_ms", last);
    layers.set("probe.round_growth", last / first);
    layers.set(
        "probe.breaker_skipped_share",
        skipped as f64 / full_outcome.candidates as f64,
    );
    layers.set("obs.journal_bytes", journal_bytes as f64);
    layers.set("obs.journal_records", records.len() as f64);
    layers.set_trace_overhead(traced_s, untraced_s);
    layers.spans = spans;

    // A campaign stopped after PROBE_ROUNDS rounds leaves a checkpoint
    // small enough to load: time its load, save and parse on their own.
    layers.set("probe.checkpoint_bytes", checkpoint_bytes as f64);
    let path = state.checkpoint();
    let stopped = RunOptions {
        checkpoint_path: Some(path.clone()),
        stop_after_rounds: Some(PROBE_ROUNDS),
        ..options(&state, false)
    };
    let partial = run(&state, &stopped);
    let (loaded, load_s) = timed(|| CampaignCheckpoint::load(&path));
    let resumable = loaded
        .as_ref()
        .is_ok_and(|c| c.done == PROBE_ROUNDS * ROUND && c.rounds == PROBE_ROUNDS);
    layers.check(partial.is_ok_and(|p| !p.completed) && resumable);
    layers.set("probe.checkpoint_load_ms", load_s * 1e3);
    if let Ok(ckpt) = loaded {
        let copy = state.dir.join("checkpoint.copy.json");
        let saves: Vec<f64> = (0..3)
            .map(|_| timed(|| ckpt.save(&copy).expect("save checkpoint copy")).1 * 1e3)
            .collect();
        layers.set("probe.checkpoint_save_ms", summarize(&saves).median);
    }
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let (parsed, parse_s) = timed(|| Json::parse(&text));
    layers.check(parsed.is_ok());
    layers.set("obs.json_parse_mb_s", text.len() as f64 / 1e6 / parse_s);

    // 20 000 events through the journal writer, one flushed line each.
    const EVENTS: u64 = 20_000;
    let mut writer = JournalWriter::create(state.dir.join("writes.jsonl")).expect("create journal");
    let ((), write_s) = timed(|| {
        for i in 0..EVENTS {
            let event = Event::RoundEnd {
                round: i,
                done: i * 4096,
                total: EVENTS * 4096,
                hits: i % 977,
                packets: 6_000 + i,
            };
            writer.write(i, event).expect("journal write");
        }
    });
    layers.set("obs.journal_write_us", write_s * 1e6 / EVENTS as f64);
}
