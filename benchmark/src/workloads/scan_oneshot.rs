//! `scan-oneshot`: the pure `probe` hot path, through both production paths.
//!
//! Set-up `World::build(WorldConfig::study(seed))` plus 600 000 targets;
//! timed: a fresh `Scanner` (retry `fixed(1)`, no limiter, no breaker) runs
//! `scan` — which round-trips wire bytes — on each of the 4 protocols, then
//! a second fresh `Scanner` runs `scan_parallel(.., 1)` — the
//! `probe_attempt` path — on each: 8 passes, 4.8 M (target, protocol)
//! pairs. `tga`, `dealias` and the `obs` writers are idle, so it is the
//! no-change control for generator work and the guard for merging the two
//! scan paths.

use std::net::Ipv6Addr;
use std::sync::Arc;

use netmodel::{Protocol, World, WorldConfig, PROTOCOLS};
use sos_probe::{RetryPolicy, ScanReport, Scanner, ScannerConfig, SimTransport};

use crate::inputs::target_list;
use crate::trace;
use crate::workloads::{timed, with_tracing, Digest, Layers, Outcome, Workload};

pub const TARGETS: usize = 600_000;

pub struct State {
    world: Arc<World>,
    targets: Vec<Ipv6Addr>,
}

/// The per-protocol reports of the wire pass and of the one-shard pass.
pub struct Passes {
    wire: Vec<ScanReport>,
    sharded: Vec<ScanReport>,
}

fn scanner(world: &Arc<World>) -> Scanner<SimTransport> {
    let cfg = ScannerConfig {
        retry: RetryPolicy::fixed(1),
        rate_pps: None,
        breaker: None,
        ..ScannerConfig::default()
    };
    Scanner::new(cfg, SimTransport::new(world.clone()))
}

fn wire_passes(state: &State) -> Vec<ScanReport> {
    let mut scanner = scanner(&state.world);
    PROTOCOLS
        .into_iter()
        .map(|proto| {
            trace::in_span("probe.scan_wire", || {
                scanner.scan(state.targets.iter().copied(), proto)
            })
        })
        .collect()
}

fn sharded_passes(state: &State, shards: usize, protocols: &[Protocol]) -> Vec<ScanReport> {
    let mut scanner = scanner(&state.world);
    protocols
        .iter()
        .map(|&proto| {
            trace::in_span("probe.scan_sharded", || {
                scanner.scan_parallel(state.targets.iter().copied(), proto, shards)
            })
        })
        .collect()
}

pub struct ScanOneshot;

impl Workload for ScanOneshot {
    type State = State;
    type Raw = Passes;

    fn setup(seed: u64) -> State {
        let world = Arc::new(World::build(WorldConfig::study(seed)));
        let targets = target_list(&world, TARGETS);
        State { world, targets }
    }

    fn timed(state: &mut State) -> Passes {
        Passes {
            wire: wire_passes(state),
            sharded: sharded_passes(state, 1, &PROTOCOLS),
        }
    }

    fn verify(state: &State, passes: Passes) -> Outcome {
        let mut digest = Digest::default();
        let mut out = Outcome {
            candidates: 0,
            packets: 0,
            ops: 0,
            failed: 0,
            digest: 0,
        };
        for (wire, sharded) in passes.wire.iter().zip(&passes.sharded) {
            // A wire pass accounts for every target exactly once.
            let accounted = wire.probed + wire.duplicates + wire.blocked == state.targets.len();
            let wire_ok = accounted
                && wire.hits.len() <= wire.probed
                && wire.packets_sent >= wire.probed as u64;
            // The one-shard pass must agree with the wire pass.
            let sharded_ok = (&sharded.hits, sharded.probed, sharded.packets_sent)
                == (&wire.hits, wire.probed, wire.packets_sent);
            out.ops += 2;
            out.failed += u64::from(!wire_ok) + u64::from(!sharded_ok);
            for r in [wire, sharded] {
                out.candidates += r.probed as u64;
                out.packets += r.packets_sent;
                digest.u64(r.packets_sent);
                digest.addrs(&r.hits);
            }
        }
        out.digest = digest.finish();
        out
    }
}

fn sum<'a>(
    reports: impl IntoIterator<Item = &'a ScanReport>,
    field: impl Fn(&ScanReport) -> u64,
) -> f64 {
    reports.into_iter().map(field).sum::<u64>() as f64
}

/// The traced run: the eight passes with spans and allocation counting,
/// then `World::probe` alone and the sharded path at width > 1.
pub fn traced(seed: u64, layers: &mut Layers) {
    let mut state = ScanOneshot::setup(seed);
    let (untraced, untraced_s) = timed(|| ScanOneshot::timed(&mut state));
    let (passes, traced_s, (allocs, bytes)) = with_tracing(|| ScanOneshot::timed(&mut state));
    let spans = trace::take();
    layers.check(passes.wire == untraced.wire && passes.sharded == untraced.sharded);

    let wire_s = trace::total_s(&spans, "probe.scan_wire");
    let sharded_s = trace::total_s(&spans, "probe.scan_sharded");
    let all = || passes.wire.iter().chain(&passes.sharded);
    let packets = sum(all(), |r| r.packets_sent);
    let probed = sum(all(), |r| r.probed as u64);
    layers.set("probe.scan_wire_s", wire_s);
    layers.set(
        "probe.scan_wire_pps",
        sum(&passes.wire, |r| r.packets_sent) / wire_s,
    );
    layers.set("probe.scan_sharded1_s", sharded_s);
    layers.set(
        "probe.scan_sharded1_pps",
        sum(&passes.sharded, |r| r.packets_sent) / sharded_s,
    );
    layers.set("probe.retry_share", sum(all(), |r| r.retries) / packets);
    layers.set(
        "probe.hit_share",
        sum(all(), |r| r.hits.len() as u64) / probed,
    );
    layers.set("probe.allocs_per_probe", allocs as f64 / probed);
    layers.set("probe.alloc_bytes_per_probe", bytes as f64 / probed);
    layers.set_trace_overhead(traced_s, untraced_s);
    layers.spans = spans;

    let world = &state.world;
    let ((), probe_s) = timed(|| {
        for &target in &state.targets {
            std::hint::black_box(world.probe(target, Protocol::Icmp, 0));
        }
    });
    layers.set(
        "netmodel.probe_ns",
        probe_s * 1e9 / state.targets.len() as f64,
    );

    // Reported with env.nproc; below 1 is a finding, not a failure.
    let icmp = |shards: usize| timed(|| sharded_passes(&state, shards, &[Protocol::Icmp])).1;
    layers.set(
        "probe.shard_speedup",
        icmp(1) / icmp(crate::env::speedup_width()),
    );
}
