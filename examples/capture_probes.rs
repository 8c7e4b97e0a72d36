//! Capture real probe traffic to a pcap file: wrap the simulated transport
//! in [`sos_probe::CapturingTransport`], scan a few targets on every
//! protocol, and write `probes.pcap` — openable in Wireshark/tcpdump,
//! because every simulated packet is genuine wire-format IPv6.
//!
//! ```sh
//! cargo run --release -p sos-core --example capture_probes
//! tcpdump -r probes.pcap | head
//! ```

use std::sync::Arc;

use netmodel::{World, WorldConfig, PROTOCOLS};
use sos_probe::{CapturingTransport, Scanner, ScannerConfig, SimTransport};

fn main() {
    let world = Arc::new(World::build(WorldConfig::tiny(0xCAB)));

    // A few live targets per protocol, plus some dead space.
    let mut targets = Vec::new();
    for proto in PROTOCOLS {
        targets.extend(
            world
                .hosts()
                .iter()
                .filter(|(a, r)| r.responds(proto) && !world.is_aliased(*a))
                .map(|(a, _)| a)
                .take(3),
        );
    }
    targets.push("3fff:dead::1".parse().unwrap());

    let file = std::fs::File::create("probes.pcap").expect("create probes.pcap");
    let transport =
        CapturingTransport::new(SimTransport::new(world), std::io::BufWriter::new(file))
            .expect("pcap header");
    let mut scanner = Scanner::new(
        ScannerConfig {
            retry: sos_probe::RetryPolicy::fixed(1),
            rate_pps: None,
            ..ScannerConfig::default()
        },
        transport,
    );

    for proto in PROTOCOLS {
        let report = scanner.scan(targets.iter().copied(), proto);
        println!(
            "{:<7} probed {:>3} -> {:>2} hits, {} rst, {} unreachable, {} silent",
            proto.label(),
            report.probed,
            report.hits.len(),
            report.rsts,
            report.unreachables,
            report.silent
        );
    }

    // The scanner owns the capturing transport; dropping it at the end of
    // main flushes the BufWriter and finalizes the capture.
    println!("\nwrote probes.pcap — inspect with `tcpdump -r probes.pcap` or Wireshark");
}
