//! The scanning engine of the study — a Rust equivalent of Scanv6 (§4.2).
//!
//! The paper scans TGA output with Scanv6, a scanner chosen because it
//! solves "missing or problematic blocklisting and lack of packet
//! verification" in earlier tools. This crate reproduces that scanner
//! faithfully:
//!
//! - [`packet`]: real wire-format construction and *validated* parsing of
//!   ICMPv6 Echo, TCP SYN, and UDP DNS probes — checksums included.
//! - [`engine::Scanner`]: deduplication, blocklisting (Appendix A),
//!   token-bucket rate limiting (the paper rate-limits to 10k pps),
//!   per-target retries, and §4.1's classification rules — ICMP
//!   Destination Unreachable and TCP RST are *never* hits. One per-target
//!   probe loop serves scans, sharded scans, campaign rounds and oracle
//!   probes alike.
//! - [`transport::Transport`]: the probing boundary — `send` and
//!   `packets_sent` to implement; the default [`Transport::probe_burst`] is
//!   the byte path (build a probe packet, `send` it, parse, validate and
//!   classify the response bytes). [`sim::SimTransport`] implements `send`
//!   against the simulated Internet and overrides `probe_burst` to ask the
//!   world oracle directly; the byte path, reachable through
//!   [`transport::WireOnly`], is the reference that override is tested
//!   against, not a second production path. What a transport keeps between
//!   probes is one value, [`carried::Carried`].
//! - [`oracle::ScanOracle`]: the feedback interface online TGAs (6Hit,
//!   6Scan, DET, 6Sense) and the online dealiaser use, one target per
//!   call, including 6Scan's payload region-encoding: the region a tagged
//!   hit reports is what the response echoes, exactly as it parses back
//!   from the probe payload.

pub mod campaign;
pub mod carried;
pub mod engine;
pub mod metrics;
pub mod oracle;
pub mod packet;
pub mod pcap;
pub mod provenance;
pub mod ratelimit;
pub mod retry;
pub mod sim;
pub mod transport;

pub use campaign::{
    merged_attribution, Campaign, CampaignCheckpoint, CampaignResult, CampaignRun, RunOptions,
};
pub use carried::Carried;
pub use engine::{ScanReport, Scanner, ScannerConfig};
pub use metrics::EngineMetrics;
pub use oracle::{NullOracle, ScanOracle};
pub use packet::{build_probe, parse_packet, PacketError, ParsedPacket};
pub use pcap::{CapturingTransport, PcapWriter};
pub use provenance::{
    attribute_hits, seed_digest, AttributionTable, HitAttribution, Provenance, ProvenanceLog,
    RegionTally, SourceTotals, REGION_FILL, SOURCE_TARGETS,
};
pub use ratelimit::TokenBucket;
pub use retry::{Admission, BreakerConfig, BreakerMap, BreakerState, RetryPolicy};
pub use sim::SimTransport;
pub use transport::{Attempt, Burst, ProbeSpec, Transport, WireOnly};
