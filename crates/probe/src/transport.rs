//! The transport boundary.
//!
//! The scanner never sees the world directly: it asks a [`Transport`] to
//! probe one target to completion ([`Transport::probe_burst`]).
//!
//! - A transport **must** implement [`Transport::send`] and
//!   [`Transport::packets_sent`]. That is all a raw socket in the paper's
//!   deployment, [`crate::pcap::CapturingTransport`] or
//!   [`ScriptedTransport`] does, and it gets the byte-level `probe_burst`:
//!   real probe packets out, response bytes parsed, validated, classified.
//! - It **may** override `probe_burst` when both ends of the exchange live
//!   in one process ([`crate::sim::SimTransport`] asks its oracle
//!   directly); [`WireOnly`] strips an override so tests can hold it to
//!   the byte path's answers.
//! - It **may** expose the state it carries from one probe to the next
//!   ([`Transport::carried`]: per-flow attempt counters, the fault layer's
//!   per-prefix clock and totals — see [`Carried`]). The engine moves the
//!   rows of the addresses a scan task probes to that task and back, and
//!   campaign checkpoints persist it, so sharded and resumed scans continue
//!   the same clocks. A transport without such state leaves the accessors
//!   at `None`.
//!
//! Everything above the transport is identical either way.

use std::net::Ipv6Addr;

use netmodel::Protocol;

use crate::carried::Carried;
use crate::packet::{build_probe, parse_packet, validate_response, ParsedPacket};

/// Everything a transport needs to perform one probe attempt on its own:
/// the wire parameters of the probe plus the validation policy applied to
/// whatever comes back.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSpec {
    /// Source address stamped on the probe.
    pub src: Ipv6Addr,
    /// The probed target.
    pub dst: Ipv6Addr,
    /// Probe protocol (determines packet shape and §4.1 classification).
    pub proto: Protocol,
    /// Validation salt (ZMap-style stateless response validation).
    pub salt: u64,
    /// Optional 6Scan-style region tag carried in the probe payload.
    pub region: Option<u32>,
    /// Drop responses that fail token validation.
    pub validate: bool,
}

/// Classification of a single probe attempt (§4.1 rules applied to one
/// transmitted packet). Every variant except the first three means "no
/// verdict yet" — the engine retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt {
    /// Positive response — a hit.
    Hit,
    /// TCP RST — port closed; live device, but not a hit (§4.1).
    Rst,
    /// ICMP Destination Unreachable — not a hit (§4.1).
    Unreachable,
    /// Nothing came back within the timeout.
    Silent,
    /// A response arrived but failed to parse (dropped, counted).
    Malformed,
    /// A response arrived but failed token validation (dropped, counted).
    Invalid,
    /// A response parsed but does not apply to this probe (ignored).
    Inapplicable,
}

/// Classify raw response bytes against the probe that elicited them.
/// Returns the attempt verdict plus, for a hit on a region-tagged probe,
/// the region the response echoed (an untagged probe never reports one:
/// a plain SYN-ACK's `ack - 1` is the validation token, not a region).
fn classify_response(spec: &ProbeSpec, raw: &[u8]) -> (Attempt, Option<u32>) {
    let Ok(parsed) = parse_packet(raw) else {
        return (Attempt::Malformed, None);
    };
    if spec.validate && !validate_response(spec.salt, spec.dst, &parsed) {
        return (Attempt::Invalid, None);
    }
    let tag = spec.region.and(parsed.region_tag());
    match parsed {
        ParsedPacket::EchoReply { .. } if spec.proto == Protocol::Icmp => (Attempt::Hit, tag),
        ParsedPacket::Tcp { segment, .. }
            if matches!(spec.proto, Protocol::Tcp80 | Protocol::Tcp443) =>
        {
            if segment.is_syn_ack() {
                (Attempt::Hit, tag)
            } else if segment.is_rst() {
                (Attempt::Rst, None)
            } else {
                (Attempt::Inapplicable, None)
            }
        }
        ParsedPacket::Dns { message, .. }
            if spec.proto == Protocol::Udp53 && message.is_response =>
        {
            (Attempt::Hit, tag)
        }
        ParsedPacket::DstUnreachable { .. } => (Attempt::Unreachable, None),
        _ => (Attempt::Inapplicable, None),
    }
}

/// A request/response packet transport.
///
/// `send` transmits one probe packet and synchronously returns the response
/// packet, if any arrived within the probe timeout. Scanning IPv6 at the
/// paper's rates is effectively stateless request/response, so a
/// synchronous interface keeps the engine simple without losing fidelity;
/// an async raw-socket implementation would buffer and match responses by
/// validation token.
pub trait Transport {
    /// Transmit `packet` and return the response bytes, or `None` on
    /// timeout.
    fn send(&mut self, packet: &[u8]) -> Option<Vec<u8>>;

    /// Total packets transmitted through this transport.
    fn packets_sent(&self) -> u64;

    /// Probe one target to completion: up to `budget` attempts, stopping
    /// at the first decisive response (hit, RST, or unreachable). This is
    /// the only way the engine sends a probe.
    ///
    /// The default implementation is the byte-level reference: every
    /// attempt builds a real probe packet, round-trips it through
    /// [`Transport::send`], and parses, validates and classifies the
    /// response bytes per §4.1. Transports backed by an in-process oracle
    /// (see [`crate::sim::SimTransport`]) override it to skip crafting and
    /// re-parsing; an override must count every attempt in `packets_sent`
    /// and report exactly what the byte path would (tests diff the two
    /// through [`WireOnly`]).
    fn probe_burst(&mut self, spec: &ProbeSpec, budget: u32) -> Burst {
        let probe = build_probe(spec.src, spec.dst, spec.proto, spec.salt, spec.region);
        let mut burst = Burst::silent();
        while burst.used < budget {
            burst.used += 1;
            let Some(raw) = self.send(&probe) else {
                continue;
            };
            match classify_response(spec, &raw) {
                (verdict @ (Attempt::Hit | Attempt::Rst | Attempt::Unreachable), tag) => {
                    burst.verdict = verdict;
                    burst.tag = tag;
                    break;
                }
                (Attempt::Malformed, _) => burst.malformed += 1,
                (Attempt::Invalid, _) => burst.invalid += 1,
                (Attempt::Silent | Attempt::Inapplicable, _) => {}
            }
        }
        burst
    }

    /// The cross-target state this transport carries from one probe to the
    /// next, if it keeps any. Default: none — a stateless transport.
    fn carried(&self) -> Option<&Carried> {
        None
    }

    /// Mutable access to the same state: the engine takes it out to lend
    /// it to scan tasks and puts it back, a campaign resume restores it.
    fn carried_mut(&mut self) -> Option<&mut Carried> {
        None
    }
}

/// Outcome of one [`Transport::probe_burst`]: the per-target verdict plus
/// the per-attempt accounting the engine needs for its drop counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// Final verdict: `Hit`, `Rst`, or `Unreachable` if any attempt was
    /// decisive, else `Silent` (indecisive attempts never escalate).
    pub verdict: Attempt,
    /// The region a hit's response echoed back; `None` unless the probe
    /// carried one ([`ProbeSpec::region`]).
    pub tag: Option<u32>,
    /// Packets actually transmitted (≤ budget; stops after a decision).
    pub used: u32,
    /// Responses that failed to parse.
    pub malformed: u32,
    /// Responses that failed token validation.
    pub invalid: u32,
}

impl Burst {
    /// A burst that has transmitted nothing and decided nothing yet.
    pub fn silent() -> Burst {
        Burst {
            verdict: Attempt::Silent,
            tag: None,
            used: 0,
            malformed: 0,
            invalid: 0,
        }
    }
}

/// A scripted transport for unit tests: pops pre-programmed responses.
#[derive(Debug, Default)]
pub struct ScriptedTransport {
    /// Responses to return, oldest first. `None` entries simulate timeouts.
    pub script: std::collections::VecDeque<Option<Vec<u8>>>,
    /// Every packet that was sent, in order.
    pub sent: Vec<Vec<u8>>,
}

impl Transport for ScriptedTransport {
    fn send(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        self.sent.push(packet.to_vec());
        self.script.pop_front().flatten()
    }

    fn packets_sent(&self) -> u64 {
        self.sent.len() as u64
    }
}

/// The byte-level reference: forwards everything to the wrapped transport
/// *except* [`Transport::probe_burst`], which stays the default
/// `send` → parse → classify loop. `Scanner<WireOnly<SimTransport>>` is
/// the wire scanner the identity suites diff the production path against.
#[derive(Debug, Clone)]
pub struct WireOnly<T>(pub T);

impl<T: Transport> Transport for WireOnly<T> {
    fn send(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        self.0.send(packet)
    }
    fn packets_sent(&self) -> u64 {
        self.0.packets_sent()
    }
    fn carried(&self) -> Option<&Carried> {
        self.0.carried()
    }
    fn carried_mut(&mut self) -> Option<&mut Carried> {
        self.0.carried_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::icmpv6::{build_echo_reply, EchoPayload, NO_REGION};
    use crate::packet::validation_token;

    #[test]
    fn scripted_transport_replays_in_order() {
        let mut t = ScriptedTransport::default();
        t.script.push_back(Some(vec![1, 2, 3]));
        t.script.push_back(None);
        assert_eq!(t.send(b"a"), Some(vec![1, 2, 3]));
        assert_eq!(t.send(b"b"), None);
        assert_eq!(t.send(b"c"), None); // script exhausted = timeout
        assert_eq!(t.packets_sent(), 3);
        assert_eq!(t.sent.len(), 3);
    }

    #[test]
    fn default_probe_burst_round_trips_bytes() {
        let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let spec = ProbeSpec {
            src,
            dst,
            proto: Protocol::Icmp,
            salt: 7,
            region: None,
            validate: true,
        };
        // Timeout, then garbage, then a genuine (validated) echo reply.
        let token = validation_token(7, dst);
        let payload = EchoPayload {
            token,
            region: NO_REGION,
        }
        .to_bytes();
        let reply = build_echo_reply(dst, src, (token >> 48) as u16, token as u16, &payload);
        let mut t = ScriptedTransport::default();
        t.script.push_back(None);
        t.script.push_back(Some(vec![0u8; 9]));
        t.script.push_back(Some(reply));
        let burst = t.probe_burst(&spec, 5);
        let want = Burst {
            verdict: Attempt::Hit,
            tag: None,
            used: 3,
            malformed: 1,
            invalid: 0,
        };
        assert_eq!(
            burst, want,
            "stops at the decisive reply, counts the garbage"
        );
        assert_eq!(t.packets_sent(), 3, "each attempt transmits one probe");
        assert!(
            t.sent.iter().all(|p| *p == t.sent[0]),
            "retransmissions are the same packet"
        );
    }
}
