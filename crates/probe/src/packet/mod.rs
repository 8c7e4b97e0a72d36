//! Probe packet construction and validated parsing.
//!
//! Everything the scanner sends or receives passes through
//! [`build_probe`]/[`parse_packet`]: genuine IPv6 + ICMPv6/TCP/UDP-DNS wire
//! bytes with correct checksums. Responses that fail validation (bad
//! checksum, wrong version, truncation) are dropped exactly as a hardened
//! scanner drops them.

pub mod checksum;
pub mod dns;
pub mod icmpv6;
pub mod ipv6;
pub mod tcp;

use std::fmt;
use std::net::Ipv6Addr;

use netmodel::Protocol;

use self::icmpv6::{EchoPayload, Icmpv6Body, NO_REGION};
use self::ipv6::{parse_header, NEXT_ICMPV6, NEXT_TCP, NEXT_UDP};
use self::tcp::TcpSegment;

/// Why a packet failed to parse or validate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// Truncated below the minimum for its layer.
    TooShort,
    /// IP version field was not 6.
    BadVersion(u8),
    /// Declared and actual lengths disagree.
    BadLength {
        /// Length the header declared.
        declared: u16,
        /// Bytes actually present.
        actual: usize,
    },
    /// Transport checksum verification failed.
    BadChecksum,
    /// Next-header value we do not speak.
    UnsupportedProto(u8),
    /// ICMPv6 type we do not handle.
    UnsupportedType(u8),
    /// Structurally invalid contents.
    Malformed,
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::TooShort => write!(f, "packet too short"),
            PacketError::BadVersion(v) => write!(f, "IP version {v}, expected 6"),
            PacketError::BadLength { declared, actual } => {
                write!(f, "length mismatch: declared {declared}, actual {actual}")
            }
            PacketError::BadChecksum => write!(f, "checksum verification failed"),
            PacketError::UnsupportedProto(p) => write!(f, "unsupported next-header {p}"),
            PacketError::UnsupportedType(t) => write!(f, "unsupported ICMPv6 type {t}"),
            PacketError::Malformed => write!(f, "malformed contents"),
        }
    }
}

impl std::error::Error for PacketError {}

/// A fully parsed and checksum-verified packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedPacket {
    /// ICMPv6 Echo Request (a probe on its way out).
    EchoRequest {
        /// Sender.
        src: Ipv6Addr,
        /// Target.
        dst: Ipv6Addr,
        /// Echo identifier.
        ident: u16,
        /// Echo sequence.
        seq: u16,
        /// Decoded scanner payload, if it carried one.
        payload: Option<EchoPayload>,
    },
    /// ICMPv6 Echo Reply — an ICMP hit.
    EchoReply {
        /// Responder.
        src: Ipv6Addr,
        /// Our address.
        dst: Ipv6Addr,
        /// Echo identifier.
        ident: u16,
        /// Echo sequence.
        seq: u16,
        /// Echoed scanner payload, if recognizable.
        payload: Option<EchoPayload>,
    },
    /// ICMPv6 Destination Unreachable — audible but never a hit (§4.1).
    DstUnreachable {
        /// The router that reported it.
        src: Ipv6Addr,
        /// The destination of the original (cited) probe.
        original_dst: Option<Ipv6Addr>,
    },
    /// A TCP segment (SYN probe, SYN-ACK hit, or RST non-hit).
    Tcp {
        /// Sender.
        src: Ipv6Addr,
        /// Receiver.
        dst: Ipv6Addr,
        /// The header fields.
        segment: TcpSegment,
    },
    /// A UDP DNS message (query probe or response hit).
    Dns {
        /// Sender.
        src: Ipv6Addr,
        /// Receiver.
        dst: Ipv6Addr,
        /// The parsed message.
        message: dns::DnsMessage,
    },
}

impl ParsedPacket {
    /// The 6Scan region tag carried back by a *response*, if any.
    pub fn region_tag(&self) -> Option<u32> {
        match self {
            ParsedPacket::EchoReply {
                payload: Some(p), ..
            } if p.region != NO_REGION => Some(p.region),
            ParsedPacket::Tcp { segment, .. } if segment.is_syn_ack() => {
                Some(segment.ack.wrapping_sub(1))
            }
            ParsedPacket::Dns { message, .. } if message.is_response => message
                .qname
                .strip_prefix("r-")
                .and_then(|rest| rest.split('.').next())
                .and_then(|tag| u32::from_str_radix(tag, 16).ok()),
            _ => None,
        }
    }
}

/// The deterministic per-target validation token (ZMap-style): recomputable
/// from the salt and target, so no per-probe state is needed to validate a
/// response.
pub fn validation_token(salt: u64, dst: Ipv6Addr) -> u64 {
    netmodel::mix::mix_addr(salt ^ 0x7061_636b, u128::from(dst))
}

/// Ephemeral source port derived from the token.
fn src_port(token: u64) -> u16 {
    32768 + ((token >> 32) as u16 & 0x7fff)
}

/// Build a probe toward `dst` on `proto`.
///
/// `region`: a 6Scan-style region tag to embed, or `None` for plain probes.
/// Tokens are derived from `salt` via [`validation_token`].
pub fn build_probe(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    proto: Protocol,
    salt: u64,
    region: Option<u32>,
) -> Vec<u8> {
    let token = validation_token(salt, dst);
    match proto {
        Protocol::Icmp => {
            let payload = EchoPayload {
                token,
                region: region.unwrap_or(NO_REGION),
            };
            icmpv6::build_echo_request(
                src,
                dst,
                (token >> 48) as u16,
                token as u16,
                &payload.to_bytes(),
            )
        }
        Protocol::Tcp80 | Protocol::Tcp443 => {
            #[expect(
                clippy::expect_used,
                reason = "this match arm only covers TCP protocols, which carry a port"
            )]
            let dport = proto.dst_port().expect("tcp has a port");
            // Region probes put the tag in seq (recovered from ack-1);
            // plain probes put the token there for validation.
            let seq = region.unwrap_or(token as u32);
            tcp::build_syn(src, dst, src_port(token), dport, seq)
        }
        Protocol::Udp53 => {
            let qname = match region {
                Some(r) => format!("r-{r:08x}.probe.example"),
                None => format!("p-{token:016x}.probe.example"),
            };
            dns::build_dns_query(src, dst, src_port(token), token as u16, &qname)
        }
    }
}

/// Parse any packet we may send or receive. Validation failures return
/// errors; callers drop such packets.
pub fn parse_packet(bytes: &[u8]) -> Result<ParsedPacket, PacketError> {
    let (hdr, payload) = parse_header(bytes)?;
    match hdr.next_header {
        NEXT_ICMPV6 => match icmpv6::parse_icmpv6(hdr.src, hdr.dst, payload)? {
            Icmpv6Body::EchoRequest(ident, seq, p) => Ok(ParsedPacket::EchoRequest {
                src: hdr.src,
                dst: hdr.dst,
                ident,
                seq,
                payload: EchoPayload::from_bytes(&p),
            }),
            Icmpv6Body::EchoReply(ident, seq, p) => Ok(ParsedPacket::EchoReply {
                src: hdr.src,
                dst: hdr.dst,
                ident,
                seq,
                payload: EchoPayload::from_bytes(&p),
            }),
            Icmpv6Body::DstUnreachable(original_dst) => Ok(ParsedPacket::DstUnreachable {
                src: hdr.src,
                original_dst,
            }),
        },
        NEXT_TCP => Ok(ParsedPacket::Tcp {
            src: hdr.src,
            dst: hdr.dst,
            segment: tcp::parse_tcp(hdr.src, hdr.dst, payload)?,
        }),
        NEXT_UDP => Ok(ParsedPacket::Dns {
            src: hdr.src,
            dst: hdr.dst,
            message: dns::parse_udp_dns(hdr.src, hdr.dst, payload)?,
        }),
        other => Err(PacketError::UnsupportedProto(other)),
    }
}

/// Validate that a response to `dst` really answers a probe we sent with
/// `salt`. Region-tagged TCP probes sacrifice token validation (the tag
/// occupies the sequence number), mirroring 6Scan's design tradeoff.
pub fn validate_response(salt: u64, probed_dst: Ipv6Addr, response: &ParsedPacket) -> bool {
    let token = validation_token(salt, probed_dst);
    match response {
        ParsedPacket::EchoReply { payload, .. } => payload.is_some_and(|p| p.token == token),
        ParsedPacket::Tcp { segment, .. } => {
            if segment.is_rst() {
                // RSTs ack our seq+1 when well-behaved, but many stacks
                // send bare RSTs; accept either (RSTs are never hits).
                true
            } else {
                segment.ack == (token as u32).wrapping_add(1) || segment.is_syn_ack()
            }
        }
        ParsedPacket::Dns { message, .. } => {
            message.id == token as u16 || message.qname.starts_with("r-")
        }
        ParsedPacket::DstUnreachable { original_dst, .. } => {
            original_dst.map_or(true, |d| d == probed_dst)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn icmp_probe_roundtrip_with_region() {
        let pkt = build_probe(
            a("2001:db8::1"),
            a("2600::9"),
            Protocol::Icmp,
            7,
            Some(1234),
        );
        match parse_packet(&pkt).unwrap() {
            ParsedPacket::EchoRequest { dst, payload, .. } => {
                assert_eq!(dst, a("2600::9"));
                assert_eq!(payload.unwrap().region, 1234);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tcp_probe_targets_correct_port() {
        for (proto, port) in [(Protocol::Tcp80, 80u16), (Protocol::Tcp443, 443)] {
            let pkt = build_probe(a("::1"), a("2600::9"), proto, 7, None);
            match parse_packet(&pkt).unwrap() {
                ParsedPacket::Tcp { segment, .. } => assert_eq!(segment.dport, port),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn udp_probe_is_dns_query() {
        let pkt = build_probe(a("::1"), a("2600::9"), Protocol::Udp53, 7, None);
        match parse_packet(&pkt).unwrap() {
            ParsedPacket::Dns { message, .. } => {
                assert!(!message.is_response);
                assert_eq!(message.dport, 53);
                assert!(message.qname.starts_with("p-"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn validation_accepts_genuine_reply_and_rejects_forgery() {
        let salt = 99;
        let dst = a("2600::9");
        let token = validation_token(salt, dst);
        // genuine echo reply
        let payload = EchoPayload {
            token,
            region: NO_REGION,
        }
        .to_bytes();
        let reply = icmpv6::build_echo_reply(dst, a("::1"), 0, 0, &payload);
        let parsed = parse_packet(&reply).unwrap();
        assert!(validate_response(salt, dst, &parsed));
        // forged token
        let bad = EchoPayload {
            token: token ^ 1,
            region: NO_REGION,
        }
        .to_bytes();
        let forged = icmpv6::build_echo_reply(dst, a("::1"), 0, 0, &bad);
        let parsed = parse_packet(&forged).unwrap();
        assert!(!validate_response(salt, dst, &parsed));
    }

    #[test]
    fn syn_ack_validation_checks_ack() {
        let salt = 5;
        let dst = a("2600::80");
        let token = validation_token(salt, dst);
        let good = tcp::build_syn_ack(dst, a("::1"), 80, src_port(token), 1, token as u32);
        assert!(validate_response(salt, dst, &parse_packet(&good).unwrap()));
    }

    #[test]
    fn region_tag_recovery_icmp_tcp_dns() {
        let dst = a("2600::9");
        // ICMP
        let payload = EchoPayload {
            token: 0,
            region: 77,
        }
        .to_bytes();
        let reply = parse_packet(&icmpv6::build_echo_reply(dst, a("::1"), 0, 0, &payload)).unwrap();
        assert_eq!(reply.region_tag(), Some(77));
        // TCP: server acks region+1
        let synack = parse_packet(&tcp::build_syn_ack(dst, a("::1"), 80, 1000, 5, 77)).unwrap();
        assert_eq!(synack.region_tag(), Some(77));
        // DNS: qname label
        let resp = parse_packet(&dns::build_dns_response(
            dst,
            a("::1"),
            1000,
            1,
            "r-0000004d.probe.example",
        ))
        .unwrap();
        assert_eq!(resp.region_tag(), Some(77));
    }

    #[test]
    fn untagged_probe_has_no_region() {
        let dst = a("2600::9");
        let payload = EchoPayload {
            token: 1,
            region: NO_REGION,
        }
        .to_bytes();
        let reply = parse_packet(&icmpv6::build_echo_reply(dst, a("::1"), 0, 0, &payload)).unwrap();
        assert_eq!(reply.region_tag(), None);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(parse_packet(&[]).is_err());
        assert!(parse_packet(&[0xff; 60]).is_err());
    }

    #[test]
    fn tokens_are_target_specific_and_stable() {
        let t1 = validation_token(1, a("2600::1"));
        assert_eq!(t1, validation_token(1, a("2600::1")));
        assert_ne!(t1, validation_token(1, a("2600::2")));
        assert_ne!(t1, validation_token(2, a("2600::1")));
    }
}
