//! ICMPv6 (RFC 4443): Echo Request/Reply and Destination Unreachable.
//!
//! Echo payloads carry the scanner's verification token and, for 6Scan-style
//! probes, a region tag. Replies echo the payload verbatim, which is exactly
//! how 6Scan routes reward to tree regions without per-probe bookkeeping.

use std::net::Ipv6Addr;

use super::checksum::{transport_checksum, verify_transport_checksum};
use super::ipv6::{build_packet, NEXT_ICMPV6};
use super::PacketError;

/// ICMPv6 type: Echo Request.
pub const TYPE_ECHO_REQUEST: u8 = 128;
/// ICMPv6 type: Echo Reply.
pub const TYPE_ECHO_REPLY: u8 = 129;
/// ICMPv6 type: Destination Unreachable.
pub const TYPE_DST_UNREACH: u8 = 1;

/// Magic prefix identifying this scanner's echo payloads.
pub const PAYLOAD_MAGIC: &[u8; 4] = b"SoSc";
/// Region value meaning "no region tag".
pub const NO_REGION: u32 = u32::MAX;

/// Payload carried in our echo probes: magic, token, region tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EchoPayload {
    /// 64-bit validation token (ZMap-style stateless verification).
    pub token: u64,
    /// 6Scan region tag, or [`NO_REGION`].
    pub region: u32,
}

impl EchoPayload {
    /// Encode as the on-wire payload.
    pub fn to_bytes(self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[..4].copy_from_slice(PAYLOAD_MAGIC);
        b[4..12].copy_from_slice(&self.token.to_be_bytes());
        b[12..16].copy_from_slice(&self.region.to_be_bytes());
        b
    }

    /// Parse from an echoed payload; `None` if it is not ours.
    pub fn from_bytes(b: &[u8]) -> Option<EchoPayload> {
        if b.len() < 16 || &b[..4] != PAYLOAD_MAGIC {
            return None;
        }
        Some(EchoPayload {
            token: u64::from_be_bytes(b[4..12].try_into().ok()?),
            region: u32::from_be_bytes(b[12..16].try_into().ok()?),
        })
    }
}

fn build_echo(
    ty: u8,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    ident: u16,
    seq: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut seg = Vec::with_capacity(8 + payload.len());
    seg.push(ty);
    seg.push(0); // code
    seg.extend_from_slice(&[0, 0]); // checksum placeholder
    seg.extend_from_slice(&ident.to_be_bytes());
    seg.extend_from_slice(&seq.to_be_bytes());
    seg.extend_from_slice(payload);
    let c = transport_checksum(src, dst, NEXT_ICMPV6, &seg);
    seg[2..4].copy_from_slice(&c.to_be_bytes());
    build_packet(src, dst, NEXT_ICMPV6, &seg)
}

/// Build an Echo Request packet.
pub fn build_echo_request(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    ident: u16,
    seq: u16,
    payload: &[u8],
) -> Vec<u8> {
    build_echo(TYPE_ECHO_REQUEST, src, dst, ident, seq, payload)
}

/// Build an Echo Reply mirroring a request's ident/seq/payload.
pub fn build_echo_reply(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    ident: u16,
    seq: u16,
    payload: &[u8],
) -> Vec<u8> {
    build_echo(TYPE_ECHO_REPLY, src, dst, ident, seq, payload)
}

/// Build a Destination Unreachable citing the invoking packet (we embed
/// its IPv6 header + first 8 payload bytes, per RFC 4443 §3.1).
pub fn build_dst_unreachable(src: Ipv6Addr, dst: Ipv6Addr, invoking: &[u8]) -> Vec<u8> {
    let cite = &invoking[..invoking.len().min(48)];
    let mut seg = Vec::with_capacity(8 + cite.len());
    seg.push(TYPE_DST_UNREACH);
    seg.push(0); // code: no route
    seg.extend_from_slice(&[0, 0]); // checksum placeholder
    seg.extend_from_slice(&[0, 0, 0, 0]); // unused
    seg.extend_from_slice(cite);
    let c = transport_checksum(src, dst, NEXT_ICMPV6, &seg);
    seg[2..4].copy_from_slice(&c.to_be_bytes());
    build_packet(src, dst, NEXT_ICMPV6, &seg)
}

/// A parsed ICMPv6 message body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Icmpv6Body {
    /// Echo Request: (ident, seq, payload).
    EchoRequest(u16, u16, Vec<u8>),
    /// Echo Reply: (ident, seq, payload).
    EchoReply(u16, u16, Vec<u8>),
    /// Destination Unreachable: the cited original destination, if the
    /// invoking header was intact.
    DstUnreachable(Option<Ipv6Addr>),
}

/// Parse (and checksum-verify) an ICMPv6 segment.
pub fn parse_icmpv6(src: Ipv6Addr, dst: Ipv6Addr, seg: &[u8]) -> Result<Icmpv6Body, PacketError> {
    if seg.len() < 8 {
        return Err(PacketError::TooShort);
    }
    if !verify_transport_checksum(src, dst, NEXT_ICMPV6, seg) {
        return Err(PacketError::BadChecksum);
    }
    match seg[0] {
        TYPE_ECHO_REQUEST | TYPE_ECHO_REPLY => {
            let ident = u16::from_be_bytes([seg[4], seg[5]]);
            let seq = u16::from_be_bytes([seg[6], seg[7]]);
            let payload = seg[8..].to_vec();
            Ok(if seg[0] == TYPE_ECHO_REQUEST {
                Icmpv6Body::EchoRequest(ident, seq, payload)
            } else {
                Icmpv6Body::EchoReply(ident, seq, payload)
            })
        }
        TYPE_DST_UNREACH => {
            // cited original packet begins at offset 8; its destination
            // address sits at bytes 24..40 of the cited IPv6 header
            let cited = &seg[8..];
            let orig_dst = if cited.len() >= 40 {
                let mut d = [0u8; 16];
                d.copy_from_slice(&cited[24..40]);
                Some(Ipv6Addr::from(d))
            } else {
                None
            };
            Ok(Icmpv6Body::DstUnreachable(orig_dst))
        }
        t => Err(PacketError::UnsupportedType(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ipv6::parse_header;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn echo_request_roundtrip() {
        let payload = EchoPayload {
            token: 0xDEAD_BEEF_0123_4567,
            region: 42,
        }
        .to_bytes();
        let pkt = build_echo_request(a("2001:db8::1"), a("2001:db8::2"), 7, 9, &payload);
        let (hdr, seg) = parse_header(&pkt).unwrap();
        let body = parse_icmpv6(hdr.src, hdr.dst, seg).unwrap();
        match body {
            Icmpv6Body::EchoRequest(ident, seq, p) => {
                assert_eq!((ident, seq), (7, 9));
                let ep = EchoPayload::from_bytes(&p).unwrap();
                assert_eq!(ep.token, 0xDEAD_BEEF_0123_4567);
                assert_eq!(ep.region, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn echo_reply_roundtrip() {
        let pkt = build_echo_reply(a("::2"), a("::1"), 1, 2, b"0123456789abcdef");
        let (hdr, seg) = parse_header(&pkt).unwrap();
        assert!(matches!(
            parse_icmpv6(hdr.src, hdr.dst, seg).unwrap(),
            Icmpv6Body::EchoReply(1, 2, _)
        ));
    }

    #[test]
    fn checksum_failure_rejected() {
        let mut pkt = build_echo_request(a("::1"), a("::2"), 1, 1, b"xxxx");
        let n = pkt.len();
        pkt[n - 1] ^= 0xff;
        let (hdr, seg) = parse_header(&pkt).unwrap();
        assert_eq!(
            parse_icmpv6(hdr.src, hdr.dst, seg),
            Err(PacketError::BadChecksum)
        );
    }

    #[test]
    fn dst_unreachable_cites_original_destination() {
        let req = build_echo_request(a("2001:db8::1"), a("2400:dead::5"), 3, 4, b"tokendata");
        let unreach = build_dst_unreachable(a("2a00:ffff::1"), a("2001:db8::1"), &req);
        let (hdr, seg) = parse_header(&unreach).unwrap();
        match parse_icmpv6(hdr.src, hdr.dst, seg).unwrap() {
            Icmpv6Body::DstUnreachable(orig) => assert_eq!(orig, Some(a("2400:dead::5"))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncated_citation_yields_none() {
        let unreach = build_dst_unreachable(a("::1"), a("::2"), &[0u8; 10]);
        let (hdr, seg) = parse_header(&unreach).unwrap();
        assert!(matches!(
            parse_icmpv6(hdr.src, hdr.dst, seg).unwrap(),
            Icmpv6Body::DstUnreachable(None)
        ));
    }

    #[test]
    fn foreign_payload_not_parsed_as_ours() {
        assert!(EchoPayload::from_bytes(b"not ours at all!").is_none());
        assert!(EchoPayload::from_bytes(b"short").is_none());
    }

    #[test]
    fn unsupported_type_rejected() {
        // Craft a Router Advertisement-ish segment with a valid checksum.
        let src = a("fe80::1");
        let dst = a("fe80::2");
        let mut seg = vec![134u8, 0, 0, 0, 0, 0, 0, 0];
        let c = transport_checksum(src, dst, NEXT_ICMPV6, &seg);
        seg[2..4].copy_from_slice(&c.to_be_bytes());
        assert_eq!(
            parse_icmpv6(src, dst, &seg),
            Err(PacketError::UnsupportedType(134))
        );
    }
}
