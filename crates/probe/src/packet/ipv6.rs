//! Fixed IPv6 header (RFC 8200) serialization and validated parsing.

use std::net::Ipv6Addr;

use super::PacketError;

/// Length of the fixed IPv6 header.
pub const HEADER_LEN: usize = 40;
/// Next-header value for ICMPv6.
pub const NEXT_ICMPV6: u8 = 58;
/// Next-header value for TCP.
pub const NEXT_TCP: u8 = 6;
/// Next-header value for UDP.
pub const NEXT_UDP: u8 = 17;
/// Hop limit used on emitted packets.
pub const HOP_LIMIT: u8 = 64;

/// Parsed fixed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv6Header {
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
    /// Next-header (upper-layer protocol) value.
    pub next_header: u8,
    /// Upper-layer payload length in bytes.
    pub payload_len: u16,
    /// Hop limit.
    pub hop_limit: u8,
}

/// Encode an IPv6 packet: fixed header followed by `payload`.
pub fn build_packet(src: Ipv6Addr, dst: Ipv6Addr, next_header: u8, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= u16::MAX as usize);
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.push(0x60); // version 6, traffic class 0 (high nybble of TC)
    buf.extend_from_slice(&[0, 0, 0]); // TC low / flow label
    buf.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    buf.push(next_header);
    buf.push(HOP_LIMIT);
    buf.extend_from_slice(&src.octets());
    buf.extend_from_slice(&dst.octets());
    buf.extend_from_slice(payload);
    buf
}

/// Parse and validate the fixed header; returns the header and the
/// upper-layer payload slice.
pub fn parse_header(packet: &[u8]) -> Result<(Ipv6Header, &[u8]), PacketError> {
    if packet.len() < HEADER_LEN {
        return Err(PacketError::TooShort);
    }
    if packet[0] >> 4 != 6 {
        return Err(PacketError::BadVersion(packet[0] >> 4));
    }
    let payload_len = u16::from_be_bytes([packet[4], packet[5]]);
    let next_header = packet[6];
    let hop_limit = packet[7];
    let mut src = [0u8; 16];
    src.copy_from_slice(&packet[8..24]);
    let mut dst = [0u8; 16];
    dst.copy_from_slice(&packet[24..40]);
    let payload = &packet[HEADER_LEN..]; // len >= HEADER_LEN checked at entry
    if payload.len() != payload_len as usize {
        return Err(PacketError::BadLength {
            declared: payload_len,
            actual: payload.len(),
        });
    }
    Ok((
        Ipv6Header {
            src: Ipv6Addr::from(src),
            dst: Ipv6Addr::from(dst),
            next_header,
            payload_len,
            hop_limit,
        },
        payload,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn build_parse_roundtrip() {
        let pkt = build_packet(a("2001:db8::1"), a("2001:db8::2"), NEXT_ICMPV6, b"hello");
        let (hdr, payload) = parse_header(&pkt).unwrap();
        assert_eq!(hdr.src, a("2001:db8::1"));
        assert_eq!(hdr.dst, a("2001:db8::2"));
        assert_eq!(hdr.next_header, NEXT_ICMPV6);
        assert_eq!(hdr.payload_len, 5);
        assert_eq!(hdr.hop_limit, HOP_LIMIT);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn rejects_short_packets() {
        assert_eq!(parse_header(&[0u8; 10]), Err(PacketError::TooShort));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut pkt = build_packet(a("::1"), a("::2"), NEXT_TCP, b"");
        pkt[0] = 0x40; // IPv4
        assert_eq!(parse_header(&pkt), Err(PacketError::BadVersion(4)));
    }

    #[test]
    fn rejects_length_mismatch() {
        let mut pkt = build_packet(a("::1"), a("::2"), NEXT_TCP, b"abcd");
        pkt[5] = 99;
        assert!(matches!(
            parse_header(&pkt),
            Err(PacketError::BadLength { .. })
        ));
    }

    #[test]
    fn empty_payload_ok() {
        let pkt = build_packet(a("::1"), a("::2"), NEXT_UDP, b"");
        let (hdr, payload) = parse_header(&pkt).unwrap();
        assert_eq!(hdr.payload_len, 0);
        assert!(payload.is_empty());
    }
}
