//! Minimal TCP segments for SYN scanning (RFC 9293).
//!
//! The scanner emits bare SYNs and classifies SYN-ACK vs. RST. Stateless
//! validation follows ZMap: the SYN's sequence number is a deterministic
//! token of the target, and a genuine SYN-ACK must acknowledge `token + 1`.
//! 6Scan-style probes instead place the region id in the sequence number,
//! recovering it from `ack - 1` — region routing without bookkeeping.

use std::net::Ipv6Addr;

use super::checksum::{transport_checksum, verify_transport_checksum};
use super::ipv6::{build_packet, NEXT_TCP};
use super::PacketError;

/// TCP flag bits.
pub mod flags {
    /// SYN.
    pub const SYN: u8 = 0x02;
    /// ACK.
    pub const ACK: u8 = 0x10;
    /// RST.
    pub const RST: u8 = 0x04;
    /// SYN|ACK.
    pub const SYN_ACK: u8 = SYN | ACK;
    /// RST|ACK.
    pub const RST_ACK: u8 = RST | ACK;
}

/// A parsed (header-only) TCP segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flag bits.
    pub flags: u8,
}

impl TcpSegment {
    /// Is this a SYN-ACK?
    pub fn is_syn_ack(&self) -> bool {
        self.flags & flags::SYN_ACK == flags::SYN_ACK && self.flags & flags::RST == 0
    }

    /// Is this an RST (with or without ACK)?
    pub fn is_rst(&self) -> bool {
        self.flags & flags::RST != 0
    }
}

/// Encode a 20-byte TCP header inside an IPv6 packet.
pub fn build_tcp(src: Ipv6Addr, dst: Ipv6Addr, seg: TcpSegment) -> Vec<u8> {
    let mut b = Vec::with_capacity(20);
    b.extend_from_slice(&seg.sport.to_be_bytes());
    b.extend_from_slice(&seg.dport.to_be_bytes());
    b.extend_from_slice(&seg.seq.to_be_bytes());
    b.extend_from_slice(&seg.ack.to_be_bytes());
    b.push(5 << 4); // data offset 5 words, no options
    b.push(seg.flags);
    b.extend_from_slice(&1024u16.to_be_bytes()); // window
    b.extend_from_slice(&[0, 0]); // checksum placeholder
    b.extend_from_slice(&[0, 0]); // urgent pointer
    let c = transport_checksum(src, dst, NEXT_TCP, &b);
    b[16..18].copy_from_slice(&c.to_be_bytes());
    build_packet(src, dst, NEXT_TCP, &b)
}

/// Build a SYN probe. `seq` carries the validation token (or a region id).
pub fn build_syn(src: Ipv6Addr, dst: Ipv6Addr, sport: u16, dport: u16, seq: u32) -> Vec<u8> {
    build_tcp(
        src,
        dst,
        TcpSegment {
            sport,
            dport,
            seq,
            ack: 0,
            flags: flags::SYN,
        },
    )
}

/// Build the SYN-ACK a listening host sends for a received SYN.
pub fn build_syn_ack(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    sport: u16,
    dport: u16,
    server_seq: u32,
    client_seq: u32,
) -> Vec<u8> {
    build_tcp(
        src,
        dst,
        TcpSegment {
            sport,
            dport,
            seq: server_seq,
            ack: client_seq.wrapping_add(1),
            flags: flags::SYN_ACK,
        },
    )
}

/// Build the RST a closed port sends for a received SYN.
pub fn build_rst(src: Ipv6Addr, dst: Ipv6Addr, sport: u16, dport: u16, client_seq: u32) -> Vec<u8> {
    build_tcp(
        src,
        dst,
        TcpSegment {
            sport,
            dport,
            seq: 0,
            ack: client_seq.wrapping_add(1),
            flags: flags::RST_ACK,
        },
    )
}

/// Parse (and checksum-verify) a TCP segment.
pub fn parse_tcp(src: Ipv6Addr, dst: Ipv6Addr, seg: &[u8]) -> Result<TcpSegment, PacketError> {
    if seg.len() < 20 {
        return Err(PacketError::TooShort);
    }
    if !verify_transport_checksum(src, dst, NEXT_TCP, seg) {
        return Err(PacketError::BadChecksum);
    }
    let data_offset = (seg[12] >> 4) as usize * 4;
    if data_offset < 20 || data_offset > seg.len() {
        return Err(PacketError::Malformed);
    }
    Ok(TcpSegment {
        sport: u16::from_be_bytes([seg[0], seg[1]]),
        dport: u16::from_be_bytes([seg[2], seg[3]]),
        seq: u32::from_be_bytes([seg[4], seg[5], seg[6], seg[7]]),
        ack: u32::from_be_bytes([seg[8], seg[9], seg[10], seg[11]]),
        flags: seg[13],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ipv6::parse_header;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn syn_roundtrip() {
        let pkt = build_syn(a("2001:db8::1"), a("2600::80"), 54321, 80, 0xCAFE_F00D);
        let (hdr, seg) = parse_header(&pkt).unwrap();
        assert_eq!(hdr.next_header, NEXT_TCP);
        let t = parse_tcp(hdr.src, hdr.dst, seg).unwrap();
        assert_eq!(t.sport, 54321);
        assert_eq!(t.dport, 80);
        assert_eq!(t.seq, 0xCAFE_F00D);
        assert_eq!(t.flags, flags::SYN);
        assert!(!t.is_syn_ack() && !t.is_rst());
    }

    #[test]
    fn syn_ack_acknowledges_token_plus_one() {
        let pkt = build_syn_ack(a("2600::80"), a("2001:db8::1"), 80, 54321, 777, 0xCAFE_F00D);
        let (hdr, seg) = parse_header(&pkt).unwrap();
        let t = parse_tcp(hdr.src, hdr.dst, seg).unwrap();
        assert!(t.is_syn_ack());
        assert_eq!(t.ack, 0xCAFE_F00E);
    }

    #[test]
    fn syn_ack_wraps_sequence_space() {
        let pkt = build_syn_ack(a("::1"), a("::2"), 443, 1, 0, u32::MAX);
        let (hdr, seg) = parse_header(&pkt).unwrap();
        assert_eq!(parse_tcp(hdr.src, hdr.dst, seg).unwrap().ack, 0);
    }

    #[test]
    fn rst_classification() {
        let pkt = build_rst(a("::1"), a("::2"), 443, 1, 5);
        let (hdr, seg) = parse_header(&pkt).unwrap();
        let t = parse_tcp(hdr.src, hdr.dst, seg).unwrap();
        assert!(t.is_rst());
        assert!(!t.is_syn_ack());
    }

    #[test]
    fn corrupted_segment_rejected() {
        let mut pkt = build_syn(a("::1"), a("::2"), 1, 80, 1);
        pkt[45] ^= 1; // flip a byte inside the TCP header
        let (hdr, seg) = parse_header(&pkt).unwrap();
        assert_eq!(
            parse_tcp(hdr.src, hdr.dst, seg),
            Err(PacketError::BadChecksum)
        );
    }

    #[test]
    fn short_segment_rejected() {
        assert_eq!(
            parse_tcp(a("::1"), a("::2"), &[0u8; 8]),
            Err(PacketError::TooShort)
        );
    }
}
