//! UDP/53 probes: a genuine DNS query in the wire format of RFC 1035.
//!
//! A UDP53 "hit" in the paper means the target answered a DNS query. The
//! probe is a standard AAAA query whose transaction id carries the low 16
//! bits of the validation token and whose QNAME encodes the token (and an
//! optional 6Scan region tag) in its first label. Responders echo the
//! question section, so validation and region recovery are stateless.

use std::net::Ipv6Addr;

use super::checksum::{transport_checksum, verify_transport_checksum};
use super::ipv6::{build_packet, NEXT_UDP};
use super::PacketError;

/// QTYPE AAAA.
pub const QTYPE_AAAA: u16 = 28;
/// QCLASS IN.
pub const QCLASS_IN: u16 = 1;

/// A parsed UDP+DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsMessage {
    /// UDP source port.
    pub sport: u16,
    /// UDP destination port.
    pub dport: u16,
    /// DNS transaction id.
    pub id: u16,
    /// True for responses (QR bit set).
    pub is_response: bool,
    /// The query name, dot-joined, lowercase.
    pub qname: String,
}

/// Encode a dotted name into DNS label wire format.
fn encode_qname(name: &str, out: &mut Vec<u8>) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        debug_assert!(label.len() < 64);
        out.push(label.len() as u8);
        out.extend_from_slice(label.as_bytes());
    }
    out.push(0);
}

/// Decode a label-format name starting at `pos`; returns (name, next pos).
/// Compression pointers are not used by our own messages and are rejected.
fn decode_qname(buf: &[u8], mut pos: usize) -> Result<(String, usize), PacketError> {
    let mut name = String::new();
    loop {
        let len = *buf.get(pos).ok_or(PacketError::TooShort)? as usize;
        pos += 1;
        if len == 0 {
            break;
        }
        if len & 0xc0 != 0 {
            return Err(PacketError::Malformed); // compression pointer
        }
        let label = buf.get(pos..pos + len).ok_or(PacketError::TooShort)?;
        if !name.is_empty() {
            name.push('.');
        }
        name.push_str(&String::from_utf8_lossy(label).to_lowercase());
        pos += len;
    }
    Ok((name, pos))
}

/// Build the DNS message body (header + question).
fn dns_body(id: u16, is_response: bool, qname: &str) -> Vec<u8> {
    let mut b = Vec::with_capacity(32);
    b.extend_from_slice(&id.to_be_bytes());
    // flags: RD set on queries; QR|RD|RA on responses
    let dns_flags: u16 = if is_response { 0x8180 } else { 0x0100 };
    b.extend_from_slice(&dns_flags.to_be_bytes());
    b.extend_from_slice(&1u16.to_be_bytes()); // QDCOUNT
    b.extend_from_slice(&0u16.to_be_bytes()); // ANCOUNT
    b.extend_from_slice(&0u16.to_be_bytes()); // NSCOUNT
    b.extend_from_slice(&0u16.to_be_bytes()); // ARCOUNT
    encode_qname(qname, &mut b);
    b.extend_from_slice(&QTYPE_AAAA.to_be_bytes());
    b.extend_from_slice(&QCLASS_IN.to_be_bytes());
    b
}

/// Wrap a DNS body in UDP + IPv6.
fn build_udp_dns(src: Ipv6Addr, dst: Ipv6Addr, sport: u16, dport: u16, body: &[u8]) -> Vec<u8> {
    let udp_len = 8 + body.len();
    let mut seg = Vec::with_capacity(udp_len);
    seg.extend_from_slice(&sport.to_be_bytes());
    seg.extend_from_slice(&dport.to_be_bytes());
    seg.extend_from_slice(&(udp_len as u16).to_be_bytes());
    seg.extend_from_slice(&[0, 0]); // checksum placeholder
    seg.extend_from_slice(body);
    let c = transport_checksum(src, dst, NEXT_UDP, &seg);
    seg[6..8].copy_from_slice(&c.to_be_bytes());
    build_packet(src, dst, NEXT_UDP, &seg)
}

/// Build a DNS AAAA query probe.
pub fn build_dns_query(src: Ipv6Addr, dst: Ipv6Addr, sport: u16, id: u16, qname: &str) -> Vec<u8> {
    build_udp_dns(src, dst, sport, 53, &dns_body(id, false, qname))
}

/// Build the DNS response a resolver sends (question echoed, no answers —
/// responsiveness, not data, is what the scan measures).
pub fn build_dns_response(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    dport: u16,
    id: u16,
    qname: &str,
) -> Vec<u8> {
    build_udp_dns(src, dst, 53, dport, &dns_body(id, true, qname))
}

/// Parse (and checksum-verify) a UDP segment carrying DNS.
pub fn parse_udp_dns(src: Ipv6Addr, dst: Ipv6Addr, seg: &[u8]) -> Result<DnsMessage, PacketError> {
    if seg.len() < 8 {
        return Err(PacketError::TooShort);
    }
    if !verify_transport_checksum(src, dst, NEXT_UDP, seg) {
        return Err(PacketError::BadChecksum);
    }
    let sport = u16::from_be_bytes([seg[0], seg[1]]);
    let dport = u16::from_be_bytes([seg[2], seg[3]]);
    let udp_len = u16::from_be_bytes([seg[4], seg[5]]) as usize;
    if udp_len != seg.len() {
        return Err(PacketError::BadLength {
            declared: udp_len as u16,
            actual: seg.len(),
        });
    }
    let dns = &seg[8..];
    if dns.len() < 12 {
        return Err(PacketError::TooShort);
    }
    let id = u16::from_be_bytes([dns[0], dns[1]]);
    let dns_flags = u16::from_be_bytes([dns[2], dns[3]]);
    let qdcount = u16::from_be_bytes([dns[4], dns[5]]);
    if qdcount != 1 {
        return Err(PacketError::Malformed);
    }
    let (qname, _) = decode_qname(dns, 12)?;
    Ok(DnsMessage {
        sport,
        dport,
        id,
        is_response: dns_flags & 0x8000 != 0,
        qname,
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
    fn query_roundtrip() {
        let pkt = build_dns_query(
            a("2001:db8::1"),
            a("2600::53"),
            40000,
            0xBEEF,
            "p-12ab.probe.example",
        );
        let (hdr, seg) = parse_header(&pkt).unwrap();
        assert_eq!(hdr.next_header, NEXT_UDP);
        let m = parse_udp_dns(hdr.src, hdr.dst, seg).unwrap();
        assert_eq!(m.sport, 40000);
        assert_eq!(m.dport, 53);
        assert_eq!(m.id, 0xBEEF);
        assert!(!m.is_response);
        assert_eq!(m.qname, "p-12ab.probe.example");
    }

    #[test]
    fn response_roundtrip() {
        let pkt = build_dns_response(
            a("2600::53"),
            a("2001:db8::1"),
            40000,
            7,
            "r-9.probe.example",
        );
        let (hdr, seg) = parse_header(&pkt).unwrap();
        let m = parse_udp_dns(hdr.src, hdr.dst, seg).unwrap();
        assert!(m.is_response);
        assert_eq!(m.sport, 53);
        assert_eq!(m.qname, "r-9.probe.example");
    }

    #[test]
    fn qname_case_is_normalized() {
        let pkt = build_dns_query(a("::1"), a("::2"), 1, 1, "MiXeD.Example");
        let (hdr, seg) = parse_header(&pkt).unwrap();
        assert_eq!(
            parse_udp_dns(hdr.src, hdr.dst, seg).unwrap().qname,
            "mixed.example"
        );
    }

    #[test]
    fn bad_checksum_rejected() {
        let mut pkt = build_dns_query(a("::1"), a("::2"), 1, 1, "x.example");
        let n = pkt.len();
        pkt[n - 1] ^= 0x55;
        let (hdr, seg) = parse_header(&pkt).unwrap();
        assert_eq!(
            parse_udp_dns(hdr.src, hdr.dst, seg),
            Err(PacketError::BadChecksum)
        );
    }

    #[test]
    fn udp_length_mismatch_rejected() {
        let pkt = build_dns_query(a("::1"), a("::2"), 1, 1, "x.example");
        let (hdr, seg) = parse_header(&pkt).unwrap();
        let mut seg = seg.to_vec();
        seg[4] ^= 0x01; // corrupt UDP length (checksum now also wrong; fix it)
        let c = {
            seg[6] = 0;
            seg[7] = 0;
            transport_checksum(hdr.src, hdr.dst, NEXT_UDP, &seg)
        };
        seg[6..8].copy_from_slice(&c.to_be_bytes());
        assert!(matches!(
            parse_udp_dns(hdr.src, hdr.dst, &seg),
            Err(PacketError::BadLength { .. })
        ));
    }

    #[test]
    fn compression_pointers_rejected() {
        // Hand-build a DNS body with a compression pointer in the qname.
        let mut body = vec![0u8, 1, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0];
        body.extend_from_slice(&[0xc0, 0x0c]); // pointer
        body.extend_from_slice(&QTYPE_AAAA.to_be_bytes());
        body.extend_from_slice(&QCLASS_IN.to_be_bytes());
        let pkt = build_udp_dns(a("::1"), a("::2"), 1, 53, &body);
        let (hdr, seg) = parse_header(&pkt).unwrap();
        assert_eq!(
            parse_udp_dns(hdr.src, hdr.dst, seg),
            Err(PacketError::Malformed)
        );
    }
}
