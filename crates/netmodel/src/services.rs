//! Scan targets (ports/protocols) and per-host service sets.
//!
//! The study probes exactly four targets (§4.1): ICMPv6 Echo, TCP/80,
//! TCP/443, and UDP/53. [`Protocol`] enumerates them; [`PortSet`] is a
//! compact per-host bitmask of which targets a host answers.

use std::fmt;

/// One of the four scan targets evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// ICMPv6 Echo Request / Echo Reply.
    Icmp,
    /// TCP SYN to port 80 (HTTP).
    Tcp80,
    /// TCP SYN to port 443 (HTTPS).
    Tcp443,
    /// UDP DNS query to port 53.
    Udp53,
}

/// All four scan targets, in the paper's presentation order.
pub const PROTOCOLS: [Protocol; 4] = [
    Protocol::Icmp,
    Protocol::Tcp80,
    Protocol::Tcp443,
    Protocol::Udp53,
];

impl Protocol {
    /// Bit index inside a [`PortSet`].
    #[inline]
    pub fn bit(self) -> u8 {
        match self {
            Protocol::Icmp => 0,
            Protocol::Tcp80 => 1,
            Protocol::Tcp443 => 2,
            Protocol::Udp53 => 3,
        }
    }

    /// Destination port for the transport protocols (`None` for ICMP).
    pub fn dst_port(self) -> Option<u16> {
        match self {
            Protocol::Icmp => None,
            Protocol::Tcp80 => Some(80),
            Protocol::Tcp443 => Some(443),
            Protocol::Udp53 => Some(53),
        }
    }

    /// Short label used in tables ("ICMP", "TCP80", ...).
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Icmp => "ICMP",
            Protocol::Tcp80 => "TCP80",
            Protocol::Tcp443 => "TCP443",
            Protocol::Udp53 => "UDP53",
        }
    }

    /// Index into [`PROTOCOLS`].
    #[inline]
    pub fn index(self) -> usize {
        self.bit() as usize
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The set of scan targets a host answers, as a 4-bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PortSet(u8);

impl PortSet {
    /// The empty set (host answers nothing).
    pub const EMPTY: PortSet = PortSet(0);
    /// All four targets.
    pub const ALL: PortSet = PortSet(0b1111);

    /// Set from an iterator of protocols.
    pub fn of(protos: impl IntoIterator<Item = Protocol>) -> Self {
        let mut s = PortSet::EMPTY;
        for p in protos {
            s.insert(p);
        }
        s
    }

    /// Add a protocol.
    #[inline]
    pub fn insert(&mut self, p: Protocol) {
        self.0 |= 1 << p.bit();
    }

    /// Remove a protocol.
    #[inline]
    pub fn remove(&mut self, p: Protocol) {
        self.0 &= !(1 << p.bit());
    }

    /// Does the set contain `p`?
    #[inline]
    pub fn contains(self, p: Protocol) -> bool {
        self.0 & (1 << p.bit()) != 0
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of protocols in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterate contained protocols.
    pub fn iter(self) -> impl Iterator<Item = Protocol> {
        PROTOCOLS.into_iter().filter(move |p| self.contains(*p))
    }

    /// Union of two sets.
    #[inline]
    pub fn union(self, other: PortSet) -> PortSet {
        PortSet(self.0 | other.0)
    }

    /// Raw bitmask (low 4 bits).
    #[inline]
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Build from a raw mask (high bits ignored).
    #[inline]
    pub fn from_bits(bits: u8) -> PortSet {
        PortSet(bits & 0b1111)
    }
}

impl fmt::Display for PortSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for p in self.iter() {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        if first {
            write!(f, "none")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_bits_are_distinct() {
        let bits: Vec<u8> = PROTOCOLS.iter().map(|p| p.bit()).collect();
        let mut uniq = bits.clone();
        uniq.dedup();
        assert_eq!(bits, uniq);
        assert_eq!(bits, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ports() {
        assert_eq!(Protocol::Icmp.dst_port(), None);
        assert_eq!(Protocol::Tcp80.dst_port(), Some(80));
        assert_eq!(Protocol::Tcp443.dst_port(), Some(443));
        assert_eq!(Protocol::Udp53.dst_port(), Some(53));
    }

    #[test]
    fn portset_insert_remove_contains() {
        let mut s = PortSet::EMPTY;
        assert!(s.is_empty());
        s.insert(Protocol::Icmp);
        s.insert(Protocol::Udp53);
        assert!(s.contains(Protocol::Icmp));
        assert!(s.contains(Protocol::Udp53));
        assert!(!s.contains(Protocol::Tcp80));
        assert_eq!(s.len(), 2);
        s.remove(Protocol::Icmp);
        assert!(!s.contains(Protocol::Icmp));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn portset_all_and_iter() {
        assert_eq!(PortSet::ALL.len(), 4);
        let collected: Vec<Protocol> = PortSet::ALL.iter().collect();
        assert_eq!(collected, PROTOCOLS.to_vec());
    }

    #[test]
    fn portset_union_and_bits_roundtrip() {
        let a = PortSet::of([Protocol::Icmp]);
        let b = PortSet::of([Protocol::Tcp443]);
        let u = a.union(b);
        assert!(u.contains(Protocol::Icmp) && u.contains(Protocol::Tcp443));
        assert_eq!(PortSet::from_bits(u.bits()), u);
        // high bits are masked off
        assert_eq!(PortSet::from_bits(0xff), PortSet::ALL);
    }

    #[test]
    fn display_labels() {
        assert_eq!(
            PortSet::of([Protocol::Icmp, Protocol::Tcp80]).to_string(),
            "ICMP+TCP80"
        );
        assert_eq!(PortSet::EMPTY.to_string(), "none");
    }
}
