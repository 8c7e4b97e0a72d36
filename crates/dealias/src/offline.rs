//! Offline dealiasing against a published alias-prefix list.
//!
//! This is the cheap first tier: the IPv6 Hitlist publishes verified
//! aliased prefixes, and "many prior TGAs rely solely or partly on this
//! list" (§2.2). It costs zero packets but, as RQ1.a demonstrates, it is
//! incomplete — the list only knows aliases someone already found.

use std::net::Ipv6Addr;

use v6addr::PrefixSet;

/// A list-based alias filter.
#[derive(Debug, Clone, Default)]
pub struct OfflineDealiaser {
    list: PrefixSet,
}

impl OfflineDealiaser {
    /// Wrap a published alias list.
    pub fn new(list: PrefixSet) -> Self {
        OfflineDealiaser { list }
    }

    /// An empty list (filters nothing) — the "no offline dealiasing" case.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of known aliased prefixes.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Split addresses into (clean, listed-aliased).
    pub fn partition(
        &self,
        addrs: impl IntoIterator<Item = Ipv6Addr>,
    ) -> (Vec<Ipv6Addr>, Vec<Ipv6Addr>) {
        self.list.partition(addrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6addr::Prefix;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn dealiaser() -> OfflineDealiaser {
        OfflineDealiaser::new(
            ["2600:9000:2000::/48", "2a00:1234:5678::/96"]
                .iter()
                .map(|s| s.parse::<Prefix>().unwrap())
                .collect(),
        )
    }

    #[test]
    fn listed_membership() {
        let d = dealiaser();
        let listed = |s| d.partition([a(s)]).1.len() == 1;
        assert!(listed("2600:9000:2000::dead"));
        assert!(listed("2a00:1234:5678::1"));
        assert!(!listed("2a00:1234:5679::1"));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn partition_splits() {
        let d = dealiaser();
        let (clean, aliased) = d.partition(vec![
            a("2600:9000:2000::1"),
            a("2001:db8::1"),
            a("2600:9000:2000::2"),
        ]);
        assert_eq!(clean, vec![a("2001:db8::1")]);
        assert_eq!(aliased.len(), 2);
    }

    #[test]
    fn empty_list_filters_nothing() {
        let d = OfflineDealiaser::empty();
        assert!(d.is_empty());
        let (clean, aliased) = d.partition(vec![a("2600:9000:2000::1")]);
        assert_eq!(clean.len(), 1);
        assert!(aliased.is_empty());
    }
}
