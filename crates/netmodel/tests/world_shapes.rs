//! Integration tests of the simulated Internet's *compositional* fidelity
//! at small scale — the aggregate properties the study's conclusions rely
//! on, checked against the paper's Table 3 proportions.

use netmodel::{AsKind, HostKind, Protocol, World, WorldConfig, PROTOCOLS};

fn world() -> World {
    World::build(WorldConfig::small(0x57a9e))
}

#[test]
fn port_responsiveness_proportions_match_table_3() {
    let w = world();
    let s = w.stats();
    let icmp = s.responsive[Protocol::Icmp.index()] as f64;
    let t80 = s.responsive[Protocol::Tcp80.index()] as f64;
    let t443 = s.responsive[Protocol::Tcp443.index()] as f64;
    let udp = s.responsive[Protocol::Udp53.index()] as f64;
    let any = s.responsive_any as f64;
    // paper (All Sources row): ICMP ≈ 98% of active, TCP ≈ 19–21%, UDP ≈ 3.3%
    assert!(icmp / any > 0.85, "ICMP share {}", icmp / any);
    assert!(
        (0.05..0.6).contains(&(t80 / any)),
        "TCP80 share {}",
        t80 / any
    );
    assert!(
        (0.05..0.6).contains(&(t443 / any)),
        "TCP443 share {}",
        t443 / any
    );
    assert!(udp / any < 0.2, "UDP53 share {}", udp / any);
    // strict ordering
    assert!(icmp > t443 && t443 > udp);
}

#[test]
fn churn_rate_is_in_the_observable_band() {
    // Table 3: 27.2M dealiased seeds, 11.0M active ⇒ roughly 40% of
    // observable addresses answer; our churn+firewall model should keep
    // the responsive share of modeled addresses in a comparable band.
    let w = world();
    let s = w.stats();
    let share = s.responsive_any as f64 / s.modeled_hosts as f64;
    assert!((0.3..0.85).contains(&share), "responsive share {share}");
    assert!(
        s.churned_hosts > s.modeled_hosts / 10,
        "churn exists at scale"
    );
}

#[test]
fn routers_are_mostly_dark_like_scamper() {
    let w = world();
    let (mut routers, mut live) = (0usize, 0usize);
    for (_, rec) in w.hosts().iter() {
        if rec.kind == HostKind::Router {
            routers += 1;
            if rec.responds_any() {
                live += 1;
            }
        }
    }
    let rate = live as f64 / routers as f64;
    // Table 3: Scamper ≈ 20% responsive
    assert!((0.1..0.45).contains(&rate), "router responsiveness {rate}");
}

#[test]
fn hosting_dominates_tcp_and_cpe_dominates_icmp_only() {
    let w = world();
    let mut tcp_hosting = 0usize;
    let mut tcp_other = 0usize;
    let mut icmp_only_cpe = 0usize;
    let mut icmp_only_total = 0usize;
    for (addr, rec) in w.hosts().iter() {
        if !rec.responds_any() {
            continue;
        }
        let kind = w
            .asn_of(addr)
            .and_then(|a| w.registry().info(a))
            .map(|i| i.kind);
        if rec.responds(Protocol::Tcp443) {
            match kind {
                Some(AsKind::CloudHosting | AsKind::Cdn) => tcp_hosting += 1,
                _ => tcp_other += 1,
            }
        }
        if rec.responds(Protocol::Icmp)
            && !rec.responds(Protocol::Tcp80)
            && !rec.responds(Protocol::Tcp443)
        {
            icmp_only_total += 1;
            if rec.kind == HostKind::Cpe {
                icmp_only_cpe += 1;
            }
        }
    }
    assert!(
        tcp_hosting > tcp_other,
        "TCP443 concentrates in hosting: {tcp_hosting} vs {tcp_other}"
    );
    assert!(
        icmp_only_cpe * 2 > icmp_only_total,
        "ICMP-only space is CPE-heavy: {icmp_only_cpe}/{icmp_only_total}"
    );
}

#[test]
fn aliased_regions_sit_inside_hosting_allocations() {
    let w = world();
    let mut hosting = 0usize;
    for region in w.alias_regions() {
        let kind = w
            .asn_of(region.prefix.network())
            .and_then(|a| w.registry().info(a))
            .map(|i| i.kind);
        if matches!(kind, Some(AsKind::CloudHosting | AsKind::Cdn)) {
            hosting += 1;
        }
    }
    assert!(
        hosting * 10 >= w.alias_regions().len() * 9,
        "{hosting}/{} alias regions in hosting space",
        w.alias_regions().len()
    );
}

#[test]
fn per_protocol_oracle_agrees_with_stats() {
    // recount responsiveness through the public oracle and compare with
    // the build-time stats (catches stats/oracle drift)
    let w = world();
    let mut counted = [0usize; 4];
    for (addr, _) in w.hosts().iter() {
        if w.is_aliased(addr) {
            continue;
        }
        for p in PROTOCOLS {
            if w.truth_responds(addr, p) {
                counted[p.index()] += 1;
            }
        }
    }
    assert_eq!(counted, w.stats().responsive);
}

#[test]
fn worlds_differ_across_seeds_but_share_proportions() {
    let a = World::build(WorldConfig::tiny(1)).stats().clone();
    let b = World::build(WorldConfig::tiny(2)).stats().clone();
    assert_ne!(a, b);
    let share = |s: &netmodel::world::WorldStats| s.responsive_any as f64 / s.modeled_hosts as f64;
    assert!(
        (share(&a) - share(&b)).abs() < 0.15,
        "{} vs {}",
        share(&a),
        share(&b)
    );
}
