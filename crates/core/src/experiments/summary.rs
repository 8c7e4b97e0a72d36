//! Dataset composition (§5): Table 3, Table 8, Figures 1–2.

use std::collections::BTreeSet;
use std::net::Ipv6Addr;

use dealias::{DealiasMode, JointDealiaser, OfflineDealiaser, OnlineConfig, OnlineDealiaser};
use netmodel::{Asn, Protocol, PROTOCOLS};
use seeds::{verify_active, OverlapMatrix, SourceId};

use crate::report::{fmt_count, fmt_pct, Table};
use crate::study::Study;

/// One Table 3 row.
#[derive(Debug, Clone)]
pub struct SourceSummary {
    /// The source.
    pub id: SourceId,
    /// Raw collected volume ("Pop.").
    pub pop: u64,
    /// Unique addresses.
    pub unique: usize,
    /// Distinct ASes.
    pub ases: usize,
    /// Survivors of joint dealiasing.
    pub dealiased: usize,
    /// Responsive per port (§4.1 classification, scanned).
    pub active_per_port: [usize; 4],
    /// Responsive on any port.
    pub active: usize,
    /// ASes with ≥1 responsive address.
    pub active_ases: usize,
}

/// Table 3: the full per-source summary, plus an all-sources row.
#[derive(Debug, Clone)]
pub struct DatasetSummary {
    /// Per-source rows.
    pub rows: Vec<SourceSummary>,
    /// The combined all-sources row.
    pub all: SourceSummary,
}

fn summarize(
    study: &Study,
    id: SourceId,
    addrs: &[Ipv6Addr],
    pop: u64,
    salt: u64,
) -> SourceSummary {
    let world = study.world();
    let ases: BTreeSet<Asn> = addrs.iter().filter_map(|&a| world.asn_of(a)).collect();

    let mut scanner = study.scanner(salt);
    let mut dealiaser = JointDealiaser::new(
        OfflineDealiaser::new(world.published_alias_list()),
        OnlineDealiaser::new(OnlineConfig {
            seed: salt,
            ..OnlineConfig::default()
        }),
    );
    let outcome = dealiaser.run(DealiasMode::Joint, &mut scanner, addrs, Protocol::Icmp);
    let activeness = verify_active(&mut scanner, &outcome.clean);

    let mut active_per_port = [0usize; 4];
    for (i, proto) in PROTOCOLS.into_iter().enumerate() {
        active_per_port[i] = activeness.count_active_on(proto);
    }
    let active_addrs: Vec<Ipv6Addr> = outcome
        .clean
        .iter()
        .copied()
        .filter(|&a| activeness.is_active(a))
        .collect();
    let active_ases: BTreeSet<Asn> = active_addrs
        .iter()
        .filter_map(|&a| world.asn_of(a))
        .collect();

    SourceSummary {
        id,
        pop,
        unique: addrs.len(),
        ases: ases.len(),
        dealiased: outcome.clean.len(),
        active_per_port,
        active: active_addrs.len(),
        active_ases: active_ases.len(),
    }
}

/// Compute Table 3.
pub fn dataset_summary(study: &Study) -> DatasetSummary {
    let rows: Vec<SourceSummary> = study
        .collection()
        .sources
        .iter()
        .map(|s| {
            summarize(
                study,
                s.id,
                &s.addrs,
                s.raw_count,
                0x007a_b1e3 ^ s.id.stream(),
            )
        })
        .collect();
    let combined = study.collection().combined();
    let all = summarize(
        study,
        SourceId::Hitlist, // placeholder id; label overridden in render
        &combined,
        study.collection().total_raw(),
        0x7ab1_e3a1,
    );
    DatasetSummary { rows, all }
}

impl DatasetSummary {
    /// Render in Table 3's layout.
    pub fn render(&self) -> String {
        let mut t = Table::new("Table 3 — seed data source summary").header([
            "Source",
            "Kind",
            "Pop.",
            "Unique",
            "ASes",
            "Dealiased",
            "ICMP",
            "TCP80",
            "TCP443",
            "UDP53",
            "Active",
            "ActiveASes",
        ]);
        let mut push = |label: &str, kind: &str, r: &SourceSummary| {
            t.row([
                label.to_string(),
                kind.to_string(),
                fmt_count(r.pop as usize),
                fmt_count(r.unique),
                fmt_count(r.ases),
                fmt_count(r.dealiased),
                fmt_count(r.active_per_port[0]),
                fmt_count(r.active_per_port[1]),
                fmt_count(r.active_per_port[2]),
                fmt_count(r.active_per_port[3]),
                fmt_count(r.active),
                fmt_count(r.active_ases),
            ]);
        };
        for r in &self.rows {
            push(r.id.label(), r.id.kind().tag(), r);
        }
        push("All Sources", "Both", &self.all);
        t.render()
    }
}

/// Table 8: domain volume per domain-based source.
pub fn domain_volume(study: &Study) -> Table {
    let mut t = Table::new("Table 8 — domain dataset volume").header([
        "Source",
        "Domains",
        "AAAAs",
        "Unique IPv6 IPs",
    ]);
    for s in &study.collection().sources {
        if let Some(stats) = s.domain_stats {
            t.row([
                s.id.label().to_string(),
                fmt_count(stats.domains as usize),
                fmt_count(stats.aaaa_responses as usize),
                fmt_count(stats.unique_ips as usize),
            ]);
        }
    }
    t
}

/// Figure 1: overlap of all collected seeds by IP and AS.
pub fn overlap_full(study: &Study) -> OverlapMatrix {
    let sources: Vec<(SourceId, Vec<Ipv6Addr>)> = study
        .collection()
        .sources
        .iter()
        .map(|s| (s.id, s.addrs.clone()))
        .collect();
    OverlapMatrix::compute(study.world(), &sources)
}

/// Figure 2: overlap of the *responsive* subsets.
pub fn overlap_active(study: &Study) -> OverlapMatrix {
    let world = study.world();
    let sources: Vec<(SourceId, Vec<Ipv6Addr>)> = study
        .collection()
        .sources
        .iter()
        .map(|s| {
            let active: Vec<Ipv6Addr> = s
                .addrs
                .iter()
                .copied()
                .filter(|&a| PROTOCOLS.iter().any(|&p| world.truth_responds(a, p)))
                .collect();
            (s.id, active)
        })
        .collect();
    OverlapMatrix::compute(world, &sources)
}

/// Render an overlap matrix as a table of percentages.
pub fn render_overlap(m: &OverlapMatrix, title: &str) -> String {
    let mut header: Vec<String> = vec!["Source".into()];
    header.extend(m.labels.iter().map(|l| l.label().to_string()));
    header.push("AnyOther".into());
    header.push("IPs".into());
    header.push("ASes".into());
    let mut t = Table::new(title).header(header);
    for (i, label) in m.labels.iter().enumerate() {
        let mut row: Vec<String> = vec![label.label().to_string()];
        row.extend(m.ip[i].iter().map(|&f| fmt_pct(f)));
        row.push(fmt_pct(m.ip_any_other[i]));
        row.push(fmt_count(m.ip_counts[i]));
        row.push(fmt_count(m.as_counts[i]));
        t.row(row);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;

    #[test]
    fn summary_reproduces_table_3_shape() {
        let study = Study::new(StudyConfig::tiny(77));
        let s = dataset_summary(&study);
        assert_eq!(s.rows.len(), 12);
        for r in &s.rows {
            assert!(r.unique > 0, "{} empty", r.id);
            assert!(r.dealiased <= r.unique);
            assert!(r.active <= r.dealiased);
            // ICMP dominates activity on every source (Table 3)
            assert!(r.active_per_port[0] >= r.active_per_port[3], "{}", r.id);
        }
        // the hitlist is the most-responsive large source (Table 3)
        let hitlist = s.rows.iter().find(|r| r.id == SourceId::Hitlist).unwrap();
        let scamper = s.rows.iter().find(|r| r.id == SourceId::Scamper).unwrap();
        let hl_rate = hitlist.active as f64 / hitlist.dealiased.max(1) as f64;
        let sc_rate = scamper.active as f64 / scamper.dealiased.max(1) as f64;
        assert!(
            hl_rate > sc_rate,
            "hitlist {hl_rate:.2} vs scamper {sc_rate:.2}"
        );
        // traceroute sources lead AS coverage
        assert!(scamper.ases > hitlist.ases / 2);
        // combined row bounds
        assert!(s.all.unique >= s.rows.iter().map(|r| r.unique).max().unwrap());
        let rendered = s.render();
        assert!(rendered.contains("All Sources"));
    }

    #[test]
    fn domain_volume_has_eight_rows() {
        let study = Study::new(StudyConfig::tiny(77));
        let t = domain_volume(&study);
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn active_overlap_is_computable_and_smaller() {
        let study = Study::new(StudyConfig::tiny(77));
        let full = overlap_full(&study);
        let active = overlap_active(&study);
        for i in 0..12 {
            assert!(active.ip_counts[i] <= full.ip_counts[i]);
        }
        let rendered = render_overlap(&full, "Figure 1");
        assert!(rendered.contains("Figure 1"));
    }
}
