//! `seedscan rq3` through the real executable: RQ3 runs on all four scan
//! targets, so it prints one source table per port (Table 13 for ICMP,
//! Table 14 for each application protocol) and a Table 6 row for every
//! (source, port) pair whose runs found a hit.

use std::collections::BTreeSet;
use std::process::Command;

const PORTS: [&str; 4] = ["ICMP", "TCP80", "TCP443", "UDP53"];

/// The data rows of the table whose title line contains `title`: the
/// lines after its header rule, up to the blank line that ends it.
fn table_rows<'a>(stdout: &'a str, title: &str) -> Vec<&'a str> {
    let mut lines = stdout
        .lines()
        .skip_while(|l| !(l.starts_with("== ") && l.contains(title)));
    assert!(
        lines.next().is_some(),
        "no table titled {title:?} in:\n{stdout}"
    );
    lines
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .collect()
}

#[test]
fn rq3_prints_a_source_table_and_table_6_rows_for_every_port() {
    let out = Command::new(env!("CARGO_BIN_EXE_seedscan"))
        .args(["rq3", "--scale", "tiny", "--budget", "300"])
        .output()
        .expect("run seedscan");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");

    // (source, port) pairs with a hit, read off each port's "Hits" rows:
    // `Hits <source label> <one count per TGA>`.
    let mut with_hits = BTreeSet::new();
    for port in PORTS {
        let title = format!("source-specific {port} raw numbers");
        let titles = stdout
            .lines()
            .filter(|l| l.starts_with("== ") && l.contains(&title));
        assert_eq!(titles.count(), 1, "one {port} source table");
        for row in table_rows(&stdout, &title) {
            let cols: Vec<&str> = row.split_whitespace().collect();
            let (head, counts) = cols.split_at(cols.len() - 8);
            if head[0] != "Hits" || head[1..] == ["12x", "budget"] {
                continue;
            }
            if counts
                .iter()
                .any(|c| c.replace(',', "").parse::<u64>().is_ok_and(|n| n > 0))
            {
                with_hits.insert((head[1..].join(" "), port));
            }
        }
    }
    for port in PORTS {
        assert!(
            with_hits.iter().any(|(_, p)| *p == port),
            "no source finds a {port} hit"
        );
    }

    // Table 6 rows: `<source label> <port> <three top ASes> <total>`.
    let table6: BTreeSet<(String, &str)> = table_rows(&stdout, "Table 6 —")
        .into_iter()
        .map(|row| {
            let cols: Vec<&str> = row.split_whitespace().collect();
            let at = cols
                .iter()
                .position(|c| PORTS.contains(c))
                .expect("a port column");
            (cols[..at].join(" "), cols[at])
        })
        .collect();
    assert_eq!(
        table6, with_hits,
        "Table 6 has one row per (source, port) with hits"
    );
}
