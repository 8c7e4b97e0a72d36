//! A sharded scan's timing record is its spans: one `scan_shard` span per
//! task, on that task's worker lane. The span table is process-wide, so
//! this file holds the one test whose scan fills it.

use std::collections::BTreeMap;
use std::sync::Arc;

use netmodel::{Protocol, World, WorldConfig};
use sos_probe::{RetryPolicy, Scanner, ScannerConfig, SimTransport};

#[test]
fn a_four_shard_scan_records_one_span_per_shard() {
    let world = Arc::new(World::build(WorldConfig::tiny(31)));
    let targets: Vec<_> = world
        .hosts()
        .iter()
        .filter(|(a, r)| r.responds(Protocol::Icmp) && !world.is_aliased(*a))
        .map(|(a, _)| a)
        .take(32)
        .collect();
    let cfg = ScannerConfig {
        retry: RetryPolicy::fixed(0),
        rate_pps: None,
        ..ScannerConfig::default()
    };
    let mut s = Scanner::new(cfg, SimTransport::new(world));
    let report = s.scan_parallel(targets, Protocol::Icmp, 4);
    assert_eq!(
        report.probed, 32,
        "every prepared target belongs to one shard"
    );

    let records = sos_obs::span::records();
    let outer: Vec<_> = records
        .iter()
        .filter(|r| r.path == "scan_parallel")
        .collect();
    assert_eq!(outer.len(), 1);
    assert_eq!(
        outer[0].detail, "protos=1 shards=4",
        "the fan-out's span names its width"
    );

    // shard -> targets, read back from each `scan_shard` span's detail.
    let mut shards: BTreeMap<usize, usize> = BTreeMap::new();
    for r in records.iter().filter(|r| r.path == "scan_shard") {
        let field = |key: &str| -> usize {
            let v = r
                .detail
                .split(' ')
                .find_map(|kv| kv.strip_prefix(key))
                .expect("detail field");
            v.parse().expect("a count")
        };
        assert!(r.detail.starts_with("proto=Icmp "), "{}", r.detail);
        assert_eq!(
            shards.insert(field("shard="), field("targets=")),
            None,
            "one span per shard"
        );
        let (start, end) = (outer[0].start_s, outer[0].start_s + outer[0].dur_s);
        assert!(
            start <= r.start_s && r.start_s + r.dur_s <= end,
            "each shard runs inside the scan"
        );
    }
    assert_eq!(shards.keys().copied().collect::<Vec<_>>(), [0, 1, 2, 3]);
    assert_eq!(
        shards.values().sum::<usize>(),
        report.probed,
        "the shards' targets sum to what was probed"
    );
}
