// Fixture: the workspace's generic hash aliases — `v6addr::AddrSet` and
// `AddrMap`, declared in another file as `pub type AddrMap<K, V> =
// HashMap<..>` — iterated into ordered output. Only `sorted` is clean.
use v6addr::{AddrMap, AddrSet};

pub fn emit(seen: &AddrSet<u128>) -> Vec<u128> {
    seen.iter().copied().collect()
}

pub fn rows(attempts: &AddrMap<u128, [u32; 4]>) -> Vec<u32> {
    let mut out = Vec::new();
    for row in attempts.values() {
        out.push(row[0]);
    }
    out
}

pub fn sorted(seen: &AddrSet<u128>) -> Vec<u128> {
    let mut out: Vec<u128> = seen.iter().copied().collect();
    out.sort_unstable();
    out
}
