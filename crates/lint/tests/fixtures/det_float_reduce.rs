//! Fixture: `det-float-reduce` — order-sensitive float accumulation on a
//! deterministic path. Linted as `crates/tga/src/fx.rs`, where
//! `generate_tagged` is a registered deterministic root.
use std::collections::HashMap;
use std::net::Ipv6Addr;

pub fn generate_tagged(seeds: &[Ipv6Addr], vals: &[f64]) -> f64 {
    outlier_mean(seeds, vals) + reduce(vals) + fold_reduce(vals) + accum(vals) + stable(vals)
        + int_total(vals) as f64
}

fn outlier_mean(seeds: &[Ipv6Addr], dist: &[f64]) -> f64 {
    // FIRES, and nothing else does: the mean sums in hash order. The
    // file-scoped det-hash-iter takes `sum` for an order-insensitive
    // reduction, and the last bits it moves decide no cut on a test world.
    let by_seed: HashMap<Ipv6Addr, f64> = seeds.iter().copied().zip(dist.iter().copied()).collect();
    by_seed.values().sum::<f64>() / dist.len() as f64
}

fn reduce(vals: &[f64]) -> f64 {
    // FIRES: turbofish float sum
    vals.iter().copied().sum::<f64>()
}

fn fold_reduce(vals: &[f64]) -> f64 {
    // FIRES: float-seeded fold
    vals.iter().fold(0.0, |acc, v| acc + v)
}

fn accum(vals: &[f64]) -> f64 {
    // FIRES: compound assignment into a float accumulator
    let mut total = 0.0;
    for v in vals {
        total += v;
    }
    total
}

fn stable(vals: &[f64]) -> f64 {
    // SUPPRESSED: the input Vec order is fixed upstream, so the
    // reduction order is total; the allow records that argument.
    // sos-lint: allow(det-float-reduce) input Vec order fixed by sort upstream
    vals.iter().copied().sum::<f64>()
}

fn int_total(vals: &[f64]) -> u64 {
    // quiet: integer accumulation commutes exactly
    vals.iter().map(|v| *v as u64).sum::<u64>()
}

pub fn chart_mean(vals: &[f64]) -> f64 {
    // NOT reachable from any root: rendering may reduce floats freely.
    vals.iter().copied().sum::<f64>() / vals.len().max(1) as f64
}
