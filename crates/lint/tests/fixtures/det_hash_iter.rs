// Fixture: hash-container iteration, one immediately sorted and one
// order-dependent (only the second may be flagged).
use std::collections::HashMap;

pub fn sorted(m: &HashMap<u64, u32>) -> Vec<u64> {
    let mut out: Vec<u64> = m.keys().copied().collect();
    out.sort_unstable();
    out
}

pub fn leaky(m: &HashMap<u64, u32>) -> Vec<u32> {
    m.values().copied().collect()
}
