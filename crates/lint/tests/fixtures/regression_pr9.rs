//! Regression guard: the PR 9 class of bug. During the parallel-TGA work,
//! per-region candidate batches collected into a HashMap and re-emitted by
//! iteration would produce a stream whose order depends on the process
//! hash seed — breaking the bit-identical candidate streams that
//! `stream_pins` holds every generator to. Linted as
//! `crates/tga/src/fx.rs`; this file must ALWAYS fail lint (det-hash-iter),
//! as it fails `stream_pins` once it runs.
use std::collections::HashMap;

pub struct RegionBatcher {
    regions: HashMap<u64, Vec<u128>>,
}

impl RegionBatcher {
    pub fn generate(&mut self) -> Vec<u128> {
        let mut out = Vec::new();
        for (_rid, addrs) in self.regions.iter() {
            out.extend(addrs.iter().copied());
        }
        out
    }
}
