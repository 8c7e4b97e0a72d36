//! Fixture: `lock-order` — inconsistent lock-acquisition order across
//! functions. Linted as `crates/core/src/fx.rs`. The rule flags the
//! function acquiring in non-canonical (alphabetically inverted) order.
use std::collections::BTreeMap;
use std::sync::Mutex;

pub struct Registry {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, u64>>,
}

impl Registry {
    pub fn reset(&self) {
        // canonical order (counters before histograms): the conflict is
        // reported at the other side
        let mut counters = self.counters.lock().expect("poisoned");
        let mut histograms = self.histograms.lock().expect("poisoned");
        counters.clear();
        histograms.clear();
    }

    pub fn histogram_snapshot(&self) -> Vec<String> {
        // FIRES: histograms-then-counters inverts reset's order. Every
        // test passes — none runs the two at once, the only way the pair
        // deadlocks.
        let hists = self.histograms.lock().expect("poisoned");
        let known = self.counters.lock().expect("poisoned").len();
        hists.keys().take(known).cloned().collect()
    }
}

pub struct Shard {
    alpha: Mutex<u64>,
    beta: Mutex<u64>,
}

impl Shard {
    pub fn forward(&self) -> u64 {
        let a = self.alpha.lock().expect("poisoned");
        let b = self.beta.lock().expect("poisoned");
        *a + *b
    }

    pub fn backward(&self) -> u64 {
        let b = self.beta.lock().expect("poisoned");
        // SUPPRESSED: tear-down path; forward() is unreachable by then
        // sos-lint: allow(lock-order) drain runs after workers joined; forward cannot interleave
        let a = self.alpha.lock().expect("poisoned");
        *b - *a
    }
}

pub fn single_lock_ok(m: &Mutex<u64>) -> u64 {
    // quiet: one lock has no ordering to violate
    *m.lock().expect("poisoned")
}
