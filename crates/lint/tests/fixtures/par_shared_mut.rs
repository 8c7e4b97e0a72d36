//! Fixture: `par-shared-mut` — `par_map`-family closures mutating
//! captured shared state. Linted as `crates/core/src/fx.rs`.
use std::sync::Mutex;

pub fn lock_in_closure(cells: &[u64]) -> Vec<(u64, u64)> {
    // FIRES: the grid closure pushes (key, result) into a captured
    // Mutex<Vec> in completion order. Every test passes on it — the caller
    // re-keys the pairs into a map — and it type-checks (`Mutex: Sync`).
    let results = Mutex::new(Vec::new());
    par_map(cells, |c| {
        results.lock().expect("poisoned").push((*c, *c * 2));
    });
    results.into_inner().expect("poisoned")
}

pub fn captured_push(units: &[u64], sink: &mut Vec<u64>) -> Vec<u64> {
    // FIRES: mutation of a captured collection
    par_map(units, |u| {
        sink.push(*u);
        *u * 2
    })
}

pub fn captured_assign(units: &[u64], total: &mut u64) -> Vec<u64> {
    // FIRES: compound assignment to a captured accumulator
    par_map(units, move |u| {
        *total += *u;
        *u
    })
}

pub fn per_item_ok(units: &[u64]) -> Vec<u64> {
    // quiet: the closure only touches its own locals; the join merges
    par_map(units, |u| {
        let mut local = Vec::new();
        local.push(*u);
        local.pop().unwrap_or(0)
    })
}

pub fn justified(units: &[u64], log: &Mutex<Vec<u64>>) -> Vec<u64> {
    par_map(units, |u| {
        // SUPPRESSED: progress log, never merged into results
        // sos-lint: allow(par-shared-mut) progress log only, not in the merged output
        log.lock().expect("poisoned").push(*u);
        *u
    })
}

fn par_map<T: Copy, R>(items: &[T], f: impl Fn(&T) -> R) -> Vec<R> {
    items.iter().map(|t| f(t)).collect()
}
