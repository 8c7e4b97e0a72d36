// Fixture: concurrency violations — an unannotated Relaxed and a lock
// acquired inside the hot per-target loop.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

pub fn probe_burst(targets: &[u64], shared: &Mutex<Vec<u64>>) {
    for &t in targets {
        shared.lock().unwrap().push(t);
    }
}

pub fn fine(shared: &Mutex<Vec<u64>>, targets: &[u64]) {
    let mut guard = shared.lock().unwrap();
    for &t in targets {
        guard.push(t);
    }
}
