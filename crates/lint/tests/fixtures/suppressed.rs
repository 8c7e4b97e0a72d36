// Fixture: suppressions with and without a written reason.
use std::sync::atomic::{AtomicU64, Ordering};

pub fn with_reason(c: &AtomicU64) {
    // sos-lint: allow(conc-relaxed) fixture invariant: a progress counter nothing reads back
    c.fetch_add(1, Ordering::Relaxed);
}

pub fn without_reason(c: &AtomicU64) {
    // sos-lint: allow(conc-relaxed)
    c.fetch_add(1, Ordering::Relaxed);
}
