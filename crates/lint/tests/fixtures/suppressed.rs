// Fixture: suppressions with and without a written reason, naming no
// rule, suppressing nothing, and malformed (empty, and never closed).
use std::sync::atomic::{AtomicU64, Ordering};

pub fn with_reason(c: &AtomicU64) {
    // sos-lint: allow(conc-relaxed) fixture invariant: a progress counter nothing reads back
    c.fetch_add(1, Ordering::Relaxed);
}

pub fn without_reason(c: &AtomicU64) {
    // sos-lint: allow(conc-relaxed)
    c.fetch_add(1, Ordering::Relaxed);
}

pub fn retired_rule(c: &AtomicU64) {
    // sos-lint: allow(det-unordered-iter) a rule this tool no longer has
    c.fetch_add(1, Ordering::SeqCst);
}

pub fn nothing_to_suppress(c: &AtomicU64) {
    // sos-lint: allow(conc-relaxed) the ordering below used to be Relaxed
    c.fetch_add(1, Ordering::SeqCst);
}

pub fn empty_allow(c: &AtomicU64) {
    // sos-lint: allow() the rule was never named
    c.fetch_add(1, Ordering::SeqCst);
}

pub fn unclosed_allow(c: &AtomicU64) {
    // sos-lint: allow(conc-relaxed the parenthesis never closes
    c.fetch_add(1, Ordering::SeqCst);
}
