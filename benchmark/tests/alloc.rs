//! The counting allocator, installed as this test binary's global allocator
//! exactly as the benchmark binary installs it.

use sos_benchmark::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One test only: the counters are process-wide, and parallel tests would
/// allocate into each other's windows.
#[test]
fn counts_only_while_enabled() {
    let allocate = || {
        for i in 0..100usize {
            std::hint::black_box(vec![0u8; 64 + i]);
        }
    };

    alloc::set_enabled(false);
    let before = alloc::counts();
    allocate();
    assert_eq!(alloc::counts(), before, "off: nothing is counted");

    alloc::set_enabled(true);
    allocate();
    alloc::set_enabled(false);
    let (allocs, bytes) = alloc::counts();
    assert!(allocs - before.0 >= 100, "on: every allocation is counted");
    assert!(bytes - before.1 >= 100 * 64);

    let frozen = alloc::counts();
    allocate();
    assert_eq!(
        alloc::counts(),
        frozen,
        "off again: counters keep their values"
    );

    // Growing a vector goes through realloc, which counts too.
    alloc::set_enabled(true);
    let mut v: Vec<u64> = Vec::with_capacity(1);
    for i in 0..1_000 {
        v.push(i);
    }
    alloc::set_enabled(false);
    std::hint::black_box(&v);
    assert!(alloc::counts().0 > frozen.0 + 5);
}
