//! `sos-benchmark`: see `README.md` beside this crate, or `--help`.

use sos_benchmark::alloc::CountingAlloc;

// Counts only while a traced run switches it on.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    // The product logs progress to stderr at `warn` by default; the
    // benchmark measures it silent. Set before any thread starts.
    std::env::set_var("SOS_LOG", "off");
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(sos_benchmark::cli::main(&args));
}
