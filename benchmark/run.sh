#!/usr/bin/env bash
# The benchmark's single entry point: build offline, then run.
#
#   benchmark/run.sh                         four workloads -> out/result.json
#   benchmark/run.sh run --traced            ... plus per-layer metrics and traces
#   benchmark/run.sh compare A.json B.json   apply the regression bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one workload (the driver's form)
#
# Works from any directory; results land in benchmark/out/.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)

# A relative CARGO_TARGET_DIR means "relative to where I was called from".
case "${CARGO_TARGET_DIR:-}" in
  "") target="$here/target" ;;
  /*) target="$CARGO_TARGET_DIR" ;;
  *) target="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR="$target"

# From here, .cargo/config.toml resolves every registry crate to shims/.
cd "$here"
cargo build --release --offline --quiet

[ $# -gt 0 ] || set -- run
exec "$target/release/sos-benchmark" "$@"
