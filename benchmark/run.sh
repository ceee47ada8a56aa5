#!/usr/bin/env bash
# Build the benchmark package and run it.
#
#   benchmark/run.sh [--seed S] [--seconds N] [--smoke] [--out FILE]
#       every workload, end-to-end pass then traced pass, every metric by
#       name with its unit, every output checked against its reference
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one workload; the last stdout line is the result object
#   benchmark/run.sh compare A.jsonl B.jsonl
#       two result sets written with --out, gated by the benchmark's bounds
#   benchmark/run.sh manifest
#       BENCHMARK.json, rendered from the metric catalogue
#
# Run from the repository root. Everything it writes stays under
# benchmark/out and the cargo target directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: stdout belongs to the result lines.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2

exec "$target/release/skelcl_benchmark" "$@"
