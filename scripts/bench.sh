#!/usr/bin/env bash
# The legacy bench harnesses (crates/bench/src/bin/<name>_bench.rs), one
# entry point: a full run rewrites BENCH_<name>.json at the repository root,
# --smoke runs the small-N variant into /tmp (CI). What each harness measures
# and asserts — stencil_bench, for one, exits 1 if a row is slower on d
# devices than on d - 1, its three listed host-bound steps excepted — is in
# its file's header.
#
# Usage: scripts/bench.sh <faults|kernel_vm|pipeline|scaling|serving|stencil> [--smoke]
set -euo pipefail
cd "$(dirname "$0")/.."

name="${1:-}"
case "$name" in
    faults | kernel_vm | pipeline | scaling | serving | stencil) ;;
    *)
        sed -n 's/^# Usage: /usage: /p' "$0" >&2
        exit 2
        ;;
esac
args=(--out "BENCH_$name.json")
if [[ "${2:-}" == "--smoke" ]]; then
    # kernel_vm_bench spells its small run --quick.
    [[ "$name" == kernel_vm ]] && small=--quick || small=--smoke
    args=("$small" --out "/tmp/BENCH_$name.json")
fi
cargo run --release -p skelcl_bench --bin "${name}_bench" -- "${args[@]}"
