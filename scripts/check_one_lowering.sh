#!/usr/bin/env bash
# One lowering: every source-UDF kernel — eager call, vector plan, matrix
# plan — is rendered by kernelgen::render_group behind the per-runtime
# LoweringMemo and launched by one launcher per kernel kind. This script
# fails if a second template, kernel cache, scan flow or pasted kernel frame
# shows up again. Run from the repository root (CI: the `check` job).
set -euo pipefail

src=crates/core/src
fail=0
complain() {
    echo "check_one_lowering: $1" >&2
    fail=1
}

# The part of a source file before its in-file test module.
non_test() {
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$1"
}

# How often the non-test part of file $1 matches pattern $2.
count() {
    non_test "$1" | grep -c -- "$2" || true
}

# No per-skeleton kernel cache, no second UDF composer.
if grep -rn "ensure_built\|BuiltSource" "$src"; then
    complain "a per-skeleton kernel cache is back (the LoweringMemo is the only one)"
fi
if grep -rn "compose_unary_source" crates; then
    complain "compose_unary_source is back (matrix plans lower through the memo)"
fi

# Kernel text lives in kernelgen.rs only, each frame once: elementwise (map,
# zip, index map, fused chains), map-overlap, reduce, scan, scan-offset.
if grep -n "__kernel" "$src/fusion.rs" "$src/plan.rs"; then
    complain "kernel text outside kernelgen.rs"
fi
frames=$(count "$src/kernelgen.rs" "__kernel void")
if [ "$frames" != 5 ]; then
    complain "kernelgen.rs holds $frames kernel frames, expected 5 (each written once)"
fi

# The renderer has two kinds of caller: the public single-stage wrappers in
# kernelgen.rs (definition + one call) and the memo's miss path in plan.rs.
for file in $(grep -rl "render_group(" "$src"); do
    calls=$(count "$file" "render_group(")
    case "$file" in
        "$src/kernelgen.rs") want=2 ;;
        "$src/plan.rs") want=1 ;;
        *) want=0 ;;
    esac
    if [ "$calls" != "$want" ]; then
        complain "$file calls render_group $calls time(s) outside tests, expected $want"
    fi
done

# Programs are built in one place: the memo entry's first use.
builds=$(grep -rn "build_program(" "$src" | grep -vc "^$src/plan.rs:" || true)
if [ "$builds" != 0 ] || [ "$(count "$src/plan.rs" "build_program(")" != 1 ]; then
    complain "a program is built outside LoweredShape::kernels"
fi

# Figure 2's totals -> offsets flow exists once; scan.rs and plan.rs call it.
if [ "$(grep -rn "fn launch_scan" "$src" | wc -l)" != 1 ]; then
    complain "launch_scan must be defined exactly once"
fi
for file in skeletons/scan.rs plan.rs; do
    if [ "$(count "$src/$file" "launch_scan(")" = 0 ]; then
        complain "$file no longer calls launch_scan"
    fi
done
# (The loop is recognised by the offset it hands to the offset kernel.)
if [ "$(grep -rn "offset.to_value()" "$src" | grep -vc "^$src/skeletons/scan.rs:" || true)" != 0 ] ||
    [ "$(count "$src/skeletons/scan.rs" "offset.to_value()")" != 1 ]; then
    complain "the scan offsets are applied outside launch_scan"
fi

# One explain: vector and matrix plans share the header/node/group renderer.
if [ "$(count "$src/plan.rs" "fn explain_plan")" != 1 ] ||
    [ "$(count "$src/plan.rs" "boundary before")" != 1 ] ||
    [ "$(count "$src/plan.rs" "launch group(s)")" != 1 ]; then
    complain "plan.rs must hold exactly one group/node renderer (explain_plan)"
fi

# The legacy benches time kernelgen's kernels, not pasted copies.
if grep -rn "SKELCL_MAP(\|SKELCL_ZIP(\|SKELCL_SCAN(\|SKELCL_MAP_OVERLAP(" crates/bench; then
    complain "a bench pastes a kernel frame instead of calling kernelgen"
fi

if [ "$fail" = 0 ]; then
    echo "check_one_lowering: ok"
fi
exit "$fail"
