#!/usr/bin/env bash
# One lowering: every source-UDF kernel — eager call, vector plan, matrix
# plan — is rendered by kernelgen::render_group behind the per-runtime
# LoweringMemo and launched by one launcher per kernel kind. One call path:
# every synchronous launch is prepared by PreparedCall::prepare and runs as
# an attempt of the one recovery wrapper, and a skeleton's user function is
# one Udf value. One plan: a pipeline stage is one record, the plan handle
# one struct, the fusion accounting one function. This script fails if a
# second template, kernel cache, scan flow, pasted kernel frame, prepare
# stage, recovery wrapper, per-call closure kernel, plan-handle struct or
# per-consumer match on PlanNode shows up again. One exchange cadence: how
# many sweeps a halo exchange pays for is decided in one function. One launch
# dispatch: an eager call is a one-stage plan group, and the plan's group
# runner is the only caller of the launchers. One seam: each fact the kernel
# engines, the simulator and the core share is written in one file, and no
# knob is read from the environment. One distribution vocabulary: vectors and
# matrices share `Distribution`, stored as one `RowPartition` by one
# `Storage<T>`.
# Run from the repository root (CI: the `check` job).
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
# zip, index map, fused chains), map-overlap, reduce, packed reduce (the
# reduce frame over many jobs, rendered for packed launches only), scan,
# scan-offset.
if grep -n "__kernel" "$src/fusion.rs" "$src/plan.rs"; then
    complain "kernel text outside kernelgen.rs"
fi
frames=$(count "$src/kernelgen.rs" "__kernel void")
if [ "$frames" != 6 ]; then
    complain "kernelgen.rs holds $frames kernel frames, expected 6 (each written once)"
fi

# One packed launch path: vector and reduction jobs are checked, bound and
# submitted by pack_graphs -> pack_launch (one call from the one
# Plan::pack_jobs; one call) as one submission of the shape's recorded
# command buffer — the only submission under crates/core/src, with no
# per-command enqueue beside it.
if [ "$(count "$src/plan.rs" "pack_graphs(")" != 1 ] ||
    [ "$(count "$src/plan.rs" "pack_launch::<T>(")" != 1 ]; then
    complain "packed launches must share pack_graphs / pack_launch (plan.rs)"
fi
# (The awk scripts below read to the end: exiting early would kill the
# writer with SIGPIPE, which pipefail turns into a failed check.)
pack_launch=$(non_test "$src/plan.rs" | awk '/^fn pack_launch</{on=1} on{print} on&&/^\}/{on=0}')
if [ "$(grep -rn "enqueue_command_buffer(" "$src" | wc -l)" != 1 ] ||
    [ "$(echo "$pack_launch" | grep -c "enqueue_command_buffer(")" != 1 ]; then
    complain "a packed launch is one command-buffer submission, made in pack_launch and nowhere else"
fi
if echo "$pack_launch" | grep -n "enqueue_write_bytes(\|enqueue_kernel\|enqueue_read_buffer_region_nb"; then
    complain "pack_launch enqueues per command beside its command buffer"
fi
# Recording a command buffer is the program's choice, not a price: the API
# model keeps its six constants and grows no on/off field.
api_fields=$(awk '/^pub struct ApiModel/,/^}/' crates/oclsim/src/profile.rs | grep -cE "^ *pub [a-z_]+:" || true)
if [ "$api_fields" != 6 ]; then
    complain "ApiModel has $api_fields fields, expected 6 (no command-buffer switch)"
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

# Figure 2's totals -> offsets flow exists once, in scan.rs; the group runner
# in plan.rs is what calls it (see "One launch dispatch" below).
if [ "$(grep -rn "fn launch_scan" "$src" | wc -l)" != 1 ] ||
    [ "$(count "$src/skeletons/scan.rs" "fn launch_scan")" != 1 ]; then
    complain "launch_scan must be defined exactly once (skeletons/scan.rs)"
fi
if [ "$(count "$src/plan.rs" "launch_scan(")" = 0 ]; then
    complain "plan.rs no longer calls launch_scan"
fi
# (The loop is recognised by the offset it hands to the offset kernel.)
if [ "$(grep -rn "offset.to_value()" "$src" | grep -vc "^$src/skeletons/scan.rs:" || true)" != 0 ] ||
    [ "$(count "$src/skeletons/scan.rs" "offset.to_value()")" != 1 ]; then
    complain "the scan offsets are applied outside launch_scan"
fi

# One explain: every plan kind shares the header/node/group renderer.
if [ "$(count "$src/plan.rs" "boundary before")" != 1 ] ||
    [ "$(count "$src/plan.rs" "launch group(s)")" != 1 ]; then
    complain "plan.rs must hold exactly one group/node renderer (PlanGraph::explain)"
fi

# --- One plan -------------------------------------------------------------

# One plan handle: `Plan<T, K>`; PlanVec / PlanScalar / MatPlan are aliases.
handles=$(non_test "$src/plan.rs" | grep -E "^pub struct (Plan|MatPlan)" || true)
if [ "$(echo "$handles" | grep -c .)" != 1 ] || ! echo "$handles" | grep -q "^pub struct Plan<"; then
    echo "$handles" >&2
    complain "plan.rs must hold exactly one plan-handle struct (pub struct Plan<T, K>)"
fi
for gone in "enum GroupKind" "MatStage" "trait ServedPlan"; do
    if grep -rn "$gone" crates --include=*.rs; then
        complain "$gone is back (a stage is one record, a group asks its last stage, serving is generic over PlanKind)"
    fi
done

# One fusion accounting: the runtime's counters are charged from one place
# (Group::account_fusion), whoever ran the group.
charges=$(count "$src/plan.rs" "charge_fusion(")
if [ "$charges" != 1 ]; then
    complain "plan.rs calls charge_fusion from $charges place(s), expected 1 (Group::account_fusion)"
fi

# A stage is data: PlanNode is taken apart by its own methods only — at most
# three `match self` in `impl PlanNode`, no pattern on it anywhere else.
inside=$(non_test "$src/plan.rs" | awk '/^impl PlanNode \{/{on=1} on{print} on&&/^\}/{on=0}' | grep -c "match self" || true)
outside=$(non_test "$src/plan.rs" | awk '/^impl PlanNode \{/{on=1} !on{print} on&&/^\}/{on=0}' |
    grep -cE "PlanNode::\w+.*=>|^ *\| PlanNode::|let PlanNode::|matches!\(.*PlanNode::" || true)
if [ "$((inside + outside))" -gt 3 ] || [ "$outside" != 0 ]; then
    complain "PlanNode is matched in $inside place(s) in impl PlanNode and on $outside line(s) outside it, expected at most 3 and 0"
fi

# --- One call path --------------------------------------------------------
skel=$src/skeletons

# One recovery wrapper: run_recoverable has one caller (exec::run_call).
callers=$(grep -rn "run_recoverable(" "$src" | grep -v "^$src/recovery.rs:" | grep -vc "^[^:]*:[0-9]*: *//" || true)
if [ "$callers" != 1 ]; then
    complain "run_recoverable is called from $callers place(s) outside recovery.rs, expected 1 (exec::run_call)"
fi

# One user-function type, one prepare stage.
if [ "$(grep -rEn "enum \w*Udf" "$src" | wc -l)" != 1 ]; then
    grep -rEn "enum \w*Udf" "$src" >&2 || true
    complain "there must be exactly one user-function enum (skeletons/udf.rs)"
fi
if [ "$(grep -rn "Ok(PreparedCall {" "$src" | wc -l)" != 1 ]; then
    complain "PreparedCall must be constructed in exactly one place (PreparedCall::prepare)"
fi
if grep -rn "closure_cost\|fn launch_sweep\|fn execute_single\|PreparedCall::single\|PreparedCall::pair\|trait ErasedSource\|too_many_arguments" "$skel" "$src/plan.rs"; then
    complain "a forked call-path piece is back (see the matches above)"
fi

# Closure kernels are built by the per-skeleton closure-kernel constructors —
# which Udf::stage runs once per instance and kind — never per call: no
# NativeKernelDef::new in a function that is not such a constructor or that
# takes a LaunchConfig, and one Program::from_native (udf::native_kernel).
defs=0
for file in "$skel"/*.rs; do
    defs=$((defs + $(count "$file" "NativeKernelDef::new")))
    strays=$(non_test "$file" | awk -v file="$file" '
        /^ *(pub(\([a-z]+\))? )?fn [a-z_]+/ {
            name = $0; sub(/.*fn /, "", name); sub(/[(<].*/, "", name); sig = ""; insig = 1
        }
        insig { sig = sig $0; if ($0 ~ /\{ *$/) { insig = 0; cfg = (sig ~ /LaunchConfig/) } }
        /NativeKernelDef::new/ && (name !~ /closure_kernel/ || cfg) {
            print file ":" FNR ": NativeKernelDef::new in fn " name
        }')
    if [ -n "$strays" ]; then
        echo "$strays" >&2
        complain "a closure kernel is built outside a closure-kernel constructor"
    fi
done
if [ "$defs" -gt 6 ]; then
    complain "$defs NativeKernelDef::new sites under skeletons/, expected at most 6"
fi
natives=0
for file in "$skel"/*.rs; do
    natives=$((natives + $(count "$file" "Program::from_native")))
done
if [ "$natives" != 1 ] || [ "$(count "$skel/udf.rs" "Program::from_native")" != 1 ]; then
    complain "native programs must be built in udf::native_kernel only"
fi

# launch_elementwise is the only resolve -> enqueue-all -> join loop for
# element-shaped kernels: map, zip, index map and the stencil sweep enqueue
# nothing themselves.
if grep -n "enqueue_kernel" "$skel/map.rs" "$skel/zip.rs" "$skel/map_overlap.rs" "$skel/udf.rs"; then
    complain "an element-shaped skeleton enqueues its own kernels (launch_elementwise is the launcher)"
fi
if [ "$(count "$skel/exec.rs" "enqueue_kernel(")" != 1 ]; then
    complain "exec.rs must enqueue kernels in exactly one place (launch_elementwise)"
fi

# --- One launch dispatch --------------------------------------------------

# An eager call is a one-stage plan group: the plan's group runner
# (plan::run_group) is the only code that hands a stage kind to its launcher.
# Every call of launch_elementwise / launch_and_gather / launch_scan outside
# tests and comments is inside run_group, and each launcher is called there.
launcher='\b(launch_elementwise|launch_and_gather|launch_scan)(::<[A-Za-z0-9_]+>)?\('
launcher_calls() {
    grep -E "$launcher" | grep -vE "fn (launch_elementwise|launch_and_gather|launch_scan)\b|^ *//" || true
}
all_calls=0
for file in $(find "$src" -name '*.rs' | sort); do
    all_calls=$((all_calls + $(non_test "$file" | launcher_calls | grep -c . || true)))
done
runner=$(non_test "$src/plan.rs" | awk '/^pub\(crate\) fn run_group\(/{on=1} on{print} on&&/^\}/{on=0}')
runner_calls=$(echo "$runner" | launcher_calls)
if [ -z "$runner" ] || [ "$all_calls" != "$(echo "$runner_calls" | grep -c .)" ]; then
    complain "the launchers are called from $all_calls place(s), not all of them in plan::run_group"
fi
for name in launch_elementwise launch_and_gather launch_scan; do
    if ! echo "$runner_calls" | grep -q "$name"; then
        complain "plan::run_group no longer calls $name"
    fi
done
# What only a second launch path needed stays gone.
if grep -rnE "CallSpec|fn (launch_elementwise|no_args|input_args)\(&self|fn from_stage\b" "$src"; then
    complain "a second launch path is back: CallSpec, PreparedCall::launch_elementwise or MapOverlap::from_stage (see the matches above)"
fi

# --- One exchange cadence -------------------------------------------------

# How many sweeps a halo exchange pays for is decided in one function,
# consulted at one place in the one iterative driver; it is not a launch
# option; and Storage::refresh_halos is the only exchange between devices.
if [ "$(count "$skel/map_overlap.rs" "fn exchange_cadence(")" != 1 ] ||
    [ "$(grep -rn "exchange_cadence(" "$src" | grep -v "fn exchange_cadence(" | wc -l)" != 1 ]; then
    complain "the exchange cadence must be decided in MapOverlap::exchange_cadence, called once (run_blocks)"
fi
if non_test "$skel/exec.rs" | awk '/^pub struct LaunchConfig/,/^}/' |
    grep -nE "^ *pub [a-z_]*(depth|ghost|cadence|block)[a-z_]*:"; then
    complain "LaunchConfig has grown a ghost-depth field (the cadence is chosen, not configured)"
fi
if [ "$(grep -rln "enqueue_write_buffer_from_read" "$src" | tr '\n' ' ')" != "$src/container.rs " ] ||
    [ "$(count "$src/container.rs" "enqueue_halo_exchange(")" != 2 ]; then
    complain "Storage::refresh_halos must be the only halo exchange (container.rs)"
fi

# --- One distribution vocabulary ------------------------------------------

# A matrix is distributed by `Distribution` over its rows and its halo is a
# property of the stored layout: no second distribution enum, no trait
# bridging two, and the coherence core is generic over the element type only.
if grep -rnE "MatrixDistribution|trait (Partitioning|PartLayout)\b" crates; then
    complain "a second distribution vocabulary is back (Distribution over rows, RowPartition stores it)"
fi
storage=$(grep -rhE "struct Storage<" "$src" || true)
if [ "$(echo "$storage" | grep -c .)" != 1 ] || echo "$storage" | grep -q "struct Storage<[^>]*,"; then
    complain "Storage must be declared once with one type parameter, found: $storage"
fi

# --- One seam -------------------------------------------------------------

# $1 is written (outside tests, under crates/*/src) in exactly the files $3,
# matching the pattern $2 — and, when $4 is given, that many times in all.
written_in() {
    local got="" total=0 n file
    for file in $(grep -rlE -- "$2" crates/*/src | sort); do
        n=$(non_test "$file" | grep -cE -- "$2" || true)
        if [ "$n" != 0 ]; then got="$got$file " total=$((total + n)); fi
    done
    if [ "$got" != "$3" ] || [ "${4:-$total}" != "$total" ]; then
        complain "$1: $total time(s) in [ $got], expected ${4:-any} in [ $3]"
    fi
}
k=crates/kernel/src
written_in "the Rust type -> DataKind table" "TypeId::of::<f32>" "crates/oclsim/src/buffer.rs " 1
written_in "the signature rule (oracle + shared checker)" \
    "expects \{\} arguments|expected __global|but a (scalar|buffer) was bound" "$k/interp.rs $k/types.rs "
written_in "the ops cost weight" "0\.25 \* self\.ops|ops \* 0\.25" "$k/cost.rs " 1
# No knob is read from the environment: a tier is pinned with set_kernel_tier.
if grep -rnE "env::vars?\b|\benv!\(|option_env!\(" crates/*/src; then
    complain "an environment read is back (see the matches above)"
fi
written_in "a tier-count field (LaunchTrace, TierSnapshot)" \
    "^ *(pub )?((interp|scalar|native|bailed)_launches|native_compile(s|_ns)|(native|masked|replayed)_batches): " \
    "$k/lib.rs crates/oclsim/src/device.rs "

if [ "$fail" = 0 ]; then
    echo "check_one_lowering: ok"
fi
exit "$fail"
