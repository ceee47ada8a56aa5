//! # skelcl-kernel — an OpenCL-C-subset kernel language
//!
//! SkelCL (Steuwer, Kegel, Gorlatch; IPDPSW 2012) customises its algorithmic
//! skeletons with *user-defined functions passed as plain source strings*.
//! The library merges the user function with pre-implemented skeleton code,
//! producing a valid OpenCL kernel which is compiled at runtime by the OpenCL
//! implementation.
//!
//! This crate reproduces that mechanism without a GPU: it implements a small
//! OpenCL-C-like language — enough for the kernels that appear in the paper
//! (SAXPY, element-wise updates, reductions, scans, Mandelbrot) — consisting
//! of
//!
//! * a [`lexer`] and [`parser`] producing an [`ast`],
//! * a [`sema`] pass (symbol resolution and type checking),
//! * a [`compile`] stage lowering the checked AST into flat, register-based
//!   bytecode — names resolved to numbered slots, control flow lowered to
//!   jumps, FLOP/byte costs attributed per instruction at compile time,
//! * three engines that run a kernel over its work-items, bit-identical in
//!   results, [`interp::ExecStats`] and error text, selected by [`Tier`]:
//!   - the [`interp`] tree-walking interpreter — the **oracle** every other
//!     engine is differentially tested against, kept free of optimisation;
//!   - the scalar bytecode [`vm`], one work-item at a time — the **replay**
//!     and **fallback** engine: a lane batch the native tier aborts is rolled
//!     back and re-run here, and so are the kernels the native tier cannot
//!     take (`uint` arithmetic, recursion) and the rest of a launch that
//!     bailed; this engine's results, stats and messages are authoritative;
//!   - the closure-compiled [`native`] tier — the **default**: every eligible
//!     kernel runs here from its first launch,
//! * the signature rule of a launch ([`types::check_signature`]), written
//!   once for every engine below the oracle and for the simulator's
//!   enqueue-time validation,
//! * a static [`cost`] estimator that counts floating-point and memory
//!   operations per work-item, used by the simulator's analytical cost model,
//! * a [`compose`] module with token-level identifier renaming and
//!   definition listing, the substrate for cross-stage UDF fusion in the
//!   skeleton library's lazy `plan` subsystem.
//!
//! The entry point is [`Program::build`], mirroring `clBuildProgram`: it
//! parses, checks and **compiles to bytecode once**, returning the compiled
//! program from which [`KernelHandle`]s can be looked up by name; a kernel's
//! native closures are compiled at its first native launch and cached.
//!
//! ```
//! use skelcl_kernel::{Program, value::Value, interp::ArgBinding};
//!
//! let src = r#"
//!     float func(float x, float y, float a) { return a * x + y; }
//!     __kernel void SKELCL_ZIP(__global float* left, __global float* right,
//!                              __global float* out, int n, float a) {
//!         int gid = get_global_id(0);
//!         if (gid < n) { out[gid] = func(left[gid], right[gid], a); }
//!     }
//! "#;
//! let program = Program::build(src).unwrap();
//! let kernel = program.kernel("SKELCL_ZIP").unwrap();
//!
//! let mut left = vec![1.0f32, 2.0, 3.0];
//! let mut right = vec![10.0f32, 20.0, 30.0];
//! let mut out = vec![0.0f32; 3];
//! let mut args = vec![
//!     ArgBinding::buffer_f32(&mut left),
//!     ArgBinding::buffer_f32(&mut right),
//!     ArgBinding::buffer_f32(&mut out),
//!     ArgBinding::Scalar(Value::Int(3)),
//!     ArgBinding::Scalar(Value::Float(2.0)),
//! ];
//! program.run_ndrange(&kernel, 3, &mut args).unwrap();
//! assert_eq!(out, vec![12.0, 24.0, 36.0]);
//! ```

pub mod ast;
pub mod builtins;
pub mod compile;
pub mod compose;
pub mod cost;
pub mod diag;
pub mod interp;
pub mod lexer;
pub mod native;
pub mod pack;
pub mod parser;
pub mod sema;
pub mod token;
pub mod types;
pub mod value;
pub mod vm;

use std::sync::Arc;

use crate::ast::TranslationUnit;
use crate::compile::CompiledUnit;
use crate::diag::KernelError;
use crate::interp::{ArgBinding, Interpreter, WorkItem};
use crate::vm::Vm;

pub use crate::native::Tier;

/// A compiled kernel program: the checked AST of a translation unit plus its
/// bytecode lowering and the list of `__kernel` entry points.
///
/// This is the analogue of an OpenCL `cl_program` after `clBuildProgram`:
/// the bytecode is produced once at build time and shared (via `Arc`) by
/// every clone of the program, so repeated launches pay no per-call
/// compilation or name-resolution cost.
#[derive(Debug, Clone)]
pub struct Program {
    unit: Arc<TranslationUnit>,
    compiled: Arc<CompiledUnit>,
    source: Arc<str>,
    native: Arc<native::NativeState>,
}

/// Per-launch execution telemetry returned by
/// [`Program::run_ndrange_traced`]: which tier actually ran and what the
/// native tier did, feeding the simulator's per-device counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaunchTrace {
    /// The tier that executed the launch: a [`Tier::Native`] request runs
    /// on the scalar VM for ineligible bytecode.
    pub tier: Tier,
    /// Whether this launch performed the kernel's native compilation (at
    /// most one launch per kernel reports `true`).
    pub native_compiled: bool,
    /// Wall-clock nanoseconds of the native compilation, reported on every
    /// native launch of the kernel (the artifact is cached).
    pub native_compile_ns: u64,
    /// Lane batches completed by the native tier.
    pub native_batches: u64,
    /// Of those, the batches whose lanes diverged: at least one block ran
    /// under a partial lane mask (a suffix retiring through the
    /// `if (gid < n)` tail guard does not count). Zero for straight-line
    /// kernels.
    pub masked_batches: u64,
    /// Lane batches the native tier aborted, rolled back and replayed
    /// through the scalar VM: a cross-lane hazard, a runtime error in an
    /// active lane, or an exhausted batch-level loop budget. Divergent
    /// control flow alone never replays.
    pub replayed_batches: u64,
    /// Whether a replayed batch retired the native tier for the rest of the
    /// launch: a cross-lane hazard, or a batch of non-linear global ids
    /// under a kernel using the iota fast paths (the remaining work-items
    /// ran on the scalar VM). A launch that bails before completing a single
    /// native batch reports [`Tier::Scalar`].
    pub bailed: bool,
    /// Why the kernel fell back to the scalar VM despite a native request
    /// (the bytecode shape is ineligible), if it did.
    pub fallback: Option<String>,
}

/// A handle to a `__kernel` entry point inside a [`Program`]
/// (the analogue of a `cl_kernel`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelHandle {
    /// Name of the kernel function.
    pub name: String,
    /// Index of the function in the translation unit.
    pub(crate) index: usize,
    /// Parameter signature (for argument validation by callers).
    pub params: Vec<KernelParam>,
}

impl KernelHandle {
    /// Index of the kernel's function in the translation unit (also valid
    /// into [`compile::CompiledUnit::functions`]), for callers driving the
    /// [`vm::Vm`] or [`interp::Interpreter`] directly.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Check an argument list against the kernel's signature without
    /// executing anything: [`types::check_signature`] over this kernel's
    /// parameters, so the error is the one a launch would report.
    pub fn check_args<E: From<KernelError>>(
        &self,
        args: impl ExactSizeIterator<Item = types::ArgKind<E>>,
    ) -> Result<(), E> {
        let params = self.params.iter().map(|p| (p.name.as_str(), p.ty));
        types::check_signature(&self.name, params, args)
    }
}

/// Description of one kernel parameter, exposed so that runtimes can validate
/// argument bindings before launching ([`KernelHandle::check_args`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelParam {
    /// Parameter name as written in the source.
    pub name: String,
    /// Declared type: a scalar, or a global-memory pointer (a buffer).
    pub ty: types::Type,
}

impl Program {
    /// Parse, resolve and type-check `source`, producing a runnable program.
    ///
    /// Mirrors `clCreateProgramWithSource` + `clBuildProgram`.
    pub fn build(source: &str) -> Result<Self, KernelError> {
        let tokens = lexer::lex(source)?;
        let unit = parser::parse(&tokens, source)?;
        let unit = sema::check(unit)?;
        let compiled = compile::compile(&unit)?;
        let num_functions = unit.functions.len();
        Ok(Program {
            unit: Arc::new(unit),
            compiled: Arc::new(compiled),
            source: Arc::from(source),
            native: Arc::new(native::NativeState::new(num_functions)),
        })
    }

    /// Select the execution [`Tier`] for every subsequent launch of this
    /// program (shared across clones). [`Tier::Native`] — the default — runs
    /// every native-eligible kernel natively from its first launch.
    pub fn set_tier(&self, tier: Tier) {
        self.native.set_tier(tier);
    }

    /// The currently selected execution [`Tier`].
    pub fn tier(&self) -> Tier {
        self.native.tier()
    }

    /// Compile (or fetch the cached) native-tier artifact for `kernel`,
    /// exposing the closure listing or the ineligibility reason. Used by
    /// tooling (`examples/dump_bytecode.rs`); launches call this lazily.
    pub fn native_outcome(&self, kernel: &KernelHandle) -> &native::CompileOutcome {
        self.native
            .kernel(kernel.index)
            .get_or_compile(&self.compiled, kernel.index)
            .0
    }

    /// The original source code the program was built from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The checked translation unit.
    pub fn unit(&self) -> &TranslationUnit {
        &self.unit
    }

    /// The bytecode lowering of the translation unit.
    pub fn compiled(&self) -> &CompiledUnit {
        &self.compiled
    }

    /// Names of all `__kernel` entry points, in declaration order.
    pub fn kernel_names(&self) -> Vec<String> {
        self.unit
            .functions
            .iter()
            .filter(|f| f.is_kernel)
            .map(|f| f.name.clone())
            .collect()
    }

    /// Look up a kernel entry point by name.
    pub fn kernel(&self, name: &str) -> Result<KernelHandle, KernelError> {
        let (index, func) = self
            .unit
            .functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.is_kernel && f.name == name)
            .ok_or_else(|| KernelError::no_such_kernel(name))?;
        let params = func
            .params
            .iter()
            .map(|p| KernelParam {
                name: p.name.clone(),
                ty: p.ty,
            })
            .collect();
        Ok(KernelHandle {
            name: name.to_string(),
            index,
            params,
        })
    }

    /// Estimate the per-work-item cost of a kernel (floating point operations
    /// and bytes of global memory traffic). Used by the simulator's
    /// analytical device model and by SkelCL's scheduler (paper, Section V).
    pub fn cost_estimate(&self, kernel: &KernelHandle) -> cost::CostEstimate {
        cost::estimate_function(&self.unit, &self.unit.functions[kernel.index])
    }

    /// Execute `kernel` over a one-dimensional NDRange of `global_size`
    /// work-items on the program's selected [`Tier`] — by default the native
    /// tier, with the scalar VM for kernels it cannot take. Work-items run
    /// sequentially on the calling thread: the device simulator (`oclsim`)
    /// models hardware parallelism in virtual time, not in host threads.
    pub fn run_ndrange(
        &self,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
    ) -> Result<(), KernelError> {
        self.run_ndrange_measured(kernel, global_size, args)
            .map(|_| ())
    }

    /// Execute `kernel` over a one-dimensional NDRange like
    /// [`Program::run_ndrange`], and additionally return the *measured*
    /// execution statistics (flops, global-memory bytes, statement count)
    /// summed over all work-items. The device simulator uses these measured
    /// counts — rather than the static [`Program::cost_estimate`] — to charge
    /// virtual time, so data-dependent loops are accounted for exactly.
    ///
    /// Which engine runs is the program's [`Tier`]; the choice is
    /// semantically invisible — results, stats and errors are those of the
    /// interpreter oracle on every tier — and argument validation happens
    /// once per launch, not once per item.
    pub fn run_ndrange_measured(
        &self,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
    ) -> Result<interp::ExecStats, KernelError> {
        self.run_ndrange_traced(kernel, global_size, args)
            .map(|(stats, _)| stats)
    }

    /// Tier-dispatching twin of [`Program::run_ndrange_measured`] that also
    /// returns a [`LaunchTrace`] describing which engine ran and what the
    /// native tier did. The simulator uses the trace to feed per-device tier
    /// counters; results, stats and errors are identical across tiers.
    pub fn run_ndrange_traced(
        &self,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
    ) -> Result<(interp::ExecStats, LaunchTrace), KernelError> {
        let tier = self.native.tier();
        let mut trace = LaunchTrace {
            tier,
            ..LaunchTrace::default()
        };
        let stats = match tier {
            Tier::Interp => self.run_ndrange_measured_interp(kernel, global_size, args)?,
            Tier::Scalar => self.run_ndrange_measured_scalar(kernel, global_size, args)?,
            Tier::Native => self.run_ndrange_native(kernel, global_size, args, &mut trace)?,
        };
        Ok((stats, trace))
    }

    /// Kept for the repository benchmark's engine probe, which predates the
    /// removal of the lane-batched VM: the same as
    /// [`Program::run_ndrange_measured`].
    #[doc(hidden)]
    pub fn run_ndrange_measured_batched(
        &self,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
    ) -> Result<interp::ExecStats, KernelError> {
        self.run_ndrange_measured(kernel, global_size, args)
    }

    /// Run a launch on the native tier, falling back to the scalar VM when
    /// the kernel's bytecode is ineligible (recorded in `trace.fallback`).
    fn run_ndrange_native(
        &self,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
        trace: &mut LaunchTrace,
    ) -> Result<interp::ExecStats, KernelError> {
        let (outcome, first) = self
            .native
            .kernel(kernel.index)
            .get_or_compile(&self.compiled, kernel.index);
        trace.native_compiled = first;
        trace.native_compile_ns = outcome.compile_ns;
        let nk = match &outcome.result {
            Ok(nk) => Arc::clone(nk),
            Err(reason) => {
                trace.fallback = Some(reason.clone());
                trace.tier = Tier::Scalar;
                return self.run_ndrange_measured_scalar(kernel, global_size, args);
            }
        };
        trace.tier = Tier::Native;
        let vm = Vm::new(&self.compiled);
        self.run_native_batches(nk, vm, kernel, global_size, args, trace)
    }

    /// The native launch loop. Aborted batches (hazards, runtime errors, an
    /// exhausted loop budget) are rolled back and replayed through the
    /// scalar `vm`, which is authoritative for results, stats and error
    /// messages — and whose `max_loop_iterations` is the launch's budget.
    /// After a bail the rest of the launch runs on `vm` too.
    fn run_native_batches(
        &self,
        nk: Arc<native::NativeKernel>,
        mut vm: Vm<'_>,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
        trace: &mut LaunchTrace,
    ) -> Result<interp::ExecStats, KernelError> {
        vm.bind_kernel(kernel.index, args)?;
        let stencil = vm.stencil();
        let mut exec = native::NativeExec::new(nk);
        let mut native_stats = interp::ExecStats::default();
        for_each_batch(global_size, |items| {
            if trace.bailed {
                return items.iter().try_for_each(|item| vm.run_item(*item, args));
            }
            let budget = vm.max_loop_iterations;
            match exec.execute_batch(items, args, stencil, budget, &mut native_stats) {
                Ok(diverged) => {
                    trace.native_batches += 1;
                    trace.masked_batches += u64::from(diverged);
                }
                Err(abort) => {
                    exec.rollback(args);
                    trace.replayed_batches += 1;
                    for item in items {
                        vm.run_item(*item, args)?;
                    }
                    if abort == native::NativeAbort::Bail {
                        // Cross-lane hazard (or non-linear ids): this kernel
                        // shape won't batch; finish the launch on the VM.
                        trace.bailed = true;
                        if trace.native_batches == 0 {
                            trace.tier = Tier::Scalar;
                        }
                    }
                }
            }
            Ok(())
        })?;
        // Both accumulators hold sums of dyadic per-instruction costs well
        // below 2^53, so adding them is exact regardless of order.
        Ok(vm.stats().add(native_stats))
    }

    /// Execute a launch on the scalar VM unconditionally, one work-item at a
    /// time — the engine the native tier replays an aborted batch on and
    /// falls back to. Kept as a public entry point so benchmarks can quantify
    /// what the native tier wins over it and the differential suites can pin
    /// it against the oracle.
    pub fn run_ndrange_measured_scalar(
        &self,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
    ) -> Result<interp::ExecStats, KernelError> {
        let mut vm = Vm::new(&self.compiled);
        vm.bind_kernel(kernel.index, args)?;
        for gid in 0..global_size {
            vm.run_item(WorkItem::linear(gid, global_size), args)?;
        }
        Ok(vm.stats())
    }

    /// Run a *single* work-item of a larger NDRange through the interpreter
    /// oracle and return just that item's measured stats. The differential
    /// suites use this to rebuild a launch's totals strictly per item and
    /// assert the native tier's per-batch accumulation equals the sum.
    pub fn run_ndrange_measured_interp_item(
        &self,
        kernel: &KernelHandle,
        global_id: usize,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
    ) -> Result<interp::ExecStats, KernelError> {
        let mut interp = Interpreter::new(&self.unit);
        interp.run_kernel(kernel.index, WorkItem::linear(global_id, global_size), args)?;
        Ok(interp.stats())
    }

    /// Oracle twin of [`Program::run_ndrange_measured`]: runs every
    /// work-item through the AST interpreter and returns its measured stats.
    pub fn run_ndrange_measured_interp(
        &self,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
    ) -> Result<interp::ExecStats, KernelError> {
        let mut interp = Interpreter::new(&self.unit);
        for gid in 0..global_size {
            interp.run_kernel(kernel.index, WorkItem::linear(gid, global_size), args)?;
        }
        Ok(interp.stats())
    }
}

/// Hand `run` the work-items of a linear NDRange in lane batches of
/// [`native::BATCH_LANES`] (the last one may be short).
fn for_each_batch(
    global_size: usize,
    mut run: impl FnMut(&[WorkItem]) -> Result<(), KernelError>,
) -> Result<(), KernelError> {
    let mut items = [WorkItem::linear(0, global_size); native::BATCH_LANES];
    for start in (0..global_size).step_by(native::BATCH_LANES) {
        let n = (global_size - start).min(native::BATCH_LANES);
        for (k, slot) in items[..n].iter_mut().enumerate() {
            *slot = WorkItem::linear(start + k, global_size);
        }
        run(&items[..n])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::MAX_CALL_DEPTH;
    use crate::value::Value;

    #[test]
    fn build_and_list_kernels() {
        let src = r#"
            float helper(float x) { return x + 1.0f; }
            __kernel void a(__global float* v, int n) {
                int i = get_global_id(0);
                if (i < n) { v[i] = helper(v[i]); }
            }
            __kernel void b(__global int* v) {
                int i = get_global_id(0);
                v[i] = i;
            }
        "#;
        let p = Program::build(src).unwrap();
        assert_eq!(p.kernel_names(), vec!["a".to_string(), "b".to_string()]);
        assert!(p.kernel("a").is_ok());
        assert!(p.kernel("helper").is_err());
        assert!(p.kernel("missing").is_err());
    }

    #[test]
    fn saxpy_end_to_end() {
        let src = r#"
            float func(float x, float y, float a) { return a * x + y; }
            __kernel void zip(__global float* xs, __global float* ys,
                              __global float* out, int n, float a) {
                int gid = get_global_id(0);
                if (gid < n) { out[gid] = func(xs[gid], ys[gid], a); }
            }
        "#;
        let p = Program::build(src).unwrap();
        let k = p.kernel("zip").unwrap();
        assert_eq!(k.params.len(), 5);
        assert!(k.params[0].ty.is_pointer());
        assert!(!k.params[3].ty.is_pointer());

        let mut xs = vec![1.0f32, 2.0, 3.0, 4.0];
        let mut ys = vec![5.0f32, 6.0, 7.0, 8.0];
        let mut out = vec![0.0f32; 4];
        let mut args = vec![
            ArgBinding::buffer_f32(&mut xs),
            ArgBinding::buffer_f32(&mut ys),
            ArgBinding::buffer_f32(&mut out),
            ArgBinding::Scalar(Value::Int(4)),
            ArgBinding::Scalar(Value::Float(3.0)),
        ];
        p.run_ndrange(&k, 4, &mut args).unwrap();
        assert_eq!(out, vec![8.0, 12.0, 16.0, 20.0]);
    }

    /// The loop budget is per work-item and shared by all of the item's
    /// loops. Even lanes spend theirs in the first loop, odd lanes in the
    /// second, so a native batch takes `2 × trips` back edges while no item
    /// takes more than `trips`: the batch-level counter may run out early,
    /// but only the scalar replay may turn that into an error.
    #[test]
    fn native_loop_budget_never_errors_where_the_scalar_vm_does_not() {
        let src = r#"
            __kernel void k(__global float* v, int trips) {
                int gid = get_global_id(0);
                int a = 0;
                int b = 0;
                if (gid % 2 == 0) { a = trips; } else { b = trips; }
                float acc = v[gid];
                for (int i = 0; i < a; i++) { acc += 1.0f; }
                for (int j = 0; j < b; j++) { acc += 2.0f; }
                v[gid] = acc;
            }
        "#;
        let p = Program::build(src).unwrap();
        let k = p.kernel("k").unwrap();
        let nk = Arc::clone(p.native_outcome(&k).result.as_ref().unwrap());
        let n = 2 * native::BATCH_LANES + 5;
        let trips = 8;
        let run = |budget: u64, native: bool| {
            let mut data: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let mut args = vec![
                ArgBinding::buffer_f32(&mut data),
                ArgBinding::Scalar(Value::Int(trips)),
            ];
            let mut vm = Vm::new(&p.compiled);
            vm.max_loop_iterations = budget;
            let mut trace = LaunchTrace::default();
            let result = if native {
                p.run_native_batches(Arc::clone(&nk), vm, &k, n, &mut args, &mut trace)
            } else {
                vm.bind_kernel(k.index, &args)
                    .and_then(|()| {
                        (0..n).try_for_each(|gid| vm.run_item(WorkItem::linear(gid, n), &mut args))
                    })
                    .map(|()| vm.stats())
            };
            drop(args);
            let bits: Vec<u32> = data.iter().map(|x| x.to_bits()).collect();
            (bits, result.map_err(|e| e.message), trace)
        };
        for budget in [7, 8, 15, 16, 1000] {
            let (bits, result, _) = run(budget, false);
            let (native_bits, native_result, trace) = run(budget, true);
            assert_eq!(native_result, result, "budget {budget}");
            assert_eq!(native_bits, bits, "budget {budget}");
            assert_eq!(result.is_err(), budget < 8, "budget {budget}");
            assert!(!trace.bailed, "budget {budget}");
            if budget >= 16 {
                assert_eq!(trace.replayed_batches, 0, "budget {budget}");
                assert_eq!(trace.masked_batches, 3, "budget {budget}");
            } else if budget >= 8 {
                // Lanes sat in different loops: the shared counter
                // over-counted, and the replay found nothing wrong.
                assert_eq!(trace.replayed_batches, 3, "budget {budget}");
            }
        }
    }

    /// Recursion runs on the interpreter (host stack) and, by default, on
    /// the scalar VM (native rejects it). Both stop at the same call depth
    /// with the same error — the VM counting the calls it inlined, too — and
    /// the interpreter reaches that depth with half of its thread's stack to
    /// spare, so runaway recursion is an error, never a stack overflow that
    /// aborts the process.
    #[test]
    fn every_engine_stops_runaway_recursion_at_one_depth() {
        // `depth(d)` keeps d + 1 calls active at once: directly, and through
        // a helper (which the kernel inlines around its first real call).
        let direct = r#"
            int depth(int d) { if (d == 0) { return 1; } return depth(d - 1) + 1; }
            __kernel void k(__global int* v, int d) { v[get_global_id(0)] = depth(d); }
        "#;
        let mutual = r#"
            int half(int d) { return d == 0 ? 1 : depth(d - 1) + 1; }
            int depth(int d) { if (d == 0) { return 1; } return half(d - 1) + 1; }
            __kernel void k(__global int* v, int d) { v[get_global_id(0)] = depth(d); }
        "#;
        let run = |src: &'static str, tier: Tier, calls: usize, stack: usize| {
            std::thread::Builder::new()
                .stack_size(stack)
                .spawn(move || -> Result<_, String> {
                    let p = Program::build(src).unwrap();
                    p.set_tier(tier);
                    let k = p.kernel("k").unwrap();
                    let mut out = [0i32; 2];
                    let mut args = vec![
                        ArgBinding::buffer_i32(&mut out),
                        ArgBinding::Scalar(Value::Int(calls as i32 - 1)),
                    ];
                    let (stats, trace) = p
                        .run_ndrange_traced(&k, 2, &mut args)
                        .map_err(|e| e.message)?;
                    drop(args);
                    Ok((out, stats, trace.tier))
                })
                .unwrap()
                .join()
                .unwrap()
        };
        const MIB: usize = 1 << 20;
        let limit = format!("call depth limit ({MAX_CALL_DEPTH}) exceeded");
        for src in [direct, mutual] {
            for calls in [MAX_CALL_DEPTH + 1, 10_000] {
                for tier in [Tier::Interp, Tier::Native] {
                    let err = run(src, tier, calls, 2 * MIB).unwrap_err();
                    assert!(err.contains(&limit), "{tier}, {calls} calls: {err}");
                }
            }
            let (out, stats, tier) = run(src, Tier::Interp, MAX_CALL_DEPTH, 2 * MIB).unwrap();
            assert_eq!((out, tier), ([MAX_CALL_DEPTH as i32; 2], Tier::Interp));
            let (vm_out, vm_stats, vm_tier) =
                run(src, Tier::Native, MAX_CALL_DEPTH, 2 * MIB).unwrap();
            assert_eq!(
                (vm_out, vm_tier),
                (out, Tier::Scalar),
                "recursion runs on the VM"
            );
            assert_eq!(vm_stats, stats);
            // Twice the headroom: the deepest legal recursion fits in 1 MiB.
            assert_eq!(
                run(src, Tier::Interp, MAX_CALL_DEPTH, MIB).unwrap().1,
                stats
            );
        }
    }

    #[test]
    fn cost_estimate_nonzero_for_arithmetic_kernel() {
        let src = r#"
            __kernel void scale(__global float* v, int n, float a) {
                int gid = get_global_id(0);
                if (gid < n) { v[gid] = v[gid] * a + 1.0f; }
            }
        "#;
        let p = Program::build(src).unwrap();
        let k = p.kernel("scale").unwrap();
        let c = p.cost_estimate(&k);
        // The `if` branch is weighted 0.5 by the estimator, so the two flops
        // and two 4-byte accesses inside it count half.
        assert!(c.flops >= 1.0);
        assert!(c.global_bytes >= 4.0);
    }
}
