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
//! * a [`sema`] pass (symbol resolution and type checking) that records in
//!   the tree each expression's scalar type, each name's frame slot and each
//!   call's target: the one typed AST both engines read,
//! * two engines that run a kernel over its work-items, bit-identical in
//!   results, [`interp::ExecStats`] and error text, selected by [`Tier`]:
//!   - the [`interp`] tree-walking interpreter — the **oracle** the native
//!     tier is differentially tested against, kept free of optimisation. It
//!     is also the **replay** and **fallback** engine: a lane batch the
//!     native tier aborts is rolled back and re-run here, one work-item at a
//!     time, and so are the kernels the native tier cannot take (`uint`
//!     arithmetic, recursion, call chains too deep to inline) and the rest
//!     of a launch that bailed; its results, stats and messages are
//!     authoritative;
//!   - the [`native`] tier — the **default**: the typed AST compiled once
//!     into closures over 64-lane register rows, helpers inlined, every
//!     eligible kernel from its first launch,
//!
//!   both charging every node from the one table in [`cost`],
//! * the signature rule of a launch ([`types::check_signature`]), written
//!   once for the native tier and for the simulator's enqueue-time
//!   validation (the oracle keeps its own copy),
//! * a static [`cost`] estimator that counts floating-point and memory
//!   operations per work-item, used by the simulator's analytical cost model,
//! * a [`compose`] module with token-level identifier renaming and
//!   definition listing, the substrate for cross-stage UDF fusion in the
//!   skeleton library's lazy `plan` subsystem.
//!
//! The entry point is [`Program::build`], mirroring `clBuildProgram`: it
//! parses and checks **once**, returning the program from which
//! [`KernelHandle`]s can be looked up by name; a kernel's native closures
//! are compiled at its first native launch and cached.
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

use std::sync::Arc;

use crate::ast::TranslationUnit;
use crate::diag::KernelError;
use crate::interp::{ArgBinding, Interpreter, WorkItem};

pub use crate::native::Tier;

/// A built kernel program: the checked, typed AST of a translation unit and
/// its `__kernel` entry points.
///
/// This is the analogue of an OpenCL `cl_program` after `clBuildProgram`:
/// the tree is checked once at build time and shared (via `Arc`) by every
/// clone of the program, and so is each kernel's native compilation, made at
/// its first native launch.
#[derive(Debug, Clone)]
pub struct Program {
    unit: Arc<TranslationUnit>,
    source: Arc<str>,
    native: Arc<native::NativeState>,
}

/// Per-launch execution telemetry returned by
/// [`Program::run_ndrange_traced`]: which tier actually ran and what the
/// native tier did, feeding the simulator's per-device counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaunchTrace {
    /// The tier that executed the launch: a [`Tier::Native`] request runs
    /// on the interpreter for an ineligible kernel.
    pub tier: Tier,
    /// Whether this launch performed the kernel's native compilation (at
    /// most one launch per kernel reports `true`).
    pub native_compiled: bool,
    /// Wall-clock nanoseconds of the native compilation, reported on every
    /// native launch of the kernel (the artifact is cached).
    pub native_compile_ns: u64,
    /// Lane batches completed by the native tier.
    pub native_batches: u64,
    /// Of those, the batches whose lanes diverged: some code ran under a
    /// lane mask that is not a prefix of the batch's lanes (a suffix left
    /// out by the `if (gid < n)` tail guard does not count). Zero for
    /// straight-line kernels.
    pub masked_batches: u64,
    /// Lane batches the native tier aborted, rolled back and replayed
    /// through the interpreter: a cross-lane hazard, a runtime error in an
    /// active lane, or an exhausted batch-level loop budget. Divergent
    /// control flow alone never replays.
    pub replayed_batches: u64,
    /// Whether a replayed batch retired the native tier for the rest of the
    /// launch: a cross-lane hazard, or a batch of non-linear global ids
    /// under a kernel using the iota fast paths (the remaining work-items
    /// ran on the interpreter). A launch that bails before completing a
    /// single native batch reports [`Tier::Interp`].
    pub bailed: bool,
    /// Why the kernel fell back to the interpreter despite a native request
    /// (the kernel is ineligible), if it did.
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
    /// Index of the kernel's function in the translation unit, for callers
    /// driving the [`interp::Interpreter`] directly.
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
        let num_functions = unit.functions.len();
        Ok(Program {
            unit: Arc::new(unit),
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
    /// exposing the compile time and the ineligibility reason. Launches call
    /// this lazily.
    pub fn native_outcome(&self, kernel: &KernelHandle) -> &native::CompileOutcome {
        self.native
            .kernel(kernel.index)
            .get_or_compile(&self.unit, kernel.index)
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

    /// Execute `kernel` over a one-dimensional NDRange of `global_size`
    /// work-items on the program's selected [`Tier`] — by default the native
    /// tier, with the interpreter for kernels it cannot take. Work-items run
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
    /// summed over all work-items. The device simulator charges virtual time
    /// from these measured counts, not from the static
    /// [`cost::estimate_function`], so data-dependent loops are accounted
    /// for exactly.
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

    /// Kept for the repository benchmark's engine probe, which predates the
    /// removal of the scalar VM: the same as
    /// [`Program::run_ndrange_measured`].
    #[doc(hidden)]
    pub fn run_ndrange_measured_scalar(
        &self,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
    ) -> Result<interp::ExecStats, KernelError> {
        self.run_ndrange_measured(kernel, global_size, args)
    }

    /// Run a launch on the native tier, falling back to the interpreter when
    /// the kernel is ineligible (recorded in `trace.fallback`).
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
            .get_or_compile(&self.unit, kernel.index);
        trace.native_compiled = first;
        trace.native_compile_ns = outcome.compile_ns;
        let nk = match &outcome.result {
            Ok(nk) => Arc::clone(nk),
            Err(reason) => {
                trace.fallback = Some(reason.clone());
                trace.tier = Tier::Interp;
                return self.run_ndrange_measured_interp(kernel, global_size, args);
            }
        };
        trace.tier = Tier::Native;
        let oracle = Interpreter::new(&self.unit);
        self.run_native_batches(nk, oracle, kernel, global_size, args, trace)
    }

    /// The native launch loop. Aborted batches (hazards, runtime errors, an
    /// exhausted loop budget) are rolled back and replayed item by item
    /// through the `oracle`, which is authoritative for results, stats and
    /// error messages — and whose `max_loop_iterations` is the launch's
    /// budget. After a bail the rest of the launch runs on the `oracle` too.
    fn run_native_batches(
        &self,
        nk: Arc<native::NativeKernel>,
        mut oracle: Interpreter<'_>,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
        trace: &mut LaunchTrace,
    ) -> Result<interp::ExecStats, KernelError> {
        kernel.check_args::<KernelError>(args.iter().map(ArgBinding::kind))?;
        let params = kernel.params.iter().map(|p| p.name.as_str());
        let stencil = interp::StencilCtx::detect(params, args)?;
        let mut exec = native::NativeExec::new(nk);
        let mut native_stats = interp::ExecStats::default();
        let budget = oracle.max_loop_iterations;
        let mut replay = |items: &[WorkItem], args: &mut [ArgBinding<'_>]| {
            items
                .iter()
                .try_for_each(|item| oracle.run_kernel(kernel.index, *item, args))
        };
        for_each_batch(global_size, |items| {
            if trace.bailed {
                return replay(items, args);
            }
            match exec.execute_batch(items, args, stencil, budget, &mut native_stats) {
                Ok(diverged) => {
                    trace.native_batches += 1;
                    trace.masked_batches += u64::from(diverged);
                }
                Err(abort) => {
                    exec.rollback(args);
                    trace.replayed_batches += 1;
                    replay(items, args)?;
                    if abort == native::NativeAbort::Bail {
                        // Cross-lane hazard (or non-linear ids): this kernel
                        // shape won't batch; finish the launch on the oracle.
                        trace.bailed = true;
                        if trace.native_batches == 0 {
                            trace.tier = Tier::Interp;
                        }
                    }
                }
            }
            Ok(())
        })?;
        // Both accumulators hold sums of dyadic per-operation costs well
        // below 2^53, so adding them is exact regardless of order.
        Ok(oracle.stats().add(native_stats))
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

    /// The loop budget is the oracle's: `max_loop_iterations` per execution
    /// of a loop statement, in every work-item. A native batch keeps one
    /// back-edge counter for all of its lanes and loops, so it may run out
    /// early, but only the oracle's replay may turn that into an error.
    /// With `split`, even lanes spend their trips in the first loop and odd
    /// lanes in the second, so a batch takes `2 × trips` back edges while no
    /// item takes more than `trips`; without it every item runs both loops,
    /// `2 × trips` back edges of its own and `trips` per loop.
    #[test]
    fn native_loop_budget_never_errors_where_the_scalar_vm_does_not() {
        let src = r#"
            __kernel void k(__global float* v, int trips, int split) {
                int gid = get_global_id(0);
                int a = trips;
                int b = trips;
                if (split != 0) {
                    if (gid % 2 == 0) { b = 0; } else { a = 0; }
                }
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
        let run = |budget: u64, split: bool, native: bool| {
            let mut data: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let mut args = vec![
                ArgBinding::buffer_f32(&mut data),
                ArgBinding::Scalar(Value::Int(trips)),
                ArgBinding::Scalar(Value::Int(i32::from(split))),
            ];
            let mut oracle = Interpreter::new(&p.unit);
            oracle.max_loop_iterations = budget;
            let mut trace = LaunchTrace::default();
            let result = if native {
                p.run_native_batches(Arc::clone(&nk), oracle, &k, n, &mut args, &mut trace)
            } else {
                (0..n)
                    .try_for_each(|gid| {
                        oracle.run_kernel(k.index, WorkItem::linear(gid, n), &mut args)
                    })
                    .map(|()| oracle.stats())
            };
            drop(args);
            let bits: Vec<u32> = data.iter().map(|x| x.to_bits()).collect();
            (bits, result.map_err(|e| e.message), trace)
        };
        for split in [true, false] {
            for budget in [7, 8, 12, 15, 16, 1000] {
                let case = format!("split {split}, budget {budget}");
                let (bits, result, _) = run(budget, split, false);
                let (native_bits, native_result, trace) = run(budget, split, true);
                assert_eq!(native_result, result, "{case}");
                assert_eq!(native_bits, bits, "{case}");
                assert_eq!(result.is_err(), budget < 8, "{case}");
                assert!(!trace.bailed, "{case}");
                if budget >= 16 {
                    assert_eq!(trace.replayed_batches, 0, "{case}");
                    assert_eq!(trace.masked_batches, if split { 3 } else { 0 }, "{case}");
                } else if budget >= 8 {
                    // The batch counter over-counted (lanes sat in different
                    // loops, or one item ran two), and the replay found
                    // nothing wrong.
                    assert_eq!(trace.replayed_batches, 3, "{case}");
                }
            }
        }
    }

    /// Recursion runs on the interpreter (host stack), also on the default
    /// tier: native rejects it and falls back to the oracle. It stops at one
    /// call depth with one error, and the interpreter reaches that depth
    /// with half of its thread's stack to spare, so runaway recursion is an
    /// error, never a stack overflow that aborts the process.
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
            let (default_out, default_stats, default_tier) =
                run(src, Tier::Native, MAX_CALL_DEPTH, 2 * MIB).unwrap();
            assert_eq!(
                (default_out, default_tier),
                (out, Tier::Interp),
                "recursion falls back to the oracle"
            );
            assert_eq!(default_stats, stats);
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
        let c = cost::estimate_function(&p.unit, &p.unit.functions[k.index]);
        // The `if` branch is weighted 0.5 by the estimator, so the two flops
        // and two 4-byte accesses inside it count half.
        assert!(c.flops >= 1.0);
        assert!(c.global_bytes >= 4.0);
    }
}
