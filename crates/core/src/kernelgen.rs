//! Kernel source generation: merging user-defined functions with
//! skeleton-specific code (paper, Section II-A).
//!
//! "To customize a skeleton, the application developer passes the source code
//! of the user-defined function as a plain string to the skeleton. SkelCL
//! merges the user-defined function's source code with pre-implemented
//! skeleton-specific program code, thus creating a valid OpenCL kernel
//! automatically."
//!
//! The generated kernel is then built by the (simulated) OpenCL runtime at
//! first use. The *additional arguments* feature is implemented here as in
//! the paper: the extra parameters of the user function — beyond the
//! skeleton's main element inputs — are appended to the generated kernel's
//! parameter list and forwarded to the user function call.
//!
//! **One renderer.** `render_group` is the only place kernel text is
//! written: it turns a *group* of stages — one stage for an eager skeleton
//! call, several for a fused run of a lazy plan — into program source, with
//! each kernel frame written once and the group's element expression placed
//! where a single-stage kernel loads its input element. The public
//! `*_kernel` functions below are its single-stage calls, so the text
//! [`map_kernel`] returns is the text a [`crate::skeletons::Map`] launches;
//! at run time its only caller is the runtime's lowering memo
//! (`crate::plan::LoweringMemo`).
//!
//! Map, zip and map-overlap kernels are one work-item per element. The
//! reduce kernel ([`reduce_kernel`]) is one work-item per *chunk*: a launch
//! of `G` work-items leaves `G` partial results for the host to finish, and
//! `G = 1` is the plain sequential fold. Its packed sibling
//! ([`packed_reduce_kernel`]) folds the chunks of many equal-length inputs
//! laid back to back in one launch. The scan kernel is a single work-item
//! over its whole part.
//!
//! A *packed* group (many serving jobs in one launch) takes its chain's
//! additional arguments per job, from a job table the launch appends to an
//! input it already uploads, instead of as kernel parameters.

use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use oclsim::CostHint;
use skelcl_kernel::ast::Function;
use skelcl_kernel::compose;
use skelcl_kernel::cost::CostEstimate;
use skelcl_kernel::types::{ScalarType, Type};
use skelcl_kernel::value::Value;

use crate::error::{Result, SkelError};
use crate::fusion::{FExpr, Hygiene, HygienicStage};

/// Information extracted from a user-defined function's source.
#[derive(Debug, Clone, PartialEq)]
pub struct UdfInfo {
    /// Name of the user function (the only function in the source, or the
    /// one named `func` among helpers).
    pub name: String,
    /// Scalar types of the skeleton's main element parameters.
    pub main_params: Vec<ScalarType>,
    /// Extra (additional-argument) parameters: name and scalar type.
    pub extra_params: Vec<(String, ScalarType)>,
    /// Scalar return type.
    pub return_type: ScalarType,
    /// The full UDF source (including any helper functions).
    pub source: String,
    /// Hash of `source` — the UDF's content identity. Two skeletons built
    /// from the same text agree on it, so the lazy plans' lowering memo can
    /// key on content without re-hashing the text at every lookup.
    pub source_hash: u64,
    /// Every function the source defines, in definition order (what fusion
    /// renames when it concatenates stages into one kernel).
    pub defined_functions: Vec<String>,
    /// Static per-invocation cost estimate of the user function
    /// ([`skelcl_kernel::cost::estimate_function`]) — the one figure behind
    /// the scheduler's cost hint and the stencil's exchange cadence.
    pub cost: CostEstimate,
    /// The packed form, computed at its first use.
    lifted: LiftCache,
}

/// A UDF as a packed launch takes it: its source with every `float`
/// literal lifted into a trailing parameter
/// ([`skelcl_kernel::compose::lift_float_literals`]) and analysed, plus the
/// literals' values, which the launch binds per job. UDFs that differ only
/// in their literals lift to one text, so they share one packed shape.
#[derive(Debug)]
pub(crate) struct LiftedUdf {
    /// The lifted UDF; `None` when the source has no `float` literal.
    pub info: Option<Arc<UdfInfo>>,
    /// The literals' values, in parameter order.
    pub values: Vec<Value>,
}

/// [`UdfInfo::lifted`]'s cache. It is not part of a UDF's identity: every
/// cache state compares equal.
#[derive(Debug, Clone, Default)]
struct LiftCache(OnceLock<Arc<LiftedUdf>>);

impl PartialEq for LiftCache {
    fn eq(&self, _: &LiftCache) -> bool {
        true
    }
}

/// Resolve the user-defined function within a parsed translation unit — the
/// single source of truth shared by kernel generation and cost estimation,
/// so the function that is compiled is always the function that is costed.
///
/// A unit with a single function is unambiguous. With several functions the
/// UDF is the one named `func` (the convention of every listing in the
/// paper; the other functions are helpers it may call). Anything else — no
/// functions, or several candidates none/many of which are named `func` —
/// is reported as a clear [`SkelError::UdfSignature`] instead of silently
/// picking an arbitrary function.
pub(crate) fn resolve_udf<'u>(
    unit: &'u skelcl_kernel::ast::TranslationUnit,
    source_kind: &str,
) -> Result<&'u Function> {
    match unit.functions.as_slice() {
        [] => Err(SkelError::UdfSignature(format!(
            "empty {source_kind}: the source defines no function"
        ))),
        [only] => Ok(only),
        many => {
            let named: Vec<&Function> = many.iter().filter(|f| f.name == "func").collect();
            match named.as_slice() {
                [udf] => Ok(udf),
                [] => Err(SkelError::UdfSignature(format!(
                    "the {source_kind} defines {} functions ({}) but none is named `func`; \
                     name the user-defined function `func` so it can be distinguished from \
                     its helpers",
                    many.len(),
                    many.iter()
                        .map(|f| f.name.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))),
                _ => Err(SkelError::UdfSignature(format!(
                    "the {source_kind} defines {} functions named `func`; the user-defined \
                     function must be unique",
                    named.len()
                ))),
            }
        }
    }
}

impl UdfInfo {
    /// Analyse a user-defined function source string.
    ///
    /// * The UDF is resolved by `resolve_udf`: the only function in the
    ///   source, or — among several — the one named `func` (the others are
    ///   helpers it may call).
    /// * Its first `main_inputs` parameters are the skeleton's element
    ///   inputs; the rest are additional arguments, which must be scalars
    ///   (vector additional arguments require a native UDF, see DESIGN.md).
    /// * The source is type-checked on its own, so an ill-typed UDF is
    ///   reported here (by the skeleton's first call), and its cost is
    ///   estimated from the checked tree with the engines' cost table.
    pub fn analyze(source: &str, main_inputs: usize) -> Result<UdfInfo> {
        let tokens = skelcl_kernel::lexer::lex(source)?;
        let unit = skelcl_kernel::parser::parse(&tokens, source)?;
        let func: &Function = resolve_udf(&unit, "user function source")?;
        if func.is_kernel {
            return Err(SkelError::UdfSignature(
                "pass a plain function, not a __kernel; SkelCL generates the kernel".into(),
            ));
        }
        if func.params.len() < main_inputs {
            return Err(SkelError::UdfSignature(format!(
                "the user function `{}` takes {} parameter(s) but this skeleton supplies {} element input(s)",
                func.name,
                func.params.len(),
                main_inputs
            )));
        }
        let return_type = match func.return_type {
            Type::Scalar(s) => s,
            Type::Void => {
                return Err(SkelError::UdfSignature(
                    "the user function must return a value".into(),
                ))
            }
            Type::GlobalPtr(_) => {
                return Err(SkelError::UdfSignature(
                    "the user function cannot return a pointer".into(),
                ))
            }
        };
        let mut main_params = Vec::with_capacity(main_inputs);
        let mut extra_params = Vec::new();
        for (i, p) in func.params.iter().enumerate() {
            match p.ty {
                Type::Scalar(s) => {
                    if i < main_inputs {
                        main_params.push(s);
                    } else {
                        extra_params.push((p.name.clone(), s));
                    }
                }
                Type::GlobalPtr(_) => {
                    return Err(SkelError::UnsupportedArg(format!(
                        "parameter `{}` of the user function is a pointer; vector additional \
                         arguments are supported with native (closure) user functions only",
                        p.name
                    )));
                }
                Type::Void => unreachable!("void parameters are rejected by the parser"),
            }
        }
        let name = func.name.clone();
        // The estimate charges the engines' table, which needs the types and
        // callees the checker records.
        let unit = skelcl_kernel::sema::check(unit)?;
        let udf = resolve_udf(&unit, "user function source")?;
        let cost = skelcl_kernel::cost::estimate_function(&unit, udf);
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        source.hash(&mut hasher);
        Ok(UdfInfo {
            name,
            main_params,
            extra_params,
            return_type,
            source: source.to_string(),
            source_hash: hasher.finish(),
            defined_functions: unit.functions.iter().map(|f| f.name.clone()).collect(),
            cost,
            lifted: LiftCache::default(),
        })
    }

    /// The UDF's packed form, lifted at the first call and kept.
    pub(crate) fn lifted(&self) -> Result<&Arc<LiftedUdf>> {
        if let Some(lifted) = self.lifted.0.get() {
            return Ok(lifted);
        }
        let lifted = compose::lift_float_literals(&self.source).map_err(SkelError::Udf)?;
        let info = match lifted.values.is_empty() {
            true => None,
            false => Some(Arc::new(UdfInfo::analyze(
                &lifted.source,
                self.main_params.len(),
            )?)),
        };
        let values = lifted.values.into_iter().map(Value::Float).collect();
        Ok(self
            .lifted
            .0
            .get_or_init(|| Arc::new(LiftedUdf { info, values })))
    }

    /// The per-element cost hint used for scheduler-weighted partitioning
    /// and to override launch cost hints for the reduce/scan kernels. It
    /// costs the function `resolve_udf` picked — the function that is
    /// compiled is the function that is costed.
    pub(crate) fn cost_hint(&self) -> CostHint {
        CostHint::new(self.cost.flops.max(1.0), self.cost.global_bytes.max(8.0))
    }
}

/// Name of the generated map kernel.
pub const MAP_KERNEL: &str = "SKELCL_MAP";
/// Name of the generated index-map kernel (map over an implicit index range).
pub const MAP_INDEX_KERNEL: &str = "SKELCL_MAP_INDEX";
/// Name of the generated zip kernel.
pub const ZIP_KERNEL: &str = "SKELCL_ZIP";
/// Name of the generated map-overlap (stencil) kernel.
pub const MAP_OVERLAP_KERNEL: &str = "SKELCL_MAP_OVERLAP";
/// Name of the generated reduce kernel (one partial result per work-item).
pub const REDUCE_KERNEL: &str = "SKELCL_REDUCE";
/// Name of the generated packed reduce kernel (many equal-length jobs, one
/// partial result per work-item), lone or closing a fused group.
pub const PACKED_REDUCE_KERNEL: &str = "SKELCL_PACKED_REDUCE";
/// Name of the generated (per-device, sequential) scan kernel.
pub const SCAN_KERNEL: &str = "SKELCL_SCAN";
/// Name of the generated scan offset kernel (the implicit map of Figure 2).
pub const SCAN_OFFSET_KERNEL: &str = "SKELCL_SCAN_OFFSET";

/// Name of a fused elementwise group's kernel.
pub(crate) const FUSED_MAP_KERNEL: &str = "SKELCL_FUSED_MAP";
/// Name of a fused reduce group's kernel (one partial per work-item).
pub(crate) const FUSED_REDUCE_KERNEL: &str = "SKELCL_FUSED_REDUCE";
/// Name of a fused scan group's (per-device, sequential) kernel.
pub(crate) const FUSED_SCAN_KERNEL: &str = "SKELCL_FUSED_SCAN";
/// Name of the offset kernel paired with [`FUSED_SCAN_KERNEL`].
pub(crate) const FUSED_SCAN_OFFSET_KERNEL: &str = "SKELCL_FUSED_SCAN_OFFSET";

/// What a stage contributes to a group's *shape*, next to its UDF. A group
/// is any number of `Map` / `Zip` stages, optionally closed by one `Reduce`
/// or `Scan`; `IndexMap` may only open a group (its element is the index,
/// not a load) and `MapOverlap` stands alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum StageKind {
    Map,
    Zip,
    Reduce,
    Scan,
    IndexMap,
    MapOverlap,
}

impl StageKind {
    /// The skeleton's name, as diagnostics and `explain()` spell it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            StageKind::Map => "map",
            StageKind::Zip => "zip",
            StageKind::Reduce => "reduce",
            StageKind::Scan => "scan",
            StageKind::IndexMap => "index map",
            StageKind::MapOverlap => "map_overlap",
        }
    }
}

/// A group of stages rendered to program source: everything kernel
/// generation derives from the stages' kinds and UDFs.
#[derive(Debug)]
pub(crate) struct RenderedGroup {
    pub source: String,
    /// Name of the group's kernel in `source`.
    pub kernel: &'static str,
    /// Name of the offset kernel a scan group's program also holds.
    pub offset_kernel: Option<&'static str>,
    /// Element type per input-buffer slot: slot 0 is the chain the group
    /// reads (absent for an index map), every zip adds one.
    pub inputs: Vec<ScalarType>,
    /// Diagnostics for helper names that collided across stages.
    pub collisions: Vec<String>,
    /// A packed group's per-job values, when its chain takes any.
    pub table: Option<JobTable>,
}

/// Where a packed launch keeps its jobs' values — the chain's additional
/// arguments, lifted literals included, which a packed group takes per job
/// rather than as kernel parameters — and, for an elementwise frame, the
/// job boundaries it finds each work-item's job by.
///
/// The values travel as bits. The 32-bit ones (and the job starts) are
/// *words*, appended after the `n` elements of the first input slot of a
/// 32-bit type and read back with `as_float` / `as_int` / `as_uint`; the
/// `double`s follow the elements of the first `double` slot. So the table
/// rides in a write the launch already makes. Only a kind without such a
/// slot gets a buffer, and a write, of its own (`skelcl_words`, `int`;
/// `skelcl_doubles`), bound after the output.
///
/// Word layout, per launch of `J` jobs: for an elementwise frame first the
/// `J` job starts, then per job its word entries; the `double` part holds
/// per job its `double` entries. A packed reduce knows its job
/// (work-item `g` serves job `g / P`) and has no starts. An elementwise
/// work-item divides its index by the jobs' length when they share one,
/// and otherwise binary-searches the starts: `⌈log2 J⌉` one-word loads from
/// device memory, where a per-element job index would add four bytes per
/// element to the upload.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JobTable {
    /// The type of every per-job value, in kernel order (stage by stage:
    /// declared additional arguments, then lifted literals).
    pub entries: Vec<ScalarType>,
    /// Whether the words open with the job starts (an elementwise frame).
    pub starts: bool,
    /// The input slot carrying the words, or `None`: `skelcl_words`.
    pub words_in: Option<usize>,
    /// The input slot carrying the doubles, or `None`: `skelcl_doubles`.
    pub doubles_in: Option<usize>,
}

impl JobTable {
    fn is_word(ty: ScalarType) -> bool {
        ty != ScalarType::Double
    }

    /// Word entries per job.
    fn words_per_job(&self) -> usize {
        self.entries.iter().filter(|t| Self::is_word(**t)).count()
    }

    /// Whether the table has a part of words (`true`) or doubles (`false`).
    fn has(&self, words: bool) -> bool {
        (words && self.starts) || self.entries.iter().any(|t| Self::is_word(*t) == words)
    }

    /// The element types of the table buffers of its own, in binding order
    /// (after the output).
    pub(crate) fn own_buffers(&self) -> Vec<ScalarType> {
        let mut own = Vec::new();
        if self.has(true) && self.words_in.is_none() {
            own.push(ScalarType::Int);
        }
        if self.has(false) && self.doubles_in.is_none() {
            own.push(ScalarType::Double);
        }
        own
    }

    /// The table of a launch of `jobs.len()` jobs, each its values in
    /// [`JobTable::entries`] order and its first element in the packed
    /// inputs: the word bytes and the double bytes.
    pub(crate) fn encode(&self, jobs: &[(usize, Vec<Value>)]) -> (Vec<u8>, Vec<u8>) {
        let (mut words, mut doubles) = (Vec::new(), Vec::new());
        if self.starts {
            for (start, _) in jobs {
                words.extend_from_slice(&(*start as u32).to_ne_bytes());
            }
        }
        for (_, values) in jobs {
            for (value, &ty) in values.iter().zip(&self.entries) {
                let word = match value.convert_to(ty) {
                    Value::Double(v) => {
                        doubles.extend_from_slice(&v.to_ne_bytes());
                        continue;
                    }
                    Value::Float(v) => v.to_bits(),
                    Value::Int(v) => v as u32,
                    Value::Uint(v) => v,
                    Value::Bool(v) => u32::from(v),
                };
                words.extend_from_slice(&word.to_ne_bytes());
            }
        }
        (words, doubles)
    }

    /// The words' array, the offset of the first word in it and the type
    /// it stores them as; `inputs` are the input slots' types.
    fn words(&self, inputs: &[ScalarType]) -> (String, &'static str, ScalarType) {
        match self.words_in {
            Some(slot) => (format!("skelcl_in{slot}"), "skelcl_n + ", inputs[slot]),
            None => ("skelcl_words".to_string(), "", ScalarType::Int),
        }
    }

    /// The declarations of the per-job values, named `names`, for the job
    /// in `skelcl_job`.
    fn declarations(&self, names: &[String], inputs: &[ScalarType]) -> String {
        let (words, base, stored) = self.words(inputs);
        let starts = if self.starts { "skelcl_jobs + " } else { "" };
        let doubles = match self.doubles_in {
            Some(slot) => format!("skelcl_in{slot}[skelcl_n + "),
            None => "skelcl_doubles[".to_string(),
        };
        let per_word = self.words_per_job();
        let per_double = self.entries.len() - per_word;
        let (mut w, mut d) = (0, 0);
        let mut out = String::new();
        for (name, &ty) in names.iter().zip(&self.entries) {
            let read = if Self::is_word(ty) {
                w += 1;
                let at = format!("{words}[{base}{starts}skelcl_job * {per_word} + {}]", w - 1);
                reinterpret(&at, stored, ty)
            } else {
                d += 1;
                format!("{doubles}skelcl_job * {per_double} + {}]", d - 1)
            };
            out.push_str(&format!("\x20       {ty} {name} = {read};\n"));
        }
        out
    }

    /// The job of `skelcl_gid`: a division when the batch's jobs share
    /// one length `skelcl_len`, a binary search of the job starts when
    /// `skelcl_len` is 0.
    fn search(&self, inputs: &[ScalarType]) -> String {
        let (words, base, stored) = self.words(inputs);
        let start = reinterpret(
            &format!("{words}[{base}skelcl_mid]"),
            stored,
            ScalarType::Int,
        );
        format!(
            "\x20       int skelcl_job = 0;\n\
             \x20       if (skelcl_len > 0) {{\n\
             \x20           skelcl_job = skelcl_gid / skelcl_len;\n\
             \x20       }} else {{\n\
             \x20           int skelcl_last = skelcl_jobs - 1;\n\
             \x20           while (skelcl_job < skelcl_last) {{\n\
             \x20               int skelcl_mid = (skelcl_job + skelcl_last + 1) / 2;\n\
             \x20               if ({start} <= skelcl_gid) {{\n\
             \x20                   skelcl_job = skelcl_mid;\n\
             \x20               }} else {{\n\
             \x20                   skelcl_last = skelcl_mid - 1;\n\
             \x20               }}\n\
             \x20           }}\n\
             \x20       }}\n"
        )
    }
}

/// `word`, a 32-bit value stored as `stored`, read back as a `ty`.
fn reinterpret(word: &str, stored: ScalarType, ty: ScalarType) -> String {
    match ty {
        _ if ty == stored => word.to_string(),
        ScalarType::Bool => format!("({} != 0)", reinterpret(word, stored, ScalarType::Int)),
        _ => format!("as_{ty}({word})"),
    }
}

/// The signature a stage of `kind` needs from its user function.
fn check_stage(kind: StageKind, udf: &UdfInfo) -> Result<()> {
    let (what, arity) = match kind {
        StageKind::Map => ("map expects a unary user function", 1),
        StageKind::IndexMap => ("index map expects a unary user function", 1),
        StageKind::MapOverlap => (
            "map-overlap expects a unary user function (the centre element)",
            1,
        ),
        StageKind::Zip => ("zip expects a binary user function", 2),
        StageKind::Reduce | StageKind::Scan => return check_binary_op(udf, kind.name()),
    };
    if udf.main_params.len() != arity {
        return Err(SkelError::UdfSignature(format!(
            "{what}; `{}` has {} main parameter(s)",
            udf.name,
            udf.main_params.len()
        )));
    }
    match (kind, udf.main_params[0]) {
        (StageKind::IndexMap, ty) if !matches!(ty, ScalarType::Int | ScalarType::Uint) => {
            Err(SkelError::UdfSignature(format!(
                "index map requires the user function to take an int (or uint) index; `{}` takes {ty}",
                udf.name
            )))
        }
        (StageKind::MapOverlap, ty) if ty != ScalarType::Float => {
            Err(SkelError::UdfSignature(format!(
                "map-overlap requires a float centre element (the stencil input is a float matrix); \
                 `{}` takes {ty}",
                udf.name
            )))
        }
        _ => Ok(()),
    }
}

/// Render a group of stages — the one place kernel text is written. A pure
/// function of the stages' kinds and UDFs and of `packed`: whether the
/// launch runs many jobs, each with its own values of the chain's additional
/// arguments ([`JobTable`]; without any, an elementwise packed group is
/// rendered like any other).
///
/// The UDF sources are concatenated ahead of the kernel: verbatim for a lone
/// stage, through [`Hygiene`] when several stages share the program. The
/// elementwise stages compose into one expression over the group's input
/// elements ([`FExpr`]), and the frame of the group's *last* stage places it:
///
/// * **elementwise** (`Map` / `Zip` last) — `out[i] = expr(i)`, one work-item
///   per element, arguments `[inputs…, out, n, extras…]`. An index map is
///   this frame with no chain input: its element is `offset + i`, `offset`
///   the first argument after `n` — each device computes its block of the
///   implicit index range `[0, n)` from its global ids, so no input buffer
///   exists and nothing is uploaded,
/// * **reduce** — see [`reduce_kernel`]; same argument layout, `out` holding
///   one partial per work-item,
/// * **packed reduce** (`Reduce` last, `packed`) — see
///   [`packed_reduce_kernel`]; the reduce frame over jobs of `len` elements
///   laid back to back, `len` the first argument after `n`,
/// * **packed elementwise with a table** — the elementwise frame over jobs
///   laid back to back, `jobs` the argument after `n`; each work-item finds
///   its job before it reads the job's values,
/// * **scan** — the sequential inclusive scan of `expr` over the device's
///   part (one work-item), plus the offset kernel `[data, n, offset]` that
///   combines the predecessors' total into a part: the "map skeletons
///   \[that\] are created automatically" in Figure 2 of the paper,
/// * **map-overlap** — see [`map_overlap_kernel`].
///
/// No intermediate of the reduce frame can overflow `int` for any
/// `n ≤ i32::MAX`: the chunk length is `(n - 1) / G + 1`, a work-item runs
/// only when its index is at most `(n - 1) / chunk` (so `g · chunk < n`), and
/// the chunk end is the start plus `min(chunk, n - start)`. The packed frame
/// is the same arithmetic within one job (`len` for `n`), offset by the
/// job's start `job · len < n`.
pub(crate) fn render_group(
    stages: &[(StageKind, &UdfInfo)],
    packed: bool,
) -> Result<RenderedGroup> {
    let (first_kind, last_kind) = match (stages.first(), stages.last()) {
        (Some(first), Some(last)) => (first.0, last.0),
        _ => return Err(SkelError::Internal("a kernel group has no stage".into())),
    };
    let fused = stages.len() > 1;
    let mut hygiene = Hygiene::new();
    let mut chain: Vec<HygienicStage> = Vec::new();
    let mut op: Option<HygienicStage> = None;
    let mut inputs = Vec::new();
    let mut expr = FExpr::In(0);
    let mut preamble = String::new();
    let mut collisions = Vec::new();
    let mut out_ty = ScalarType::Float;
    for (k, &(kind, udf)) in stages.iter().enumerate() {
        check_stage(kind, udf)?;
        if k == 0 && kind != StageKind::IndexMap {
            inputs.push(udf.main_params[0]);
        }
        let mut stage = if fused {
            hygiene.admit(k, udf)?
        } else {
            HygienicStage::verbatim(udf)
        };
        preamble.push_str(&stage.source);
        preamble.push('\n');
        collisions.append(&mut stage.collisions);
        out_ty = udf.return_type;
        match kind {
            StageKind::Reduce | StageKind::Scan => op = Some(stage),
            _ => {
                let mut call_args = vec![expr];
                if kind == StageKind::Zip {
                    call_args.push(FExpr::In(inputs.len()));
                    inputs.push(udf.main_params[1]);
                }
                expr = FExpr::Call(chain.len(), call_args);
                chain.push(stage);
            }
        }
    }
    let ins: String = inputs
        .iter()
        .enumerate()
        .map(|(i, ty)| format!("__global {ty}* skelcl_in{i}, "))
        .collect();
    let packed_reduce = packed && last_kind == StageKind::Reduce;
    let (names, types): (Vec<String>, Vec<ScalarType>) =
        chain.iter().flat_map(|s| s.extras.iter().cloned()).unzip();
    let table = (packed && !types.is_empty()).then(|| {
        let slot = |fits: fn(ScalarType) -> bool| inputs.iter().position(|t| fits(*t));
        JobTable {
            starts: !packed_reduce,
            words_in: slot(|t| t.size_bytes() == 4),
            doubles_in: slot(|t| t == ScalarType::Double),
            entries: types.clone(),
        }
    });
    let mut extras = String::new();
    if first_kind == StageKind::IndexMap {
        extras.push_str(", int skelcl_offset");
    }
    if packed_reduce {
        extras.push_str(", int skelcl_len");
    }
    // The per-job values: declared locals (from the job's table row), or
    // kernel parameters.
    let mut values = String::new();
    match &table {
        Some(table) => {
            if table.starts {
                extras.push_str(", int skelcl_jobs, int skelcl_len");
                values.push_str(&table.search(&inputs));
            }
            values.push_str(&table.declarations(&names, &inputs));
        }
        None => {
            for (name, ty) in names.iter().zip(&types) {
                extras.push_str(&format!(", {ty} {name}"));
            }
        }
    }
    let own: String = table
        .iter()
        .flat_map(JobTable::own_buffers)
        .map(|ty| match ty {
            ScalarType::Double => ", __global double* skelcl_doubles".to_string(),
            _ => ", __global int* skelcl_words".to_string(),
        })
        .collect();
    // The group's element at iteration index `idx`.
    let elem = |idx: &str| {
        expr.code(&chain, &|slot| match first_kind {
            StageKind::IndexMap => format!("skelcl_offset + {idx}"),
            StageKind::MapOverlap => format!("skelcl_stencil_in[{idx}]"),
            _ => format!("skelcl_in{slot}[{idx}]"),
        })
    };
    let f = op.as_ref().map_or("", |op| op.fn_name.as_str());
    let (kernel, offset_kernel) = match (last_kind, fused) {
        (StageKind::Map, false) => (MAP_KERNEL, None),
        (StageKind::Zip, false) => (ZIP_KERNEL, None),
        (StageKind::IndexMap, _) => (MAP_INDEX_KERNEL, None),
        (StageKind::Map | StageKind::Zip, true) => (FUSED_MAP_KERNEL, None),
        (StageKind::MapOverlap, _) => (MAP_OVERLAP_KERNEL, None),
        (StageKind::Reduce, _) if packed => (PACKED_REDUCE_KERNEL, None),
        (StageKind::Reduce, false) => (REDUCE_KERNEL, None),
        (StageKind::Reduce, true) => (FUSED_REDUCE_KERNEL, None),
        (StageKind::Scan, false) => (SCAN_KERNEL, Some(SCAN_OFFSET_KERNEL)),
        (StageKind::Scan, true) => (FUSED_SCAN_KERNEL, Some(FUSED_SCAN_OFFSET_KERNEL)),
    };
    let source = match last_kind {
        StageKind::Map | StageKind::Zip | StageKind::IndexMap => format!(
            "{preamble}\
             __kernel void {kernel}({ins}__global {out_ty}* skelcl_out{own}, int skelcl_n{extras}) {{\n\
             \x20   int skelcl_gid = get_global_id(0);\n\
             \x20   if (skelcl_gid < skelcl_n) {{\n\
             {values}\
             \x20       skelcl_out[skelcl_gid] = {expr};\n\
             \x20   }}\n\
             }}\n",
            expr = elem("skelcl_gid"),
        ),
        StageKind::MapOverlap => format!(
            "{preamble}\
             __kernel void {kernel}(__global float* skelcl_stencil_in, __global {out_ty}* skelcl_out, \
             int skelcl_n, int skelcl_stencil_w, int skelcl_stencil_halo, int skelcl_stencil_policy, \
             float skelcl_stencil_oob{extras}) {{\n\
             \x20   int skelcl_gid = get_global_id(0);\n\
             \x20   if (skelcl_gid < skelcl_n) {{\n\
             \x20       int skelcl_idx = (skelcl_gid / skelcl_stencil_w + skelcl_stencil_halo) * skelcl_stencil_w + skelcl_gid % skelcl_stencil_w;\n\
             \x20       skelcl_out[skelcl_idx] = {expr};\n\
             \x20   }}\n\
             }}\n",
            expr = elem("skelcl_idx"),
        ),
        StageKind::Reduce if !packed => format!(
            "{preamble}\
             __kernel void {kernel}({ins}__global {out_ty}* skelcl_out, int skelcl_n{extras}) {{\n\
             \x20   int skelcl_gid = get_global_id(0);\n\
             \x20   int skelcl_chunk = (skelcl_n - 1) / get_global_size(0) + 1;\n\
             \x20   if (skelcl_gid <= (skelcl_n - 1) / skelcl_chunk) {{\n\
             \x20       int skelcl_start = skelcl_gid * skelcl_chunk;\n\
             \x20       int skelcl_end = skelcl_start + min(skelcl_chunk, skelcl_n - skelcl_start);\n\
             \x20       {out_ty} skelcl_acc = {first};\n\
             \x20       for (int skelcl_i = skelcl_start + 1; skelcl_i < skelcl_end; skelcl_i++) {{\n\
             \x20           skelcl_acc = {f}(skelcl_acc, {step});\n\
             \x20       }}\n\
             \x20       skelcl_out[skelcl_gid] = skelcl_acc;\n\
             \x20   }}\n\
             }}\n",
            first = elem("skelcl_start"),
            step = elem("skelcl_i"),
        ),
        StageKind::Reduce => format!(
            "{preamble}\
             __kernel void {kernel}({ins}__global {out_ty}* skelcl_out{own}, int skelcl_n{extras}) {{\n\
             \x20   int skelcl_gid = get_global_id(0);\n\
             \x20   int skelcl_parts = get_global_size(0) / (skelcl_n / skelcl_len);\n\
             \x20   int skelcl_chunk = (skelcl_len - 1) / skelcl_parts + 1;\n\
             \x20   int skelcl_part = skelcl_gid % skelcl_parts;\n\
             \x20   if (skelcl_part <= (skelcl_len - 1) / skelcl_chunk) {{\n\
             {job}\
             {values}\
             \x20       int skelcl_first = skelcl_part * skelcl_chunk;\n\
             \x20       int skelcl_start = skelcl_gid / skelcl_parts * skelcl_len + skelcl_first;\n\
             \x20       int skelcl_end = skelcl_start + min(skelcl_chunk, skelcl_len - skelcl_first);\n\
             \x20       {out_ty} skelcl_acc = {first};\n\
             \x20       for (int skelcl_i = skelcl_start + 1; skelcl_i < skelcl_end; skelcl_i++) {{\n\
             \x20           skelcl_acc = {f}(skelcl_acc, {step});\n\
             \x20       }}\n\
             \x20       skelcl_out[skelcl_gid] = skelcl_acc;\n\
             \x20   }}\n\
             }}\n",
            job = if table.is_some() {
                "\x20       int skelcl_job = skelcl_gid / skelcl_parts;\n"
            } else {
                ""
            },
            first = elem("skelcl_start"),
            step = elem("skelcl_i"),
        ),
        StageKind::Scan => format!(
            "{preamble}\
             __kernel void {kernel}({ins}__global {out_ty}* skelcl_out, int skelcl_n{extras}) {{\n\
             \x20   {out_ty} skelcl_acc = {first};\n\
             \x20   skelcl_out[0] = skelcl_acc;\n\
             \x20   for (int skelcl_i = 1; skelcl_i < skelcl_n; skelcl_i++) {{\n\
             \x20       skelcl_acc = {f}(skelcl_acc, {step});\n\
             \x20       skelcl_out[skelcl_i] = skelcl_acc;\n\
             \x20   }}\n\
             }}\n\
             __kernel void {offset}(__global {out_ty}* skelcl_data, int skelcl_n, {out_ty} skelcl_offset) {{\n\
             \x20   int skelcl_gid = get_global_id(0);\n\
             \x20   if (skelcl_gid < skelcl_n) {{\n\
             \x20       skelcl_data[skelcl_gid] = {f}(skelcl_offset, skelcl_data[skelcl_gid]);\n\
             \x20   }}\n\
             }}\n",
            offset = offset_kernel.expect("a scan group has an offset kernel"),
            first = elem("0"),
            step = elem("skelcl_i"),
        ),
    };
    Ok(RenderedGroup {
        source,
        kernel,
        offset_kernel,
        inputs,
        collisions,
        table,
    })
}

/// The rendered source of the single-stage group `(kind, udf)`, packed or
/// not.
fn single_stage(kind: StageKind, packed: bool, udf: &UdfInfo) -> Result<String> {
    Ok(render_group(&[(kind, udf)], packed)?.source)
}

/// Generate the map kernel: `out[i] = f(in[i], extra...)`.
pub fn map_kernel(udf: &UdfInfo) -> Result<String> {
    single_stage(StageKind::Map, false, udf)
}

/// Generate the index-map kernel: `out[i] = f(offset + i, extra...)`, with
/// the arguments `[out, n, offset, extra...]`.
///
/// Used by [`crate::skeletons::Map::run_index`]: the skeleton's input is the
/// implicit index range `[0, n)` rather than a stored vector, so no input
/// buffer exists and no host→device transfer is needed — each device computes
/// its elements directly from its global ids plus a per-device offset. This
/// is how index-based workloads such as the Mandelbrot benchmark avoid paying
/// for an input upload.
pub fn map_index_kernel(udf: &UdfInfo) -> Result<String> {
    single_stage(StageKind::IndexMap, false, udf)
}

/// Generate the map-overlap (stencil) kernel:
/// `out[r, c] = f(in[r, c], extra...)` where the user function may read
/// neighbouring elements through the `get(dx, dy)` builtin.
///
/// The kernel runs over the device's *core* elements (`n = core_rows × w`)
/// while its input buffer is the halo-padded part (`(core_rows + 2·halo) × w`
/// elements): row accesses of `get` resolve directly into the padding —
/// out-of-bound rows were materialised when the halo was filled — and column
/// accesses apply the boundary policy in the engines. The reserved
/// `skelcl_stencil_*` parameters bind the builtin's execution context (see
/// `skelcl_kernel::builtins::stencil`). The output part is padded the same
/// way, so iterative stencils can flip output to input with a halo-only
/// exchange; its halo rows are left untouched by the kernel.
pub fn map_overlap_kernel(udf: &UdfInfo) -> Result<String> {
    single_stage(StageKind::MapOverlap, false, udf)
}

/// Generate the zip kernel: `out[i] = f(left[i], right[i], extra...)`.
pub fn zip_kernel(udf: &UdfInfo) -> Result<String> {
    single_stage(StageKind::Zip, false, udf)
}

/// A reduce or scan operator is a `(T, T) -> T` function without additional
/// arguments (`skeleton` names the caller in the error).
pub(crate) fn check_binary_op(udf: &UdfInfo, skeleton: &str) -> Result<()> {
    if udf.main_params.len() != 2 || !udf.extra_params.is_empty() {
        return Err(SkelError::UdfSignature(format!(
            "{skeleton} expects a binary operator function (two parameters, no additional arguments); \
             `{}` has {} parameter(s)",
            udf.name,
            udf.main_params.len() + udf.extra_params.len()
        )));
    }
    if udf.main_params[0] != udf.main_params[1] || udf.main_params[0] != udf.return_type {
        return Err(SkelError::UdfSignature(format!(
            "{skeleton} requires an operator of type (T, T) -> T; `{}` maps ({}, {}) -> {}",
            udf.name, udf.main_params[0], udf.main_params[1], udf.return_type
        )));
    }
    Ok(())
}

/// Generate the reduce kernel — the only reduce lowering. A launch of `G`
/// work-items over `n ≥ 1` elements cuts the input into chunks of
/// `ceil(n / G)` elements; work-item `g` left-folds chunk `g` into `out[g]`,
/// so the launch leaves an *intermediate result vector* that the host
/// finishes (left to right, in device-then-chunk order). Work-items past the
/// last chunk do nothing. One work-item is the sequential fold of the whole
/// input: that is how the host combines the gathered partials, and how a
/// scheduler-placed final reduction runs on a device.
///
/// Section V of the paper motivates the shape: "the local reduction on each
/// GPU should not compute a single value but an intermediate, small result
/// vector. CPUs will be faster to perform the final reduction of these
/// vectors than GPUs which provide poor performance when reducing only few
/// elements."
///
/// The chunk length is derived from the launch geometry rather than passed
/// in, so the geometry has one source of truth (the work-item count); see
/// [`crate::reduce_partials`] for the count the skeletons pick.
pub fn reduce_kernel(udf: &UdfInfo) -> Result<String> {
    single_stage(StageKind::Reduce, false, udf)
}

/// Generate the packed reduce kernel: [`reduce_kernel`] over many jobs in one
/// launch. The input holds `n / len` jobs of `len` elements each, back to
/// back, and the launch runs `P` work-items per job: work-item `g` left-folds
/// chunk `g % P` — `ceil(len / P)` elements, the last chunk of a job possibly
/// shorter — of job `g / P` into `out[g]`. Those are exactly the chunks a
/// `P`-work-item [`reduce_kernel`] launch over that job alone folds, so a
/// job's `P` partials, and the host's left fold over them, are bit-identical
/// to reducing it on its own on one device. Arguments: `[in, out, n, len]`.
///
/// `P` is derived from the launch size (`global size / jobs`), as the chunk
/// length is in [`reduce_kernel`]: the geometry keeps one source of truth.
pub fn packed_reduce_kernel(udf: &UdfInfo) -> Result<String> {
    single_stage(StageKind::Reduce, true, udf)
}

/// Generate the per-device scan kernel (inclusive prefix) plus the offset
/// kernel used to combine each device's part with its predecessors' totals —
/// the "map skeletons \[that\] are created automatically" in Figure 2 of the
/// paper. Both kernels live in one program.
pub fn scan_kernels(udf: &UdfInfo) -> Result<String> {
    single_stage(StageKind::Scan, false, udf)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAXPY: &str = "float func(float x, float y, float a) { return a * x + y; }";
    const ADD: &str = "float add(float a, float b) { return a + b; }";

    #[test]
    fn analyze_extracts_signature() {
        let info = UdfInfo::analyze(SAXPY, 2).unwrap();
        assert_eq!(info.name, "func");
        assert_eq!(info.main_params, vec![ScalarType::Float, ScalarType::Float]);
        assert_eq!(
            info.extra_params,
            vec![("a".to_string(), ScalarType::Float)]
        );
        assert_eq!(info.return_type, ScalarType::Float);
    }

    #[test]
    fn analyze_resolves_func_among_helpers() {
        let src = "float sq(float x) { return x * x; }\nfloat func(float x, float y) { return sqrt(sq(x) + sq(y)); }";
        let info = UdfInfo::analyze(src, 2).unwrap();
        assert_eq!(info.name, "func");
        assert!(info.source.contains("float sq"));
        // The helper's position does not matter: `func` wins by name.
        let reordered = "float func(float x, float y) { return sqrt(sq(x) + sq(y)); }\nfloat sq(float x) { return x * x; }";
        assert_eq!(UdfInfo::analyze(reordered, 2).unwrap().name, "func");
    }

    #[test]
    fn analyze_rejects_multi_function_sources_without_func() {
        let src = "float alpha(float a, float b) { return a + b; }\nfloat beta(float a, float b) { return a * b; }";
        let err = UdfInfo::analyze(src, 2).unwrap_err();
        let SkelError::UdfSignature(msg) = err else {
            panic!("expected UdfSignature, got {err:?}");
        };
        assert!(msg.contains("alpha") && msg.contains("beta"), "{msg}");
        assert!(msg.contains("func"), "{msg}");
    }

    #[test]
    fn analyze_records_content_identity_and_defined_functions() {
        let src = "float sq(float x) { return x * x; }\nfloat func(float x, float y) { return sq(x) + y; }";
        let info = UdfInfo::analyze(src, 2).unwrap();
        assert_eq!(info.defined_functions, ["sq", "func"]);
        // Same text, same hash — whoever analysed it.
        assert_eq!(
            info.source_hash,
            UdfInfo::analyze(src, 2).unwrap().source_hash
        );
        assert_ne!(
            info.source_hash,
            UdfInfo::analyze(ADD, 2).unwrap().source_hash
        );
    }

    /// The estimate charges the engines' table on the checked tree: the
    /// heat stencil's four `get`s and two negations, and a helper's body
    /// inlined at both of its calls (an unchecked tree would leave both
    /// calls and `sqrt` unresolved, at no cost).
    #[test]
    fn analyze_estimates_the_checked_udf() {
        let cost = |src| {
            let c = UdfInfo::analyze(src, 1).unwrap().cost;
            (c.flops, c.global_bytes, c.ops)
        };
        let heat = "float func(float u) { return u + 0.2f * (get(0, -1) + get(0, 1) \
                    + get(-1, 0) + get(1, 0) - 4.0f * u); }";
        assert_eq!(cost(heat), (25.0, 16.0, 18.0));
        let helper = "float sq(float x) { return x * x; }\n\
                      float func(float x, float y) { return sqrt(sq(x) + sq(y)); }";
        assert_eq!(cost(helper), (7.0, 0.0, 7.0));
    }

    /// An ill-typed UDF is rejected by its analysis, before any kernel is
    /// rendered around it.
    #[test]
    fn analyze_type_checks_the_udf() {
        let err = UdfInfo::analyze("float func(float x) { return x + y; }", 1).unwrap_err();
        assert!(matches!(err, SkelError::Udf(_)), "{err:?}");
    }

    #[test]
    fn analyze_rejects_bad_udfs() {
        assert!(UdfInfo::analyze("", 1).is_err());
        assert!(
            UdfInfo::analyze("__kernel void k(__global float* v) { v[0] = 0.0f; }", 1).is_err()
        );
        assert!(UdfInfo::analyze("float f(float a) { return a; }", 2).is_err());
        // Pointer additional arguments need a native UDF.
        let err = UdfInfo::analyze(
            "float f(float x, __global float* img) { return x + img[0]; }",
            1,
        )
        .unwrap_err();
        assert!(matches!(err, SkelError::UnsupportedArg(_)));
    }

    #[test]
    fn generated_map_kernel_compiles() {
        let info = UdfInfo::analyze("float f(float x, float s) { return x * s; }", 1).unwrap();
        let src = map_kernel(&info).unwrap();
        let program = skelcl_kernel::Program::build(&src).unwrap();
        assert!(program.kernel(MAP_KERNEL).is_ok());
        assert!(src.contains(", float skelcl_arg_s"));
    }

    #[test]
    fn generated_index_map_kernel_compiles() {
        let info = UdfInfo::analyze(
            "int f(int i, int width, int max_iter) { return i % width; }",
            1,
        )
        .unwrap();
        let src = map_index_kernel(&info).unwrap();
        let program = skelcl_kernel::Program::build(&src).unwrap();
        let k = program.kernel(MAP_INDEX_KERNEL).unwrap();
        // out, n, offset, width, max_iter
        assert_eq!(k.params.len(), 5);
        assert!(src.contains("skelcl_offset + skelcl_gid"));
    }

    #[test]
    fn index_map_requires_an_integer_index_parameter() {
        let info = UdfInfo::analyze("float f(float x) { return x; }", 1).unwrap();
        assert!(matches!(
            map_index_kernel(&info),
            Err(SkelError::UdfSignature(_))
        ));
        let binary = UdfInfo::analyze(ADD, 2).unwrap();
        assert!(map_index_kernel(&binary).is_err());
    }

    #[test]
    fn generated_map_overlap_kernel_compiles_and_reads_neighbours() {
        let info = UdfInfo::analyze(
            "float func(float x, float a) { return a * (get(-1, 0) + get(1, 0)) + x; }",
            1,
        )
        .unwrap();
        let src = map_overlap_kernel(&info).unwrap();
        let program = skelcl_kernel::Program::build(&src).unwrap();
        let k = program.kernel(MAP_OVERLAP_KERNEL).unwrap();
        // in, out, n, w, halo, policy, oob, a
        assert_eq!(k.params.len(), 8);
        assert!(src.contains("skelcl_stencil_in"));
        assert!(src.contains("skelcl_stencil_halo"));

        // Run it directly: 2x2 matrix, halo 1 → padded input has 4 rows.
        let mut input = vec![
            0.0f32, 0.0, // top halo (policy-filled by the runtime)
            1.0, 2.0, // row 0
            3.0, 4.0, // row 1
            0.0, 0.0, // bottom halo
        ];
        let mut out = vec![0.0f32; 8];
        let mut args = vec![
            skelcl_kernel::interp::ArgBinding::buffer_f32(&mut input),
            skelcl_kernel::interp::ArgBinding::buffer_f32(&mut out),
            skelcl_kernel::interp::ArgBinding::Scalar(skelcl_kernel::value::Value::Int(4)),
            skelcl_kernel::interp::ArgBinding::Scalar(skelcl_kernel::value::Value::Int(2)),
            skelcl_kernel::interp::ArgBinding::Scalar(skelcl_kernel::value::Value::Int(1)),
            skelcl_kernel::interp::ArgBinding::Scalar(skelcl_kernel::value::Value::Int(0)),
            skelcl_kernel::interp::ArgBinding::Scalar(skelcl_kernel::value::Value::Float(0.0)),
            skelcl_kernel::interp::ArgBinding::Scalar(skelcl_kernel::value::Value::Float(10.0)),
        ];
        program.run_ndrange(&k, 4, &mut args).unwrap();
        drop(args);
        // Element (0,0): x=1, left neighbour clamps to 1, right is 2.
        assert_eq!(out[2], 10.0 * (1.0 + 2.0) + 1.0);
        // The output's halo rows are untouched.
        assert_eq!(&out[0..2], &[0.0, 0.0]);
        assert_eq!(&out[6..8], &[0.0, 0.0]);
    }

    #[test]
    fn map_overlap_rejects_non_unary_and_non_float_udfs() {
        let binary = UdfInfo::analyze(ADD, 2).unwrap();
        assert!(matches!(
            map_overlap_kernel(&binary),
            Err(SkelError::UdfSignature(_))
        ));
        let int_centre = UdfInfo::analyze("int func(int x) { return x; }", 1).unwrap();
        assert!(matches!(
            map_overlap_kernel(&int_centre),
            Err(SkelError::UdfSignature(_))
        ));
    }

    #[test]
    fn generated_zip_kernel_compiles_with_extra_args() {
        let info = UdfInfo::analyze(SAXPY, 2).unwrap();
        let src = zip_kernel(&info).unwrap();
        let program = skelcl_kernel::Program::build(&src).unwrap();
        let k = program.kernel(ZIP_KERNEL).unwrap();
        // left, right, out, n, a
        assert_eq!(k.params.len(), 5);
    }

    #[test]
    fn generated_reduce_and_scan_kernels_compile() {
        let info = UdfInfo::analyze(ADD, 2).unwrap();
        let reduce = reduce_kernel(&info).unwrap();
        assert!(skelcl_kernel::Program::build(&reduce).is_ok());
        let scan = scan_kernels(&info).unwrap();
        let p = skelcl_kernel::Program::build(&scan).unwrap();
        assert!(p.kernel(SCAN_KERNEL).is_ok());
        assert!(p.kernel(SCAN_OFFSET_KERNEL).is_ok());
    }

    #[test]
    fn generated_chunked_reduce_kernel_compiles_and_folds_chunks() {
        let info = UdfInfo::analyze(ADD, 2).unwrap();
        let src = reduce_kernel(&info).unwrap();
        let program = skelcl_kernel::Program::build(&src).unwrap();
        let k = program.kernel(REDUCE_KERNEL).unwrap();
        assert_eq!(k.params.len(), 3);

        let run = |work_items: usize| {
            let mut input = vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
            let mut out = vec![-1.0f32; work_items];
            let mut args = vec![
                skelcl_kernel::interp::ArgBinding::buffer_f32(&mut input),
                skelcl_kernel::interp::ArgBinding::buffer_f32(&mut out),
                skelcl_kernel::interp::ArgBinding::Scalar(skelcl_kernel::value::Value::Int(7)),
            ];
            program.run_ndrange(&k, work_items, &mut args).unwrap();
            drop(args);
            out
        };
        // 7 elements over 3 work-items → chunks of 3, the last one ragged.
        assert_eq!(run(3), vec![6.0, 15.0, 7.0]);
        // One work-item is the sequential fold.
        assert_eq!(run(1), vec![28.0]);
        // 5 work-items → chunks of 2 → 4 chunks; the fifth work-item is idle.
        assert_eq!(run(5), vec![3.0, 7.0, 11.0, 7.0, -1.0]);
    }

    /// The packed frame leaves, per job, the partials a reduce launch over
    /// that job alone leaves: same chunks, same left folds.
    #[test]
    fn generated_packed_reduce_kernel_folds_each_jobs_chunks() {
        use skelcl_kernel::interp::ArgBinding;
        use skelcl_kernel::value::Value;
        // Left projection keeps the first element of a chunk, right
        // projection the last: together they pin every chunk's bounds.
        for op in [
            "float func(float a, float b) { return a; }",
            "float func(float a, float b) { return b; }",
            ADD,
        ] {
            let info = UdfInfo::analyze(op, 2).unwrap();
            let src = packed_reduce_kernel(&info).unwrap();
            let packed = skelcl_kernel::Program::build(&src).unwrap();
            let packed_kernel = packed.kernel(PACKED_REDUCE_KERNEL).unwrap();
            // in, out, n, len
            assert_eq!(packed_kernel.params.len(), 4);
            let alone = skelcl_kernel::Program::build(&reduce_kernel(&info).unwrap()).unwrap();
            let alone_kernel = alone.kernel(REDUCE_KERNEL).unwrap();
            for (jobs, len, parts) in [(1, 7, 3), (3, 7, 3), (4, 5, 1), (2, 8, 4), (5, 1, 1)] {
                let mut input: Vec<f32> = (0..jobs * len).map(|i| (i * 3 % 11) as f32).collect();
                let mut out = vec![-1.0f32; jobs * parts];
                let mut args = vec![
                    ArgBinding::buffer_f32(&mut input),
                    ArgBinding::buffer_f32(&mut out),
                    ArgBinding::Scalar(Value::Int((jobs * len) as i32)),
                    ArgBinding::Scalar(Value::Int(len as i32)),
                ];
                packed
                    .run_ndrange(&packed_kernel, jobs * parts, &mut args)
                    .unwrap();
                drop(args);
                for job in 0..jobs {
                    let mut one = input[job * len..(job + 1) * len].to_vec();
                    let mut want = vec![-1.0f32; parts];
                    let mut args = vec![
                        ArgBinding::buffer_f32(&mut one),
                        ArgBinding::buffer_f32(&mut want),
                        ArgBinding::Scalar(Value::Int(len as i32)),
                    ];
                    alone.run_ndrange(&alone_kernel, parts, &mut args).unwrap();
                    drop(args);
                    assert_eq!(
                        out[job * parts..(job + 1) * parts],
                        want[..],
                        "{op}: job {job} of {jobs} x {len} over {parts} part(s)"
                    );
                }
            }
        }
    }

    #[test]
    fn reduce_rejects_non_operator_udfs() {
        let err = UdfInfo::analyze(SAXPY, 2)
            .and_then(|i| reduce_kernel(&i))
            .unwrap_err();
        assert!(matches!(err, SkelError::UdfSignature(_)));
        let mixed = UdfInfo::analyze("int f(int a, float b) { return a; }", 2).unwrap();
        assert!(reduce_kernel(&mixed).is_err());
    }

    /// The public template functions are the renderer's single-stage calls:
    /// the text they return is the text the skeleton of that kind launches
    /// (its memo entry is rendered from the same one-stage group).
    #[test]
    fn public_templates_are_the_single_stage_renderings() {
        type Template = fn(&UdfInfo) -> Result<String>;
        let unary = UdfInfo::analyze("float f(float x, float s) { return x * s; }", 1).unwrap();
        let index = UdfInfo::analyze("int f(int i, int w) { return i % w; }", 1).unwrap();
        let binary = UdfInfo::analyze(SAXPY, 2).unwrap();
        let op = UdfInfo::analyze(ADD, 2).unwrap();
        let cases: [(Template, StageKind, bool, &UdfInfo, &[&str]); 7] = [
            (map_kernel, StageKind::Map, false, &unary, &[MAP_KERNEL]),
            (
                map_index_kernel,
                StageKind::IndexMap,
                false,
                &index,
                &[MAP_INDEX_KERNEL],
            ),
            (
                map_overlap_kernel,
                StageKind::MapOverlap,
                false,
                &unary,
                &[MAP_OVERLAP_KERNEL],
            ),
            (zip_kernel, StageKind::Zip, false, &binary, &[ZIP_KERNEL]),
            (
                reduce_kernel,
                StageKind::Reduce,
                false,
                &op,
                &[REDUCE_KERNEL],
            ),
            (
                packed_reduce_kernel,
                StageKind::Reduce,
                true,
                &op,
                &[PACKED_REDUCE_KERNEL],
            ),
            (
                scan_kernels,
                StageKind::Scan,
                false,
                &op,
                &[SCAN_KERNEL, SCAN_OFFSET_KERNEL],
            ),
        ];
        for (template, kind, packed, udf, names) in cases {
            let group = render_group(&[(kind, udf)], packed).unwrap();
            assert_eq!(template(udf).unwrap(), group.source, "{kind:?}");
            // A lone stage's UDF is merged as written.
            assert!(group.source.starts_with(&udf.source), "{kind:?}");
            assert!(group.collisions.is_empty());
            assert_eq!(
                [Some(group.kernel), group.offset_kernel][..names.len()],
                names.iter().map(|n| Some(*n)).collect::<Vec<_>>()[..]
            );
            let program = skelcl_kernel::Program::build(&group.source).unwrap();
            for name in names {
                assert!(program.kernel(name).is_ok(), "{kind:?}: {name}");
                let decl = format!("__kernel void {name}(");
                assert_eq!(group.source.matches(&decl).count(), 1, "{kind:?}: {name}");
            }
        }
    }

    #[test]
    fn map_rejects_binary_udf() {
        let info = UdfInfo::analyze(ADD, 2).unwrap();
        assert!(map_kernel(&info).is_err());
        let unary = UdfInfo::analyze("float g(float x) { return -x; }", 1).unwrap();
        assert!(zip_kernel(&unary).is_err());
    }
}
