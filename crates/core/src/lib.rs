//! # SkelCL-rs — high-level multi-GPU skeleton programming
//!
//! A Rust reproduction of **SkelCL** as described in *"Towards High-Level
//! Programming of Multi-GPU Systems Using the SkelCL Library"* (Steuwer,
//! Kegel, Gorlatch — IPDPSW 2012). The library provides
//!
//! * five **algorithmic skeletons** — [`Map`], [`Zip`], [`Reduce`],
//!   [`Scan`] and the 2-D stencil [`MapOverlap`] — customised with
//!   user-defined functions passed either as plain source strings (compiled
//!   at runtime, as in the paper) or as native Rust closures,
//! * one **uniform execution API**: every skeleton implements the
//!   [`Skeleton`] trait and is invoked through the fluent [`Launch`] builder
//!   (`sk.run(&input).args(...).devices(...).scheduler(...).exec()`), and
//!   every call runs through one call path — prepare → kernel → launch →
//!   wrap, one attempt under replay-based fault recovery,
//! * one **unified container layer** ([`container`]): a single shared
//!   coherence/distribution core behind every container, with the
//!   [`Container`] trait as the uniform launch interface — `Map`, `Zip` and
//!   `Reduce` execute over a [`Vector`] or element-wise over a [`Matrix`]
//!   through the same code path and the same generated kernels,
//! * an abstract [`Vector`] data type with implicit, lazy host ↔ device
//!   transfers and a **fluent pipeline API**
//!   (`v.map(&f)?.zip(&w, &g)?.reduce(&h)?`),
//! * [`Distribution`]s (`single`, `block`, `copy`) describing how a vector's
//!   elements or a [`Matrix`]'s rows are partitioned across multiple GPUs,
//!   with implicit redistribution; a stencil input's row blocks carry halo
//!   rows whose between-sweep refresh exchanges only those rows (see
//!   [`MapOverlap`]),
//! * the **additional arguments** mechanism — the open [`IntoArg`] trait and
//!   the [`args!`] macro forward extra scalars and vectors of *any* element
//!   type to the user-defined function,
//! * a static **scheduler** with performance prediction for heterogeneous
//!   devices (Section V of the paper), attachable to any launch; it predicts
//!   with the prices the simulator charges ([`oclsim::ApiModel`]).
//!
//! The GPUs themselves are simulated by the [`oclsim`] crate: kernels execute
//! for real on the host (results are exact), while timing is accounted in
//! virtual time against profiles of the paper's evaluation hardware (NVIDIA
//! Tesla S1070, Intel Xeon E5520).
//!
//! ## Quickstart: SAXPY (Listing 1 of the paper)
//!
//! ```
//! use skelcl::prelude::*;
//!
//! // Initialise SkelCL on two (simulated) GPUs.
//! let rt = skelcl::init_gpus(2);
//!
//! // Y <- a*X + Y as a zip skeleton; `a` is an additional argument.
//! let saxpy = Zip::<f32, f32, f32>::from_source(
//!     "float func(float x, float y, float a) { return a * x + y; }",
//! );
//!
//! let x = Vector::from_vec(&rt, (0..1024).map(|i| i as f32).collect());
//! let y = Vector::from_vec(&rt, vec![1.0f32; 1024]);
//! let y = saxpy.run(&x, &y).arg(2.5f32).exec().unwrap();
//!
//! assert_eq!(y.to_vec().unwrap()[4], 2.5 * 4.0 + 1.0);
//! ```
//!
//! ## Fluent pipelines
//!
//! Chained skeletons keep their data on the devices (lazy copying, Section
//! II-B of the paper); the fluent vector API makes the chaining explicit:
//!
//! ```
//! use skelcl::prelude::*;
//!
//! let rt = skelcl::init_gpus(4);
//! let square = Map::<f32, f32>::from_source("float func(float x) { return x * x; }");
//! let mul = Zip::<f32, f32, f32>::from_source("float func(float a, float b) { return a * b; }");
//! let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
//!
//! let v = Vector::from_vec(&rt, (1..=10).map(|i| i as f32).collect());
//! let w = Vector::from_vec(&rt, vec![2.0f32; 10]);
//!
//! // sum(square(v) * w), entirely on the devices.
//! let total = v.map(&square).unwrap().zip(&w, &mul).unwrap().reduce(&sum).unwrap();
//! assert_eq!(total, 770.0);
//! ```
//!
//! Skeleton-specific terminal forms replace the former ad-hoc call variants:
//! `reduce.run(&v).scalar()` / `.into_vector()` /
//! `.scheduler(&s).chunks(8).scalar_with_plan()`, `scan.run(&v).trace()`,
//! and `map.run(&v).run_into(&out)` for output-buffer reuse in steady-state
//! pipelines.

pub mod args;
pub mod container;
pub mod distribution;
pub mod error;
pub mod fusion;
pub mod kernelgen;
pub mod matrix;
pub mod plan;
pub(crate) mod recovery;
pub mod runtime;
pub mod scheduler;
pub mod skeletons;
pub mod vector;

pub use args::{ArgAccess, ArgItem, Args, IntoArg, VectorArg};
pub use container::{Container, DynContainer, EdgePolicy, HaloSegment, PartSegment, Residence};
pub use distribution::{Boundary, Combine, Distribution, Partition, RowPartition};
pub use error::{Result, SkelError};
pub use fusion::FusionPolicy;
pub use matrix::Matrix;
pub use oclsim::Tier;
pub use plan::{
    CoalesceSignature, MatPlan, MatrixOut, PackedLaunch, Plan, PlanKind, PlanScalar, PlanVec,
    ScalarOut, VectorOut,
};
pub use runtime::{init_gpus, init_profiles, DeviceSelection, DeviceTrace, ExecTrace, SkelCl};
pub use scheduler::StaticScheduler;
pub use skeletons::{
    reduce_partials, DeviceScalar, IndexLaunch, IndexRange, Launch, LaunchConfig, Map, MapOverlap,
    Reduce, ReducePlan, Scan, ScanTrace, Skeleton, Zip,
};
pub use vector::Vector;

/// Re-export of the simulated OpenCL runtime for applications that mix
/// skeleton code with low-level code (the paper stresses that SkelCL still
/// exposes all features of the underlying OpenCL standard).
pub use oclsim;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::args;
    pub use crate::args::{ArgAccess, Args, IntoArg};
    pub use crate::container::{Container, DynContainer};
    pub use crate::distribution::{Boundary, Combine, Distribution};
    pub use crate::error::{Result, SkelError};
    pub use crate::fusion::FusionPolicy;
    pub use crate::matrix::Matrix;
    pub use crate::plan::{MatPlan, PackedLaunch, Plan, PlanScalar, PlanVec};
    pub use crate::runtime::{DeviceSelection, SkelCl};
    pub use crate::skeletons::{Launch, Map, MapOverlap, Reduce, Scan, Skeleton, Zip};
    pub use crate::vector::Vector;
    pub use oclsim::CostHint;
    pub use oclsim::Tier;
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn crate_level_quickstart_pipeline() {
        let rt = crate::init_gpus(2);
        let square = Map::<f32, f32>::from_source("float func(float x) { return x * x; }");
        let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
        let v = Vector::from_vec(&rt, (1..=10).map(|i| i as f32).collect());
        let total = v.map(&square).unwrap().reduce(&sum).unwrap();
        assert_eq!(total, 385.0);
        assert!(rt.skeleton_calls() >= 2);
    }

    #[test]
    fn launch_builder_round_trip_for_all_skeletons() {
        let rt = crate::init_gpus(3);
        let v = Vector::from_vec(&rt, (1..=9).map(|i| i as f32).collect());

        let map = Map::<f32, f32>::from_source("float func(float x) { return 2.0f * x; }");
        let doubled = map.run(&v).into_vector().unwrap();

        let zip =
            Zip::<f32, f32, f32>::from_source("float func(float a, float b) { return a - b; }");
        let diff = zip.run(&doubled, &v).exec().unwrap();
        assert_eq!(diff.to_vec().unwrap(), v.to_vec().unwrap());

        let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
        assert_eq!(sum.run(&diff).scalar().unwrap(), 45.0);

        let scan = Scan::<f32>::from_source("float func(float a, float b) { return a + b; }");
        let (prefix, trace) = scan.run(&diff).trace().unwrap();
        assert_eq!(prefix.to_vec().unwrap().last().copied(), Some(45.0));
        assert_eq!(trace.local_scans.len(), 3);
    }
}
