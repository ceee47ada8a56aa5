//! The zip skeleton: `zip(⊕)([x1..xn],[y1..yn]) = [x1⊕y1 .. xn⊕yn]`.
//!
//! Multi-GPU execution (paper, Section III-C): both input containers must
//! have the same distribution (and, for single distribution, live on the
//! same device); if not, SkelCL automatically changes both to block
//! distribution. The output adopts the inputs' shape and distribution.
//!
//! Like [`Map`](crate::skeletons::Map), the skeleton is container-generic:
//! one `Zip<A, B, O>` instance pairs two [`Vector`]s or two equal-shaped
//! row-block [`crate::matrix::Matrix`]es through the same [`Container`]
//! launch path and the same generated kernel.

use std::sync::Arc;

use oclsim::{CostHint, Pod};

use crate::args::ArgAccess;
use crate::container::Container;
use crate::error::Result;
use crate::kernelgen::{self, StageKind};
use crate::matrix::Matrix;
use crate::plan::{run_elementwise, Stage};
use crate::skeletons::udf::closure_kernel;
use crate::skeletons::{Launch, LaunchConfig, Skeleton, Udf};
use crate::vector::Vector;

/// The closure form of a zip's user function.
type ZipFn<A, B, O> = dyn Fn(&A, &B, &mut ArgAccess<'_, '_>) -> O + Send + Sync;

/// The zip skeleton.
///
/// ```
/// use skelcl::prelude::*;
///
/// let rt = skelcl::init_gpus(2);
/// // The SAXPY computation of Listing 1 in the paper: Y <- a*X + Y, with the
/// // scalar `a` passed as an additional argument.
/// let saxpy = Zip::<f32, f32, f32>::from_source(
///     "float func(float x, float y, float a) { return a * x + y; }",
/// );
/// let x = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0]);
/// let y = Vector::from_vec(&rt, vec![10.0f32, 10.0, 10.0]);
/// let y = saxpy.run(&x, &y).arg(2.0f32).exec().unwrap();
/// assert_eq!(y.to_vec().unwrap(), vec![12.0, 14.0, 16.0]);
/// ```
pub struct Zip<A: Pod, B: Pod, O: Pod> {
    pub(super) udf: Udf<ZipFn<A, B, O>>,
}

impl<A: Pod, B: Pod, O: Pod> Zip<A, B, O> {
    /// Customise the skeleton with a user-defined function given as source
    /// code. The UDF is the function named `func` (or the only function);
    /// its first two parameters receive the paired elements, further
    /// (scalar) parameters receive the additional arguments.
    pub fn from_source(source: &str) -> Zip<A, B, O> {
        Zip {
            udf: Udf::source(source, 2),
        }
    }

    /// Customise the skeleton with a native Rust closure.
    pub fn new<F>(f: F) -> Zip<A, B, O>
    where
        F: Fn(&A, &B, &mut ArgAccess<'_, '_>) -> O + Send + Sync + 'static,
    {
        Zip {
            udf: Udf::closure(Arc::new(f), CostHint::DEFAULT),
        }
    }

    /// Begin a launch of this skeleton over the element pairs of `left` and
    /// `right` — two vectors or two equal-shaped matrices:
    /// `saxpy.run(&x, &y).arg(a).exec()?`.
    pub fn run<'a, CA: Container<A>>(
        &'a self,
        left: &CA,
        right: &CA::Rebound<B>,
    ) -> Launch<'a, Self, (CA, CA::Rebound<B>)> {
        Launch::new(self, (left.clone(), right.clone()))
    }

    /// This skeleton's user function as a lazy plan stage (source UDFs only).
    pub(crate) fn plan_udf(&self) -> Result<Arc<kernelgen::UdfInfo>> {
        self.udf.plan_stage("zip")
    }

    /// The zip kernel of a Rust closure: arguments
    /// `[left, right, out, n, extra…]`.
    fn closure_kernel(
        f: Arc<ZipFn<A, B, O>>,
        cost: CostHint,
    ) -> (oclsim::Kernel, Option<oclsim::Kernel>) {
        let kernel = closure_kernel::<O>("skelcl_zip_native", "zip", 2, cost, move |args| {
            let (left, right) = (args.input::<A>(0)?, args.input::<B>(1)?);
            let mut access = ArgAccess::new(args.extras);
            for i in 0..args.global_size {
                args.output[i] = f(&left[i], &right[i], &mut access);
            }
            Ok(())
        });
        (kernel, None)
    }

    /// The shared execution path behind [`Skeleton::execute`] and the
    /// `run_into` terminal form, generic over the input containers: shape
    /// check plus the paper's distribution unification (differing
    /// distributions are coerced to block on both sides), then the one call
    /// path as a one-stage group — on both containers, so a device loss
    /// re-partitions them with the same weights and the pair stays unified
    /// for the replay.
    fn execute_zip<CA: Container<A>>(
        &self,
        left: &CA,
        right: &CA::Rebound<B>,
        cfg: &LaunchConfig<'_>,
        reuse: Option<&CA::Rebound<O>>,
    ) -> Result<CA::Rebound<O>> {
        let stage = self.udf.stage::<O>(StageKind::Zip, Self::closure_kernel)?;
        let stage = Stage {
            side: Some((0, 1)),
            ..stage
        };
        let coerce = || left.unify_with(right);
        run_elementwise(&stage, &[left, right], left, cfg, &coerce, reuse)
    }
}

impl<A: Pod, B: Pod, O: Pod, CA: Container<A>> Skeleton<(CA, CA::Rebound<B>)> for Zip<A, B, O> {
    type Output = CA::Rebound<O>;

    fn name(&self) -> &'static str {
        "zip"
    }

    fn execute(
        &self,
        input: &(CA, CA::Rebound<B>),
        cfg: &LaunchConfig<'_>,
    ) -> Result<CA::Rebound<O>> {
        self.execute_zip(&input.0, &input.1, cfg, None)
    }
}

impl<A: Pod, B: Pod, O: Pod, CA: Container<A>> Launch<'_, Zip<A, B, O>, (CA, CA::Rebound<B>)> {
    /// Execute, writing the result into `out` and reusing `out`'s device
    /// buffers instead of allocating fresh ones.
    pub fn run_into(self, out: &CA::Rebound<O>) -> Result<()> {
        self.skeleton
            .execute_zip(&self.input.0, &self.input.1, &self.cfg, Some(out))?;
        Ok(())
    }
}

impl<A: Pod, B: Pod, O: Pod> Launch<'_, Zip<A, B, O>, (Vector<A>, Vector<B>)> {
    /// Execute and return the output vector (identity terminal form).
    pub fn into_vector(self) -> Result<Vector<O>> {
        self.exec()
    }
}

impl<A: Pod, B: Pod, O: Pod> Launch<'_, Zip<A, B, O>, (Matrix<A>, Matrix<B>)> {
    /// Execute and return the output matrix (identity terminal form).
    pub fn into_matrix(self) -> Result<Matrix<O>> {
        self.exec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use crate::error::SkelError;
    use crate::runtime::init_gpus;

    const SAXPY: &str = "float func(float x, float y, float a) { return a * x + y; }";

    #[test]
    fn saxpy_matches_listing_1() {
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let saxpy = Zip::<f32, f32, f32>::from_source(SAXPY);
            let n = 64;
            let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let y: Vec<f32> = (0..n).map(|i| (i * 2) as f32).collect();
            let a = 3.0f32;
            let xv = Vector::from_vec(&rt, x.clone());
            let yv = Vector::from_vec(&rt, y.clone());
            let out = saxpy.run(&xv, &yv).arg(a).exec().unwrap();
            let expected: Vec<f32> = x.iter().zip(&y).map(|(x, y)| a * x + y).collect();
            assert_eq!(out.to_vec().unwrap(), expected, "devices = {devices}");
        }
    }

    #[test]
    fn native_zip_without_extra_args() {
        let rt = init_gpus(2);
        let add = Zip::<f32, f32, f32>::new(|a, b, _| a + b);
        let x = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0]);
        let y = Vector::from_vec(&rt, vec![0.5f32, 0.5, 0.5]);
        let out = x.zip(&y, &add).unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![1.5, 2.5, 3.5]);
    }

    #[test]
    fn zip_with_mixed_element_types() {
        let rt = init_gpus(2);
        let pick = Zip::<f32, i32, f32>::from_source(
            "float func(float x, int keep) { return keep > 0 ? x : 0.0f; }",
        );
        let x = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0, 4.0]);
        let keep = Vector::from_vec(&rt, vec![1i32, 0, 1, 0]);
        let out = x.zip(&keep, &pick).unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![1.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let rt = init_gpus(1);
        let add = Zip::<f32, f32, f32>::new(|a, b, _| a + b);
        let x = Vector::from_vec(&rt, vec![1.0f32, 2.0]);
        let y = Vector::from_vec(&rt, vec![1.0f32]);
        assert!(matches!(
            add.run(&x, &y).exec(),
            Err(SkelError::LengthMismatch { left: 2, right: 1 })
        ));
    }

    #[test]
    fn mismatched_distributions_are_coerced_to_block() {
        let rt = init_gpus(2);
        let add = Zip::<f32, f32, f32>::new(|a, b, _| a + b);
        let x = Vector::from_vec(&rt, vec![1.0f32; 8]);
        let y = Vector::from_vec(&rt, vec![2.0f32; 8]);
        x.set_distribution(Distribution::Single(0)).unwrap();
        y.set_distribution(Distribution::Copy).unwrap();
        let out = add.run(&x, &y).exec().unwrap();
        assert_eq!(x.distribution(), Distribution::Block);
        assert_eq!(y.distribution(), Distribution::Block);
        assert_eq!(out.distribution(), Distribution::Block);
        assert_eq!(out.to_vec().unwrap(), vec![3.0f32; 8]);
    }

    #[test]
    fn matching_single_distributions_stay_single() {
        let rt = init_gpus(2);
        let add = Zip::<f32, f32, f32>::new(|a, b, _| a + b);
        let x = Vector::from_vec(&rt, vec![1.0f32; 4]);
        let y = Vector::from_vec(&rt, vec![2.0f32; 4]);
        x.set_distribution(Distribution::Single(1)).unwrap();
        y.set_distribution(Distribution::Single(1)).unwrap();
        let out = add.run(&x, &y).exec().unwrap();
        assert_eq!(out.distribution(), Distribution::Single(1));
        assert_eq!(out.to_vec().unwrap(), vec![3.0f32; 4]);
    }

    #[test]
    fn runtime_mismatch_is_rejected() {
        let rt1 = init_gpus(1);
        let rt2 = init_gpus(1);
        let add = Zip::<f32, f32, f32>::new(|a, b, _| a + b);
        let x = Vector::from_vec(&rt1, vec![1.0f32]);
        let y = Vector::from_vec(&rt2, vec![1.0f32]);
        assert!(matches!(
            add.run(&x, &y).exec(),
            Err(SkelError::RuntimeMismatch)
        ));
    }

    #[test]
    fn update_reconstruction_image_like_listing_3() {
        // Step 2 of the OSEM algorithm: f[j] *= c[j] if c[j] > 0 — the
        // zipUpdate skeleton of Listing 3.
        let rt = init_gpus(2);
        let zip_update = Zip::<f32, f32, f32>::from_source(
            "float func(float f, float c) { if (c > 0.0f) { return f * c; } return f; }",
        );
        let f = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0, 4.0]);
        let c = Vector::from_vec(&rt, vec![2.0f32, 0.0, 0.5, -1.0]);
        let f2 = f.zip(&c, &zip_update).unwrap();
        assert_eq!(f2.to_vec().unwrap(), vec![2.0, 2.0, 1.5, 4.0]);
    }

    #[test]
    fn zip_run_into_reuses_buffers() {
        let rt = init_gpus(2);
        let add = Zip::<f32, f32, f32>::new(|a, b, _| a + b);
        let x = Vector::from_vec(&rt, vec![1.0f32; 6]);
        let y = Vector::from_vec(&rt, vec![2.0f32; 6]);
        let out = Vector::from_vec(&rt, vec![0.0f32; 6]);
        out.copy_data_to_devices().unwrap();
        add.run(&x, &y).run_into(&out).unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![3.0f32; 6]);
    }

    #[test]
    fn zip_over_matrices_matches_the_vector_zip() {
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let saxpy = Zip::<f32, f32, f32>::from_source(SAXPY);
            let x: Vec<f32> = (0..15).map(|i| i as f32 * 0.5).collect();
            let y: Vec<f32> = (0..15).map(|i| (i * 3) as f32).collect();
            let mx = Matrix::from_vec(&rt, 5, 3, x.clone()).unwrap();
            let my = Matrix::from_vec(&rt, 5, 3, y.clone()).unwrap();
            let vx = Vector::from_vec(&rt, x);
            let vy = Vector::from_vec(&rt, y);
            let mo = saxpy.run(&mx, &my).arg(2.0f32).exec().unwrap();
            let vo = saxpy.run(&vx, &vy).arg(2.0f32).exec().unwrap();
            assert_eq!(
                mo.to_vec().unwrap(),
                vo.to_vec().unwrap(),
                "devices = {devices}"
            );
            assert_eq!(mo.rows(), 5);
            assert_eq!(mo.cols(), 3);
        }
    }

    #[test]
    fn zip_rejects_matrices_of_different_shapes() {
        let rt = init_gpus(2);
        let add = Zip::<f32, f32, f32>::new(|a, b, _| a + b);
        // Same element count, different shapes: must be rejected.
        let a = Matrix::filled(&rt, 2, 3, 1.0f32);
        let b = Matrix::filled(&rt, 3, 2, 1.0f32);
        assert!(matches!(
            add.run(&a, &b).exec(),
            Err(SkelError::Distribution(_))
        ));
    }

    #[test]
    fn zip_unifies_matrix_distributions_to_row_block() {
        let rt = init_gpus(2);
        let add = Zip::<f32, f32, f32>::new(|a, b, _| a + b);
        let a = Matrix::filled(&rt, 4, 2, 1.0f32);
        let b = Matrix::filled(&rt, 4, 2, 2.0f32);
        a.set_distribution(Distribution::Single(0)).unwrap();
        b.set_distribution(Distribution::Copy).unwrap();
        let out = add.run(&a, &b).exec().unwrap();
        assert_eq!(a.distribution(), Distribution::Block);
        assert_eq!(b.distribution(), Distribution::Block);
        assert_eq!(out.to_vec().unwrap(), vec![3.0f32; 8]);
    }
}
