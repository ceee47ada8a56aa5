//! Additional arguments for skeletons (paper, Section II-A).
//!
//! "The novelty of SkelCL skeletons is that they can accept additional
//! arguments which are passed to the skeleton's user-defined function."
//!
//! An [`Args`] value collects the additional arguments of one skeleton call:
//! scalars and whole SkelCL vectors. Scalars are appended to the generated
//! kernel's parameter list (source-string UDFs) or made available through
//! [`ArgAccess`] (native closure UDFs). Vector arguments are passed as device
//! buffers according to *their own* distribution — the paper notes that no
//! meaningful default distribution exists for them, so the user must set it
//! explicitly.
//!
//! Arguments are built through the open [`IntoArg`] trait, so any
//! [`DeviceScalar`](crate::skeletons::DeviceScalar) scalar and any
//! `Vector<T: Pod>` (including `Vector<f64>` and application element types
//! such as the OSEM `Event`) can be appended with one uniform method:
//!
//! ```
//! use skelcl::prelude::*;
//!
//! let rt = skelcl::init_gpus(1);
//! let img = Vector::from_vec(&rt, vec![1.0f32; 8]);
//! let args = Args::new().arg(2.5f32).arg(&img).arg(7i32);
//! assert_eq!(args.scalar_count(), 2);
//! assert_eq!(args.vector_count(), 1);
//!
//! // Or equivalently with the `args![]` macro:
//! let args = skelcl::args![2.5f32, &img, 7i32];
//! assert_eq!(args.len(), 3);
//! ```

use std::sync::Arc;

use oclsim::{ArgView, Pod, Value};

use crate::container::DynContainer;
use crate::vector::Vector;

/// A type-erased vector additional argument. Holds a cheap handle to the
/// underlying [`Vector`] behind the object-safe container view; the element
/// type is erased so [`Args`] can carry vectors of any `Pod` element — `f32`,
/// `f64`, `i32`, `u32` or application structs.
#[derive(Clone)]
pub struct VectorArg {
    inner: Arc<dyn DynContainer>,
    /// Element type name (for diagnostics).
    elem: &'static str,
}

impl VectorArg {
    /// Wrap a vector handle.
    pub fn new<T: Pod>(vector: Vector<T>) -> VectorArg {
        VectorArg {
            inner: Arc::new(vector),
            elem: std::any::type_name::<T>(),
        }
    }

    /// The vector as a launch sees it: uploaded with the call's inputs and,
    /// like them, distrusted and refreshed when the call fails.
    pub(crate) fn container(&self) -> &dyn DynContainer {
        &*self.inner
    }
}

impl std::fmt::Debug for VectorArg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VectorArg")
            .field("elem", &self.elem)
            .field("len", &self.inner.elem_count())
            .finish()
    }
}

/// One additional argument of a skeleton call: a scalar kernel value or a
/// type-erased vector.
#[derive(Debug, Clone)]
pub enum ArgItem {
    /// A scalar forwarded to the user function.
    Scalar(Value),
    /// A whole SkelCL vector, passed as per-device buffers according to its
    /// own distribution.
    Vector(VectorArg),
}

impl ArgItem {
    /// Whether the argument is a scalar.
    pub fn is_scalar(&self) -> bool {
        matches!(self, ArgItem::Scalar(_))
    }

    /// The scalar value, if the argument is a scalar.
    pub fn scalar_value(&self) -> Option<Value> {
        match self {
            ArgItem::Scalar(v) => Some(*v),
            ArgItem::Vector(_) => None,
        }
    }
}

/// Conversion into one additional argument. Implemented for every
/// [`DeviceScalar`](crate::skeletons::DeviceScalar) scalar type and for
/// vectors (by reference or by handle) of any `Pod` element type — this is
/// the open-ended replacement for the former closed `with_f32` /
/// `with_vec_f32` method family, and is what makes `Vector<f64>` additional
/// arguments possible.
pub trait IntoArg {
    /// Convert `self` into an [`ArgItem`].
    fn into_arg(self) -> ArgItem;
}

impl IntoArg for f32 {
    fn into_arg(self) -> ArgItem {
        ArgItem::Scalar(Value::Float(self))
    }
}

impl IntoArg for f64 {
    fn into_arg(self) -> ArgItem {
        ArgItem::Scalar(Value::Double(self))
    }
}

impl IntoArg for i32 {
    fn into_arg(self) -> ArgItem {
        ArgItem::Scalar(Value::Int(self))
    }
}

impl IntoArg for u32 {
    fn into_arg(self) -> ArgItem {
        ArgItem::Scalar(Value::Uint(self))
    }
}

impl IntoArg for Value {
    fn into_arg(self) -> ArgItem {
        ArgItem::Scalar(self)
    }
}

impl<T: Pod> IntoArg for Vector<T> {
    fn into_arg(self) -> ArgItem {
        ArgItem::Vector(VectorArg::new(self))
    }
}

impl<T: Pod> IntoArg for &Vector<T> {
    fn into_arg(self) -> ArgItem {
        ArgItem::Vector(VectorArg::new(self.clone()))
    }
}

impl IntoArg for ArgItem {
    fn into_arg(self) -> ArgItem {
        self
    }
}

/// Build an [`Args`] list from a comma-separated sequence of values
/// implementing [`IntoArg`]:
///
/// ```
/// use skelcl::prelude::*;
///
/// let rt = skelcl::init_gpus(1);
/// let lut = Vector::from_vec(&rt, vec![1i32, 2, 3]);
/// let args = skelcl::args![2.5f32, 4u32, &lut, 1.5f64];
/// assert_eq!(args.len(), 4);
/// assert_eq!(args.vector_count(), 1);
/// ```
#[macro_export]
macro_rules! args {
    () => { $crate::args::Args::new() };
    ($($value:expr),+ $(,)?) => {
        $crate::args::Args::new()$(.arg($value))+
    };
}

/// The additional arguments of one skeleton call, in user-specified order.
#[derive(Debug, Clone, Default)]
pub struct Args {
    items: Vec<ArgItem>,
}

impl Args {
    /// No additional arguments.
    pub fn none() -> Args {
        Args::default()
    }

    /// Start building an argument list.
    pub fn new() -> Args {
        Args::default()
    }

    /// Append any value implementing [`IntoArg`]: a scalar of any
    /// [`DeviceScalar`](crate::skeletons::DeviceScalar) type or a vector of
    /// any `Pod` element type.
    pub fn arg(mut self, value: impl IntoArg) -> Args {
        self.items.push(value.into_arg());
        self
    }

    /// The arguments in order.
    pub fn items(&self) -> &[ArgItem] {
        &self.items
    }

    /// Number of additional arguments.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether there are no additional arguments.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of scalar arguments.
    pub fn scalar_count(&self) -> usize {
        self.items.iter().filter(|i| i.is_scalar()).count()
    }

    /// Number of vector arguments.
    pub fn vector_count(&self) -> usize {
        self.items.len() - self.scalar_count()
    }

    /// The vector arguments, in order, as the launch machinery sees them.
    pub(crate) fn vectors(&self) -> impl Iterator<Item = &dyn DynContainer> {
        self.items.iter().filter_map(|item| match item {
            ArgItem::Vector(v) => Some(v.container()),
            ArgItem::Scalar(_) => None,
        })
    }
}

/// Access to the additional arguments from inside a *native* user-defined
/// function. The accessor indices follow the order in which the arguments
/// were added to [`Args`].
///
/// Accessors panic with a descriptive message on index or type mismatches;
/// these are programming errors of the skeleton user, equivalent to an OpenCL
/// kernel reading the wrong argument slot.
pub struct ArgAccess<'v, 'a> {
    views: &'v mut [ArgView<'a>],
}

impl<'v, 'a> ArgAccess<'v, 'a> {
    /// Wrap the extra-argument views of a native kernel launch.
    pub(crate) fn new(views: &'v mut [ArgView<'a>]) -> Self {
        ArgAccess { views }
    }

    /// Number of additional arguments.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether there are no additional arguments.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    fn view(&self, index: usize) -> &ArgView<'a> {
        self.views
            .get(index)
            .unwrap_or_else(|| panic!("additional argument index {index} out of range"))
    }

    fn scalar(&self, index: usize) -> Value {
        self.view(index)
            .scalar()
            .unwrap_or_else(|| panic!("additional argument {index} is a vector, not a scalar"))
    }

    /// The scalar at `index` as `f32`.
    pub fn f32(&self, index: usize) -> f32 {
        self.scalar(index).as_f64() as f32
    }

    /// The scalar at `index` as `f64`.
    pub fn f64(&self, index: usize) -> f64 {
        self.scalar(index).as_f64()
    }

    /// The scalar at `index` as `i32`.
    pub fn i32(&self, index: usize) -> i32 {
        self.scalar(index).as_i64() as i32
    }

    /// The scalar at `index` as `u32`.
    pub fn u32(&self, index: usize) -> u32 {
        self.scalar(index).as_i64() as u32
    }

    /// The scalar at `index` as `usize` (panics if negative).
    pub fn usize(&self, index: usize) -> usize {
        let v = self.scalar(index).as_i64();
        usize::try_from(v)
            .unwrap_or_else(|_| panic!("additional argument {index} is negative ({v})"))
    }

    fn slice<T: Pod>(&self, index: usize, type_name: &str) -> &[T] {
        self.view(index)
            .as_slice::<T>()
            .unwrap_or_else(|| panic!("additional argument {index} is not an {type_name} vector"))
    }

    fn slice_mut<T: Pod>(&mut self, index: usize, type_name: &str) -> &mut [T] {
        self.views
            .get_mut(index)
            .unwrap_or_else(|| panic!("additional argument index {index} out of range"))
            .as_slice_mut::<T>()
            .unwrap_or_else(|| panic!("additional argument {index} is not an {type_name} vector"))
    }

    /// The vector argument at `index` as an immutable `f32` slice (this
    /// device's local copy or part, depending on the vector's distribution).
    pub fn slice_f32(&self, index: usize) -> &[f32] {
        self.slice(index, "f32")
    }

    /// The vector argument at `index` as an immutable `f64` slice.
    pub fn slice_f64(&self, index: usize) -> &[f64] {
        self.slice(index, "f64")
    }

    /// The vector argument at `index` as an immutable `i32` slice.
    pub fn slice_i32(&self, index: usize) -> &[i32] {
        self.slice(index, "i32")
    }

    /// The vector argument at `index` as an immutable `u32` slice.
    pub fn slice_u32(&self, index: usize) -> &[u32] {
        self.slice(index, "u32")
    }

    /// The vector argument at `index` as an immutable slice of an arbitrary
    /// `Pod` element type (e.g. an application struct).
    pub fn slice_of<T: Pod>(&self, index: usize) -> &[T] {
        self.slice(index, std::any::type_name::<T>())
    }

    /// The vector argument at `index` as a mutable `f32` slice. Writes go to
    /// this device's copy only; call
    /// [`Vector::mark_device_modified`](crate::vector::Vector::mark_device_modified)
    /// afterwards so the host copy is refreshed before the next CPU access
    /// (Listing 3, line 10 of the paper).
    pub fn slice_mut_f32(&mut self, index: usize) -> &mut [f32] {
        self.slice_mut(index, "f32")
    }

    /// The vector argument at `index` as a mutable `f64` slice.
    pub fn slice_mut_f64(&mut self, index: usize) -> &mut [f64] {
        self.slice_mut(index, "f64")
    }

    /// The vector argument at `index` as a mutable `i32` slice.
    pub fn slice_mut_i32(&mut self, index: usize) -> &mut [i32] {
        self.slice_mut(index, "i32")
    }

    /// The vector argument at `index` as a mutable `u32` slice.
    pub fn slice_mut_u32(&mut self, index: usize) -> &mut [u32] {
        self.slice_mut(index, "u32")
    }

    /// The vector argument at `index` as a mutable slice of an arbitrary
    /// `Pod` element type.
    pub fn slice_mut_of<T: Pod>(&mut self, index: usize) -> &mut [T] {
        self.slice_mut(index, std::any::type_name::<T>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::init_gpus;

    #[test]
    fn arg_builder_collects_items_in_order() {
        let args = Args::new().arg(1.5f32).arg(7i32).arg(3u32).arg(2.25f64);
        assert_eq!(args.len(), 4);
        assert_eq!(args.scalar_count(), 4);
        assert_eq!(args.vector_count(), 0);
        assert!(matches!(args.items()[0], ArgItem::Scalar(Value::Float(v)) if v == 1.5));
        assert!(matches!(args.items()[1], ArgItem::Scalar(Value::Int(7))));
        assert!(matches!(args.items()[2], ArgItem::Scalar(Value::Uint(3))));
        assert!(matches!(args.items()[3], ArgItem::Scalar(Value::Double(v)) if v == 2.25));
        assert!(Args::none().is_empty());
    }

    #[test]
    fn into_arg_accepts_every_vector_element_type() {
        let rt = init_gpus(1);
        let args = Args::new()
            .arg(Vector::from_vec(&rt, vec![1.0f32]))
            .arg(Vector::from_vec(&rt, vec![1.0f64]))
            .arg(Vector::from_vec(&rt, vec![1i32]))
            .arg(Vector::from_vec(&rt, vec![1u32]))
            .arg(Vector::from_vec(&rt, vec![2.0f64])); // by value too
        assert_eq!(args.vector_count(), 5);
        assert_eq!(args.scalar_count(), 0);
        // The f64 vector is representable — the former ArgItem enum had no
        // VecF64 variant at all.
        assert!(matches!(&args.items()[1], ArgItem::Vector(_)));
    }

    #[test]
    fn args_macro_mixes_scalars_and_vectors() {
        let rt = init_gpus(1);
        let lut = Vector::from_vec(&rt, vec![5i32; 4]);
        let args = crate::args![2.5f32, &lut, 7u32];
        assert_eq!(args.len(), 3);
        assert_eq!(args.scalar_count(), 2);
        assert_eq!(args.vector_count(), 1);
        assert!(crate::args![].is_empty());
    }

    #[test]
    fn scalar_values_convert() {
        assert_eq!(2.0f32.into_arg().scalar_value(), Some(Value::Float(2.0)));
        assert_eq!((-3i32).into_arg().scalar_value(), Some(Value::Int(-3)));
        assert!(0.0f32.into_arg().is_scalar());
        let rt = init_gpus(1);
        let v = Vector::from_vec(&rt, vec![1u32]);
        let item = (&v).into_arg();
        assert!(!item.is_scalar());
        assert_eq!(item.scalar_value(), None);
        let dbg = format!("{item:?}");
        assert!(dbg.contains("u32"), "{dbg}");
    }

    #[test]
    fn arg_access_scalars() {
        let mut views = vec![
            ArgView::Scalar(Value::Float(2.5)),
            ArgView::Scalar(Value::Int(9)),
            ArgView::Scalar(Value::Double(1.25)),
            ArgView::Scalar(Value::Uint(4)),
        ];
        let access = ArgAccess::new(&mut views);
        assert_eq!(access.len(), 4);
        assert_eq!(access.f32(0), 2.5);
        assert_eq!(access.i32(1), 9);
        assert_eq!(access.usize(1), 9);
        assert_eq!(access.f64(2), 1.25);
        assert_eq!(access.u32(3), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn arg_access_out_of_range_panics() {
        let mut views: Vec<ArgView<'_>> = vec![];
        let access = ArgAccess::new(&mut views);
        access.f32(0);
    }

    #[test]
    #[should_panic(expected = "is a vector, not a scalar")]
    fn arg_access_type_mismatch_panics() {
        let mut data = oclsim::BufferData::new(8);
        let mut views = vec![ArgView::Buffer(&mut data)];
        let access = ArgAccess::new(&mut views);
        access.f32(0);
    }

    #[test]
    fn arg_access_slices() {
        let mut data = oclsim::BufferData::new(12);
        data.as_slice_mut::<f32>().copy_from_slice(&[1.0, 2.0, 3.0]);
        let mut views = vec![ArgView::Buffer(&mut data), ArgView::Scalar(Value::Int(3))];
        let mut access = ArgAccess::new(&mut views);
        assert_eq!(access.slice_f32(0), &[1.0, 2.0, 3.0]);
        access.slice_mut_f32(0)[1] = 20.0;
        assert_eq!(access.slice_f32(0), &[1.0, 20.0, 3.0]);
    }

    #[test]
    fn arg_access_f64_slices() {
        let mut data = oclsim::BufferData::new(16);
        data.as_slice_mut::<f64>().copy_from_slice(&[1.5, -2.5]);
        let mut views = vec![ArgView::Buffer(&mut data)];
        let mut access = ArgAccess::new(&mut views);
        assert_eq!(access.slice_f64(0), &[1.5, -2.5]);
        access.slice_mut_f64(0)[0] = 9.0;
        assert_eq!(access.slice_of::<f64>(0), &[9.0, -2.5]);
    }
}
