//! Buffer handles: lightweight, cloneable references to device allocations.

use skelcl_kernel::interp::BufferView;
use skelcl_kernel::types::ScalarType;

use crate::device::{BufferData, DeviceId};
use crate::pod::Pod;

/// Element kind stored in a buffer, used to validate bindings of DSL kernels
/// (which only understand the scalar types of the kernel language). Native
/// kernels may use any [`crate::pod::Pod`] element type (`Opaque`).
///
/// This is the one table between Rust element types, buffer kinds and the
/// kernel language's scalar types: [`DataKind::of`], [`DataKind::scalar_type`]
/// and [`DataKind::view`] are where a scalar type is added or removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataKind {
    /// 32-bit float elements.
    F32,
    /// 64-bit float elements.
    F64,
    /// 32-bit signed integer elements.
    I32,
    /// 32-bit unsigned integer elements.
    U32,
    /// Any other Pod element type (size recorded for transfers).
    Opaque {
        /// Size of one element in bytes.
        elem_size: usize,
    },
}

impl DataKind {
    /// The kind of buffers holding `T` elements.
    pub fn of<T: Pod>() -> DataKind {
        use std::any::TypeId;
        let t = TypeId::of::<T>();
        if t == TypeId::of::<f32>() {
            DataKind::F32
        } else if t == TypeId::of::<f64>() {
            DataKind::F64
        } else if t == TypeId::of::<i32>() {
            DataKind::I32
        } else if t == TypeId::of::<u32>() {
            DataKind::U32
        } else {
            DataKind::Opaque {
                elem_size: std::mem::size_of::<T>(),
            }
        }
    }

    /// The kernel-language type of the elements, if they have one.
    pub fn scalar_type(self) -> Option<ScalarType> {
        match self {
            DataKind::F32 => Some(ScalarType::Float),
            DataKind::F64 => Some(ScalarType::Double),
            DataKind::I32 => Some(ScalarType::Int),
            DataKind::U32 => Some(ScalarType::Uint),
            DataKind::Opaque { .. } => None,
        }
    }

    /// The typed view a kernel-language engine takes of `data`, storage of a
    /// buffer of this kind, from element `first` on (the kernel's index 0);
    /// `None` for opaque elements.
    pub fn view(self, data: &mut BufferData, first: usize) -> Option<BufferView<'_>> {
        match self {
            DataKind::F32 => Some(BufferView::F32(&mut data.as_slice_mut()[first..])),
            DataKind::F64 => Some(BufferView::F64(&mut data.as_slice_mut()[first..])),
            DataKind::I32 => Some(BufferView::I32(&mut data.as_slice_mut()[first..])),
            DataKind::U32 => Some(BufferView::U32(&mut data.as_slice_mut()[first..])),
            DataKind::Opaque { .. } => None,
        }
    }

    /// Size of one element in bytes.
    pub fn elem_size(self) -> usize {
        match self {
            DataKind::F32 | DataKind::I32 | DataKind::U32 => 4,
            DataKind::F64 => 8,
            DataKind::Opaque { elem_size } => elem_size,
        }
    }
}

/// A handle to a buffer allocation on one simulated device.
///
/// The handle itself carries no data; it names an allocation in the owning
/// device's storage, like a `cl_mem` object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Buffer {
    id: u64,
    device: DeviceId,
    len: usize,
    kind: DataKind,
}

impl Buffer {
    /// Create a handle (used by [`crate::device::Device::create_buffer`]).
    pub(crate) fn new(id: u64, device: DeviceId, len: usize, kind: DataKind) -> Self {
        Buffer {
            id,
            device,
            len,
            kind,
        }
    }

    /// Unique id of the allocation on its device.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Index of the owning device.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element kind.
    pub fn kind(&self) -> DataKind {
        self.kind
    }

    /// Total size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.len * self.kind.elem_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elem_sizes() {
        assert_eq!(DataKind::F32.elem_size(), 4);
        assert_eq!(DataKind::F64.elem_size(), 8);
        assert_eq!(DataKind::Opaque { elem_size: 24 }.elem_size(), 24);
    }

    #[test]
    fn the_scalar_table_agrees_with_itself() {
        let kinds = [
            (
                DataKind::of::<f32>(),
                DataKind::F32,
                Some(ScalarType::Float),
            ),
            (
                DataKind::of::<f64>(),
                DataKind::F64,
                Some(ScalarType::Double),
            ),
            (DataKind::of::<i32>(), DataKind::I32, Some(ScalarType::Int)),
            (DataKind::of::<u32>(), DataKind::U32, Some(ScalarType::Uint)),
            (
                DataKind::of::<[f32; 4]>(),
                DataKind::Opaque { elem_size: 16 },
                None,
            ),
        ];
        for (of, kind, scalar) in kinds {
            assert_eq!(of, kind);
            assert_eq!(kind.scalar_type(), scalar);
            let mut data = BufferData::new(2 * kind.elem_size());
            let view = kind.view(&mut data, 0);
            assert_eq!(view.as_ref().map(BufferView::scalar_type), scalar);
            assert_eq!(view.map_or(2, |v| v.len()), 2);
            assert_eq!(kind.view(&mut data, 1).map_or(1, |v| v.len()), 1);
            if let Some(ty) = scalar {
                assert_eq!(ty.size_bytes(), kind.elem_size());
            }
        }
    }

    #[test]
    fn handle_accessors() {
        let b = Buffer::new(7, 1, 100, DataKind::F32);
        assert_eq!(b.id(), 7);
        assert_eq!(b.device(), 1);
        assert_eq!(b.len(), 100);
        assert!(!b.is_empty());
        assert_eq!(b.kind(), DataKind::F32);
        assert_eq!(b.len_bytes(), 400);
    }
}
