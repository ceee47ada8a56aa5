//! Buffer handles: lightweight, cloneable references to device allocations.

use crate::device::DeviceId;

/// Element kind stored in a buffer, used to validate bindings of DSL kernels
/// (which only understand the scalar types of the kernel language). Native
/// kernels may use any [`crate::pod::Pod`] element type (`Opaque`).
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
