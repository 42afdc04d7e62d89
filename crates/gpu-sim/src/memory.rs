//! Device buffers with synthetic addresses.
//!
//! Functionally a [`GlobalBuffer`] is just a `Vec<T>`; what it adds is a
//! stable, 256-byte-aligned synthetic *base address*, so kernels can hand
//! per-lane byte addresses to the coalescing model and the read-only cache
//! and get realistic transaction counts. Distinct buffers never share a
//! 128-byte line.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_BASE: AtomicU64 = AtomicU64::new(0x1000_0000);

/// Reserve a synthetic device address range of `bytes` without backing
/// host storage. Kernels that model writes into large preallocated device
/// buffers (e.g. the hit bins, whose paper capacity is
/// `num_bins × query_words` elements) use this for coalescing math while
/// keeping the functional data in ordinary host vectors.
pub fn virtual_alloc(bytes: u64) -> u64 {
    let size = (bytes + 255) & !255;
    NEXT_BASE.fetch_add(size.max(256), Ordering::Relaxed)
}

/// A typed device-global buffer with a synthetic base address.
#[derive(Debug)]
pub struct GlobalBuffer<T> {
    base: u64,
    data: Vec<T>,
}

impl<T> GlobalBuffer<T> {
    /// Allocate a buffer holding `data`.
    pub fn new(data: Vec<T>) -> Self {
        let bytes = (std::mem::size_of::<T>() * data.len()) as u64;
        // Align to 256 and pad so buffers never share a transaction line.
        let size = (bytes + 255) & !255;
        let base = NEXT_BASE.fetch_add(size.max(256), Ordering::Relaxed);
        Self { base, data }
    }

    /// Synthetic device byte address of element `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        self.base + (i * std::mem::size_of::<T>()) as u64
    }

    /// Size of the buffer contents in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<T>()) as u64
    }

    /// Consume the buffer, returning the host data.
    pub fn into_inner(self) -> Vec<T> {
        self.data
    }
}

impl<T> Deref for GlobalBuffer<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T> DerefMut for GlobalBuffer<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> From<Vec<T>> for GlobalBuffer<T> {
    fn from(v: Vec<T>) -> Self {
        Self::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::TRANSACTION_BYTES;

    #[test]
    fn addresses_are_contiguous_within_a_buffer() {
        let b = GlobalBuffer::new(vec![0u32; 100]);
        assert_eq!(b.addr(1) - b.addr(0), 4);
        assert_eq!(b.addr(99) - b.addr(0), 396);
    }

    #[test]
    fn buffers_never_share_a_line() {
        let a = GlobalBuffer::new(vec![0u8; 3]);
        let b = GlobalBuffer::new(vec![0u8; 3]);
        assert!(a.addr(0) / TRANSACTION_BYTES != b.addr(2) / TRANSACTION_BYTES);
    }

    #[test]
    fn base_is_aligned() {
        let b = GlobalBuffer::new(vec![0u64; 8]);
        assert_eq!(b.addr(0) % 256, 0);
    }

    #[test]
    fn deref_gives_data_access() {
        let mut b = GlobalBuffer::new(vec![1u32, 2, 3]);
        b[1] = 9;
        assert_eq!(&b[..], &[1, 9, 3]);
        assert_eq!(b.size_bytes(), 12);
        assert_eq!(b.into_inner(), vec![1, 9, 3]);
    }
}
