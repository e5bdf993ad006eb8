//! Offline stand-in for the `bytes` crate.
//!
//! Provides only [`BufMut`] for `Vec<u8>` (an impl the real crate also
//! has): the little-endian writers `aivm_engine::codec`'s encoders use.
//! Reading goes through `aivm_engine::codec::Reader`, whose getters
//! return typed errors instead of panicking on underflow.

/// Little-endian appends to a growable buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Appends a little-endian `u16`.
    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u32`.
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `i64`.
    #[inline]
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `f64`.
    #[inline]
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}
