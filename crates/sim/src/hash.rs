//! FNV-1a (64-bit), the workspace's one content hash.
//!
//! It names cached activity traces ([`crate::SimConfig::digest`] and the
//! trace cache's filename key), deduplicates server jobs, and checks
//! write-ahead-log records and protocol frames. Hand-rolled so its
//! values never change across toolchains; not a cryptographic hash.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a state: [`write`](Fnv1a::write) any number of byte
/// slices, then read the hash with [`finish`](Fnv1a::finish).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty-input state (the FNV offset basis).
    #[must_use]
    pub const fn new() -> Fnv1a {
        Fnv1a(OFFSET)
    }

    /// Fold `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// The hash of everything written so far.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// FNV-1a over one byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}
