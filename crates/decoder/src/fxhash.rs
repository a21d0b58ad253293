//! A std-only Fx-style hasher for the set-up path's interning tables.
//!
//! This is the multiply-rotate word hash of rustc's `FxHasher`. It is not
//! resistant to adversarial keys, which does not matter for keys derived
//! from a circuit, and it is several times cheaper than the default SipHash
//! on the short integer keys that [`crate::build_dem`] (detector lists) and
//! [`crate::DecodingGraph::from_dem`] (edge endpoints) intern.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time Fx hash state.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// Mixes one word into the hash.
    #[inline]
    pub(crate) fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for std `HashMap`s keyed by small integers.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;
