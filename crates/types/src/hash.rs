//! The workspace's two non-cryptographic mixing functions: FNV-1a for stable
//! digests and SplitMix64 for seed derivation.
//!
//! Replay tokens, regression corpora and golden digests all depend on these
//! exact constructions, so every crate uses this one copy. Changing either
//! changes what every pinned token means.

/// SplitMix64's increment (the 64-bit golden ratio); also the stride the
/// explorers use to spread sweep indices over the seed space.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function applied to `x + GOLDEN_GAMMA`: the value a
/// SplitMix64 stream in state `x` produces next (the stream then moves to
/// `x + GOLDEN_GAMMA`).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-bit FNV-1a hasher, fed one byte at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher in the FNV-1a offset-basis state.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Feeds a `u64` as its little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}
