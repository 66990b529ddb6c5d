//! One fast hasher with a fixed key, shared by the frontend's maps and
//! the mapping cache's CDFG fingerprint.
//!
//! std's `RandomState` keys SipHash-1-3 afresh in every process, which
//! guards a map against keys chosen to collide. Nothing here hashes
//! untrusted keys, and no output may depend on map iteration order (none
//! does), so that guard buys nothing, while SipHash's rounds are paid on
//! every variable lookup of a compile and every word of a fingerprint.
//! [`FixedHasher`] instead puts each 64-bit word through SplitMix64's
//! finaliser and folds it into its state with one XOR and one multiply,
//! from the same fixed key in every process.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] hashed by [`FixedHasher`].
pub type FixedMap<K, V> = HashMap<K, V, FixedState>;

/// A [`HashSet`] hashed by [`FixedHasher`].
pub type FixedSet<T> = HashSet<T, FixedState>;

/// Builds [`FixedHasher`]s keyed with [`FixedHasher::KEY`].
pub type FixedState = BuildHasherDefault<FixedHasher>;

/// SplitMix64's output finaliser: a bijection on `u64` in which every
/// input bit flips each output bit with probability about one half.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fast, deterministic [`Hasher`]: each word `w` sets the state to
/// `(state ^ mix(w)) · M` for an odd constant `M`, starting from a fixed
/// key.
///
/// `mix` does not read the state, so the mixes of consecutive words run
/// in parallel and only the XOR and the multiply form a chain. Each step
/// is a bijection of the state for a fixed word and of the word for a
/// fixed state, so two equally long word sequences that differ in one
/// word always end in different states. Integers up to 64 bits are one
/// word each; byte strings go in 8-byte little-endian words, the last
/// one tagged with its length.
///
/// # Examples
///
/// ```
/// use amdrel_cdfg::hash::{FixedHasher, FixedMap};
/// use std::hash::{Hash, Hasher};
///
/// let digest = |key: u64| {
///     let mut h = FixedHasher::with_key(key);
///     "bb3".hash(&mut h);
///     h.finish()
/// };
/// assert_eq!(digest(1), digest(1)); // the same in every process
/// assert_ne!(digest(1), digest(2));
///
/// let mut ids: FixedMap<&str, u32> = FixedMap::default();
/// ids.insert("x", 0);
/// assert_eq!(ids["x"], 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedHasher {
    state: u64,
}

impl FixedHasher {
    /// The key a default hasher (and so every [`FixedMap`] and
    /// [`FixedSet`]) starts from: the 64-bit golden ratio.
    pub const KEY: u64 = 0x9e37_79b9_7f4a_7c15;

    /// The odd multiplier that folds each mixed word into the state.
    const MUL: u64 = 0xd605_bbb5_8c8a_bbfd;

    /// A hasher starting from `key`; hashers with different keys give
    /// unrelated digests of the same data.
    pub fn with_key(key: u64) -> Self {
        FixedHasher { state: key }
    }
}

impl Default for FixedHasher {
    fn default() -> Self {
        FixedHasher::with_key(Self::KEY)
    }
}

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(
                word.try_into().expect("chunks are 8 bytes"),
            ));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            // At most 7 bytes: the top byte is free for the length, so
            // "a" and "a\0" stay distinct.
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            word[7] = tail.len() as u8;
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.state = (self.state ^ mix(i)).wrapping_mul(Self::MUL);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn digest<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = FixedHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn digests_are_pinned() {
        // The same in every process and on every host.
        assert_eq!(digest(&0u64), 0x550f_3829_9491_f7c1);
        assert_eq!(digest("bb3"), 0xd833_0181_dc81_1d80);
    }

    #[test]
    fn byte_tails_carry_their_length() {
        let bytes = |b: &[u8]| {
            let mut h = FixedHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(bytes(b"a"), bytes(b"a\0"));
        assert_ne!(bytes(b"abcdefgh"), bytes(b"abcdefgh\0"));
        assert_ne!(bytes(b""), bytes(b"\0"));
    }

    #[test]
    fn one_changed_word_always_changes_the_digest() {
        let words: Vec<u64> = (0..64).map(|i| i * 0x1234_5678_9abc).collect();
        let base = digest(&words);
        for i in 0..words.len() {
            let mut changed = words.clone();
            changed[i] ^= 1 << (i % 64);
            assert_ne!(digest(&changed), base, "word {i}");
        }
    }

    #[test]
    fn integer_widths_hash_as_one_word() {
        assert_eq!(digest(&5u8), digest(&5u64));
        assert_eq!(digest(&5u16), digest(&5usize));
    }
}
