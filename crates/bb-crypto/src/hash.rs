//! The 32-byte digest newtype used throughout the workspace for block ids,
//! transaction ids, Merkle roots and state keys.

use crate::sha256::{sha256, Sha256};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A 256-bit hash value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Hash256(pub [u8; 32]);

impl Hash for Hash256 {
    /// One write of the 32 bytes, no length prefix — what [`DigestHasher`]
    /// expects.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(&self.0);
    }
}

/// Pass-through hasher for maps keyed by a [`Hash256`] or a newtype of one:
/// a SHA-256 output is already uniformly distributed, so running SipHash
/// over it buys nothing. The table hash is the digest's last eight bytes
/// (the tail stays uniform even for ids ground down to leading zeros).
/// Iteration order of such a map is unspecified, exactly as with the
/// default hasher — sort before anything observable depends on it.
#[derive(Clone, Copy, Default)]
pub struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let word = bytes.last_chunk::<8>().expect("DigestHasher keys are whole digests");
        self.0 = u64::from_le_bytes(*word);
    }
}

/// A `HashMap` keyed by digests, hashed with [`DigestHasher`].
pub type DigestMap<K, V> = HashMap<K, V, BuildHasherDefault<DigestHasher>>;
/// A `HashSet` of digests, hashed with [`DigestHasher`].
pub type DigestSet<K> = HashSet<K, BuildHasherDefault<DigestHasher>>;

impl Hash256 {
    /// The all-zero hash, used as the parent of genesis blocks and as a
    /// "no value" sentinel in tries.
    pub const ZERO: Hash256 = Hash256([0; 32]);

    /// Hash arbitrary bytes.
    pub fn digest(data: &[u8]) -> Hash256 {
        Hash256(sha256(data))
    }

    /// Hash the concatenation of several byte strings without allocating.
    pub fn digest_parts(parts: &[&[u8]]) -> Hash256 {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        Hash256(h.finalize())
    }

    /// Combine two hashes (Merkle interior node).
    pub fn combine(left: &Hash256, right: &Hash256) -> Hash256 {
        Hash256::digest_parts(&[&left.0, &right.0])
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Is this the zero sentinel?
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 32]
    }

    /// Lowercase hex encoding.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Short prefix for log lines, e.g. `a1b2c3d4`.
    pub fn short(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }

    /// First 8 bytes as a u64 (big-endian) — handy for deterministic
    /// derived randomness such as bucket assignment.
    pub fn to_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({}…)", self.short())
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_sha256() {
        assert_eq!(Hash256::digest(b"abc").0, sha256(b"abc"));
    }

    #[test]
    fn digest_parts_equals_concat() {
        let whole = Hash256::digest(b"hello world");
        let parts = Hash256::digest_parts(&[b"hello", b" ", b"world"]);
        assert_eq!(whole, parts);
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = Hash256::digest(b"a");
        let b = Hash256::digest(b"b");
        assert_ne!(Hash256::combine(&a, &b), Hash256::combine(&b, &a));
    }

    #[test]
    fn zero_sentinel() {
        assert!(Hash256::ZERO.is_zero());
        assert!(!Hash256::digest(b"x").is_zero());
    }

    #[test]
    fn hex_round_trip_length() {
        let h = Hash256::digest(b"hex");
        assert_eq!(h.to_hex().len(), 64);
        assert_eq!(h.short().len(), 8);
        assert!(h.to_hex().starts_with(&h.short()));
    }

    #[test]
    fn digest_map_behaves_like_a_map() {
        let keys: Vec<Hash256> = (0u32..1000).map(|i| Hash256::digest(&i.to_be_bytes())).collect();
        let mut map: DigestMap<Hash256, u32> = DigestMap::default();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(map.insert(*k, i as u32), None);
        }
        assert_eq!(map.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(map.get(k), Some(&(i as u32)));
        }
        assert!(!map.contains_key(&Hash256::ZERO));
        // The table hash is the digest's tail, taken as is.
        let mut h = DigestHasher::default();
        keys[0].hash(&mut h);
        assert_eq!(h.finish().to_le_bytes(), keys[0].0[24..]);
    }

    #[test]
    fn to_u64_uses_prefix() {
        let mut bytes = [0u8; 32];
        bytes[7] = 1;
        assert_eq!(Hash256(bytes).to_u64(), 1);
        bytes[0] = 1;
        assert_eq!(Hash256(bytes).to_u64(), (1 << 56) + 1);
    }
}
