//! A classic bloom filter with double hashing (Kirsch–Mitzenmacher): two
//! independent FNV-style hashes generate the k probe positions. SSTables use
//! one filter per table so point reads skip tables that cannot contain the
//! key.

/// A serializable bloom filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    bits: Vec<u64>,
    nbits: u64,
    k: u32,
}

fn fnv1a(seed: u64, data: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ seed;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A key's two hashes, taken once per read and probed against every
/// table's filter: the probe positions depend on a filter's size only
/// through `% nbits`.
#[derive(Debug, Clone, Copy)]
pub struct KeyHash {
    h1: u64,
    /// Odd, so the increments cover every slot.
    h2: u64,
}

impl KeyHash {
    /// Hash `key`.
    pub fn of(key: &[u8]) -> KeyHash {
        KeyHash { h1: fnv1a(0x5bd1e995, key), h2: fnv1a(0x9e3779b9, key) | 1 }
    }

    /// The `k` probe positions in a filter of `nbits` bits.
    fn probes(self, k: u32, nbits: u64) -> impl Iterator<Item = u64> {
        (0..k as u64).map(move |i| self.h1.wrapping_add(i.wrapping_mul(self.h2)) % nbits)
    }
}

impl Bloom {
    /// Build an empty filter sized for `expected` keys at `bits_per_key`
    /// bits each, with the near-optimal probe count `k ≈ 0.69 · bits/key`.
    pub fn new(expected: usize, bits_per_key: u32) -> Self {
        let nbits = ((expected.max(1) as u64) * bits_per_key as u64).max(64);
        let k = ((bits_per_key as f64 * 0.69).round() as u32).clamp(1, 16);
        Bloom { bits: vec![0; nbits.div_ceil(64) as usize], nbits, k }
    }

    /// Insert a key.
    pub fn insert(&mut self, key: &[u8]) {
        for p in KeyHash::of(key).probes(self.k, self.nbits) {
            self.bits[(p / 64) as usize] |= 1 << (p % 64);
        }
    }

    /// May the key hashed as `hash` be present? `false` is definitive.
    pub fn maybe_contains(&self, hash: KeyHash) -> bool {
        hash.probes(self.k, self.nbits).all(|p| self.bits[(p / 64) as usize] & (1 << (p % 64)) != 0)
    }

    /// Serialize to bytes (for the SSTable footer).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.bits.len() * 8);
        out.extend_from_slice(&self.nbits.to_be_bytes());
        out.extend_from_slice(&self.k.to_be_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Deserialize; returns `None` on malformed input.
    pub fn decode(bytes: &[u8]) -> Option<Bloom> {
        if bytes.len() < 12 {
            return None;
        }
        let nbits = u64::from_be_bytes(bytes[0..8].try_into().ok()?);
        let k = u32::from_be_bytes(bytes[8..12].try_into().ok()?);
        let words = nbits.div_ceil(64) as usize;
        let body = &bytes[12..];
        if body.len() != words * 8 || k == 0 || nbits == 0 {
            return None;
        }
        let bits = body
            .chunks_exact(8)
            .map(|c| u64::from_be_bytes(c.try_into().expect("8 bytes")))
            .collect();
        Some(Bloom { bits, nbits, k })
    }

    /// Size of the encoded filter.
    pub fn encoded_size(&self) -> usize {
        12 + self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_keys_always_found() {
        let mut b = Bloom::new(1000, 10);
        for i in 0..1000u32 {
            b.insert(&i.to_be_bytes());
        }
        for i in 0..1000u32 {
            assert!(b.maybe_contains(KeyHash::of(&i.to_be_bytes())), "false negative at {i}");
        }
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let mut b = Bloom::new(1000, 10);
        for i in 0..1000u32 {
            b.insert(&i.to_be_bytes());
        }
        let fps = (10_000..60_000u32)
            .filter(|i| b.maybe_contains(KeyHash::of(&i.to_be_bytes())))
            .count();
        let rate = fps as f64 / 50_000.0;
        // 10 bits/key targets ~1%; allow generous slack.
        assert!(rate < 0.03, "false positive rate {rate}");
    }

    #[test]
    fn empty_filter_contains_nothing_surely() {
        let b = Bloom::new(10, 10);
        let hits = (0..1000u32).filter(|i| b.maybe_contains(KeyHash::of(&i.to_be_bytes()))).count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut b = Bloom::new(64, 8);
        for i in 0..64u32 {
            b.insert(&i.to_be_bytes());
        }
        let decoded = Bloom::decode(&b.encode()).unwrap();
        assert_eq!(decoded, b);
        assert_eq!(b.encode().len(), b.encoded_size());
    }

    /// Filters are part of every table's bytes: one filter's encoding,
    /// taken before reads began hashing each key once, pinned byte for byte.
    #[test]
    fn encoded_filter_known_answer() {
        let mut b = Bloom::new(12, 10);
        for i in 0..12u32 {
            b.insert(format!("bloom-key-{i}").as_bytes());
        }
        let hex: String = b.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "000000000000007800000007e563c5db8256231f002a825936b66488");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Bloom::decode(b"").is_none());
        assert!(Bloom::decode(&[0; 11]).is_none());
        let mut enc = Bloom::new(8, 8).encode();
        enc.pop(); // truncate body
        assert!(Bloom::decode(&enc).is_none());
    }
}
