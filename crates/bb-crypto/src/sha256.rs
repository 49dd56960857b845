//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The streaming [`Sha256`] hasher supports incremental `update` calls so the
//! Merkle crates can hash node encodings without intermediate buffers. The
//! one-shot [`sha256`] helper covers the common case.
//!
//! The compression function exists twice: portable scalar code, and the x86
//! SHA extensions (`sha_ni`) where the CPU reports them. The choice is made
//! from CPUID on every block and is not something a caller can set; both
//! return the same words (the tests fold every message through each).

/// First 32 bits of the fractional parts of the square roots of the first 8
/// primes (the FIPS initial hash value).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// First 32 bits of the fractional parts of the cube roots of the first 64
/// primes (the FIPS round constants).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buffer: [0; 64], buffered: 0, length_bytes: 0 }
    }

    /// Absorb more input.
    pub fn update(&mut self, mut data: &[u8]) -> &mut Self {
        self.length_bytes += data.len() as u64;
        // Top up a partial block first.
        if self.buffered > 0 {
            let take = data.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        // Whole blocks straight from the input.
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(block.try_into().expect("split_at(64)"));
            data = rest;
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
        self
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // 0x80 marker followed by enough zeros to land on 56 mod 64, in a
        // single `update` from a static block (the old byte-at-a-time loop
        // re-entered `update` up to 64 times per digest — measurable, since
        // every trie node write finalizes a hash).
        const PAD: [u8; 64] = {
            let mut p = [0u8; 64];
            p[0] = 0x80;
            p
        };
        let bit_len = self.length_bytes.wrapping_mul(8);
        // Pad length: one marker byte plus zeros so that buffered ≡ 56 (mod 64).
        let pad_len = 1 + (119 - self.buffered) % 64;
        self.update(&PAD[..pad_len]);
        debug_assert_eq!(self.buffered, 56);
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buffered, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::compress(&mut self.state, block) {
            return;
        }
        self.compress_scalar(block);
    }

    /// The portable compression function: the only path on a CPU without the
    /// SHA extensions, and the reference the hardware one is tested against.
    fn compress_scalar(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// The compression function on the x86 SHA extensions. The workspace's only
/// `unsafe` is in this module (`scripts/verify.sh` checks that), behind the
/// safe [`sha_ni::compress`].
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Compress one block into `state` if this CPU has the SHA extensions;
    /// `false` means it does not and `state` is untouched. std caches the
    /// CPUID answer, so asking per block costs a load and a branch.
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
        if !(is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        {
            return false;
        }
        // SAFETY: every feature `compress_block` is compiled with was
        // detected on this CPU by the check above.
        unsafe { compress_block(state, block) };
        true
    }

    /// Four rounds per step: `sha256rnds2` does two rounds on the working
    /// words held as `{a,b,e,f}` and `{c,d,g,h}` (high lane first), and
    /// `sha256msg1`/`msg2` extend the message schedule four words at a time
    /// in a ring of the last sixteen.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
        // SAFETY: two unaligned 16-byte loads that together cover exactly
        // the 32 bytes of the `[u32; 8]`.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(state.as_ptr().cast()),
                _mm_loadu_si128(state.as_ptr().add(4).cast()),
            )
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let abef_in = _mm_alignr_epi8(cdab, efgh, 8);
        let cdgh_in = _mm_blend_epi16(efgh, cdab, 0xF0);

        // The block is sixteen big-endian words; the lanes are little-endian.
        let byte_swap = _mm_set_epi64x(0x0c0d0e0f_08090a0b, 0x04050607_00010203);
        let mut w = [_mm_setzero_si128(); 4];
        for (four, bytes) in w.iter_mut().zip(block.chunks_exact(16)) {
            // SAFETY: unaligned 16-byte load of the sixteen bytes
            // `chunks_exact` guarantees the slice holds.
            let bytes = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
            *four = _mm_shuffle_epi8(bytes, byte_swap);
        }
        let [mut w0, mut w1, mut w2, mut w3] = w;
        let (mut abef, mut cdgh) = (abef_in, cdgh_in);
        for k in K.chunks_exact(4) {
            // SAFETY: unaligned 16-byte load of the four `u32`s `chunks_exact`
            // guarantees the slice holds.
            let k = unsafe { _mm_loadu_si128(k.as_ptr().cast()) };
            let wk = _mm_add_epi32(w0, k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            // The four words sixteen ahead of `w0` take its place in the ring.
            // Nothing reads what the last four steps compute here, and the
            // unrolled loop drops it.
            let sigma0 = _mm_sha256msg1_epu32(w0, w1);
            let plus_w7 = _mm_add_epi32(sigma0, _mm_alignr_epi8(w3, w2, 4));
            (w0, w1, w2, w3) = (w1, w2, w3, _mm_sha256msg2_epu32(plus_w7, w3));
        }

        let feba = _mm_shuffle_epi32(_mm_add_epi32(abef, abef_in), 0x1B);
        let dchg = _mm_shuffle_epi32(_mm_add_epi32(cdgh, cdgh_in), 0xB1);
        // SAFETY: two unaligned 16-byte stores that together cover exactly
        // the 32 bytes of the `[u32; 8]`, which is borrowed mutably.
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), _mm_alignr_epi8(dchg, feba, 8));
        }
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-4 / NIST CAVP test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn exactly_one_block_of_input() {
        // 64 bytes forces the padding into a second block.
        let data = [0x61u8; 64];
        assert_eq!(
            hex(&sha256(&data)),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
    }

    #[test]
    fn padding_edge_known_answers() {
        // 55 bytes is the largest message padded within one block, 56 spills
        // the length into a second, 63/64/65 straddle the block boundary and
        // 119/120 are the first edge one block later. The messages are the
        // bytes 0, 1, 2, …; the digests are python3 hashlib's.
        for (len, digest) in [
            (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"),
            (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562"),
            (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488"),
            (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"),
            (65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781"),
            (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6"),
            (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c"),
        ] {
            let message: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(hex(&sha256(&message)), digest, "{len} bytes");
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 100] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"block 1"), sha256(b"block 2"));
    }
}

/// Seeded properties of the streaming hasher: splitting the input at any
/// point leaves the digest unchanged, and appending a byte always changes it.
#[cfg(test)]
mod seeded_props {
    use super::*;
    use bb_sim::SimRng;

    #[test]
    fn split_invariance_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0001);
        for i in 0..200 {
            let len = rng.below(512) as usize;
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let split = rng.below(len as u64 + 1) as usize;
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "case {i}");
        }
    }

    #[test]
    fn extension_changes_digest_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0002);
        for i in 0..200 {
            let len = rng.below(256) as usize;
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let mut ext = data.clone();
            ext.push(rng.below(256) as u8);
            assert_ne!(sha256(&data), sha256(&ext), "case {i}");
        }
    }
}

/// The two compression functions against each other and against the
/// dispatching [`sha256`]. Nothing selects a path from outside, so the tests
/// call each function directly; where the host lacks the SHA extensions the
/// hardware half cannot run and says so.
#[cfg(test)]
mod differential {
    use super::*;
    use bb_sim::SimRng;
    use std::io::Write;

    /// Both take `(state, block)` and say whether they ran.
    type Compress = fn(&mut [u32; 8], &[u8; 64]) -> bool;

    fn scalar(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
        let mut h = Sha256 { state: *state, ..Sha256::new() };
        h.compress_scalar(block);
        *state = h.state;
        true
    }

    fn hardware(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
        #[cfg(target_arch = "x86_64")]
        return sha_ni::compress(state, block);
        #[cfg(not(target_arch = "x86_64"))]
        return false;
    }

    /// Written to the process's stderr in one piece, not through `eprintln!`:
    /// libtest captures the macro's output of a passing test, and a skipped
    /// half must not read as having run.
    fn report_skipped(test: &str) {
        let line = format!(
            "\nsha256::differential::{test}: hardware half SKIPPED, no SHA extensions on this host\n"
        );
        std::io::stderr().write_all(line.as_bytes()).expect("stderr");
    }

    #[test]
    fn hardware_matches_scalar_on_random_states_and_blocks() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0003);
        for _ in 0..10_000 {
            let state: [u32; 8] = std::array::from_fn(|_| rng.next_u64() as u32);
            let mut block = [0u8; 64];
            rng.fill_bytes(&mut block);
            let (mut soft, mut hard) = (state, state);
            scalar(&mut soft, &block);
            if !hardware(&mut hard, &block) {
                return report_skipped("hardware_matches_scalar_on_random_states_and_blocks");
            }
            assert_eq!(soft, hard, "state {state:08x?} block {block:02x?}");
        }
    }

    /// FIPS 180-4 §5.1.1 padding written out the slow way and folded over
    /// one compression function, sharing no arithmetic with `finalize`.
    fn digest_with(compress: Compress, message: &[u8]) -> Option<[u8; 32]> {
        let mut padded = message.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(message.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            if !compress(&mut state, block.try_into().expect("chunks_exact(64)")) {
                return None;
            }
        }
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Some(out)
    }

    #[test]
    fn every_length_to_300_through_each_compress() {
        let mut data = [0u8; 300];
        SimRng::seed_from_u64(0x5EED_0004).fill_bytes(&mut data);
        let mut skipped = false;
        for len in 0..=data.len() {
            let message = &data[..len];
            let dispatched = sha256(message);
            assert_eq!(digest_with(scalar, message), Some(dispatched), "scalar, {len} bytes");
            match digest_with(hardware, message) {
                Some(digest) => assert_eq!(digest, dispatched, "hardware, {len} bytes"),
                None => skipped = true,
            }
        }
        if skipped {
            report_skipped("every_length_to_300_through_each_compress");
        }
    }
}
