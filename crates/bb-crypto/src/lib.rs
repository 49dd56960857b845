//! Cryptographic primitives for BLOCKBENCH-RS.
//!
//! Everything a private blockchain needs from its crypto layer, implemented
//! from scratch:
//! - [`sha256()`]: FIPS 180-4 SHA-256 (validated against the official test
//!   vectors) — block identities, Merkle roots and fork detection all hang
//!   off real hash linkage;
//! - [`Hash256`]: the 32-byte digest newtype used as block/tx/state ids;
//! - [`keys`]: deterministic keypairs and an HMAC-style keyed-hash signature
//!   scheme. The paper never attacks the signature algebra — what matters to
//!   the benchmark is (a) unforgeability *within the simulation* (an honest
//!   verifier rejects tampered payloads) and (b) the CPU cost of
//!   sign/verify, which the platforms charge through their cost models
//!   (Parity's signing bottleneck, Section 4.1.1 of the paper). A keyed hash
//!   gives us (a); the cost models give us (b).

pub mod hash;
pub mod keys;
pub mod sha256;

pub use hash::{DigestHasher, DigestMap, DigestSet, Hash256};
pub use keys::{KeyPair, KeyRegistry, PublicKey, SecretKey, Signature};
pub use sha256::{sha256, Sha256};
