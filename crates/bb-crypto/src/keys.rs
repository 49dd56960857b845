//! Keypairs and signatures.
//!
//! A keyed-hash (HMAC-style) signature scheme: the "public key" is the hash
//! of the secret key, and a signature over a message binds the secret key,
//! the public key and the message. Within the simulation this is
//! unforgeable — a verifier holding the public key rejects any payload whose
//! signature was not produced by the matching secret key — which is all the
//! benchmark requires. The *cost* of real ECDSA is charged separately by each
//! platform's CPU model (`bb_ethereum::config::EvmCosts::sig_verify`,
//! `ParityConfig::produce_sign_cost`, `FabricConfig::msg_process_cost`),
//! since that cost — not the algebra — is what shaped the paper's results
//! (Parity's signing bottleneck).
//!
//! Note: because verification recomputes the tag from the secret-derived
//! public key, this scheme leaks nothing *in-sim* but would be unsound in a
//! deployed system. DESIGN.md documents the substitution.

use crate::hash::{DigestMap, Hash256};
use std::fmt;

/// A secret signing key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(Hash256);

/// A public verification key (hash of the secret key).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(Hash256);

/// A signature over a message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature(Hash256);

/// A signing keypair.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

const SIGN_DOMAIN: &[u8] = b"bb-sig-v1";

impl KeyPair {
    /// Derive a keypair deterministically from a 64-bit seed (node ids,
    /// client ids and account indexes all map to stable keys this way).
    pub fn from_seed(seed: u64) -> KeyPair {
        let secret = SecretKey(Hash256::digest_parts(&[b"bb-key-v1", &seed.to_be_bytes()]));
        let public = PublicKey(Hash256::digest_parts(&[b"bb-pub-v1", &secret.0 .0]));
        KeyPair { secret, public }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Sign a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature(Hash256::digest_parts(&[
            SIGN_DOMAIN,
            &self.secret.0 .0,
            &self.public.0 .0,
            message,
        ]))
    }
}

impl PublicKey {
    /// Verify `sig` over `message`.
    ///
    /// Verification re-derives the expected tag from the *key registry*: in
    /// the simulation every verifier can reconstruct the signer's tag via the
    /// shared derivation (the stand-in for public-key algebra). A signature
    /// verifies iff it was produced by the unique secret key whose hash is
    /// this public key, over exactly this message.
    pub fn verify(&self, message: &[u8], sig: &Signature, registry: &KeyRegistry) -> bool {
        match registry.secret_for(self) {
            Some(kp) => kp.sign(message) == *sig,
            None => false,
        }
    }

    /// The 20-byte address derived from this key (Ethereum-style).
    pub fn address_bytes(&self) -> [u8; 20] {
        let h = Hash256::digest_parts(&[b"bb-addr-v1", &self.0 .0]);
        h.0[12..32].try_into().expect("20 bytes")
    }

    /// Underlying hash (for encoding).
    pub fn as_hash(&self) -> &Hash256 {
        &self.0
    }

    /// Rebuild from an encoded hash. Decoding cannot validate key material;
    /// verification against the registry does.
    pub fn from_hash(h: Hash256) -> PublicKey {
        PublicKey(h)
    }
}

/// Registry mapping public keys back to keypairs.
///
/// This is the simulation's stand-in for public-key algebra: a real verifier
/// checks a signature using only the public key; our verifier looks the
/// keypair up here. The registry is populated at network-genesis time with
/// every participant's key, mirroring a permissioned blockchain's membership
/// service (nodes are authenticated — Section 1 of the paper).
#[derive(Default, Clone)]
pub struct KeyRegistry {
    entries: DigestMap<PublicKey, KeyPair>,
}

impl KeyRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or re-register) a keypair.
    pub fn register(&mut self, kp: KeyPair) {
        self.entries.insert(kp.public(), kp);
    }

    /// Create a registry pre-populated with keys for seeds `0..n`.
    pub fn with_seed_range(n: u64) -> Self {
        let mut r = Self::new();
        for seed in 0..n {
            r.register(KeyPair::from_seed(seed));
        }
        r
    }

    fn secret_for(&self, pk: &PublicKey) -> Option<&KeyPair> {
        self.entries.get(pk)
    }

    /// Number of registered keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SecretKey(…)") // never print key material
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({}…)", self.0.short())
    }
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyPair({:?})", self.public)
    }
}

impl Signature {
    /// Underlying hash (for encoding / corruption injection).
    pub fn as_hash(&self) -> &Hash256 {
        &self.0
    }

    /// Build from raw hash — used by the network fault injector to corrupt
    /// messages in flight.
    pub fn from_hash(h: Hash256) -> Signature {
        Signature(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with(seeds: &[u64]) -> KeyRegistry {
        let mut r = KeyRegistry::new();
        for &s in seeds {
            r.register(KeyPair::from_seed(s));
        }
        r
    }

    #[test]
    fn deterministic_derivation() {
        assert_eq!(KeyPair::from_seed(7), KeyPair::from_seed(7));
        assert_ne!(KeyPair::from_seed(7).public(), KeyPair::from_seed(8).public());
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = KeyPair::from_seed(1);
        let reg = registry_with(&[1]);
        let sig = kp.sign(b"transfer 10 from alice to bob");
        assert!(kp.public().verify(b"transfer 10 from alice to bob", &sig, &reg));
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = KeyPair::from_seed(2);
        let reg = registry_with(&[2]);
        let sig = kp.sign(b"value=10");
        assert!(!kp.public().verify(b"value=11", &sig, &reg));
    }

    #[test]
    fn wrong_signer_rejected() {
        let alice = KeyPair::from_seed(3);
        let mallory = KeyPair::from_seed(4);
        let reg = registry_with(&[3, 4]);
        let sig = mallory.sign(b"msg");
        assert!(!alice.public().verify(b"msg", &sig, &reg));
    }

    #[test]
    fn corrupted_signature_rejected() {
        let kp = KeyPair::from_seed(5);
        let reg = registry_with(&[5]);
        let sig = kp.sign(b"msg");
        let mut raw = *sig.as_hash();
        raw.0[0] ^= 0xff;
        assert!(!kp.public().verify(b"msg", &Signature::from_hash(raw), &reg));
    }

    #[test]
    fn unknown_key_rejected() {
        let kp = KeyPair::from_seed(6);
        let reg = KeyRegistry::new();
        let sig = kp.sign(b"msg");
        assert!(!kp.public().verify(b"msg", &sig, &reg));
    }

    #[test]
    fn addresses_are_stable_and_distinct() {
        let a = KeyPair::from_seed(10).public().address_bytes();
        let b = KeyPair::from_seed(11).public().address_bytes();
        assert_eq!(a, KeyPair::from_seed(10).public().address_bytes());
        assert_ne!(a, b);
    }

    #[test]
    fn seed_range_registry() {
        let reg = KeyRegistry::with_seed_range(16);
        assert_eq!(reg.len(), 16);
        assert!(!reg.is_empty());
        let kp = KeyPair::from_seed(15);
        assert!(kp.public().verify(b"m", &kp.sign(b"m"), &reg));
    }

    #[test]
    fn debug_never_prints_secret() {
        let kp = KeyPair::from_seed(9);
        assert_eq!(format!("{:?}", SecretKey(Hash256::ZERO)), "SecretKey(…)");
        assert!(format!("{kp:?}").starts_with("KeyPair(PublicKey("));
    }
}
