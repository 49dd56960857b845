//! Signed transactions and their identities.
//!
//! A transaction in a blockchain is what it is in a database — a sequence of
//! operations applied to state (Section 2 of the paper) — plus a signature.
//! The opaque `payload` carries a contract invocation encoded with
//! [`crate::codec`]; its interpretation belongs to the execution layer.

use crate::address::Address;
use crate::codec::{DecodeError, Decoder, Encoder};
use bb_crypto::{Hash256, KeyPair, KeyRegistry, PublicKey, Signature};

/// A transaction id: the hash of the signed transaction encoding.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TxId(pub Hash256);

impl std::fmt::Display for TxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tx:{}", self.0.short())
    }
}

/// The signed content of a transaction — what is encoded, hashed and
/// verified. Reachable read-only through a [`Transaction`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxBody {
    /// Per-sender sequence number.
    pub nonce: u64,
    /// Sender account.
    pub from: Address,
    /// Target account or contract; [`Address::ZERO`] deploys a contract.
    pub to: Address,
    /// Native currency moved by this transaction.
    pub value: u64,
    /// Encoded contract invocation (opaque to the data layer).
    pub payload: Vec<u8>,
    /// Sender's public key, carried for verification.
    pub public_key: PublicKey,
    /// Signature over [`TxBody::signing_bytes`].
    pub signature: Signature,
}

/// Encoded size of the signed fields around the payload: nonce, from, to,
/// value, payload length prefix, public key.
const SIGNING_FIXED_LEN: usize = 8 + 20 + 20 + 8 + 4 + 32;
/// Encoded size of a transaction around its payload: the signed fields,
/// their length prefix and the signature.
const WIRE_FIXED_LEN: usize = 4 + SIGNING_FIXED_LEN + 32;

impl TxBody {
    fn put_signing_fields(&self, e: &mut Encoder) {
        e.put_u64(self.nonce)
            .put_raw(self.from.as_bytes())
            .put_raw(self.to.as_bytes())
            .put_u64(self.value)
            .put_bytes(&self.payload)
            .put_raw(&self.public_key.as_hash().0);
    }

    /// The bytes covered by the signature (everything except the signature).
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(SIGNING_FIXED_LEN + self.payload.len());
        self.put_signing_fields(&mut e);
        e.finish()
    }

    /// The encoding up to the signature: the signed fields, length-prefixed.
    fn put_signed_part(&self, e: &mut Encoder) {
        e.put_u32((SIGNING_FIXED_LEN + self.payload.len()) as u32);
        self.put_signing_fields(e);
    }

    /// Append the full canonical encoding, signature included, to `e`.
    pub fn encode_into(&self, e: &mut Encoder) {
        self.put_signed_part(e);
        e.put_raw(&self.signature.as_hash().0);
    }

    /// Full canonical encoding, signature included.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(WIRE_FIXED_LEN + self.payload.len());
        self.encode_into(&mut e);
        e.finish()
    }

    /// Verify the signature against the network's key registry.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        self.public_key.verify(&self.signing_bytes(), &self.signature, registry)
            && Address::from_public_key(&self.public_key) == self.from
    }

    /// Is this a contract-creation transaction?
    pub fn is_deploy(&self) -> bool {
        self.to.is_zero()
    }
}

/// A signed transaction together with its identity.
///
/// The id is the hash of the canonical encoding and the wire length is that
/// encoding's size. Both are computed exactly once, by the two functions
/// that hold the encoding anyway — [`Transaction::signed`] and
/// [`Transaction::decode`] — and stored beside the content, so
/// [`Transaction::id`] and [`Transaction::byte_size`] are field reads. That
/// is only sound if the content can never change afterwards: the fields are
/// readable through `Deref<Target = TxBody>` and there is no `DerefMut`.
///
/// ```compile_fail,E0594
/// use bb_crypto::KeyPair;
/// use bb_types::{Address, Transaction};
/// let mut tx = Transaction::signed(&KeyPair::from_seed(1), 0, Address::ZERO, 0, vec![]);
/// tx.value += 1; // the stored id would no longer match the content
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transaction {
    body: TxBody,
    id: TxId,
    wire_len: u64,
}

impl std::ops::Deref for Transaction {
    type Target = TxBody;

    fn deref(&self) -> &TxBody {
        &self.body
    }
}

impl Transaction {
    /// Build and sign a transaction in one step.
    pub fn signed(
        keypair: &KeyPair,
        nonce: u64,
        to: Address,
        value: u64,
        payload: Vec<u8>,
    ) -> Transaction {
        let public_key = keypair.public();
        let mut body = TxBody {
            nonce,
            from: Address::from_public_key(&public_key),
            to,
            value,
            payload,
            public_key,
            signature: Signature::from_hash(Hash256::ZERO),
        };
        // One buffer: length prefix and signed fields, sign those fields,
        // append the signature, hash the whole.
        let mut e = Encoder::with_capacity(WIRE_FIXED_LEN + body.payload.len());
        body.put_signed_part(&mut e);
        body.signature = keypair.sign(&e.as_slice()[4..]);
        e.put_raw(&body.signature.as_hash().0);
        let id = TxId(Hash256::digest(e.as_slice()));
        Transaction { body, id, wire_len: e.len() as u64 }
    }

    /// Decode a transaction previously produced by [`TxBody::encode`]. The
    /// id is the digest of exactly the bytes decoded.
    pub fn decode(bytes: &[u8]) -> Result<Transaction, DecodeError> {
        let mut outer = Decoder::new(bytes);
        let signed = outer.bytes()?;
        let sig = Hash256(outer.raw(32)?.try_into().expect("32 bytes"));
        outer.expect_end()?;

        let mut d = Decoder::new(signed);
        let nonce = d.u64()?;
        let from = Address(d.raw(20)?.try_into().expect("20 bytes"));
        let to = Address(d.raw(20)?.try_into().expect("20 bytes"));
        let value = d.u64()?;
        let payload = d.bytes()?.to_vec();
        let pk_hash = Hash256(d.raw(32)?.try_into().expect("32 bytes"));
        d.expect_end()?;

        Ok(Transaction {
            body: TxBody {
                nonce,
                from,
                to,
                value,
                payload,
                public_key: PublicKey::from_hash(pk_hash),
                signature: Signature::from_hash(sig),
            },
            id: TxId(Hash256::digest(bytes)),
            wire_len: bytes.len() as u64,
        })
    }

    /// The transaction id: hash of the full encoding.
    pub fn id(&self) -> TxId {
        self.id
    }

    /// Wire size in bytes (used by the network cost model).
    pub fn byte_size(&self) -> u64 {
        self.wire_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tx(seed: u64, nonce: u64) -> Transaction {
        let kp = KeyPair::from_seed(seed);
        Transaction::signed(&kp, nonce, Address::from_index(9), 42, vec![1, 2, 3])
    }

    #[test]
    fn id_is_stable_and_content_sensitive() {
        let a = sample_tx(1, 0);
        let b = sample_tx(1, 0);
        let c = sample_tx(1, 1);
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
    }

    /// Pins the id and wire size of one fixed transaction to the values the
    /// hash-on-every-call implementation produced: `results/` freezes them.
    #[test]
    fn id_and_byte_size_known_answer() {
        let tx = Transaction::signed(
            &KeyPair::from_seed(1),
            7,
            Address::from_index(9),
            42,
            vec![1, 2, 3],
        );
        assert_eq!(
            tx.id().0.to_hex(),
            "b1d68fd6c27a8daa123d8e0140b9bbb5d6f7c87dc8ecf64138752ffd5ec3e74a"
        );
        assert_eq!(tx.byte_size(), 131);
    }

    #[test]
    fn stored_id_and_size_match_the_encoding() {
        for payload_len in [0, 1, 3, 500] {
            let kp = KeyPair::from_seed(8);
            let tx = Transaction::signed(&kp, 2, Address::from_index(1), 9, vec![7; payload_len]);
            let bytes = tx.encode();
            assert_eq!(tx.id(), TxId(Hash256::digest(&bytes)));
            assert_eq!(tx.byte_size(), bytes.len() as u64);
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let tx = sample_tx(2, 5);
        let decoded = Transaction::decode(&tx.encode()).unwrap();
        assert_eq!(decoded, tx);
        assert_eq!(decoded.id(), tx.id());
        assert_eq!(decoded.byte_size(), tx.byte_size());
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = sample_tx(3, 0).encode();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(Transaction::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// A transaction as a peer would receive it with `body` on the wire.
    fn received(body: TxBody) -> Transaction {
        Transaction::decode(&body.encode()).unwrap()
    }

    #[test]
    fn signature_verifies_and_detects_tamper() {
        let reg = KeyRegistry::with_seed_range(8);
        let tx = sample_tx(4, 0);
        assert!(tx.verify(&reg));
        let tampered = received(TxBody { value: tx.value + 1, ..(*tx).clone() });
        assert!(!tampered.verify(&reg));
        assert_ne!(tampered.id(), tx.id());
    }

    #[test]
    fn spoofed_sender_rejected() {
        let reg = KeyRegistry::with_seed_range(8);
        let tx = sample_tx(5, 0);
        // Claim someone else's account, re-signed with the attacker's key.
        let mut body = TxBody { from: Address::from_index(99), ..(*tx).clone() };
        body.signature = KeyPair::from_seed(5).sign(&body.signing_bytes());
        assert!(!received(body).verify(&reg));
    }

    #[test]
    fn deploy_detection() {
        let kp = KeyPair::from_seed(6);
        let deploy = Transaction::signed(&kp, 0, Address::ZERO, 0, vec![0xde]);
        assert!(deploy.is_deploy());
        assert!(!sample_tx(6, 0).is_deploy());
    }

    #[test]
    fn byte_size_counts_payload() {
        let kp = KeyPair::from_seed(7);
        let small = Transaction::signed(&kp, 0, Address::from_index(1), 0, vec![0; 10]);
        let big = Transaction::signed(&kp, 0, Address::from_index(1), 0, vec![0; 500]);
        assert_eq!(big.byte_size() - small.byte_size(), 490);
    }
}
