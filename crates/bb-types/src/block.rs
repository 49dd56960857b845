//! Blocks and block headers.
//!
//! Every platform in the paper stores an ordered chain of blocks, each
//! identified by the hash of its header and linked to its predecessor
//! (Figure 1). The header carries the roots of the transaction and state
//! trees plus consensus-specific fields: PoW difficulty (Ethereum-like),
//! authority step (Parity-like) or PBFT view (Fabric-like) — we fold the
//! latter two into `round` since at most one is meaningful per platform.

use crate::codec::{DecodeError, Decoder, Encoder};
use crate::ids::NodeId;
use crate::tx::Transaction;
use bb_crypto::Hash256;
use std::sync::Arc;

/// Fixed header fields hashed into the block identity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockHeader {
    /// Identity of the parent block; [`Hash256::ZERO`] for genesis.
    pub parent: Hash256,
    /// Distance from genesis (genesis = 0).
    pub height: u64,
    /// Virtual time the proposer built this block, in microseconds.
    pub timestamp_us: u64,
    /// Merkle root over the transaction list.
    pub tx_root: Hash256,
    /// Root of the state tree after applying this block.
    pub state_root: Hash256,
    /// Node that proposed/mined/signed the block.
    pub proposer: NodeId,
    /// PoW difficulty of this block; 0 on BFT/PoA chains.
    pub difficulty: u64,
    /// Consensus round: PoA step or PBFT view; nonce domain for PoW.
    pub round: u64,
}

impl BlockHeader {
    /// Size of the canonical encoding: every field is fixed-width.
    const ENCODED_LEN: usize = 32 + 8 + 8 + 32 + 32 + 4 + 8 + 8;

    /// Canonical encoding (what gets hashed).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(Self::ENCODED_LEN);
        e.put_raw(&self.parent.0)
            .put_u64(self.height)
            .put_u64(self.timestamp_us)
            .put_raw(&self.tx_root.0)
            .put_raw(&self.state_root.0)
            .put_u32(self.proposer.0)
            .put_u64(self.difficulty)
            .put_u64(self.round);
        e.finish()
    }

    /// Decode a header from the canonical encoding (inverse of
    /// [`Self::encode`]); the platforms' durable block records round-trip
    /// through this at restart.
    pub fn decode_from(d: &mut Decoder) -> Result<BlockHeader, DecodeError> {
        Ok(BlockHeader {
            parent: Hash256(d.raw(32)?.try_into().expect("32 bytes")),
            height: d.u64()?,
            timestamp_us: d.u64()?,
            tx_root: Hash256(d.raw(32)?.try_into().expect("32 bytes")),
            state_root: Hash256(d.raw(32)?.try_into().expect("32 bytes")),
            proposer: NodeId(d.u32()?),
            difficulty: d.u64()?,
            round: d.u64()?,
        })
    }

    /// The block identity.
    pub fn id(&self) -> Hash256 {
        Hash256::digest(&self.encode())
    }

    /// Serialized size in bytes.
    pub fn byte_size(&self) -> u64 {
        Self::ENCODED_LEN as u64
    }
}

/// A full block: header plus ordered transaction list.
///
/// Transactions are reference-counted: a transaction is decoded (or sealed)
/// once and the same allocation is shared by the pool, gossip, validation
/// and execution paths — cloning a `Block` bumps refcounts instead of
/// deep-copying every body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    /// Hashed header.
    pub header: BlockHeader,
    /// Transactions in execution order.
    pub txs: Vec<Arc<Transaction>>,
}

impl Block {
    /// Canonical encoding: header (fixed width) then the length-prefixed
    /// transaction list. This is what a node persists per committed block
    /// and what peers ship during catch-up sync.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_after(&[])
    }

    /// `prefix`, then [`Self::encode`], in one buffer of exactly that size:
    /// the platforms' durable block records put their own fields first.
    pub fn encode_after(&self, prefix: &[u8]) -> Vec<u8> {
        let len = prefix.len() + self.byte_size() as usize + 4 + 4 * self.txs.len();
        let mut e = Encoder::with_capacity(len);
        e.put_raw(prefix).put_raw(&self.header.encode()).put_u32(self.txs.len() as u32);
        for tx in &self.txs {
            e.put_u32(tx.byte_size() as u32);
            tx.encode_into(&mut e);
        }
        e.finish()
    }

    /// Decode a block (inverse of [`Self::encode`]), rejecting trailing
    /// garbage.
    pub fn decode(bytes: &[u8]) -> Result<Block, DecodeError> {
        let mut d = Decoder::new(bytes);
        let header = BlockHeader::decode_from(&mut d)?;
        let count = d.u32()? as usize;
        let mut txs = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            txs.push(Arc::new(Transaction::decode(d.bytes()?)?));
        }
        d.expect_end()?;
        Ok(Block { header, txs })
    }

    /// The block identity (hash of the header).
    pub fn id(&self) -> Hash256 {
        self.header.id()
    }

    /// Wire size: header plus every transaction (network cost model input).
    pub fn byte_size(&self) -> u64 {
        self.header.byte_size() + self.txs.iter().map(|t| t.byte_size()).sum::<u64>()
    }

    /// Number of transactions.
    pub fn tx_count(&self) -> usize {
        self.txs.len()
    }
}

/// Compact description of a confirmed block handed to the driver by
/// `get_latest_block(h)` (Section 3.2): enough to match outstanding
/// transaction ids without shipping whole blocks into the stats path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockSummary {
    /// Block identity.
    pub id: Hash256,
    /// Height on the main chain.
    pub height: u64,
    /// Proposer node.
    pub proposer: NodeId,
    /// Virtual time the block was *confirmed* (per platform's rule).
    pub confirmed_at_us: u64,
    /// Ids of transactions the block committed, with success flags.
    pub txs: Vec<(crate::tx::TxId, bool)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use bb_crypto::KeyPair;

    fn header(height: u64) -> BlockHeader {
        BlockHeader {
            parent: Hash256::digest(b"parent"),
            height,
            timestamp_us: 123,
            tx_root: Hash256::ZERO,
            state_root: Hash256::digest(b"state"),
            proposer: NodeId(1),
            difficulty: 1000,
            round: 2,
        }
    }

    #[test]
    fn id_changes_with_any_field() {
        let base = header(5);
        let variations = [
            BlockHeader { parent: Hash256::digest(b"other"), ..base.clone() },
            BlockHeader { height: 6, ..base.clone() },
            BlockHeader { timestamp_us: 124, ..base.clone() },
            BlockHeader { tx_root: Hash256::digest(b"t"), ..base.clone() },
            BlockHeader { state_root: Hash256::digest(b"s"), ..base.clone() },
            BlockHeader { proposer: NodeId(2), ..base.clone() },
            BlockHeader { difficulty: 1001, ..base.clone() },
            BlockHeader { round: 3, ..base.clone() },
        ];
        for (i, v) in variations.iter().enumerate() {
            assert_ne!(v.id(), base.id(), "field {i} not hashed");
        }
        assert_eq!(header(5).id(), base.id());
    }

    #[test]
    fn block_size_sums_txs() {
        let kp = KeyPair::from_seed(1);
        let tx = Arc::new(Transaction::signed(&kp, 0, Address::from_index(1), 1, vec![0; 64]));
        let txs = vec![Arc::clone(&tx), Arc::clone(&tx), tx];
        let block = Block { header: header(1), txs };
        assert_eq!(
            block.byte_size(),
            block.header.byte_size() + 3 * block.txs[0].byte_size()
        );
        assert_eq!(block.tx_count(), 3);
    }

    /// `byte_size` is a sum of stored lengths; it must stay what re-encoding
    /// every transaction used to yield (literals from the parent commit).
    #[test]
    fn block_size_matches_the_encoded_transactions() {
        let kp = KeyPair::from_seed(2);
        for (n, expected) in [(0u64, 132), (1, 260), (5, 872)] {
            let txs: Vec<Arc<Transaction>> = (0..n)
                .map(|i| {
                    let payload = vec![9; 10 * i as usize];
                    Arc::new(Transaction::signed(&kp, i, Address::from_index(3), 1, payload))
                })
                .collect();
            let block = Block { header: header(1), txs };
            let reencoded: u64 = block.txs.iter().map(|t| t.encode().len() as u64).sum();
            assert_eq!(block.byte_size(), block.header.encode().len() as u64 + reencoded);
            assert_eq!(block.byte_size(), expected);
        }
    }

    #[test]
    fn block_encoding_round_trips() {
        let kp = KeyPair::from_seed(9);
        let txs: Vec<Arc<Transaction>> = (0..3)
            .map(|n| {
                Arc::new(Transaction::signed(&kp, n, Address::from_index(2), 5, vec![n as u8; 16]))
            })
            .collect();
        let block = Block { header: header(7), txs };
        let decoded = Block::decode(&block.encode()).unwrap();
        assert_eq!(decoded, block);
        assert_eq!(decoded.id(), block.id());
        assert_eq!(decoded.byte_size(), block.byte_size());
        for (d, t) in decoded.txs.iter().zip(&block.txs) {
            assert_eq!(d.id(), t.id());
        }

        let empty = Block { header: header(0), txs: Vec::new() };
        assert_eq!(Block::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn block_decode_rejects_damage() {
        let block = Block { header: header(1), txs: Vec::new() };
        let bytes = block.encode();
        assert!(Block::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Block::decode(&trailing).is_err());
    }

    #[test]
    fn chain_linkage_detects_forks() {
        // Two children of the same parent with different contents have
        // different ids — the raw material of the Figure 10 fork metric.
        let parent = header(1).id();
        let a = BlockHeader { parent, proposer: NodeId(1), ..header(2) };
        let b = BlockHeader { parent, proposer: NodeId(2), ..header(2) };
        assert_eq!(a.parent, b.parent);
        assert_ne!(a.id(), b.id());
    }
}
