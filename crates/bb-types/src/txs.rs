//! One transaction table per world (DESIGN.md §4 "What stays per node").
//!
//! Gossip and relays hand nearly every transaction to every replica, so a
//! replica that kept its own digest-keyed tables of the ids it has seen,
//! pooled or executed would insert each id once or twice per replica, into
//! tables that only grow. Instead a transaction gets a dense index once,
//! when it enters the world — at a server's RPC or in a set-up preload —
//! and a replica keeps bitsets and vectors over those indices. All three
//! platforms number their transactions here. An index orders nothing a
//! model decision reads.

use crate::TxId;
use bb_crypto::DigestMap;

/// The world's transaction ids, numbered densely from 0 in order of first
/// entry. Written only between `run_until` calls; the lanes only read it.
#[derive(Default)]
pub struct TxTable {
    index: DigestMap<TxId, u32>,
}

impl TxTable {
    /// The index of `id`, numbering it next if it is new: a replayed id
    /// keeps the index it already has.
    pub fn intern(&mut self, id: TxId) -> u32 {
        let next = u32::try_from(self.index.len()).expect("under 2^32 transactions per world");
        *self.index.entry(id).or_insert(next)
    }

    /// The index of `id`, which entered the world through [`Self::intern`]:
    /// every transaction in a block did.
    #[inline]
    pub fn index(&self, id: &TxId) -> u32 {
        *self.index.get(id).unwrap_or_else(|| panic!("{id:?} never entered the world"))
    }

    /// Transactions numbered so far.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// No transaction numbered yet?
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// A set of transaction indices, one bit each, grown on insertion. The
/// replicas' hot loops test and set bits in other crates, so the bit
/// operations are `#[inline]`.
#[derive(Clone, Default, Debug)]
pub struct TxBits(Vec<u64>);

impl TxBits {
    /// Add `i`; `false` if it was in already.
    #[inline]
    pub fn insert(&mut self, i: u32) -> bool {
        let (word, bit) = (i as usize / 64, 1 << (i % 64));
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }

    /// Take `i` out; `false` if it was not in.
    #[inline]
    pub fn remove(&mut self, i: u32) -> bool {
        let (word, bit) = (i as usize / 64, 1 << (i % 64));
        match self.0.get_mut(word) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                true
            }
            _ => false,
        }
    }

    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        self.0.get(i as usize / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Empty the set.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl FromIterator<u32> for TxBits {
    fn from_iter<I: IntoIterator<Item = u32>>(indices: I) -> TxBits {
        let mut bits = TxBits::default();
        for i in indices {
            bits.insert(i);
        }
        bits
    }
}

/// Two sets are equal when they hold the same indices, however far each
/// has grown.
impl PartialEq for TxBits {
    fn eq(&self, other: &TxBits) -> bool {
        let (short, long) =
            if self.0.len() <= other.0.len() { (&self.0, &other.0) } else { (&other.0, &self.0) };
        long.starts_with(short) && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for TxBits {}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_crypto::Hash256;

    #[test]
    fn tx_table_bits_insert_remove_and_read_past_the_end() {
        let mut bits = TxBits::default();
        assert!(!bits.contains(1_000), "a read past the end is a miss");
        assert!(!bits.remove(1_000), "a removal past the end removes nothing");
        assert!(bits.0.is_empty(), "neither grows the set");
        assert!(bits.insert(5));
        assert!(!bits.insert(5), "a second insert is not fresh");
        // Growth past the end keeps what is in and adds only the new bit.
        assert!(bits.insert(200));
        assert_eq!(bits.0.len(), 4);
        assert!(bits.contains(5) && bits.contains(200));
        assert!((0..256).filter(|&i| bits.contains(i)).eq([5, 200]));
        assert!(bits.remove(5));
        assert!(!bits.remove(5), "a second removal removes nothing");
        assert!(!bits.contains(5) && bits.contains(200));
        // Word boundaries.
        for i in [63, 64, 127, 128] {
            assert!(bits.insert(i) && bits.contains(i) && bits.remove(i) && !bits.contains(i));
        }
        // Equality is by members: a set grown further and emptied back
        // equals one that never grew, either way round.
        let mut short = TxBits::default();
        short.insert(200);
        assert_eq!(bits, short);
        assert!(bits.insert(300) && bits.remove(300));
        assert_eq!((bits.0.len(), &bits), (5, &short));
        assert_eq!(short, bits);
        short.insert(6);
        assert_ne!(bits, short);
        assert_ne!(short, bits);
        assert_eq!([6, 200, 6].into_iter().collect::<TxBits>(), short);
        bits.clear();
        assert!(!bits.contains(200));
        assert!(bits.insert(200), "a cleared set takes an index afresh");
    }

    #[test]
    fn tx_table_numbers_each_id_once_in_order_of_entry() {
        let id = |b: u8| TxId(Hash256([b; 32]));
        let mut table = TxTable::default();
        assert!(table.is_empty());
        assert_eq!([7, 3, 7, 9].map(|b| table.intern(id(b))), [0, 1, 0, 2]);
        assert_eq!(table.len(), 3);
        assert_eq!(table.index(&id(9)), 2);
    }

    #[test]
    #[should_panic(expected = "never entered the world")]
    fn tx_table_refuses_an_id_that_never_entered() {
        TxTable::default().index(&TxId(Hash256([1; 32])));
    }
}
