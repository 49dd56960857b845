//! The one signer shared by all workload connectors, [`Population`], and
//! the setup-time chunker `preload`. Closed-loop clients (funded at
//! genesis by every platform), open-loop accounts, preload lanes and the
//! analytics history all sign through a `Population`.

use bb_crypto::KeyPair;
use bb_types::{AccountId, Address, Transaction};
use blockbench::connector::BlockchainConnector;
use std::collections::HashMap;

/// Seed base for preload (non-client) keypairs; platforms fund seeds
/// 0..1024 at genesis, clients use 0..#clients, preloaders use 900+.
pub const PRELOAD_SEED: u64 = 900;

/// Seed base for open-loop population accounts: `account id + base`. Far
/// above the genesis-funded band (0..1024) and the preload lanes (900+), so
/// a million-account population can never collide with a funded client or a
/// preloader's nonce sequence. Population accounts are unfunded, which is
/// fine: every workload call carries value 0, and platforms only check
/// balances on value transfers.
pub const POPULATION_SEED_BASE: u64 = 1 << 40;

/// One identity that has signed: its keypair and next nonce.
struct Signer {
    keypair: KeyPair,
    nonce: u64,
}

/// A family of signing identities: identity `i` signs with
/// `KeyPair::from_seed(base + i)` and its own next nonce, rolled back on RPC
/// rejection. The first signature derives the key; the identity then holds
/// its keypair and nonce in a sparse map. Memory is O(active set) — a
/// million-account population that sends ten thousand transactions holds
/// ten thousand keypairs and nonces, never a million of either.
pub struct Population {
    base: u64,
    /// Identities `0..size` exist; any other panics.
    size: u64,
    signers: HashMap<u64, Signer>,
}

/// The open-loop account family at [`POPULATION_SEED_BASE`].
impl Default for Population {
    fn default() -> Self {
        Population::family(POPULATION_SEED_BASE, u64::MAX)
    }
}

impl Population {
    fn family(base: u64, size: u64) -> Population {
        Population { base, size, signers: HashMap::new() }
    }

    /// `clients` closed-loop clients: the genesis-funded family at seed 0.
    pub(crate) fn clients(clients: u64) -> Population {
        Population::family(0, clients)
    }

    /// Preload lane `lane` (distinct lanes per workload): the one-identity
    /// family at `PRELOAD_SEED + lane`, signing as `AccountId(0)`.
    pub(crate) fn lane(lane: u64) -> Population {
        Population::family(PRELOAD_SEED + lane, 1)
    }

    fn seed(&self, id: AccountId) -> u64 {
        assert!(id.0 < self.size, "identity {} outside a family of {}", id.0, self.size);
        self.base + id.0
    }

    /// Sign the next transaction for `id`.
    pub fn sign(
        &mut self,
        id: impl Into<AccountId>,
        to: Address,
        value: u64,
        payload: Vec<u8>,
    ) -> Transaction {
        let id = id.into();
        let seed = self.seed(id);
        let signer = self
            .signers
            .entry(id.0)
            .or_insert_with(|| Signer { keypair: KeyPair::from_seed(seed), nonce: 0 });
        let tx = Transaction::signed(&signer.keypair, signer.nonce, to, value, payload);
        signer.nonce += 1;
        tx
    }

    /// Roll back `id`'s latest nonce after an RPC rejection.
    pub fn rollback(&mut self, id: impl Into<AccountId>) {
        if let Some(signer) = self.signers.get_mut(&id.into().0) {
            signer.nonce = signer.nonce.saturating_sub(1);
        }
    }

    /// `id`'s account address. Derives the key without marking `id` touched.
    pub fn address(&self, id: impl Into<AccountId>) -> Address {
        Address::from_public_key(&KeyPair::from_seed(self.seed(id.into())).public())
    }

    /// Number of distinct identities that have signed — the RSS proxy the
    /// memory-proportionality tests assert on.
    pub fn touched(&self) -> usize {
        self.signers.len()
    }
}

/// Push already-signed `txs` through the platform's setup fast path in
/// blocks of `per_block` (the last block holds the rest). Nothing is pushed
/// when `txs` is empty.
pub(crate) fn preload(
    chain: &mut dyn BlockchainConnector,
    txs: Vec<Transaction>,
    per_block: usize,
) {
    let mut txs = txs.into_iter().peekable();
    let mut blocks = Vec::new();
    while txs.peek().is_some() {
        blocks.push(txs.by_ref().take(per_block).collect());
    }
    if !blocks.is_empty() {
        chain.preload_blocks(blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_types::ClientId;

    fn sign(family: &mut Population, id: impl Into<AccountId>) -> Transaction {
        family.sign(id, Address::from_index(1), 0, vec![])
    }

    #[test]
    #[should_panic(expected = "identity 2 outside a family of 2")]
    fn a_client_beyond_the_family_panics() {
        sign(&mut Population::clients(2), ClientId(2));
    }

    #[test]
    fn population_nonces_advance_and_roll_back_sparsely() {
        let mut pop = Population::default();
        let acct = AccountId(123_456_789);
        let (t0, t1) = (sign(&mut pop, acct), sign(&mut pop, acct));
        assert_eq!((t0.nonce, t1.nonce), (0, 1));
        assert_eq!([t0.from, t1.from], [pop.address(acct); 2]);
        pop.rollback(acct);
        assert_eq!(sign(&mut pop, acct).nonce, 1, "rolled-back nonce is reused");
        // Rolling back or addressing an untouched account allocates nothing.
        pop.rollback(AccountId(42));
        pop.address(AccountId(43));
        assert_eq!(pop.touched(), 1);
    }

    #[test]
    fn population_accounts_are_disjoint_from_clients_and_preloaders() {
        // Population account 0 must not alias client seed 0 or any preload
        // lane — its seed lives above POPULATION_SEED_BASE — and no two
        // lanes share an account.
        let a = Population::default().address(AccountId(0));
        let lane = |l| Population::lane(l).address(AccountId(0));
        assert_ne!(a, Population::clients(1).address(ClientId(0)));
        assert_ne!(a, lane(0));
        assert_ne!(lane(0), lane(1));
        assert_eq!(a, Address::from_public_key(&KeyPair::from_seed(POPULATION_SEED_BASE).public()));
    }

    #[test]
    fn population_memory_tracks_active_set_not_population() {
        // A "million-account" population that only ever touches 100 accounts
        // holds 100 signers: the open-loop family has no size to allocate.
        let mut pop = Population::default();
        for i in 0..1000u64 {
            sign(&mut pop, AccountId((i % 100) * 9973));
        }
        assert_eq!(pop.touched(), 100);
    }
}
