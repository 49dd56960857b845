//! The account-model state machine shared by the EVM-like platforms.
//!
//! "An account in Ethereum has a balance as its state, and is updated upon
//! receiving a transaction. A special type of account, called smart
//! contract, contains executable code and private states." (Section 3.1.2)
//!
//! Accounts, contract code and contract storage all live in one
//! Merkle-Patricia trie keyed by:
//! - `addr` → encoded [`Account`],
//! - `addr ++ "#code"` → serialized [`SvmContract`],
//! - `addr ++ "#s" ++ key` → contract storage.
//!
//! Transaction application uses a *buffered* VM host: contract writes and
//! outbound transfers accumulate in an overlay and flush only on success,
//! giving the revert/out-of-gas rollback the paper describes for the EVM
//! (Section 3.1.3).

use bb_merkle::PatriciaTrie;
use bb_storage::{KvError, KvStore};
use bb_svm::{Host, Vm};
use bb_types::{Address, Transaction, TxId};
use blockbench::contract::{decode_call, SvmContract};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A non-contract or contract account.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Account {
    /// Native currency balance.
    pub balance: i64,
    /// Next expected transaction nonce.
    pub nonce: u64,
    /// Does this account carry contract code?
    pub is_contract: bool,
}

impl Account {
    /// Canonical trie encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(17);
        out.extend_from_slice(&self.balance.to_le_bytes());
        out.extend_from_slice(&self.nonce.to_le_bytes());
        out.push(u8::from(self.is_contract));
        out
    }

    /// Decode; malformed bytes yield a default account (trie corruption is
    /// caught earlier by hashes).
    pub fn decode(bytes: &[u8]) -> Account {
        if bytes.len() != 17 {
            return Account::default();
        }
        Account {
            balance: i64::from_le_bytes(bytes[..8].try_into().expect("8")),
            nonce: u64::from_le_bytes(bytes[8..16].try_into().expect("8")),
            is_contract: bytes[16] != 0,
        }
    }
}

fn code_key(addr: &Address) -> Vec<u8> {
    let mut k = addr.0.to_vec();
    k.extend_from_slice(b"#code");
    k
}

fn storage_key(addr: &Address, key: &[u8]) -> Vec<u8> {
    let mut k = addr.0.to_vec();
    k.extend_from_slice(b"#s");
    k.extend_from_slice(key);
    k
}

/// Why a transaction could not even be included in a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxInvalid {
    /// Nonce does not match the sender's account.
    BadNonce {
        /// Nonce the account expects.
        expected: u64,
        /// Nonce the transaction carried.
        got: u64,
    },
    /// Storage backend failure (Parity's in-memory cap, for instance).
    Storage(String),
}

impl std::fmt::Display for TxInvalid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxInvalid::BadNonce { expected, got } => {
                write!(f, "bad nonce: expected {expected}, got {got}")
            }
            TxInvalid::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

/// Outcome of applying an *included* transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecResult {
    /// Did the transfer + contract call succeed?
    pub success: bool,
    /// Gas consumed (0 for pure transfers with no contract call).
    pub gas_used: u64,
    /// Contract return data.
    pub output: Vec<u8>,
    /// Peak VM memory in bytes (CPUHeavy's memory model input).
    pub vm_peak_mem: u64,
    /// Human-readable failure cause, if any.
    pub error: Option<String>,
}

/// The account state machine over a trie backend.
#[derive(Clone)]
pub struct AccountState<S: KvStore> {
    trie: PatriciaTrie<S>,
}

impl<S: KvStore> AccountState<S> {
    /// Empty state over `store`.
    pub fn new(store: S) -> Self {
        AccountState { trie: PatriciaTrie::new(store) }
    }

    /// Current state root (committed into block headers).
    pub fn root(&self) -> bb_crypto::Hash256 {
        self.trie.root()
    }

    /// Move the state view to a (historical) root.
    pub fn set_root(&mut self, root: bb_crypto::Hash256) {
        self.trie.set_root(root);
    }

    /// Read an account (default if absent).
    pub fn account(&mut self, addr: &Address) -> Result<Account, KvError> {
        Ok(self.trie.get(&addr.0)?.map(|b| Account::decode(&b)).unwrap_or_default())
    }

    /// Read an account at a historical root — Ethereum/Parity's
    /// `getBalance(account, block)` JSON-RPC (the Q2 analytics path).
    pub fn account_at(
        &mut self,
        root: bb_crypto::Hash256,
        addr: &Address,
    ) -> Result<Account, KvError> {
        Ok(self
            .trie
            .get_at(root, &addr.0)?
            .map(|b| Account::decode(&b))
            .unwrap_or_default())
    }

    /// Write an account.
    pub fn put_account(&mut self, addr: &Address, acct: &Account) -> Result<(), KvError> {
        self.trie.insert(&addr.0, &acct.encode())
    }

    /// Credit an account (genesis funding, PoA/PoW rewards, preloads).
    pub fn credit(&mut self, addr: &Address, amount: i64) -> Result<(), KvError> {
        let mut acct = self.account(addr)?;
        acct.balance += amount;
        self.put_account(addr, &acct)
    }

    /// Install contract code at `addr` (deployment fast-path shared by all
    /// nodes at setup time).
    pub fn install_contract(&mut self, addr: &Address, code: &SvmContract) -> Result<(), KvError> {
        let mut acct = self.account(addr)?;
        acct.is_contract = true;
        self.put_account(addr, &acct)?;
        self.trie.insert(&code_key(addr), &code.encode())
    }

    /// Read a raw contract-storage slot (tests / analytics).
    pub fn contract_storage(
        &mut self,
        addr: &Address,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>, KvError> {
        self.trie.get(&storage_key(addr, key))
    }

    /// Borrow the backing store (stats).
    pub fn store(&self) -> &S {
        self.trie.store()
    }

    /// Mutably borrow the backing store (restart recovery scans).
    pub fn store_mut(&mut self) -> &mut S {
        self.trie.store_mut()
    }

    /// Drop everything volatile in the state trie — the uncommitted dirty
    /// overlay and the node cache — keeping only what the backing
    /// store holds. Crash-injection calls this; the root is left for the
    /// caller to rewind to a durable one.
    pub fn drop_volatile(&mut self) {
        self.trie.drop_volatile();
    }

    /// Node cache `(hits, misses)` of the state trie (stats).
    pub fn trie_cache_stats(&self) -> (u64, u64) {
        self.trie.cache_stats()
    }

    /// Overlay flush counters `(nodes_flushed, nodes_dropped)` of the state
    /// trie (stats).
    pub fn trie_flush_stats(&self) -> (u64, u64) {
        (self.trie.nodes_flushed(), self.trie.nodes_dropped())
    }

    /// Seal a block: flush the trie's dirty-node overlay to storage as one
    /// write batch, keeping exactly the nodes reachable from the current
    /// root (plus everything committed earlier) and dropping the garbage
    /// interior roots that per-transaction application created. Every root
    /// recorded for historical queries must be committed via this call.
    pub fn commit_block(&mut self) -> Result<(), KvError> {
        self.trie.commit()
    }

    /// [`Self::commit_block`] plus raw metadata ops (durable block records,
    /// head pointers) riding the *same* atomic write batch — a crash can
    /// never separate a block's state flush from its chain metadata.
    pub fn commit_block_with_meta(
        &mut self,
        extras: Vec<(Vec<u8>, Option<Vec<u8>>)>,
    ) -> Result<(), KvError> {
        self.trie.commit_with_extras(extras)
    }

    /// Validate a transaction against current state without applying it:
    /// the pool's admission check.
    pub fn validate(&mut self, tx: &Transaction) -> Result<(), TxInvalid> {
        let acct = self.account(&tx.from).map_err(|e| TxInvalid::Storage(e.to_string()))?;
        if acct.nonce != tx.nonce {
            return Err(TxInvalid::BadNonce { expected: acct.nonce, got: tx.nonce });
        }
        Ok(())
    }

    /// Apply one transaction on the current root. Returns `Err` when the
    /// transaction cannot be included at all (bad nonce / storage failure);
    /// `Ok(result)` otherwise, with `result.success == false` for included-
    /// but-failed executions (revert, out of gas, insufficient funds).
    pub fn apply_transaction(
        &mut self,
        tx: &Transaction,
        height: u64,
        vm: &Vm,
        tx_gas_limit: u64,
    ) -> Result<ExecResult, TxInvalid> {
        apply_tx(self, tx, height, vm, tx_gas_limit)
    }
}

/// The state surface one transaction application needs, abstracted so the
/// *same* body runs in two modes: directly against the trie (serial
/// application, loser re-execution) and against a buffered speculative
/// view of the frozen pre-state ([`SpecView`]). One body means speculation
/// can never drift from serial semantics.
trait TxBackend {
    /// Rollback token for the "nonce bump survives failure" semantics.
    type Mark: Clone;
    fn kv_get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError>;
    fn kv_put(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError>;
    fn kv_del(&mut self, key: &[u8]) -> Result<(), KvError>;
    fn mark(&self) -> Self::Mark;
    fn rewind(&mut self, mark: &Self::Mark);
}

impl<S: KvStore> TxBackend for AccountState<S> {
    type Mark = bb_crypto::Hash256;
    fn kv_get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        self.trie.get(key)
    }
    fn kv_put(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        self.trie.insert(key, value)
    }
    fn kv_del(&mut self, key: &[u8]) -> Result<(), KvError> {
        self.trie.remove(key)
    }
    fn mark(&self) -> Self::Mark {
        self.trie.root()
    }
    fn rewind(&mut self, mark: &Self::Mark) {
        self.trie.set_root(*mark);
    }
}

fn read_account<B: TxBackend>(b: &mut B, addr: &Address) -> Result<Account, KvError> {
    Ok(b.kv_get(&addr.0)?.map(|x| Account::decode(&x)).unwrap_or_default())
}

fn write_account<B: TxBackend>(b: &mut B, addr: &Address, acct: &Account) -> Result<(), KvError> {
    b.kv_put(&addr.0, &acct.encode())
}

/// The transaction-application body shared by serial and speculative
/// execution (see [`TxBackend`]).
fn apply_tx<B: TxBackend>(
    b: &mut B,
    tx: &Transaction,
    height: u64,
    vm: &Vm,
    tx_gas_limit: u64,
) -> Result<ExecResult, TxInvalid> {
    let storage = |e: KvError| TxInvalid::Storage(e.to_string());
    let mut sender = read_account(b, &tx.from).map_err(storage)?;
    if sender.nonce != tx.nonce {
        return Err(TxInvalid::BadNonce { expected: sender.nonce, got: tx.nonce });
    }
    sender.nonce += 1;
    // The nonce bump survives failure; everything else rolls back.
    write_account(b, &tx.from, &sender).map_err(storage)?;
    let nonce_only = b.mark();

    let fail = |b: &mut B, err: String, gas: u64, peak: u64| {
        b.rewind(&nonce_only);
        Ok(ExecResult { success: false, gas_used: gas, output: Vec::new(), vm_peak_mem: peak, error: Some(err) })
    };

    // Value transfer.
    if tx.value > 0 {
        if sender.balance < tx.value as i64 {
            return fail(b, "insufficient funds".into(), 0, 0);
        }
        sender.balance -= tx.value as i64;
        write_account(b, &tx.from, &sender).map_err(storage)?;
        let mut to = read_account(b, &tx.to).map_err(storage)?;
        to.balance += tx.value as i64;
        write_account(b, &tx.to, &to).map_err(storage)?;
    }

    // Contract deployment.
    if tx.is_deploy() {
        let addr = Address::contract(&tx.from, tx.nonce);
        match SvmContract::decode(&tx.payload) {
            Some(code) => {
                let mut acct = read_account(b, &addr).map_err(storage)?;
                acct.is_contract = true;
                write_account(b, &addr, &acct).map_err(storage)?;
                b.kv_put(&code_key(&addr), &code.encode()).map_err(storage)?;
                return Ok(ExecResult {
                    success: true,
                    gas_used: 1000 + tx.payload.len() as u64,
                    output: addr.0.to_vec(),
                    vm_peak_mem: 0,
                    error: None,
                });
            }
            None => return fail(b, "malformed contract".into(), 1000, 0),
        }
    }

    // Contract invocation.
    let callee = read_account(b, &tx.to).map_err(storage)?;
    if !callee.is_contract || tx.payload.is_empty() {
        // Plain transfer (the analytics preload path).
        return Ok(ExecResult { success: true, gas_used: 0, output: Vec::new(), vm_peak_mem: 0, error: None });
    }
    let code = match b.kv_get(&code_key(&tx.to)).map_err(storage)? {
        Some(bytes) => SvmContract::decode(&bytes),
        None => None,
    };
    let Some(code) = code else {
        return fail(b, "missing contract code".into(), 0, 0);
    };
    let Some((method, args)) = decode_call(&tx.payload) else {
        return fail(b, "empty call payload".into(), 0, 0);
    };
    let Some(program) = code.method(method) else {
        return fail(b, format!("unknown method {method}"), 0, 0);
    };

    let mut host = BufferedHost {
        state: b,
        contract: tx.to,
        writes: BTreeMap::new(),
        transfers: Vec::new(),
        contract_balance: callee.balance + tx.value as i64,
        caller: tx.from,
        value: tx.value as i64,
        height,
        storage_error: None,
    };
    let out = vm.execute(program, args, tx_gas_limit, &mut host);
    let writes = std::mem::take(&mut host.writes);
    let transfers = std::mem::take(&mut host.transfers);
    if let Some(e) = host.storage_error.take() {
        return Err(TxInvalid::Storage(e));
    }
    if !out.success {
        let err = out
            .error
            .map(|e| e.to_string())
            .unwrap_or_else(|| "reverted".to_string());
        return fail(b, err, out.gas_used, out.peak_memory);
    }
    // Flush buffered effects.
    for (key, value) in writes {
        let skey = storage_key(&tx.to, &key);
        match value {
            Some(v) => b.kv_put(&skey, &v).map_err(storage)?,
            None => b.kv_del(&skey).map_err(storage)?,
        }
    }
    let mut paid = 0i64;
    for (to_bytes, amount) in &transfers {
        let to = Address(*to_bytes);
        let mut acct = read_account(b, &to).map_err(storage)?;
        acct.balance += amount;
        write_account(b, &to, &acct).map_err(storage)?;
        paid += amount;
    }
    if paid > 0 {
        let mut contract_acct = read_account(b, &tx.to).map_err(storage)?;
        contract_acct.balance -= paid;
        write_account(b, &tx.to, &contract_acct).map_err(storage)?;
    }
    Ok(ExecResult {
        success: true,
        gas_used: out.gas_used,
        output: out.return_data,
        vm_peak_mem: out.peak_memory,
        error: None,
    })
}

/// VM host buffering all effects until the execution is known to succeed.
struct BufferedHost<'a, B: TxBackend> {
    state: &'a mut B,
    contract: Address,
    writes: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    transfers: Vec<([u8; 20], i64)>,
    contract_balance: i64,
    caller: Address,
    value: i64,
    height: u64,
    storage_error: Option<String>,
}

impl<B: TxBackend> Host for BufferedHost<'_, B> {
    fn storage_get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(buffered) = self.writes.get(key) {
            return buffered.clone();
        }
        match self.state.kv_get(&storage_key(&self.contract, key)) {
            Ok(v) => v,
            Err(e) => {
                self.storage_error = Some(e.to_string());
                None
            }
        }
    }

    fn storage_put(&mut self, key: &[u8], value: &[u8]) {
        self.writes.insert(key.to_vec(), Some(value.to_vec()));
    }

    fn storage_delete(&mut self, key: &[u8]) {
        self.writes.insert(key.to_vec(), None);
    }

    fn transfer(&mut self, to: &[u8], amount: i64) -> bool {
        if amount < 0 || to.len() != 20 || self.contract_balance < amount {
            return false;
        }
        self.contract_balance -= amount;
        self.transfers.push((to.try_into().expect("20 bytes"), amount));
        true
    }

    fn emit(&mut self, _topic: i64, _data: &[u8]) {}

    fn caller(&self) -> [u8; 20] {
        self.caller.0
    }

    fn call_value(&self) -> i64 {
        self.value
    }

    fn block_height(&self) -> u64 {
        self.height
    }
}

/// The *logical* conflict-detection key for a trie key. Account records
/// (20-byte keys) map to `key ++ "@b"` — the balance/contract-flag facet.
/// Account **nonces** are deliberately not part of any logical key: the
/// nonce evolution of a block is exactly predictable from the pre-state
/// and the canonical order (see [`AccountState::execute_block`]'s prepass),
/// so same-sender chains never conflict with each other. Code and storage
/// keys carry `"#code"` / `"#s"` suffixes and cannot collide with `"@b"`.
fn logical_key(key: &[u8]) -> Vec<u8> {
    if key.len() == 20 {
        let mut k = key.to_vec();
        k.extend_from_slice(b"@b");
        k
    } else {
        key.to_vec()
    }
}

/// What one speculated transaction produced: its result, the logical keys
/// it read from the pre-state, its raw buffered writes (for the winner
/// commit) and the logical keys those writes touch (for the conflict
/// oracle).
struct SpecOutcome {
    result: Result<ExecResult, TxInvalid>,
    reads: Vec<Vec<u8>>,
    writes: Vec<(Vec<u8>, Option<Vec<u8>>)>,
    logical_writes: Vec<Vec<u8>>,
}

/// A buffered, read-logging view of the frozen pre-state used during
/// speculation. All reads go through [`PatriciaTrie::get_frozen`] (no
/// cache mutation, no counters) so speculating a block leaves the trie
/// exactly as it found it. Writes land in a private overlay; nothing
/// touches the shared trie.
struct SpecView<'a, S: KvStore> {
    base: &'a mut PatriciaTrie<S>,
    /// The 20-byte account key of the transaction's sender.
    sender_key: Vec<u8>,
    /// How many earlier in-block transactions of the same sender precede
    /// this one — reads of the sender account report `base nonce + delta`
    /// so nonce checks see the state the serial schedule would show.
    nonce_delta: u64,
    /// Private write buffer (read-your-writes, committed only if clean).
    buf: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// Cache of base reads — both to avoid re-walking the trie and to
    /// classify account writes as balance-changing vs. nonce-only at the end.
    base_seen: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// Logical keys read from the pre-state (not from `buf`).
    reads: BTreeSet<Vec<u8>>,
}

impl<S: KvStore> TxBackend for SpecView<'_, S> {
    type Mark = BTreeMap<Vec<u8>, Option<Vec<u8>>>;

    fn kv_get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        if let Some(v) = self.buf.get(key) {
            return Ok(v.clone());
        }
        self.reads.insert(logical_key(key));
        if let Some(v) = self.base_seen.get(key) {
            return Ok(v.clone());
        }
        let mut v = self.base.get_frozen(key)?;
        if self.nonce_delta > 0 && key == &self.sender_key[..] {
            let mut acct = v.as_deref().map(Account::decode).unwrap_or_default();
            acct.nonce += self.nonce_delta;
            v = Some(acct.encode());
        }
        self.base_seen.insert(key.to_vec(), v.clone());
        Ok(v)
    }

    fn kv_put(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        self.buf.insert(key.to_vec(), Some(value.to_vec()));
        Ok(())
    }

    fn kv_del(&mut self, key: &[u8]) -> Result<(), KvError> {
        self.buf.insert(key.to_vec(), None);
        Ok(())
    }

    fn mark(&self) -> Self::Mark {
        self.buf.clone()
    }

    fn rewind(&mut self, mark: &Self::Mark) {
        // Reads and `base_seen` survive the rewind on purpose: the decision
        // to fail *depended* on them, so they stay conflict-relevant.
        self.buf = mark.clone();
    }
}

impl<S: KvStore> SpecView<'_, S> {
    /// Classify the buffered writes and package the speculation outcome.
    /// Account writes whose balance and contract flag match the base value
    /// are nonce-only: they produce **no** logical write, so later readers
    /// of that account don't spuriously conflict with a same-sender chain.
    fn finish(self, result: Result<ExecResult, TxInvalid>) -> SpecOutcome {
        let mut writes = Vec::new();
        let mut logical_writes = Vec::new();
        if result.is_ok() {
            for (key, val) in &self.buf {
                if key.len() == 20 {
                    let new = val.as_deref().map(Account::decode).unwrap_or_default();
                    let base = self.base_seen.get(key);
                    let nonce_only = base.is_some_and(|b| {
                        let old = b.as_deref().map(Account::decode).unwrap_or_default();
                        old.balance == new.balance && old.is_contract == new.is_contract
                    });
                    if !nonce_only {
                        logical_writes.push(logical_key(key));
                    }
                } else {
                    logical_writes.push(key.clone());
                }
                writes.push((key.clone(), val.clone()));
            }
        }
        SpecOutcome { result, reads: self.reads.into_iter().collect(), writes, logical_writes }
    }
}

/// Loser path: a re-execution against the live trie that records which
/// keys it wrote, so later transactions' conflict checks see them.
struct RecordingState<'a, S: KvStore> {
    inner: &'a mut AccountState<S>,
    writes: BTreeSet<Vec<u8>>,
}

impl<S: KvStore> TxBackend for RecordingState<'_, S> {
    type Mark = bb_crypto::Hash256;
    fn kv_get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        self.inner.trie.get(key)
    }
    fn kv_put(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        // Nonce-only account writes produce no logical write, mirroring
        // `SpecView::finish`: if the balance/contract facet the put leaves
        // behind differs from the pre-block value, some put along the way
        // changed it and recorded the key. Without this, a single loser's
        // nonce bump marks its sender's `@b` facet written and every later
        // same-sender transaction (which reads it for the nonce check)
        // cascades into the loser path.
        let nonce_only = key.len() == 20
            && self.inner.trie.get(key)?.is_some_and(|prior| {
                let old = Account::decode(&prior);
                let new = Account::decode(value);
                old.balance == new.balance && old.is_contract == new.is_contract
            });
        if !nonce_only {
            self.writes.insert(key.to_vec());
        }
        self.inner.trie.insert(key, value)
    }
    fn kv_del(&mut self, key: &[u8]) -> Result<(), KvError> {
        self.writes.insert(key.to_vec());
        self.inner.trie.remove(key)
    }
    fn mark(&self) -> Self::Mark {
        self.inner.trie.root()
    }
    fn rewind(&mut self, mark: &Self::Mark) {
        // Rewound keys stay recorded: conservative but deterministic.
        self.inner.trie.set_root(*mark);
    }
}

/// What [`AccountState::execute_block_serial`] and
/// [`AccountState::execute_block`] hand back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockExecOutcome {
    /// `(tx id, success)` per transaction, canonical order — exactly what
    /// the classic serial loop would have recorded.
    pub receipts: Vec<(TxId, bool)>,
    /// Transactions that speculated against stale state and re-executed
    /// (0 from the serial loop).
    pub conflicts: u64,
    /// Serial execution charge in µs: what the simulation bills.
    pub serial_us: u64,
    /// Modeled parallel makespan in µs (see `bb_exec::model_block`; equal
    /// to `serial_us` from the serial loop).
    pub modeled_us: u64,
}

impl<S: KvStore> AccountState<S> {
    /// The optimistic executor: speculate every transaction against the
    /// frozen pre-state, then commit in canonical order with
    /// first-writer-wins conflict detection; losers re-execute serially at
    /// their canonical slot. Speculation is side-effect-free and every phase
    /// runs in canonical order, so the committed state, receipts, conflict
    /// count and trie counters are a function of the block alone; what
    /// parallel hardware would gain is modeled (`bb_exec::model_block`), not
    /// measured.
    ///
    /// No platform calls this: Ethereum and Parity execute each block with
    /// [`AccountState::execute_block_serial`], as geth and Parity do. It
    /// stays, with `SpecView`, `RecordingState`, `commit_winner` and
    /// [`PatriciaTrie::get_frozen`], only as the subject of the benchmark's
    /// `exec.block32_*` kernels, and goes with them (ROADMAP item 14).
    ///
    /// `cost_us` converts a transaction's gas into the platform's modeled
    /// execution time in µs (callers pass their `EvmCosts` formula).
    pub fn execute_block(
        &mut self,
        txs: &[Arc<Transaction>],
        height: u64,
        vm: &Vm,
        tx_gas_limit: u64,
        cost_us: impl Fn(u64) -> u64,
    ) -> BlockExecOutcome {
        // Nonce prepass: the serial schedule's nonce evolution is exactly
        // predictable from the pre-state (nonce-valid transactions bump by
        // one even when execution fails; invalid ones don't bump at all).
        // Each transaction's speculative view shifts its sender's nonce by
        // the number of in-block predecessors, which is why same-sender
        // chains carry no read-write conflicts.
        let mut nonces: BTreeMap<[u8; 20], (u64, u64)> = BTreeMap::new();
        let mut deltas = Vec::with_capacity(txs.len());
        for tx in txs {
            if let std::collections::btree_map::Entry::Vacant(slot) = nonces.entry(tx.from.0) {
                match self.trie.get_frozen(&tx.from.0) {
                    Ok(v) => {
                        let n = v.map(|b| Account::decode(&b)).unwrap_or_default().nonce;
                        slot.insert((n, n));
                    }
                    // Storage failure before anything ran: fall back to the
                    // plain serial schedule (still deterministic).
                    Err(_) => return self.execute_block_serial(txs, height, vm, tx_gas_limit, &cost_us),
                }
            }
            let (base, cur) = nonces.get_mut(&tx.from.0).expect("prepass entry");
            deltas.push(*cur - *base);
            if tx.nonce == *cur {
                *cur += 1;
            }
        }

        // Phase 1 — speculate, each transaction against the same pre-state.
        let outcomes: Vec<SpecOutcome> = txs
            .iter()
            .zip(deltas)
            .map(|(tx, nonce_delta)| {
                let mut view = SpecView {
                    base: &mut self.trie,
                    sender_key: tx.from.0.to_vec(),
                    nonce_delta,
                    buf: BTreeMap::new(),
                    base_seen: BTreeMap::new(),
                    reads: BTreeSet::new(),
                };
                let result = apply_tx(&mut view, tx, height, vm, tx_gas_limit);
                view.finish(result)
            })
            .collect();

        // Phase 2 — canonical-order commit with first-writer-wins.
        let mut committed = bb_exec::KeySet::new();
        let mut receipts = Vec::with_capacity(txs.len());
        let mut conflicts = 0u64;
        let mut winner_us = 0u64;
        let mut loser_us = Vec::new();
        let mut spec_us = Vec::with_capacity(txs.len());
        for (tx, spec) in txs.iter().zip(outcomes) {
            spec_us.push(match &spec.result {
                Ok(r) => cost_us(r.gas_used),
                Err(_) => 0,
            });
            // Speculated storage errors always take the serial path: the
            // live trie, not the snapshot, owns error semantics.
            let forced = matches!(spec.result, Err(TxInvalid::Storage(_)));
            // A mid-commit storage failure demotes the winner to the loser
            // path, whose re-execution defines the outcome.
            if !forced && !committed.conflicts(&spec.reads) && self.commit_winner(tx, &spec).is_ok()
            {
                committed.record(spec.logical_writes);
                match &spec.result {
                    Ok(r) => {
                        winner_us += cost_us(r.gas_used);
                        receipts.push((tx.id(), r.success));
                    }
                    Err(_) => receipts.push((tx.id(), false)),
                }
                continue;
            }
            conflicts += 1;
            let mut rec = RecordingState { inner: self, writes: BTreeSet::new() };
            let result = apply_tx(&mut rec, tx, height, vm, tx_gas_limit);
            let keys = rec.writes;
            committed.record(keys.iter().map(|k| logical_key(k)));
            match result {
                Ok(r) => {
                    loser_us.push(cost_us(r.gas_used));
                    receipts.push((tx.id(), r.success));
                }
                Err(_) => receipts.push((tx.id(), false)),
            }
        }

        let cost = bb_exec::model_block(&spec_us, winner_us, &loser_us);
        BlockExecOutcome {
            receipts,
            conflicts,
            serial_us: cost.serial_us,
            modeled_us: cost.modeled_us,
        }
    }

    /// Apply a clean speculation's buffered writes. Account records merge
    /// rather than overwrite: balance and contract flag come from the
    /// speculation (base-accurate, because the transaction was clean), the
    /// nonce comes from the live trie so bumps by earlier same-sender
    /// transactions survive, plus one for this transaction's own sender.
    fn commit_winner(&mut self, tx: &Transaction, spec: &SpecOutcome) -> Result<(), KvError> {
        for (key, val) in &spec.writes {
            if key.len() == 20 {
                let new = val.as_deref().map(Account::decode).unwrap_or_default();
                let mut cur =
                    self.trie.get(key)?.map(|b| Account::decode(&b)).unwrap_or_default();
                cur.balance = new.balance;
                cur.is_contract = new.is_contract;
                if key[..] == tx.from.0 {
                    cur.nonce += 1;
                }
                self.trie.insert(key, &cur.encode())?;
            } else {
                match val {
                    Some(v) => self.trie.insert(key, v)?,
                    None => self.trie.remove(key)?,
                }
            }
        }
        Ok(())
    }

    /// Execute a sealed block's transactions one after another against the
    /// live state, as geth and Parity do: the one block-execution path of
    /// both account chains (and the optimistic executor's storage-error
    /// fallback). Reported as zero conflicts and a modeled time equal to
    /// serial. `cost_us` is as for [`AccountState::execute_block`].
    pub fn execute_block_serial(
        &mut self,
        txs: &[Arc<Transaction>],
        height: u64,
        vm: &Vm,
        tx_gas_limit: u64,
        cost_us: &impl Fn(u64) -> u64,
    ) -> BlockExecOutcome {
        let mut receipts = Vec::with_capacity(txs.len());
        let mut serial_us = 0u64;
        for tx in txs {
            match apply_tx(self, tx, height, vm, tx_gas_limit) {
                Ok(r) => {
                    serial_us += cost_us(r.gas_used);
                    receipts.push((tx.id(), r.success));
                }
                Err(_) => receipts.push((tx.id(), false)),
            }
        }
        BlockExecOutcome { receipts, conflicts: 0, serial_us, modeled_us: serial_us }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_crypto::KeyPair;
    use bb_storage::MemStore;
    use bb_contracts::{smallbank, ycsb};

    fn state() -> AccountState<MemStore> {
        AccountState::new(MemStore::new())
    }

    fn signed(seed: u64, nonce: u64, to: Address, value: u64, payload: Vec<u8>) -> Transaction {
        Transaction::signed(&KeyPair::from_seed(seed), nonce, to, value, payload)
    }

    fn deploy_ycsb(s: &mut AccountState<MemStore>) -> Address {
        let addr = Address::from_index(1000);
        s.install_contract(&addr, &ycsb::bundle().svm).unwrap();
        addr
    }

    #[test]
    fn account_encoding_round_trips() {
        let a = Account { balance: -5, nonce: 9, is_contract: true };
        assert_eq!(Account::decode(&a.encode()), a);
        assert_eq!(Account::decode(b"junk"), Account::default());
    }

    #[test]
    fn value_transfer_moves_balance_and_bumps_nonce() {
        let mut s = state();
        let kp = KeyPair::from_seed(1);
        let from = Address::from_public_key(&kp.public());
        let to = Address::from_index(2);
        s.credit(&from, 100).unwrap();
        let tx = signed(1, 0, to, 30, vec![]);
        let r = s.apply_transaction(&tx, 1, &Vm::default(), 1_000_000).unwrap();
        assert!(r.success);
        assert_eq!(s.account(&from).unwrap().balance, 70);
        assert_eq!(s.account(&from).unwrap().nonce, 1);
        assert_eq!(s.account(&to).unwrap().balance, 30);
    }

    #[test]
    fn insufficient_funds_fails_but_bumps_nonce() {
        let mut s = state();
        let kp = KeyPair::from_seed(1);
        let from = Address::from_public_key(&kp.public());
        let tx = signed(1, 0, Address::from_index(2), 30, vec![]);
        let r = s.apply_transaction(&tx, 1, &Vm::default(), 1_000_000).unwrap();
        assert!(!r.success);
        assert_eq!(s.account(&from).unwrap().nonce, 1);
        assert_eq!(s.account(&Address::from_index(2)).unwrap().balance, 0);
    }

    #[test]
    fn bad_nonce_rejected_without_state_change() {
        let mut s = state();
        let root = s.root();
        let tx = signed(1, 5, Address::from_index(2), 0, vec![]);
        let err = s.apply_transaction(&tx, 1, &Vm::default(), 1_000_000).unwrap_err();
        assert_eq!(err, TxInvalid::BadNonce { expected: 0, got: 5 });
        assert_eq!(s.root(), root);
        assert!(s.validate(&tx).is_err());
        let good = signed(1, 0, Address::from_index(2), 0, vec![]);
        assert!(s.validate(&good).is_ok());
    }

    #[test]
    fn contract_invocation_updates_contract_storage() {
        let mut s = state();
        let contract = deploy_ycsb(&mut s);
        let tx = signed(1, 0, contract, 0, ycsb::write_call(7, b"hello"));
        let r = s.apply_transaction(&tx, 1, &Vm::default(), 10_000_000).unwrap();
        assert!(r.success, "{:?}", r.error);
        assert!(r.gas_used > 0);
        let read = signed(1, 1, contract, 0, ycsb::read_call(7));
        let r = s.apply_transaction(&read, 1, &Vm::default(), 10_000_000).unwrap();
        assert_eq!(r.output, b"hello");
        // The slot is visible under the contract's storage namespace.
        assert_eq!(
            s.contract_storage(&contract, &ycsb::record_key(7)).unwrap(),
            Some(b"hello".to_vec())
        );
    }

    #[test]
    fn reverted_execution_leaves_no_contract_writes() {
        let mut s = state();
        let contract = Address::from_index(1001);
        s.install_contract(&contract, &smallbank::bundle().svm).unwrap();
        // send_payment without funds reverts inside the VM.
        let tx = signed(1, 0, contract, 0, smallbank::send_payment_call(1, 2, 50));
        let r = s.apply_transaction(&tx, 1, &Vm::default(), 10_000_000).unwrap();
        assert!(!r.success);
        assert_eq!(
            s.contract_storage(&contract, &smallbank::balance_key(smallbank::NS_CHECKING, 2))
                .unwrap(),
            None
        );
        // Nonce still bumped: the failed tx occupied its slot.
        let kp = KeyPair::from_seed(1);
        assert_eq!(s.account(&Address::from_public_key(&kp.public())).unwrap().nonce, 1);
    }

    #[test]
    fn out_of_gas_rolls_back() {
        let mut s = state();
        let contract = deploy_ycsb(&mut s);
        let tx = signed(1, 0, contract, 0, ycsb::write_call(7, &[9u8; 100]));
        let r = s.apply_transaction(&tx, 1, &Vm::default(), 100).unwrap();
        assert!(!r.success);
        assert!(r.error.as_deref().unwrap_or("").contains("gas"));
        assert_eq!(s.contract_storage(&contract, &ycsb::record_key(7)).unwrap(), None);
    }

    #[test]
    fn deployment_via_transaction() {
        let mut s = state();
        let bundle = ycsb::bundle();
        let tx = signed(1, 0, Address::ZERO, 0, bundle.svm.encode());
        let r = s.apply_transaction(&tx, 1, &Vm::default(), 10_000_000).unwrap();
        assert!(r.success);
        let addr = Address(r.output.clone().try_into().expect("20 bytes"));
        assert!(s.account(&addr).unwrap().is_contract);
        let call = signed(1, 1, addr, 0, ycsb::write_call(1, b"x"));
        assert!(s.apply_transaction(&call, 1, &Vm::default(), 10_000_000).unwrap().success);
    }

    #[test]
    fn historical_roots_answer_getbalance_at_block() {
        let mut s = state();
        let kp = KeyPair::from_seed(1);
        let from = Address::from_public_key(&kp.public());
        s.credit(&from, 1000).unwrap();
        let root_before = s.root();
        let tx = signed(1, 0, Address::from_index(9), 400, vec![]);
        s.apply_transaction(&tx, 1, &Vm::default(), 1_000_000).unwrap();
        assert_eq!(s.account(&from).unwrap().balance, 600);
        assert_eq!(s.account_at(root_before, &from).unwrap().balance, 1000);
    }

    #[test]
    fn commit_block_keeps_sealed_roots_and_drops_tx_garbage() {
        let mut s = state();
        let contract = deploy_ycsb(&mut s);
        s.commit_block().unwrap(); // genesis-ish seal
        // One multi-tx block: each apply materializes an intermediate root
        // that the next apply replaces.
        for i in 0..8u64 {
            let tx = signed(1, i, contract, 0, ycsb::write_call(i, b"payload"));
            assert!(s.apply_transaction(&tx, 1, &Vm::default(), 10_000_000).unwrap().success);
        }
        let sealed_root = s.root();
        s.commit_block().unwrap();
        let (flushed, dropped) = s.trie_flush_stats();
        assert!(dropped > 0, "per-tx interior roots must be dropped at seal");
        assert!(flushed > 0);
        // Mid-block rollback roots (failed tx) also stay consistent.
        let broke = signed(2, 0, contract, 0, ycsb::write_call(9, &[9u8; 100]));
        // Out of gas: included but failed, root = nonce-only.
        let r = s.apply_transaction(&broke, 2, &Vm::default(), 100).unwrap();
        assert!(!r.success);
        s.commit_block().unwrap();
        // The sealed root answers historical reads after garbage was dropped.
        let kp = KeyPair::from_seed(1);
        let from = Address::from_public_key(&kp.public());
        assert_eq!(s.account_at(sealed_root, &from).unwrap().nonce, 8);
    }

    fn run_block_classic(
        s: &mut AccountState<MemStore>,
        txs: &[Arc<Transaction>],
    ) -> Vec<(TxId, bool)> {
        txs.iter()
            .map(|tx| match s.apply_transaction(tx, 1, &Vm::default(), 10_000_000) {
                Ok(r) => (tx.id(), r.success),
                Err(_) => (tx.id(), false),
            })
            .collect()
    }

    /// Two identically seeded states, a block mixing same-sender chains,
    /// cross-account balance conflicts, contract read-after-write, a bad
    /// nonce and an out-of-gas revert. The optimistic executor must land
    /// on the classic serial loop's exact root and receipts.
    #[test]
    fn executor_matches_classic_serial_loop() {
        let alice = KeyPair::from_seed(1);
        let bob = KeyPair::from_seed(2);
        let carol = KeyPair::from_seed(3);
        let carol_addr = Address::from_public_key(&carol.public());
        let seed = |s: &mut AccountState<MemStore>| {
            let contract = deploy_ycsb(s);
            s.credit(&Address::from_public_key(&alice.public()), 1000).unwrap();
            s.credit(&Address::from_public_key(&bob.public()), 1000).unwrap();
            // Carol starts broke: her send only clears if Bob's pays first.
            s.commit_block().unwrap();
            contract
        };
        let mut a = state();
        let mut b = state();
        let contract = seed(&mut a);
        assert_eq!(seed(&mut b), contract);
        assert_eq!(a.root(), b.root());

        let txs: Vec<Arc<Transaction>> = vec![
            // Same-sender chain: three YCSB writes, disjoint keys — no
            // conflicts despite sharing the sender account.
            Arc::new(Transaction::signed(&alice, 0, contract, 0, ycsb::write_call(1, b"a1"))),
            Arc::new(Transaction::signed(&alice, 1, contract, 0, ycsb::write_call(2, b"a2"))),
            Arc::new(Transaction::signed(&alice, 2, contract, 0, ycsb::write_call(3, b"a3"))),
            // Bob funds Carol; Carol spends it in the same block. Carol's
            // speculation sees her base balance (0) and must re-execute.
            Arc::new(Transaction::signed(&bob, 0, carol_addr, 300, vec![])),
            Arc::new(Transaction::signed(&carol, 0, Address::from_index(9), 250, vec![])),
            // Contract read-after-write on key 1: speculates against the
            // pre-state, conflicts with Alice's committed write.
            Arc::new(Transaction::signed(&bob, 1, contract, 0, ycsb::read_call(1))),
            // Nonce gap: rejected identically in both schedules.
            Arc::new(Transaction::signed(&bob, 7, contract, 0, ycsb::write_call(4, b"x"))),
            // Out of gas (tiny limit applies to the whole block here, so
            // use a write too large to ever succeed instead).
            Arc::new(Transaction::signed(&alice, 3, contract, 0, ycsb::write_call(5, &[9; 100_000]))),
        ];

        let classic = run_block_classic(&mut a, &txs);
        let out = b.execute_block(&txs, 1, &Vm::default(), 10_000_000, |g| g.max(1000));
        assert_eq!(out.receipts, classic);
        assert_eq!(a.root(), b.root(), "executor must land on the serial root");
        // Carol's spend cleared (via re-execution), the read conflicted.
        assert!(out.receipts[4].1, "funded-in-block spend must succeed");
        assert!(out.conflicts >= 2, "expected Carol + read-after-write conflicts, got {}", out.conflicts);
        assert!(out.serial_us > 0);
        assert!(out.modeled_us <= out.serial_us);

        // Same block through a second executor state: byte-identical
        // regardless of scheduling (conflict detection is schedule-free).
        let mut c = state();
        seed(&mut c);
        let out2 = c.execute_block(&txs, 1, &Vm::default(), 10_000_000, |g| g.max(1000));
        assert_eq!(out2.receipts, out.receipts);
        assert_eq!(out2.conflicts, out.conflicts);
        assert_eq!(c.root(), b.root());
    }

    /// A conflict-free block models faster than serial; a fully conflicted
    /// one degrades gracefully to exactly serial (never below 1.0×).
    #[test]
    fn executor_speedup_model_bounds() {
        let mut s = state();
        let contract = deploy_ycsb(&mut s);
        s.commit_block().unwrap();
        let disjoint: Vec<Arc<Transaction>> = (0..8)
            .map(|i| {
                Arc::new(Transaction::signed(
                    &KeyPair::from_seed(100 + i),
                    0,
                    contract,
                    0,
                    ycsb::write_call(i, b"v"),
                ))
            })
            .collect();
        let out = s.execute_block(&disjoint, 1, &Vm::default(), 10_000_000, |g| g.max(1000));
        assert_eq!(out.conflicts, 0);
        assert!(out.receipts.iter().all(|(_, ok)| *ok));
        assert!(
            out.modeled_us * 2 <= out.serial_us,
            "8 disjoint txs over 4 modeled lanes must speed up ≥2×: {} vs {}",
            out.modeled_us,
            out.serial_us
        );

        // Every tx reads the same key another tx wrote → all but the first
        // writer re-execute; the model caps at serial.
        let mut s2 = state();
        let contract2 = deploy_ycsb(&mut s2);
        s2.commit_block().unwrap();
        let hot: Vec<Arc<Transaction>> = (0..6)
            .map(|i| {
                let call = if i == 0 { ycsb::write_call(7, b"hot") } else { ycsb::read_call(7) };
                Arc::new(Transaction::signed(&KeyPair::from_seed(200 + i), 0, contract2, 0, call))
            })
            .collect();
        let out = s2.execute_block(&hot, 1, &Vm::default(), 10_000_000, |g| g.max(1000));
        assert!(out.conflicts >= 5, "hot-key readers must all re-execute, got {}", out.conflicts);
        assert!(out.modeled_us <= out.serial_us);
        assert!(out.modeled_us > 0);
    }

    #[test]
    fn doubler_transfers_pay_from_contract_balance() {
        let mut s = state();
        let contract = Address::from_index(1002);
        s.install_contract(&contract, &bb_contracts::doubler::bundle().svm).unwrap();
        // Fund the contract pot so payouts can clear.
        s.credit(&contract, 1000).unwrap();
        let alice = KeyPair::from_seed(1);
        let alice_addr = Address::from_public_key(&alice.public());
        let bob = KeyPair::from_seed(2);
        let t1 = Transaction::signed(&alice, 0, contract, 0, bb_contracts::doubler::enter_call(100));
        assert!(s.apply_transaction(&t1, 1, &Vm::default(), 10_000_000).unwrap().success);
        let t2 = Transaction::signed(&bob, 0, contract, 0, bb_contracts::doubler::enter_call(100));
        assert!(s.apply_transaction(&t2, 1, &Vm::default(), 10_000_000).unwrap().success);
        // Alice was paid 200 out of the contract's balance.
        assert_eq!(s.account(&alice_addr).unwrap().balance, 200);
        assert_eq!(s.account(&contract).unwrap().balance, 800);
    }
}
