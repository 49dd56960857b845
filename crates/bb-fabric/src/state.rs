//! The chaincode runtime: Fabric's execution + data layer.
//!
//! Chaincodes are native Rust (the Docker-image stand-in, Section 3.1.3),
//! each confined to its own key namespace inside one Bucket-Merkle tree
//! over an LSM store (the RocksDB stand-in). Writes buffer during an
//! invocation and flush only on success, so a failed chaincode leaves no
//! trace.

use bb_merkle::{BlockDelta, BucketTree};
use bb_sim::MemMeter;
use bb_storage::{FrameSlot, KvError, KvOps, KvPairs, KvStore, LsmConfig, LsmStore, Vfs};
use bb_types::{Address, Transaction};
use blockbench::contract::{decode_call, Chaincode, ChaincodeContext, ChaincodeFactory};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// VFS path prefix of a peer's LSM store (`{prefix}/wal`, SSTables).
pub const STORE_PREFIX: &str = "lsm";

fn store_config() -> LsmConfig {
    LsmConfig {
        // Chain workloads write heavily and rarely delete: flush less
        // often and let a deeper L0 stack accumulate before the leveled
        // compactor starts folding runs down.
        memtable_flush_bytes: 4 << 20,
        max_tables: 48,
        ..LsmConfig::default()
    }
}

/// Outcome of a chaincode invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvokeResult {
    /// Did it succeed?
    pub success: bool,
    /// Native work units charged.
    pub units: u64,
    /// State operations performed (get/put/delete).
    pub state_ops: u64,
    /// Peak transient allocation during the call.
    pub peak_alloc: u64,
    /// Return data.
    pub output: Vec<u8>,
    /// Failure cause.
    pub error: Option<String>,
}

/// One peer's world state plus its installed chaincodes.
pub struct FabricState {
    tree: BucketTree<LsmStore>,
    chaincodes: HashMap<Address, Box<dyn Chaincode>>,
    mem: MemMeter,
}

fn namespaced(addr: &Address, key: &[u8]) -> Vec<u8> {
    let mut k = addr.0.to_vec();
    k.push(b':');
    k.extend_from_slice(key);
    k
}

impl FabricState {
    /// Open a peer's state on its filesystem: a blank disk, a disk a crash
    /// left behind, or one a snapshot transfer has streamed a whole store
    /// onto. Replays the WAL — truncating any torn tail — recomputes the
    /// Bucket-Merkle digests from the surviving `s:` entries, so the
    /// returned state is exactly the durable prefix, and installs the
    /// `deploys` log's chaincodes: they are redeployable artifacts, not
    /// state.
    pub fn reopen(
        vfs: Arc<Mutex<Vfs>>,
        buckets: usize,
        mem_cap: u64,
        deploys: &[(Address, ChaincodeFactory)],
    ) -> Result<FabricState, bb_storage::KvError> {
        let store = LsmStore::open(vfs, STORE_PREFIX, store_config())?;
        Ok(FabricState {
            tree: BucketTree::rebuild(store, buckets)?,
            chaincodes: deploys.iter().map(|&(addr, factory)| (addr, factory())).collect(),
            mem: MemMeter::new(mem_cap),
        })
    }

    /// Shared handle to the filesystem under the LSM store — this is the
    /// only thing a crash preserves.
    pub fn vfs(&self) -> Arc<Mutex<Vfs>> {
        self.tree.store().vfs()
    }

    /// Raw `(key, value)` pairs under `prefix` in the backing store
    /// (durable block metadata lives outside the `s:` state namespace).
    pub fn scan_meta(&mut self, prefix: &[u8]) -> Result<KvPairs, KvError> {
        self.tree.store_mut().scan_prefix(prefix)
    }

    /// The allocation the store's memtable holds for the raw `key` (tests
    /// of what peers share).
    #[cfg(test)]
    pub(crate) fn memtable_value(&self, key: &[u8]) -> Option<Arc<[u8]>> {
        self.tree.store().memtable_value(key).cloned()
    }

    /// A frozen copy of the backing store to serve a state transfer from:
    /// the memtable flushed, then a clone on a second disk, which shares
    /// the sealed tables and so costs handles, not bytes. Later commits and
    /// compactions never reach it.
    pub fn frozen_store(&mut self) -> LsmStore {
        let store = self.tree.store_mut();
        store.flush();
        store.clone()
    }

    /// Apply raw transferred `(key, value)` entries straight to the
    /// backing store (the snapshot-sync receive path). Bucket digests are
    /// not maintained — the receiver rebuilds them once, by
    /// [`Self::reopen`]ing its disk, when the transfer completes.
    pub fn apply_snapshot_entries(
        &mut self,
        entries: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<(), bb_storage::KvError> {
        let mut batch = bb_storage::WriteBatch::new();
        for (k, v) in entries {
            batch.put(k, v);
        }
        self.tree.store_mut().apply_batch(batch)
    }

    /// Become `src` as far as its world state goes: a copy of its bucket
    /// tree — over a copy of its store, on a second disk — and of its
    /// memory meter. Chaincodes are installed per peer and stay.
    pub fn copy_state_from(&mut self, src: &FabricState) {
        self.tree = src.tree.clone();
        self.mem = src.mem.clone();
    }

    /// Install (deploy) a chaincode at `addr`.
    pub fn install(&mut self, addr: Address, factory: ChaincodeFactory) {
        self.chaincodes.insert(addr, factory());
    }

    /// Is a chaincode installed at `addr`?
    pub fn has_chaincode(&self, addr: &Address) -> bool {
        self.chaincodes.contains_key(addr)
    }

    /// State-tree root (goes into block headers). `&mut`: the bucket tree
    /// brings its Merkle levels up to date with the buckets written since
    /// the last root.
    pub fn root(&mut self) -> bb_crypto::Hash256 {
        self.tree.root()
    }

    /// Storage stats of the backing LSM store.
    pub fn store_stats(&self) -> bb_storage::StorageStats {
        self.tree.store().stats()
    }

    /// Seal a block: flush the bucket tree's pending values to the LSM
    /// store as one atomic write batch.
    pub fn commit_block(&mut self) -> Result<(), bb_storage::KvError> {
        self.tree.commit()
    }

    /// [`Self::commit_block`] plus raw metadata records riding the same
    /// atomic batch, so a crash can never separate a block's state flush
    /// from its chain metadata. Keys must live outside the `s:` state
    /// namespace (they bypass the bucket digests). `frame`, where given, is
    /// the WAL frame slot the block's batch shares with its twins on other
    /// peers.
    pub fn commit_block_with_meta(
        &mut self,
        extras: KvOps,
        frame: Option<FrameSlot>,
    ) -> Result<(), bb_storage::KvError> {
        self.tree.commit_with_extras(extras, frame)
    }

    /// No writes since the last sealed block?
    pub fn is_sealed(&self) -> bool {
        self.tree.pending_values() == 0
    }

    /// What the invocations since the last seal did to the world state,
    /// for a peer on the same pre-state to install instead of running them.
    pub fn block_delta(&self) -> BlockDelta {
        self.tree.block_delta()
    }

    /// Move this sealed state where running a block's invocations would:
    /// install their `delta`, and raise the memory meter's peak as
    /// chaincodes that reached `alloc_peak` bytes and freed them did.
    pub fn install_block(&mut self, delta: &BlockDelta, alloc_peak: u64) {
        self.tree.install_block_delta(delta);
        self.mem.alloc(alloc_peak).expect("a peak the block reached on an equal state fits");
        self.mem.free(alloc_peak);
    }

    /// `(values_flushed, values_superseded)` across this state's lifetime.
    pub fn flush_stats(&self) -> (u64, u64) {
        (self.tree.values_flushed(), self.tree.values_superseded())
    }

    /// Peak chaincode allocation observed.
    pub fn mem_peak(&self) -> u64 {
        self.mem.peak()
    }

    /// Read a raw namespaced state value (tests, analytics).
    pub fn get_state(
        &mut self,
        addr: &Address,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>, bb_storage::KvError> {
        self.tree.get(&namespaced(addr, key))
    }

    /// Execute a transaction's chaincode invocation. `commit` controls
    /// whether buffered writes flush (false = read-only query path).
    pub fn invoke(&mut self, tx: &Transaction, height: u64, commit: bool) -> InvokeResult {
        let (result, writes) = self.execute_call(tx, height);
        if !result.success || !commit {
            return result;
        }
        let flushed = writes.into_iter().try_for_each(|(key, value)| match value {
            Some(v) => self.tree.put(&key, v),
            None => self.tree.delete(&key),
        });
        match flushed {
            Ok(()) => result,
            Err(e) => InvokeResult {
                success: false,
                units: result.units,
                state_ops: result.state_ops,
                peak_alloc: result.peak_alloc,
                output: Vec::new(),
                error: Some(e.to_string()),
            },
        }
    }

    /// Run the chaincode call itself. Buffered writes are returned, not
    /// applied.
    fn execute_call(&mut self, tx: &Transaction, height: u64) -> (InvokeResult, Writes) {
        let fail = |err: &str| InvokeResult {
            success: false,
            units: 1,
            state_ops: 0,
            peak_alloc: 0,
            output: Vec::new(),
            error: Some(err.into()),
        };
        let Some((method, args)) = decode_call(&tx.payload) else {
            return (fail("empty payload"), Writes::new());
        };
        let Some(chaincode) = self.chaincodes.get_mut(&tx.to) else {
            return (fail("no chaincode at target"), Writes::new());
        };
        let mut ctx = FabricContext {
            tree: &mut self.tree,
            mem: &mut self.mem,
            addr: tx.to,
            writes: Writes::new(),
            caller: tx.from.0,
            height,
            units: 2, // unmarshal + dispatch
            state_ops: 0,
            alloc_live: 0,
            peak_alloc: 0,
            storage_error: None,
        };
        let result = chaincode.invoke(&mut ctx, method, args);
        let units = ctx.units;
        let state_ops = ctx.state_ops;
        let peak_alloc = ctx.peak_alloc;
        let writes = std::mem::take(&mut ctx.writes);
        // Free anything the chaincode leaked.
        let leaked = ctx.alloc_live;
        let storage_error = ctx.storage_error.take();
        drop(ctx);
        self.mem.free(leaked);
        if let Some(e) = storage_error {
            return (
                InvokeResult {
                    success: false,
                    units,
                    state_ops,
                    peak_alloc,
                    output: Vec::new(),
                    error: Some(e),
                },
                Writes::new(),
            );
        }
        match result {
            Ok(output) => (
                InvokeResult { success: true, units, state_ops, peak_alloc, output, error: None },
                writes,
            ),
            Err(e) => (
                InvokeResult {
                    success: false,
                    units,
                    state_ops,
                    peak_alloc,
                    output: Vec::new(),
                    error: Some(e),
                },
                Writes::new(),
            ),
        }
    }
}

/// An invocation's buffered writes by namespaced key: `Some` value (a put,
/// held as the shared bytes the bucket tree's overlay takes) or `None` (a
/// delete).
type Writes = BTreeMap<Vec<u8>, Option<Arc<[u8]>>>;

/// Per-invocation context: buffered writes over the shared bucket tree.
struct FabricContext<'a> {
    tree: &'a mut BucketTree<LsmStore>,
    mem: &'a mut MemMeter,
    addr: Address,
    writes: Writes,
    caller: [u8; 20],
    height: u64,
    units: u64,
    state_ops: u64,
    alloc_live: u64,
    peak_alloc: u64,
    storage_error: Option<String>,
}

impl ChaincodeContext for FabricContext<'_> {
    fn get_state(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.units += 1;
        self.state_ops += 1;
        let nkey = namespaced(&self.addr, key);
        if let Some(buffered) = self.writes.get(&nkey) {
            return buffered.as_deref().map(<[u8]>::to_vec);
        }
        match self.tree.get(&nkey) {
            Ok(v) => v,
            Err(e) => {
                self.storage_error = Some(e.to_string());
                None
            }
        }
    }

    fn put_state(&mut self, key: &[u8], value: &[u8]) {
        self.units += 2;
        self.state_ops += 1;
        self.writes.insert(namespaced(&self.addr, key), Some(value.into()));
    }

    fn delete_state(&mut self, key: &[u8]) {
        self.units += 2;
        self.state_ops += 1;
        self.writes.insert(namespaced(&self.addr, key), None);
    }

    fn caller(&self) -> [u8; 20] {
        self.caller
    }

    fn block_height(&self) -> u64 {
        self.height
    }

    fn charge(&mut self, units: u64) {
        self.units += units;
    }

    fn alloc(&mut self, bytes: u64) -> Result<(), String> {
        self.mem.alloc(bytes).map_err(|e| e.to_string())?;
        self.alloc_live += bytes;
        self.peak_alloc = self.peak_alloc.max(self.alloc_live);
        Ok(())
    }

    fn free(&mut self, bytes: u64) {
        let freed = bytes.min(self.alloc_live);
        self.mem.free(freed);
        self.alloc_live -= freed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_contracts::{cpuheavy, smallbank, ycsb};
    use bb_crypto::KeyPair;

    fn tx(seed: u64, nonce: u64, to: Address, payload: Vec<u8>) -> Transaction {
        Transaction::signed(&KeyPair::from_seed(seed), nonce, to, 0, payload)
    }

    /// A 64-bucket state on a blank disk with no chaincode installed.
    fn blank(mem_cap: u64) -> FabricState {
        FabricState::reopen(Arc::default(), 64, mem_cap, &[]).unwrap()
    }

    fn state_with_ycsb() -> (FabricState, Address) {
        let mut s = blank(1 << 30);
        let addr = Address::from_index(500);
        s.install(addr, ycsb::bundle().native);
        (s, addr)
    }

    #[test]
    fn invoke_writes_and_reads_namespaced_state() {
        let (mut s, addr) = state_with_ycsb();
        let r = s.invoke(&tx(1, 0, addr, ycsb::write_call(9, b"val")), 1, true);
        assert!(r.success, "{:?}", r.error);
        assert!(r.units > 0);
        let r = s.invoke(&tx(1, 1, addr, ycsb::read_call(9)), 1, true);
        assert_eq!(r.output, b"val");
        assert_eq!(s.get_state(&addr, &ycsb::record_key(9)).unwrap(), Some(b"val".to_vec()));
    }

    #[test]
    fn chaincodes_are_isolated_by_namespace() {
        let mut s = blank(1 << 30);
        let a = Address::from_index(1);
        let b = Address::from_index(2);
        s.install(a, ycsb::bundle().native);
        s.install(b, ycsb::bundle().native);
        s.invoke(&tx(1, 0, a, ycsb::write_call(1, b"from-a")), 1, true);
        let r = s.invoke(&tx(1, 1, b, ycsb::read_call(1)), 1, true);
        assert!(r.output.is_empty(), "chaincode b must not see a's state");
    }

    #[test]
    fn failed_invocation_rolls_back() {
        let mut s = blank(1 << 30);
        let addr = Address::from_index(3);
        s.install(addr, smallbank::bundle().native);
        let root = s.root();
        let r = s.invoke(&tx(1, 0, addr, smallbank::send_payment_call(1, 2, 100)), 1, true);
        assert!(!r.success);
        assert_eq!(s.root(), root, "failed chaincode must not move the state root");
    }

    #[test]
    fn query_path_does_not_commit() {
        let (mut s, addr) = state_with_ycsb();
        let root = s.root();
        let r = s.invoke(&tx(1, 0, addr, ycsb::write_call(5, b"x")), 1, false);
        assert!(r.success);
        assert_eq!(s.root(), root);
        assert_eq!(s.get_state(&addr, &ycsb::record_key(5)).unwrap(), None);
    }

    #[test]
    fn missing_chaincode_and_malformed_payload_fail() {
        let (mut s, addr) = state_with_ycsb();
        let r = s.invoke(&tx(1, 0, Address::from_index(999), ycsb::read_call(1)), 1, true);
        assert!(!r.success);
        let r = s.invoke(&tx(1, 0, addr, vec![]), 1, true);
        assert!(!r.success);
    }

    #[test]
    fn allocation_cap_models_node_ram() {
        let mut s = blank(1 << 20); // 1 MiB cap
        let addr = Address::from_index(4);
        s.install(addr, cpuheavy::bundle().native);
        let r = s.invoke(&tx(1, 0, addr, cpuheavy::sort_call(1_000_000)), 1, true);
        assert!(!r.success);
        assert!(r.error.unwrap().contains("out of memory"));
        // A small sort fits and records its peak.
        let r = s.invoke(&tx(1, 1, addr, cpuheavy::sort_call(1000)), 1, true);
        assert!(r.success);
        assert_eq!(r.peak_alloc, 8000);
        assert!(s.mem_peak() >= 8000);
    }

    /// A block installed on a twin from the delta and allocation peak its
    /// run left (`install_block`) lands where running it does: root, memory
    /// peak, flush counters and, after the seal, the store.
    #[test]
    fn outcome_of_a_batch_installed_on_a_twin_state_lands_where_running_it_does() {
        let (kv, cpu) = (Address::from_index(1), Address::from_index(2));
        let [mut ran, mut twin] = [0; 2].map(|_| {
            let mut s = blank(1 << 30);
            s.install(kv, ycsb::bundle().native);
            s.install(cpu, cpuheavy::bundle().native);
            for i in 0..10 {
                assert!(s.invoke(&tx(1, i, kv, ycsb::write_call(i, b"old")), 1, true).success);
            }
            s.commit_block().unwrap();
            s
        });
        // Overwrites of sealed and in-block values, then a sort that allocates.
        let mut peak = 0;
        for i in 0..6 {
            let r = ran.invoke(&tx(2, i, kv, ycsb::write_call(i % 3, b"new")), 2, true);
            peak = peak.max(r.peak_alloc);
        }
        peak = peak.max(ran.invoke(&tx(2, 6, cpu, cpuheavy::sort_call(1000)), 2, true).peak_alloc);
        assert_eq!(peak, 8000);
        assert!(twin.is_sealed() && !ran.is_sealed());
        twin.install_block(&ran.block_delta(), peak);
        assert_eq!((twin.root(), twin.mem_peak()), (ran.root(), ran.mem_peak()));
        ran.commit_block().unwrap();
        twin.commit_block().unwrap();
        assert_eq!(twin.flush_stats(), ran.flush_stats());
        assert_eq!(twin.scan_meta(b"").unwrap(), ran.scan_meta(b"").unwrap());
    }

    #[test]
    fn disk_usage_is_flat_key_value() {
        let (mut s, addr) = state_with_ycsb();
        for i in 0..200u64 {
            s.invoke(&tx(1, i, addr, ycsb::write_call(i, &[7u8; 100])), 1, true);
        }
        // Writes stay pending until the block seals.
        assert_eq!(s.store_stats().writes, 0);
        s.commit_block().unwrap();
        let stats = s.store_stats();
        // One write per put, all in a single WAL batch: no trie-style
        // amplification.
        assert!(stats.writes <= 220, "writes {}", stats.writes);
        assert_eq!(stats.batch_writes, 1);
        assert!(stats.disk_bytes > 100 * 200);
        let (flushed, _) = s.flush_stats();
        assert_eq!(flushed, 200);
    }
}
