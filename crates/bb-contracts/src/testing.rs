//! Dual-backend test harness: run the SVM build and the native build of a
//! contract side by side and compare behaviour. Also provides the simple
//! in-memory [`NativeCtx`] used by unit tests across this crate, and the
//! miniature workload set-up the platform crates' twin tests share.

use bb_crypto::KeyPair;
use bb_svm::{MockHost, Vm};
use bb_types::{Address, Transaction};
use blockbench::connector::BlockchainConnector;
use blockbench::contract::{decode_call, Chaincode, ChaincodeContext, ContractBundle};
use std::collections::BTreeMap;

/// Plain in-memory chaincode context for tests.
#[derive(Debug, Default)]
pub struct NativeCtx {
    /// Chaincode state namespace.
    pub state: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Units charged by the contract.
    pub charged: u64,
    /// Peak transient allocation.
    pub peak_alloc: u64,
    /// Currently live transient allocation.
    pub current_alloc: u64,
    /// Allocation cap (None = unlimited).
    pub alloc_cap: Option<u64>,
    /// Reported caller.
    pub caller: [u8; 20],
    /// Reported block height.
    pub height: u64,
}

impl ChaincodeContext for NativeCtx {
    fn get_state(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.state.get(key).cloned()
    }
    fn put_state(&mut self, key: &[u8], value: &[u8]) {
        self.state.insert(key.to_vec(), value.to_vec());
    }
    fn delete_state(&mut self, key: &[u8]) {
        self.state.remove(key);
    }
    fn caller(&self) -> [u8; 20] {
        self.caller
    }
    fn block_height(&self) -> u64 {
        self.height
    }
    fn charge(&mut self, units: u64) {
        self.charged += units;
    }
    fn alloc(&mut self, bytes: u64) -> Result<(), String> {
        let new = self.current_alloc + bytes;
        if let Some(cap) = self.alloc_cap {
            if new > cap {
                return Err(format!("out of memory: {new} > {cap}"));
            }
        }
        self.current_alloc = new;
        self.peak_alloc = self.peak_alloc.max(new);
        Ok(())
    }
    fn free(&mut self, bytes: u64) {
        self.current_alloc = self.current_alloc.saturating_sub(bytes);
    }
}

/// Runs both builds of one contract against parallel in-memory states.
pub struct DualRunner {
    vm: Vm,
    vm_host: MockHost,
    svm: blockbench::contract::SvmContract,
    native: Box<dyn Chaincode>,
    native_ctx: NativeCtx,
    gas_limit: u64,
}

impl DualRunner {
    /// Fresh runner over `bundle`.
    pub fn new(bundle: &ContractBundle) -> DualRunner {
        DualRunner {
            vm: Vm::default(),
            vm_host: MockHost::new(),
            svm: bundle.svm.clone(),
            native: (bundle.native)(),
            native_ctx: NativeCtx::default(),
            gas_limit: 2_000_000_000,
        }
    }

    /// Set the caller both backends observe.
    pub fn set_caller(&mut self, caller: [u8; 20]) {
        self.vm_host.caller = caller;
        self.native_ctx.caller = caller;
    }

    /// Invoke the SVM build: `Ok(return_data)` on success, `Err` on revert
    /// or fault.
    pub fn invoke_svm(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let (method, args) = decode_call(payload).ok_or("empty payload")?;
        let code = self
            .svm
            .method(method)
            .ok_or_else(|| format!("unknown method {method}"))?;
        let out = self.vm.execute(code, args, self.gas_limit, &mut self.vm_host);
        if out.success {
            Ok(out.return_data)
        } else {
            Err(format!("reverted: {:?}", out.error))
        }
    }

    /// Invoke the native build.
    pub fn invoke_native(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let (method, args) = decode_call(payload).ok_or("empty payload")?;
        self.native.invoke(&mut self.native_ctx, method, args)
    }

    /// Invoke both builds; panics if one succeeds and the other fails.
    pub fn invoke_both(&mut self, payload: &[u8]) -> Result<(Vec<u8>, Vec<u8>), String> {
        let svm = self.invoke_svm(payload);
        let native = self.invoke_native(payload);
        match (svm, native) {
            (Ok(a), Ok(b)) => Ok((a, b)),
            (Err(a), Err(_)) => Err(a),
            (svm, native) => panic!("backend divergence: svm={svm:?} native={native:?}"),
        }
    }

    /// The SVM backend's storage map.
    pub fn svm_storage(&self) -> &BTreeMap<Vec<u8>, Vec<u8>> {
        &self.vm_host.storage
    }

    /// The native backend's state map.
    pub fn native_state(&self) -> &BTreeMap<Vec<u8>, Vec<u8>> {
        &self.native_ctx.state
    }

    /// Assert the two backends hold identical state (both builds use the
    /// same `[prefix][word]` key layout, so maps compare directly).
    pub fn assert_states_match(&self) {
        assert_eq!(
            self.svm_storage(),
            self.native_state(),
            "SVM and native state diverged"
        );
    }

    /// Transfers performed by the SVM build (Doubler payouts).
    pub fn svm_transfers(&self) -> &[([u8; 20], i64)] {
        &self.vm_host.transfers
    }

    /// Mutable access to the native context (caps, height).
    pub fn native_ctx_mut(&mut self) -> &mut NativeCtx {
        &mut self.native_ctx
    }
}

/// Encode a u64 argument word (the calldata convention).
pub fn word(v: u64) -> [u8; 8] {
    (v as i64).to_le_bytes()
}

/// Concatenate argument chunks into a calldata buffer.
pub fn args(chunks: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    for c in chunks {
        out.extend_from_slice(c);
    }
    out
}

/// The YCSB and Smallbank workloads' set-up in miniature, for platform
/// tests: deploy each contract, then preload 120 records and 80 accounts in
/// blocks of 25, each contract from its own funded key — two
/// `preload_blocks` calls, the second over whatever the first left behind.
/// Returns the two contract addresses.
pub fn ycsb_and_smallbank_setup(chain: &mut dyn BlockchainConnector) -> (Address, Address) {
    fn preload(
        chain: &mut dyn BlockchainConnector,
        seed: u64,
        contract: Address,
        payloads: Vec<Vec<u8>>,
    ) {
        let key = KeyPair::from_seed(seed);
        let txs: Vec<Transaction> = payloads
            .into_iter()
            .enumerate()
            .map(|(nonce, p)| Transaction::signed(&key, nonce as u64, contract, 0, p))
            .collect();
        chain.preload_blocks(txs.chunks(25).map(<[Transaction]>::to_vec).collect());
    }
    let kv = chain.deploy(&crate::ycsb::bundle());
    let records = (0..120).map(|k| crate::ycsb::write_call(k, &[k as u8; 100])).collect();
    preload(chain, 900, kv, records);
    let bank = chain.deploy(&crate::smallbank::bundle());
    let accounts = (0..80).map(|a| crate::smallbank::deposit_checking_call(a, 10_000)).collect();
    preload(chain, 901, bank, accounts);
    (kv, bank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_ctx_alloc_cap() {
        let mut ctx = NativeCtx { alloc_cap: Some(100), ..Default::default() };
        ctx.alloc(60).unwrap();
        assert!(ctx.alloc(60).is_err());
        ctx.free(30);
        ctx.alloc(60).unwrap();
        assert_eq!(ctx.peak_alloc, 90);
    }

    #[test]
    fn word_is_little_endian() {
        assert_eq!(word(1)[0], 1);
        assert_eq!(word(256)[1], 1);
    }

    #[test]
    fn args_concatenates() {
        assert_eq!(args(&[&[1, 2], &[3]]), vec![1, 2, 3]);
    }
}
