//! Dual-backend smart contracts.
//!
//! The paper implemented every Table 1 contract twice: "Each contract has
//! one Solidity version for Parity and Ethereum, and one Golang version for
//! Hyperledger." A [`ContractBundle`] carries both builds:
//!
//! - [`SvmContract`]: method-selector → SVM bytecode, executed by the
//!   gas-metered VM on the EVM-like platforms;
//! - a [`Chaincode`] factory: native Rust executing against the restricted
//!   `getState`/`putState` interface inside the Fabric-like platform's
//!   container runtime stand-in.
//!
//! A transaction payload is `[method: u8][args...]`; both backends dispatch
//! on the selector byte.

use std::collections::BTreeMap;

/// The bytecode build of a contract: one program per method selector.
#[derive(Debug, Clone, Default)]
pub struct SvmContract {
    programs: BTreeMap<u8, Vec<u8>>,
}

impl SvmContract {
    /// Empty contract.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `code` under `selector`. Replaces any previous program.
    pub fn with_method(mut self, selector: u8, code: Vec<u8>) -> Self {
        self.programs.insert(selector, code);
        self
    }

    /// Program for a selector.
    pub fn method(&self, selector: u8) -> Option<&[u8]> {
        self.programs.get(&selector).map(Vec::as_slice)
    }

    /// Total bytecode bytes (deployment payload size).
    pub fn code_size(&self) -> usize {
        self.programs.values().map(Vec::len).sum()
    }

    /// Registered selectors in order.
    pub fn selectors(&self) -> impl Iterator<Item = u8> + '_ {
        self.programs.keys().copied()
    }

    /// Serialize all programs for on-chain storage (deploy transactions).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.code_size() + self.programs.len() * 5);
        for (sel, code) in &self.programs {
            out.push(*sel);
            out.extend_from_slice(&(code.len() as u32).to_be_bytes());
            out.extend_from_slice(code);
        }
        out
    }

    /// Rebuild from [`SvmContract::encode`] output.
    pub fn decode(mut bytes: &[u8]) -> Option<SvmContract> {
        let mut programs = BTreeMap::new();
        while !bytes.is_empty() {
            if bytes.len() < 5 {
                return None;
            }
            let sel = bytes[0];
            let len = u32::from_be_bytes(bytes[1..5].try_into().ok()?) as usize;
            if bytes.len() < 5 + len {
                return None;
            }
            programs.insert(sel, bytes[5..5 + len].to_vec());
            bytes = &bytes[5 + len..];
        }
        Some(SvmContract { programs })
    }
}

/// Chain services available to native chaincode — deliberately restricted
/// to Fabric v0.6's surface: "Hyperledger exposes only simple key-value
/// operations, namely putState and getState" (Section 3.1.3), plus the
/// resource-accounting hooks the simulation needs.
pub trait ChaincodeContext {
    /// Read a state key (chaincode-private namespace).
    fn get_state(&mut self, key: &[u8]) -> Option<Vec<u8>>;

    /// Write a state key.
    fn put_state(&mut self, key: &[u8], value: &[u8]);

    /// Delete a state key.
    fn delete_state(&mut self, key: &[u8]);

    /// The 20-byte transaction sender.
    fn caller(&self) -> [u8; 20];

    /// Height of the executing block.
    fn block_height(&self) -> u64;

    /// Charge `units` of native compute (the platform's CPU cost model
    /// converts these into simulated time).
    fn charge(&mut self, units: u64);

    /// Account `bytes` of transient memory against the node's RAM; fails
    /// when the node would OOM (Figure 11's 'X' entries).
    fn alloc(&mut self, bytes: u64) -> Result<(), String>;

    /// Release transient memory.
    fn free(&mut self, bytes: u64);
}

/// Native chaincode: the Fabric-side build of a contract.
///
/// `Send` so a node's installed chaincodes stay movable between threads
/// with the rest of the node state (`ShardedWorld::Node: Send`).
pub trait Chaincode: Send {
    /// Execute `method` with `args`. Errors abort the transaction (state
    /// changes are rolled back by the platform's write buffering).
    fn invoke(
        &mut self,
        ctx: &mut dyn ChaincodeContext,
        method: u8,
        args: &[u8],
    ) -> Result<Vec<u8>, String>;
}

/// Factory building a fresh chaincode instance per deployment.
pub type ChaincodeFactory = fn() -> Box<dyn Chaincode>;

/// Both builds of one Table 1 contract.
pub struct ContractBundle {
    /// Contract name as in Table 1 ("YCSB", "Smallbank", ...).
    pub name: &'static str,
    /// The EVM-like build.
    pub svm: SvmContract,
    /// The Fabric-like build.
    pub native: ChaincodeFactory,
}

impl std::fmt::Debug for ContractBundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContractBundle")
            .field("name", &self.name)
            .field("svm_code_bytes", &self.svm.code_size())
            .finish()
    }
}

/// Build a transaction payload: `[method][args...]`.
pub fn encode_call(method: u8, args: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + args.len());
    p.push(method);
    p.extend_from_slice(args);
    p
}

/// Split a payload back into `(method, args)`.
pub fn decode_call(payload: &[u8]) -> Option<(u8, &[u8])> {
    payload.split_first().map(|(m, rest)| (*m, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Chaincode for Echo {
        fn invoke(
            &mut self,
            ctx: &mut dyn ChaincodeContext,
            method: u8,
            args: &[u8],
        ) -> Result<Vec<u8>, String> {
            ctx.charge(1);
            if method == 0xff {
                return Err("bad method".into());
            }
            Ok(args.to_vec())
        }
    }

    struct TestCtx {
        state: std::collections::BTreeMap<Vec<u8>, Vec<u8>>,
        charged: u64,
    }

    impl ChaincodeContext for TestCtx {
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
            [0; 20]
        }
        fn block_height(&self) -> u64 {
            0
        }
        fn charge(&mut self, units: u64) {
            self.charged += units;
        }
        fn alloc(&mut self, _bytes: u64) -> Result<(), String> {
            Ok(())
        }
        fn free(&mut self, _bytes: u64) {}
    }

    #[test]
    fn svm_contract_method_registry() {
        let c = SvmContract::new()
            .with_method(0, vec![1, 2, 3])
            .with_method(7, vec![4, 5]);
        assert_eq!(c.method(0), Some(&[1u8, 2, 3][..]));
        assert_eq!(c.method(7), Some(&[4u8, 5][..]));
        assert_eq!(c.method(3), None);
        assert_eq!(c.code_size(), 5);
        assert_eq!(c.selectors().collect::<Vec<_>>(), vec![0, 7]);
    }

    #[test]
    fn svm_contract_encode_decode() {
        let c = SvmContract::new()
            .with_method(1, vec![9; 100])
            .with_method(2, vec![])
            .with_method(200, vec![7]);
        let decoded = SvmContract::decode(&c.encode()).unwrap();
        assert_eq!(decoded.method(1), c.method(1));
        assert_eq!(decoded.method(2), Some(&[][..]));
        assert_eq!(decoded.method(200), Some(&[7u8][..]));
        // Truncated payloads rejected.
        assert!(SvmContract::decode(&c.encode()[..3]).is_none());
    }

    #[test]
    fn call_encoding_round_trips() {
        let p = encode_call(4, b"args");
        assert_eq!(decode_call(&p), Some((4u8, &b"args"[..])));
        assert_eq!(decode_call(&[]), None);
        assert_eq!(decode_call(&[9]), Some((9u8, &[][..])));
    }

    #[test]
    fn chaincode_dispatch_and_errors() {
        let mut ctx = TestCtx { state: Default::default(), charged: 0 };
        let mut cc = Echo;
        assert_eq!(cc.invoke(&mut ctx, 1, b"hello").unwrap(), b"hello");
        assert!(cc.invoke(&mut ctx, 0xff, b"").is_err());
        assert_eq!(ctx.charged, 2);
    }
}
