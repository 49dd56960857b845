//! YCSB — the key-value store contract (Section 3.4.1). "We implement a
//! simple smart contract which functions as a key-value storage. The
//! WorkloadClient is based on the YCSB driver."
//!
//! Records are `u64 key → opaque value bytes` under the `b'k'` namespace.
//! Methods: write, read, delete — the driver mixes them per the configured
//! read/write ratio.

use crate::asm;
use blockbench::contract::{encode_call, Chaincode, ChaincodeContext, ContractBundle, SvmContract};

/// Insert or update a record: args `[key u64][value bytes...]`.
pub const M_WRITE: u8 = 0;
/// Read a record: args `[key u64]`; returns the value or empty.
pub const M_READ: u8 = 1;
/// Delete a record: args `[key u64]`.
pub const M_DELETE: u8 = 2;

/// Key namespace prefix.
pub const NS_RECORD: u8 = b'k';

/// Build the 9-byte storage key for a record.
pub fn record_key(key: u64) -> Vec<u8> {
    let mut k = vec![NS_RECORD];
    k.extend_from_slice(&(key as i64).to_le_bytes());
    k
}

fn svm_write() -> String {
    // mem: key at 0..9, value copied to 16.
    format!(
        "{key}\
         push 16\npush 8\ncdsize\npush 8\nsub\ncdcopy\n\
         push 0\npush 9\npush 16\ncdsize\npush 8\nsub\nsput\n\
         stop\n",
        key = asm::make_key_from_arg(NS_RECORD, 0, 0, 64)
    )
}

fn svm_read() -> String {
    // sget leaves the value length (or -1) on the stack.
    format!(
        "{key}\
         push 0\npush 9\npush 64\nsget\n\
         dup 0\npush -1\neq\njumpi missing\n\
         push 64\nswap 0\nreturn\n\
         missing:\n\
         pop\npush 0\npush 0\nreturn\n",
        key = asm::make_key_from_arg(NS_RECORD, 0, 0, 128)
    )
}

fn svm_delete() -> String {
    format!(
        "{key}\
         push 0\npush 9\nsdel\n\
         stop\n",
        key = asm::make_key_from_arg(NS_RECORD, 0, 0, 64)
    )
}

struct YcsbNative;

impl Chaincode for YcsbNative {
    fn invoke(
        &mut self,
        ctx: &mut dyn ChaincodeContext,
        method: u8,
        args: &[u8],
    ) -> Result<Vec<u8>, String> {
        if args.len() < 8 {
            return Err("missing key argument".into());
        }
        let key = u64::from_le_bytes(args[..8].try_into().expect("8 bytes"));
        let skey = record_key(key);
        ctx.charge(2);
        match method {
            M_WRITE => {
                ctx.put_state(&skey, &args[8..]);
                Ok(Vec::new())
            }
            M_READ => Ok(ctx.get_state(&skey).unwrap_or_default()),
            M_DELETE => {
                ctx.delete_state(&skey);
                Ok(Vec::new())
            }
            other => Err(format!("unknown method {other}")),
        }
    }
}

/// Both builds of the YCSB contract.
pub fn bundle() -> ContractBundle {
    let asm_of = |src: String| bb_svm::assemble(&src).expect("static program assembles");
    ContractBundle {
        name: "YCSB",
        svm: SvmContract::new()
            .with_method(M_WRITE, asm_of(svm_write()))
            .with_method(M_READ, asm_of(svm_read()))
            .with_method(M_DELETE, asm_of(svm_delete())),
        native: || Box::new(YcsbNative),
    }
}

/// Payload for a write.
pub fn write_call(key: u64, value: &[u8]) -> Vec<u8> {
    let mut args = (key as i64).to_le_bytes().to_vec();
    args.extend_from_slice(value);
    encode_call(M_WRITE, &args)
}

/// Payload for a read.
pub fn read_call(key: u64) -> Vec<u8> {
    encode_call(M_READ, &(key as i64).to_le_bytes())
}

/// Payload for a delete.
pub fn delete_call(key: u64) -> Vec<u8> {
    encode_call(M_DELETE, &(key as i64).to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::DualRunner;

    #[test]
    fn write_then_read_round_trips_on_both_backends() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        let value = vec![7u8; 100]; // the paper's 100-byte YCSB values
        r.invoke_both(&write_call(42, &value)).unwrap();
        let (svm, native) = r.invoke_both(&read_call(42)).unwrap();
        assert_eq!(svm, value);
        assert_eq!(native, value);
        r.assert_states_match();
    }

    #[test]
    fn missing_key_reads_empty() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        let (svm, native) = r.invoke_both(&read_call(9999)).unwrap();
        assert!(svm.is_empty());
        assert!(native.is_empty());
    }

    #[test]
    fn overwrite_replaces_value() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        r.invoke_both(&write_call(1, b"old")).unwrap();
        r.invoke_both(&write_call(1, b"newer-value")).unwrap();
        let (svm, native) = r.invoke_both(&read_call(1)).unwrap();
        assert_eq!(svm, b"newer-value");
        assert_eq!(native, b"newer-value");
        r.assert_states_match();
    }

    #[test]
    fn delete_removes_record() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        r.invoke_both(&write_call(5, b"v")).unwrap();
        r.invoke_both(&delete_call(5)).unwrap();
        let (svm, native) = r.invoke_both(&read_call(5)).unwrap();
        assert!(svm.is_empty());
        assert!(native.is_empty());
        assert!(r.svm_storage().is_empty());
        assert!(r.native_state().is_empty());
    }

    #[test]
    fn distinct_keys_are_independent() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        for k in 0..20u64 {
            r.invoke_both(&write_call(k, format!("value-{k}").as_bytes())).unwrap();
        }
        r.invoke_both(&delete_call(7)).unwrap();
        for k in 0..20u64 {
            let (svm, _) = r.invoke_both(&read_call(k)).unwrap();
            if k == 7 {
                assert!(svm.is_empty());
            } else {
                assert_eq!(svm, format!("value-{k}").into_bytes());
            }
        }
        r.assert_states_match();
    }

    #[test]
    fn empty_value_write_is_legal() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        r.invoke_both(&write_call(3, b"")).unwrap();
        let (svm, native) = r.invoke_both(&read_call(3)).unwrap();
        assert!(svm.is_empty());
        assert!(native.is_empty());
        // The key exists with an empty value on both sides.
        assert_eq!(r.svm_storage().len(), 1);
        r.assert_states_match();
    }
}

/// Seeded write/delete scripts: the SVM and native backends end with
/// identical state and read back every touched key alike.
#[cfg(test)]
mod seeded_props {
    use super::*;
    use crate::testing::DualRunner;
    use bb_sim::SimRng;

    #[test]
    fn backends_stay_equivalent_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_000A);
        for i in 0..24 {
            let b = bundle();
            let mut r = DualRunner::new(&b);
            let mut touched = Vec::new();
            for _ in 0..rng.range(1, 40) {
                let key = rng.below(16);
                touched.push(key);
                let payload = if rng.chance(0.5) {
                    let mut v = vec![0u8; rng.below(32) as usize];
                    rng.fill_bytes(&mut v);
                    write_call(key, &v)
                } else {
                    delete_call(key)
                };
                r.invoke_both(&payload).unwrap();
            }
            r.assert_states_match();
            for key in touched {
                let (svm, native) = r.invoke_both(&read_call(key)).unwrap();
                assert_eq!(svm, native, "case {i}");
            }
        }
    }
}
