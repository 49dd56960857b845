//! Smallbank — the OLTP workload contract (Section 3.4.1). "Smallbank is a
//! popular benchmark for OLTP workload\[s\]. It consists of three tables and
//! four basic procedures simulating basic operations on bank accounts."
//!
//! Accounts are `u64` ids with a savings and a checking balance, stored
//! under the `b's'` and `b'c'` namespaces. The procedures are the classic
//! Smallbank set: SendPayment, DepositChecking, TransactSavings,
//! WriteCheck, Amalgamate, plus a balance query.

use crate::asm::{
    load_word_or_zero, make_key_from_arg, push_arg_word, return_word, revert_empty, store_word,
};
use blockbench::contract::{
    decode_call, encode_call, Chaincode, ChaincodeContext, ContractBundle, SvmContract,
};

/// `send_payment(from, to, amount)`: move checking funds; reverts when the
/// sender's checking balance is insufficient.
pub const M_SEND_PAYMENT: u8 = 0;
/// `deposit_checking(acct, amount)`.
pub const M_DEPOSIT_CHECKING: u8 = 1;
/// `transact_savings(acct, amount)`: amount may be negative; reverts if the
/// savings balance would go negative.
pub const M_TRANSACT_SAVINGS: u8 = 2;
/// `write_check(acct, amount)`: unconditionally debits checking (Smallbank
/// allows overdrafts here).
pub const M_WRITE_CHECK: u8 = 3;
/// `amalgamate(a, b)`: move all of `a`'s funds into `b`'s checking.
pub const M_AMALGAMATE: u8 = 4;
/// `query(acct)`: returns savings + checking as an 8-byte word.
pub const M_QUERY: u8 = 5;

/// Savings namespace prefix.
pub const NS_SAVINGS: u8 = b's';
/// Checking namespace prefix.
pub const NS_CHECKING: u8 = b'c';

/// 9-byte storage key for an account balance.
pub fn balance_key(ns: u8, acct: u64) -> Vec<u8> {
    let mut k = vec![ns];
    k.extend_from_slice(&(acct as i64).to_le_bytes());
    k
}

// Memory layout shared by the SVM methods.
const K1: usize = 0; // first key (9 bytes)
const K2: usize = 64; // second key
const K3: usize = 128; // third key
const B1: usize = 192; // balance words
const B2: usize = 200;
const B3: usize = 208;
const SCR: usize = 256; // scratch

fn svm_send_payment() -> String {
    format!(
        "{k_from}{load_from}\
         push {B1}\nmload\n{amt}lt\njumpi poor\n\
         push {B1}\nmload\n{amt2}sub\npush {B1}\nmstore\n\
         {store_from}\
         {k_to}{load_to}\
         push {B2}\nmload\n{amt3}add\npush {B2}\nmstore\n\
         {store_to}\
         stop\n\
         poor:\n{revert}",
        k_from = make_key_from_arg(NS_CHECKING, 0, K1, SCR),
        load_from = load_word_or_zero(K1, B1, "from"),
        amt = push_arg_word(2, SCR),
        amt2 = push_arg_word(2, SCR),
        store_from = store_word(K1, B1),
        k_to = make_key_from_arg(NS_CHECKING, 1, K2, SCR),
        load_to = load_word_or_zero(K2, B2, "to"),
        amt3 = push_arg_word(2, SCR),
        store_to = store_word(K2, B2),
        revert = revert_empty(),
    )
}

fn svm_add_to_balance(ns: u8, check_negative: bool) -> String {
    let guard = if check_negative {
        format!("push {B1}\nmload\npush 0\nlt\njumpi neg\n")
    } else {
        String::new()
    };
    let tail = if check_negative {
        format!("stop\nneg:\n{}", revert_empty())
    } else {
        "stop\n".to_string()
    };
    format!(
        "{key}{load}\
         push {B1}\nmload\n{amt}add\npush {B1}\nmstore\n\
         {guard}\
         {store}\
         {tail}",
        key = make_key_from_arg(ns, 0, K1, SCR),
        load = load_word_or_zero(K1, B1, "acct"),
        amt = push_arg_word(1, SCR),
        store = store_word(K1, B1),
    )
}

fn svm_write_check() -> String {
    format!(
        "{key}{load}\
         push {B1}\nmload\n{amt}sub\npush {B1}\nmstore\n\
         {store}\
         stop\n",
        key = make_key_from_arg(NS_CHECKING, 0, K1, SCR),
        load = load_word_or_zero(K1, B1, "acct"),
        amt = push_arg_word(1, SCR),
        store = store_word(K1, B1),
    )
}

/// The destination is read only after `a` is zeroed, so `amalgamate(a, a)`
/// leaves `a` with exactly its own funds; the sum rides on the stack.
fn svm_amalgamate() -> String {
    format!(
        "{k_sav}{load_sav}\
         {k_chk}{load_chk}\
         push {B1}\nmload\npush {B2}\nmload\nadd\n\
         push 0\npush {B1}\nmstore\n\
         push 0\npush {B2}\nmstore\n\
         {store_sav}{store_chk}\
         {k_dst}{load_dst}\
         push {B3}\nmload\nadd\npush {B3}\nmstore\n\
         {store_dst}\
         stop\n",
        k_sav = make_key_from_arg(NS_SAVINGS, 0, K1, SCR),
        load_sav = load_word_or_zero(K1, B1, "sav"),
        k_chk = make_key_from_arg(NS_CHECKING, 0, K2, SCR),
        load_chk = load_word_or_zero(K2, B2, "chk"),
        k_dst = make_key_from_arg(NS_CHECKING, 1, K3, SCR),
        load_dst = load_word_or_zero(K3, B3, "dst"),
        store_sav = store_word(K1, B1),
        store_chk = store_word(K2, B2),
        store_dst = store_word(K3, B3),
    )
}

fn svm_query() -> String {
    format!(
        "{k_sav}{load_sav}\
         {k_chk}{load_chk}\
         push {B1}\nmload\npush {B2}\nmload\nadd\npush {B3}\nmstore\n\
         {ret}",
        k_sav = make_key_from_arg(NS_SAVINGS, 0, K1, SCR),
        load_sav = load_word_or_zero(K1, B1, "sav"),
        k_chk = make_key_from_arg(NS_CHECKING, 0, K2, SCR),
        load_chk = load_word_or_zero(K2, B2, "chk"),
        ret = return_word(B3),
    )
}

struct SmallbankNative;

impl SmallbankNative {
    fn read(ctx: &mut dyn ChaincodeContext, ns: u8, acct: u64) -> i64 {
        ctx.get_state(&balance_key(ns, acct))
            .map(|v| i64::from_le_bytes(v.try_into().unwrap_or([0; 8])))
            .unwrap_or(0)
    }

    fn write(ctx: &mut dyn ChaincodeContext, ns: u8, acct: u64, v: i64) {
        ctx.put_state(&balance_key(ns, acct), &v.to_le_bytes());
    }
}

fn arg_word(args: &[u8], i: usize) -> Result<i64, String> {
    args.get(i * 8..i * 8 + 8)
        .map(|b| i64::from_le_bytes(b.try_into().expect("8 bytes")))
        .ok_or_else(|| format!("missing argument {i}"))
}

impl Chaincode for SmallbankNative {
    fn invoke(
        &mut self,
        ctx: &mut dyn ChaincodeContext,
        method: u8,
        args: &[u8],
    ) -> Result<Vec<u8>, String> {
        ctx.charge(4);
        match method {
            M_SEND_PAYMENT => {
                let (from, to) = (arg_word(args, 0)? as u64, arg_word(args, 1)? as u64);
                let amt = arg_word(args, 2)?;
                let bal = Self::read(ctx, NS_CHECKING, from);
                if bal < amt {
                    return Err("insufficient funds".into());
                }
                Self::write(ctx, NS_CHECKING, from, bal - amt);
                let dst = Self::read(ctx, NS_CHECKING, to);
                Self::write(ctx, NS_CHECKING, to, dst + amt);
                Ok(Vec::new())
            }
            M_DEPOSIT_CHECKING => {
                let acct = arg_word(args, 0)? as u64;
                let amt = arg_word(args, 1)?;
                let bal = Self::read(ctx, NS_CHECKING, acct);
                Self::write(ctx, NS_CHECKING, acct, bal + amt);
                Ok(Vec::new())
            }
            M_TRANSACT_SAVINGS => {
                let acct = arg_word(args, 0)? as u64;
                let amt = arg_word(args, 1)?;
                let new = Self::read(ctx, NS_SAVINGS, acct) + amt;
                if new < 0 {
                    return Err("savings would go negative".into());
                }
                Self::write(ctx, NS_SAVINGS, acct, new);
                Ok(Vec::new())
            }
            M_WRITE_CHECK => {
                let acct = arg_word(args, 0)? as u64;
                let amt = arg_word(args, 1)?;
                let bal = Self::read(ctx, NS_CHECKING, acct);
                Self::write(ctx, NS_CHECKING, acct, bal - amt);
                Ok(Vec::new())
            }
            M_AMALGAMATE => {
                let a = arg_word(args, 0)? as u64;
                let b = arg_word(args, 1)? as u64;
                let total = Self::read(ctx, NS_SAVINGS, a) + Self::read(ctx, NS_CHECKING, a);
                Self::write(ctx, NS_SAVINGS, a, 0);
                Self::write(ctx, NS_CHECKING, a, 0);
                let dst = Self::read(ctx, NS_CHECKING, b);
                Self::write(ctx, NS_CHECKING, b, dst + total);
                Ok(Vec::new())
            }
            M_QUERY => {
                let acct = arg_word(args, 0)? as u64;
                let total = Self::read(ctx, NS_SAVINGS, acct) + Self::read(ctx, NS_CHECKING, acct);
                Ok(total.to_le_bytes().to_vec())
            }
            other => Err(format!("unknown method {other}")),
        }
    }
}

/// Both builds of Smallbank.
pub fn bundle() -> ContractBundle {
    let asm_of = |src: String| bb_svm::assemble(&src).expect("static program assembles");
    ContractBundle {
        name: "Smallbank",
        svm: SvmContract::new()
            .with_method(M_SEND_PAYMENT, asm_of(svm_send_payment()))
            .with_method(M_DEPOSIT_CHECKING, asm_of(svm_add_to_balance(NS_CHECKING, false)))
            .with_method(M_TRANSACT_SAVINGS, asm_of(svm_add_to_balance(NS_SAVINGS, true)))
            .with_method(M_WRITE_CHECK, asm_of(svm_write_check()))
            .with_method(M_AMALGAMATE, asm_of(svm_amalgamate()))
            .with_method(M_QUERY, asm_of(svm_query())),
        native: || Box::new(SmallbankNative),
    }
}

fn call2(method: u8, a: u64, b: i64) -> Vec<u8> {
    let mut args = (a as i64).to_le_bytes().to_vec();
    args.extend_from_slice(&b.to_le_bytes());
    encode_call(method, &args)
}

/// `send_payment` payload.
pub fn send_payment_call(from: u64, to: u64, amount: i64) -> Vec<u8> {
    let mut args = (from as i64).to_le_bytes().to_vec();
    args.extend_from_slice(&(to as i64).to_le_bytes());
    args.extend_from_slice(&amount.to_le_bytes());
    encode_call(M_SEND_PAYMENT, &args)
}

/// `deposit_checking` payload.
pub fn deposit_checking_call(acct: u64, amount: i64) -> Vec<u8> {
    call2(M_DEPOSIT_CHECKING, acct, amount)
}

/// `transact_savings` payload.
pub fn transact_savings_call(acct: u64, amount: i64) -> Vec<u8> {
    call2(M_TRANSACT_SAVINGS, acct, amount)
}

/// `write_check` payload.
pub fn write_check_call(acct: u64, amount: i64) -> Vec<u8> {
    call2(M_WRITE_CHECK, acct, amount)
}

/// `amalgamate` payload.
pub fn amalgamate_call(a: u64, b: u64) -> Vec<u8> {
    call2(M_AMALGAMATE, a, b as i64)
}

/// `query` payload.
pub fn query_call(acct: u64) -> Vec<u8> {
    encode_call(M_QUERY, &(acct as i64).to_le_bytes())
}

/// What `payload` adds to the bank's total, savings plus checking over every
/// account, when it commits: `deposit_checking` and `transact_savings` add
/// their amount, `write_check` takes its amount out, and every other
/// procedure only moves money or reads it.
pub fn net_deposit(payload: &[u8]) -> i64 {
    let Some((method, args)) = decode_call(payload) else { return 0 };
    let amount = || arg_word(args, 1).unwrap_or(0);
    match method {
        M_DEPOSIT_CHECKING | M_TRANSACT_SAVINGS => amount(),
        M_WRITE_CHECK => -amount(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::DualRunner;

    fn total(r: &mut DualRunner, acct: u64) -> i64 {
        let (svm, native) = r.invoke_both(&query_call(acct)).unwrap();
        assert_eq!(svm, native);
        i64::from_le_bytes(svm.try_into().unwrap())
    }

    #[test]
    fn deposit_and_query() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        r.invoke_both(&deposit_checking_call(1, 100)).unwrap();
        r.invoke_both(&deposit_checking_call(1, 50)).unwrap();
        assert_eq!(total(&mut r, 1), 150);
        assert_eq!(total(&mut r, 2), 0);
        r.assert_states_match();
    }

    #[test]
    fn send_payment_moves_funds() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        r.invoke_both(&deposit_checking_call(1, 100)).unwrap();
        r.invoke_both(&send_payment_call(1, 2, 30)).unwrap();
        assert_eq!(total(&mut r, 1), 70);
        assert_eq!(total(&mut r, 2), 30);
        r.assert_states_match();
    }

    #[test]
    fn send_payment_insufficient_reverts_on_both() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        r.invoke_both(&deposit_checking_call(1, 10)).unwrap();
        let err = r.invoke_both(&send_payment_call(1, 2, 30)).unwrap_err();
        assert!(err.contains("revert") || err.contains("insufficient"));
        assert_eq!(total(&mut r, 1), 10);
        assert_eq!(total(&mut r, 2), 0);
        r.assert_states_match();
    }

    #[test]
    fn transact_savings_guards_negative() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        r.invoke_both(&transact_savings_call(3, 40)).unwrap();
        assert_eq!(total(&mut r, 3), 40);
        r.invoke_both(&transact_savings_call(3, -15)).unwrap();
        assert_eq!(total(&mut r, 3), 25);
        assert!(r.invoke_both(&transact_savings_call(3, -100)).is_err());
        assert_eq!(total(&mut r, 3), 25);
        r.assert_states_match();
    }

    #[test]
    fn write_check_allows_overdraft() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        r.invoke_both(&write_check_call(4, 25)).unwrap();
        assert_eq!(total(&mut r, 4), -25);
        r.assert_states_match();
    }

    #[test]
    fn amalgamate_drains_into_destination() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        r.invoke_both(&transact_savings_call(5, 60)).unwrap();
        r.invoke_both(&deposit_checking_call(5, 40)).unwrap();
        r.invoke_both(&deposit_checking_call(6, 5)).unwrap();
        r.invoke_both(&amalgamate_call(5, 6)).unwrap();
        assert_eq!(total(&mut r, 5), 0);
        assert_eq!(total(&mut r, 6), 105);
        r.assert_states_match();
    }

    #[test]
    fn self_amalgamate_conserves_funds() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        r.invoke_both(&transact_savings_call(8, 60)).unwrap();
        r.invoke_both(&deposit_checking_call(8, 40)).unwrap();
        r.invoke_both(&amalgamate_call(8, 8)).unwrap();
        assert_eq!(total(&mut r, 8), 100);
        r.assert_states_match();
    }

    #[test]
    fn net_deposit_counts_only_what_enters_or_leaves_the_bank() {
        assert_eq!(net_deposit(&deposit_checking_call(1, 30)), 30);
        assert_eq!(net_deposit(&transact_savings_call(1, -15)), -15);
        assert_eq!(net_deposit(&write_check_call(1, 25)), -25);
        assert_eq!(net_deposit(&send_payment_call(1, 2, 30)), 0);
        assert_eq!(net_deposit(&amalgamate_call(1, 2)), 0);
        assert_eq!(net_deposit(&query_call(1)), 0);
        assert_eq!(net_deposit(&[]), 0);
    }

    #[test]
    fn self_payment_is_neutral() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        r.invoke_both(&deposit_checking_call(7, 100)).unwrap();
        r.invoke_both(&send_payment_call(7, 7, 40)).unwrap();
        assert_eq!(total(&mut r, 7), 100);
        r.assert_states_match();
    }
}

/// Seeded procedure mixes, reverts included: the SVM and native backends end
/// with identical state, answer every balance query alike, and hold exactly
/// the `net_deposit` of the calls that committed.
#[cfg(test)]
mod seeded_props {
    use super::*;
    use crate::testing::DualRunner;
    use bb_sim::SimRng;

    #[test]
    fn backends_stay_equivalent_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_000B);
        for i in 0..60 {
            let b = bundle();
            let mut r = DualRunner::new(&b);
            let mut deposited = 0;
            for _ in 0..rng.range(1, 40) {
                let a = rng.below(6);
                let bacct = rng.below(6);
                let amt = rng.below(200) as i64;
                let payload = match rng.below(5) {
                    0 => deposit_checking_call(a, amt),
                    1 => send_payment_call(a, bacct, amt),
                    2 => transact_savings_call(a, rng.range(0, 300) as i64 - 100),
                    3 => write_check_call(a, amt),
                    _ => amalgamate_call(a, bacct),
                };
                // Reverts must match too, and move nothing.
                if r.invoke_both(&payload).is_ok() {
                    deposited += net_deposit(&payload);
                }
            }
            r.assert_states_match();
            let mut held = 0;
            for a in 0..6u64 {
                let (svm, native) = r.invoke_both(&query_call(a)).unwrap();
                assert_eq!(svm, native, "case {i}");
                held += i64::from_le_bytes(svm.try_into().unwrap());
            }
            assert_eq!(held, deposited, "case {i}: the bank's total drifted");
        }
    }
}
