//! Doubler — the pyramid-scheme contract of Figure 2. "Participants send
//! money to this contract, and get rewards as more people join the scheme.
//! In addition to the list of participants and their contributions, the
//! contract needs to keep the index of the next payout and updates the
//! balance accordingly after paying early participants."
//!
//! State: globals under `b'g'` (participant count, payout index, pot
//! balance) and the participant list flattened into the `b'p'` namespace —
//! "we need to translate the list operations into key-value semantics,
//! making the chaincode more bulky" (Section 3.4.1), visible here as the
//! native build juggling three record keys per entry.
//!
//! Payouts: the SVM build pays with the chain's native currency (the
//! `transfer` host op, as the Solidity original's `send`); the native build
//! credits a `b'b'` balance namespace (Fabric has no native currency).

use crate::asm::{load_word_or_zero, make_key_from_stack, push_arg_word, store_word};
use blockbench::contract::{encode_call, Chaincode, ChaincodeContext, ContractBundle, SvmContract};

/// `enter(amount)`: join the scheme with a contribution.
pub const M_ENTER: u8 = 0;
/// `stats()`: returns `[count, payout_idx, balance]` (24 bytes).
pub const M_STATS: u8 = 1;

/// Globals namespace.
pub const NS_GLOBAL: u8 = b'g';
/// Participant-list namespace.
pub const NS_PART: u8 = b'p';
/// Native-build payout-credit namespace.
pub const NS_CREDIT: u8 = b'b';

/// Global slots.
pub const G_COUNT: u64 = 0;
/// Next participant to pay.
pub const G_PAYOUT: u64 = 1;
/// Undistributed pot.
pub const G_BALANCE: u64 = 2;

/// Key of a global slot.
pub fn global_key(slot: u64) -> Vec<u8> {
    let mut k = vec![NS_GLOBAL];
    k.extend_from_slice(&(slot as i64).to_le_bytes());
    k
}

/// Key of participant record `i` (value: 20-byte address + 8-byte amount).
pub fn participant_key(i: u64) -> Vec<u8> {
    let mut k = vec![NS_PART];
    k.extend_from_slice(&(i as i64).to_le_bytes());
    k
}

// SVM memory layout.
const KC: usize = 0; // count key
const KI: usize = 64; // payout-index key
const KB: usize = 128; // balance key
const KP: usize = 192; // participant key
const COUNT: usize = 256;
const IDX: usize = 264;
const BAL: usize = 272;
const PREC: usize = 320; // participant record: addr 320..340, amount 340..348
const PAMT: usize = 340;
const SCR: usize = 448;
const OUT: usize = 512; // stats return area

fn global_keys() -> String {
    format!(
        "push {g0}\n{k0}push {g1}\n{k1}push {g2}\n{k2}",
        g0 = G_COUNT,
        k0 = make_key_from_stack(NS_GLOBAL, KC),
        g1 = G_PAYOUT,
        k1 = make_key_from_stack(NS_GLOBAL, KI),
        g2 = G_BALANCE,
        k2 = make_key_from_stack(NS_GLOBAL, KB),
    )
}

fn svm_enter() -> String {
    format!(
        "{keys}\
         {load_count}{load_idx}{load_bal}\
         ; balance += amount
         push {BAL}\nmload\n{amt}add\npush {BAL}\nmstore\n\
         ; participants[count] = (caller, amount)
         push {PREC}\ncaller\n\
         {amt2}push {PAMT}\nmstore\n\
         push {COUNT}\nmload\n{kpart}\
         push {KP}\npush 9\npush {PREC}\npush 28\nsput\n\
         ; count += 1
         push {COUNT}\nmload\npush 1\nadd\npush {COUNT}\nmstore\n\
         pay_loop:\n\
         ; stop unless payout_idx < count\n\
         push {IDX}\nmload\npush {COUNT}\nmload\nge\njumpi settle\n\
         ; load participants[payout_idx]\n\
         push {IDX}\nmload\n{kpart2}\
         push {KP}\npush 9\npush {PREC}\nsget\npop\n\
         ; owed = 2 * amount; stop if balance < owed\n\
         push {BAL}\nmload\npush {PAMT}\nmload\npush 2\nmul\nlt\njumpi settle\n\
         ; pay: transfer(addr, 2 * amount)\n\
         push {PREC}\npush {PAMT}\nmload\npush 2\nmul\ntransfer\npop\n\
         push {BAL}\nmload\npush {PAMT}\nmload\npush 2\nmul\nsub\npush {BAL}\nmstore\n\
         push {IDX}\nmload\npush 1\nadd\npush {IDX}\nmstore\n\
         jump pay_loop\n\
         settle:\n\
         {store_count}{store_idx}{store_bal}\
         stop\n",
        keys = global_keys(),
        load_count = load_word_or_zero(KC, COUNT, "cnt"),
        load_idx = load_word_or_zero(KI, IDX, "idx"),
        load_bal = load_word_or_zero(KB, BAL, "bal"),
        amt = push_arg_word(0, SCR),
        amt2 = push_arg_word(0, SCR),
        kpart = make_key_from_stack(NS_PART, KP),
        kpart2 = make_key_from_stack(NS_PART, KP),
        store_count = store_word(KC, COUNT),
        store_idx = store_word(KI, IDX),
        store_bal = store_word(KB, BAL),
    )
}

fn svm_stats() -> String {
    format!(
        "{keys}\
         {load_count}{load_idx}{load_bal}\
         push {COUNT}\nmload\npush {OUT}\nmstore\n\
         push {IDX}\nmload\npush {o8}\nmstore\n\
         push {BAL}\nmload\npush {o16}\nmstore\n\
         push {OUT}\npush 24\nreturn\n",
        keys = global_keys(),
        load_count = load_word_or_zero(KC, COUNT, "cnt"),
        load_idx = load_word_or_zero(KI, IDX, "idx"),
        load_bal = load_word_or_zero(KB, BAL, "bal"),
        o8 = OUT + 8,
        o16 = OUT + 16,
    )
}

struct DoublerNative;

impl DoublerNative {
    fn get_word(ctx: &mut dyn ChaincodeContext, key: &[u8]) -> i64 {
        ctx.get_state(key)
            .map(|v| i64::from_le_bytes(v.try_into().unwrap_or([0; 8])))
            .unwrap_or(0)
    }

    fn put_word(ctx: &mut dyn ChaincodeContext, key: &[u8], v: i64) {
        ctx.put_state(key, &v.to_le_bytes());
    }
}

impl Chaincode for DoublerNative {
    fn invoke(
        &mut self,
        ctx: &mut dyn ChaincodeContext,
        method: u8,
        args: &[u8],
    ) -> Result<Vec<u8>, String> {
        ctx.charge(6);
        match method {
            M_ENTER => {
                let amount = i64::from_le_bytes(
                    args.get(..8).ok_or("missing amount")?.try_into().expect("8 bytes"),
                );
                let mut count = Self::get_word(ctx, &global_key(G_COUNT));
                let mut idx = Self::get_word(ctx, &global_key(G_PAYOUT));
                let mut bal = Self::get_word(ctx, &global_key(G_BALANCE));
                bal += amount;
                // participants[count] = (caller, amount)
                let mut rec = ctx.caller().to_vec();
                rec.extend_from_slice(&amount.to_le_bytes());
                ctx.put_state(&participant_key(count as u64), &rec);
                count += 1;
                // Pay early participants double while the pot allows.
                while idx < count {
                    let rec = ctx
                        .get_state(&participant_key(idx as u64))
                        .ok_or("missing participant record")?;
                    let owed =
                        2 * i64::from_le_bytes(rec[20..28].try_into().expect("8 bytes"));
                    if bal < owed {
                        break;
                    }
                    let beneficiary: [u8; 20] = rec[..20].try_into().expect("20 bytes");
                    let mut credit_key = vec![NS_CREDIT];
                    credit_key.extend_from_slice(&beneficiary[..8]);
                    let credited = Self::get_word(ctx, &credit_key);
                    Self::put_word(ctx, &credit_key, credited + owed);
                    bal -= owed;
                    idx += 1;
                    ctx.charge(3);
                }
                Self::put_word(ctx, &global_key(G_COUNT), count);
                Self::put_word(ctx, &global_key(G_PAYOUT), idx);
                Self::put_word(ctx, &global_key(G_BALANCE), bal);
                Ok(Vec::new())
            }
            M_STATS => {
                let mut out = Vec::with_capacity(24);
                for slot in [G_COUNT, G_PAYOUT, G_BALANCE] {
                    out.extend_from_slice(
                        &Self::get_word(ctx, &global_key(slot)).to_le_bytes(),
                    );
                }
                Ok(out)
            }
            other => Err(format!("unknown method {other}")),
        }
    }
}

/// Both builds of Doubler.
pub fn bundle() -> ContractBundle {
    let asm_of = |src: String| bb_svm::assemble(&src).expect("static program assembles");
    ContractBundle {
        name: "Doubler",
        svm: SvmContract::new()
            .with_method(M_ENTER, asm_of(svm_enter()))
            .with_method(M_STATS, asm_of(svm_stats())),
        native: || Box::new(DoublerNative),
    }
}

/// `enter` payload.
pub fn enter_call(amount: i64) -> Vec<u8> {
    encode_call(M_ENTER, &amount.to_le_bytes())
}

/// `stats` payload.
pub fn stats_call() -> Vec<u8> {
    encode_call(M_STATS, &[])
}

/// Decode the `stats` return: `(count, payout_idx, balance)`.
pub fn decode_stats(data: &[u8]) -> Option<(i64, i64, i64)> {
    if data.len() != 24 {
        return None;
    }
    Some((
        i64::from_le_bytes(data[0..8].try_into().ok()?),
        i64::from_le_bytes(data[8..16].try_into().ok()?),
        i64::from_le_bytes(data[16..24].try_into().ok()?),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::DualRunner;

    fn stats(r: &mut DualRunner) -> (i64, i64, i64) {
        let (svm, native) = r.invoke_both(&stats_call()).unwrap();
        assert_eq!(svm, native, "stats diverged");
        decode_stats(&svm).unwrap()
    }

    #[test]
    fn first_participant_gets_nothing_yet() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        r.set_caller([1; 20]);
        r.invoke_both(&enter_call(100)).unwrap();
        let (count, idx, bal) = stats(&mut r);
        assert_eq!((count, idx, bal), (1, 0, 100));
        assert!(r.svm_transfers().is_empty());
    }

    #[test]
    fn pot_pays_double_when_it_can() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        r.set_caller([1; 20]);
        r.invoke_both(&enter_call(100)).unwrap();
        r.set_caller([2; 20]);
        r.invoke_both(&enter_call(100)).unwrap();
        // Pot reached 200 = 2×100: participant 1 is paid double.
        let (count, idx, bal) = stats(&mut r);
        assert_eq!((count, idx, bal), (2, 1, 0));
        assert_eq!(r.svm_transfers(), &[([1u8; 20], 200)]);
        // The native build credits the same beneficiary in state.
        let mut credit_key = vec![NS_CREDIT];
        credit_key.extend_from_slice(&[1u8; 20][..8]);
        let credited = r.native_state().get(&credit_key).cloned().unwrap();
        assert_eq!(i64::from_le_bytes(credited.try_into().unwrap()), 200);
    }

    #[test]
    fn cascade_of_payouts() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        for (i, amount) in [(1u8, 10i64), (2, 10), (3, 10), (4, 50)].into_iter() {
            r.set_caller([i; 20]);
            r.invoke_both(&enter_call(amount)).unwrap();
        }
        // After the 50 contribution the pot (10+10+10+50 − 20 paid at step 2)
        // cascades: participants 1..3 paid 20 each.
        let (count, idx, bal) = stats(&mut r);
        assert_eq!(count, 4);
        assert_eq!(idx, 3);
        assert_eq!(bal, 80 - 60); // 80 in, 3×20 out
        assert_eq!(
            r.svm_transfers(),
            &[([1u8; 20], 20), ([2u8; 20], 20), ([3u8; 20], 20)]
        );
    }

    #[test]
    fn globals_and_participants_recorded_identically() {
        let b = bundle();
        let mut r = DualRunner::new(&b);
        for i in 1..=5u8 {
            r.set_caller([i; 20]);
            r.invoke_both(&enter_call(7 * i as i64)).unwrap();
        }
        // Global + participant records must match across backends (payout
        // credits differ by design: currency vs credit namespace).
        for slot in [G_COUNT, G_PAYOUT, G_BALANCE] {
            assert_eq!(
                r.svm_storage().get(&global_key(slot)),
                r.native_state().get(&global_key(slot)),
                "global {slot}"
            );
        }
        for i in 0..5u64 {
            assert_eq!(
                r.svm_storage().get(&participant_key(i)),
                r.native_state().get(&participant_key(i)),
                "participant {i}"
            );
        }
    }
}
