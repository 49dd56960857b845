//! The SVM interpreter.
//!
//! A fetch-decode-execute loop over 64-bit words and byte-addressable
//! memory, with gas charged before each instruction and on every dynamic
//! resource (memory growth, storage payload bytes, hash input bytes).
//! Execution halts on `stop`/`return` (success), `revert` (failure, state to
//! be rolled back by the platform), gas exhaustion, or a VM fault.

use crate::gas::GasSchedule;
use crate::host::Host;
use crate::opcode::Op;
use bb_crypto::sha256;

/// Static execution limits.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Operand stack depth limit.
    pub max_stack: usize,
    /// Memory ceiling in bytes (the node's per-execution arena).
    pub max_memory: usize,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig { max_stack: 1024, max_memory: 256 << 20 }
    }
}

/// Faults that abort execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// The gas limit was exhausted.
    OutOfGas,
    /// An instruction needed more operands than the stack held.
    StackUnderflow,
    /// The operand stack outgrew [`VmConfig::max_stack`].
    StackOverflow,
    /// A jump target fell outside the code.
    BadJump,
    /// An undefined opcode byte.
    BadOpcode(u8),
    /// Code ended in the middle of an immediate.
    TruncatedImmediate,
    /// Memory use would exceed [`VmConfig::max_memory`].
    MemoryLimit,
    /// Integer division or modulo by zero.
    DivisionByZero,
    /// A negative or absurd memory address.
    BadMemAccess,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::OutOfGas => write!(f, "out of gas"),
            VmError::StackUnderflow => write!(f, "stack underflow"),
            VmError::StackOverflow => write!(f, "stack overflow"),
            VmError::BadJump => write!(f, "jump target out of range"),
            VmError::BadOpcode(b) => write!(f, "undefined opcode {b:#04x}"),
            VmError::TruncatedImmediate => write!(f, "truncated immediate"),
            VmError::MemoryLimit => write!(f, "memory limit exceeded"),
            VmError::DivisionByZero => write!(f, "division by zero"),
            VmError::BadMemAccess => write!(f, "bad memory access"),
        }
    }
}

impl std::error::Error for VmError {}

/// What an execution produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// True on `stop`/`return`; false on `revert` or any fault.
    pub success: bool,
    /// Gas consumed (the full limit on [`VmError::OutOfGas`]).
    pub gas_used: u64,
    /// Bytes returned by `return`/`revert`.
    pub return_data: Vec<u8>,
    /// The fault, if execution aborted abnormally (`revert` is *not* a
    /// fault: it sets `success = false` with `error = None`).
    pub error: Option<VmError>,
    /// High-water memory use in bytes.
    pub peak_memory: u64,
    /// Instructions executed.
    pub steps: u64,
}

/// The interpreter. Stateless across executions; cheap to clone.
#[derive(Debug, Clone, Default)]
pub struct Vm {
    config: VmConfig,
    schedule: GasSchedule,
}

impl Vm {
    /// Interpreter with explicit limits and prices.
    pub fn new(config: VmConfig, schedule: GasSchedule) -> Self {
        Vm { config, schedule }
    }

    /// The configured gas schedule.
    pub fn schedule(&self) -> &GasSchedule {
        &self.schedule
    }

    /// Run `code` with `calldata` under `gas_limit` against `host`.
    pub fn execute(
        &self,
        code: &[u8],
        calldata: &[u8],
        gas_limit: u64,
        host: &mut dyn Host,
    ) -> ExecOutcome {
        let mut st = Frame {
            code,
            calldata,
            pc: 0,
            stack: Vec::with_capacity(64),
            memory: Vec::new(),
            peak_memory: 0,
            gas_left: gas_limit,
            steps: 0,
        };
        let (success, return_data, error) = match self.run(&mut st, host) {
            Ok(Halt::Stop) => (true, Vec::new(), None),
            Ok(Halt::Return(data)) => (true, data, None),
            Ok(Halt::Revert(data)) => (false, data, None),
            Err(e) => (false, Vec::new(), Some(e)),
        };
        ExecOutcome {
            success,
            gas_used: gas_limit - st.gas_left,
            return_data,
            error,
            peak_memory: st.peak_memory as u64,
            steps: st.steps,
        }
    }

    fn run(&self, st: &mut Frame<'_>, host: &mut dyn Host) -> Result<Halt, VmError> {
        loop {
            if st.pc >= st.code.len() {
                // Falling off the end is an implicit stop.
                return Ok(Halt::Stop);
            }
            let byte = st.code[st.pc];
            let op = Op::from_byte(byte).ok_or(VmError::BadOpcode(byte))?;
            st.charge(self.schedule.op_cost(op))?;
            st.steps += 1;
            st.pc += 1;
            match op {
                Op::Stop => return Ok(Halt::Stop),
                Op::Push => {
                    let v = st.imm_i64()?;
                    st.push(v)?;
                }
                Op::Pop => {
                    st.pop()?;
                }
                Op::Dup => {
                    let n = st.imm_u8()? as usize;
                    let len = st.stack.len();
                    if n >= len {
                        return Err(VmError::StackUnderflow);
                    }
                    let v = st.stack[len - 1 - n];
                    st.push(v)?;
                }
                Op::Swap => {
                    let n = st.imm_u8()? as usize + 1;
                    let len = st.stack.len();
                    if n >= len {
                        return Err(VmError::StackUnderflow);
                    }
                    st.stack.swap(len - 1, len - 1 - n);
                }
                Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod => {
                    let b = st.pop()?;
                    let a = st.pop()?;
                    let r = match op {
                        Op::Add => a.wrapping_add(b),
                        Op::Sub => a.wrapping_sub(b),
                        Op::Mul => a.wrapping_mul(b),
                        Op::Div => {
                            if b == 0 {
                                return Err(VmError::DivisionByZero);
                            }
                            a.wrapping_div(b)
                        }
                        Op::Mod => {
                            if b == 0 {
                                return Err(VmError::DivisionByZero);
                            }
                            a.wrapping_rem(b)
                        }
                        _ => unreachable!(),
                    };
                    st.push(r)?;
                }
                Op::Lt | Op::Gt | Op::Le | Op::Ge | Op::Eq | Op::Ne | Op::And | Op::Or => {
                    let b = st.pop()?;
                    let a = st.pop()?;
                    let r = match op {
                        Op::Lt => a < b,
                        Op::Gt => a > b,
                        Op::Le => a <= b,
                        Op::Ge => a >= b,
                        Op::Eq => a == b,
                        Op::Ne => a != b,
                        Op::And => a != 0 && b != 0,
                        Op::Or => a != 0 || b != 0,
                        _ => unreachable!(),
                    };
                    st.push(r as i64)?;
                }
                Op::Not => {
                    let a = st.pop()?;
                    st.push((a == 0) as i64)?;
                }
                Op::Jump => {
                    let target = st.imm_u32()? as usize;
                    if target > st.code.len() {
                        return Err(VmError::BadJump);
                    }
                    st.pc = target;
                }
                Op::JumpI => {
                    let target = st.imm_u32()? as usize;
                    let cond = st.pop()?;
                    if cond != 0 {
                        if target > st.code.len() {
                            return Err(VmError::BadJump);
                        }
                        st.pc = target;
                    }
                }
                Op::MLoad => {
                    let addr = st.pop_addr()?;
                    self.ensure_mem(st, addr + 8)?;
                    let v = i64::from_le_bytes(st.memory[addr..addr + 8].try_into().expect("8"));
                    st.push(v)?;
                }
                Op::MStore => {
                    let addr = st.pop_addr()?;
                    let v = st.pop()?;
                    self.ensure_mem(st, addr + 8)?;
                    st.memory[addr..addr + 8].copy_from_slice(&v.to_le_bytes());
                }
                Op::MSize => {
                    let v = st.memory.len() as i64;
                    st.push(v)?;
                }
                Op::SGet => {
                    let dst = st.pop_addr()?;
                    let klen = st.pop_addr()?;
                    let koff = st.pop_addr()?;
                    self.ensure_mem(st, koff + klen)?;
                    let key = st.memory[koff..koff + klen].to_vec();
                    match host.storage_get(&key) {
                        Some(value) => {
                            st.charge(self.schedule.storage_per_byte * value.len() as u64)?;
                            self.ensure_mem(st, dst + value.len())?;
                            st.memory[dst..dst + value.len()].copy_from_slice(&value);
                            st.push(value.len() as i64)?;
                        }
                        None => st.push(-1)?,
                    }
                }
                Op::SPut => {
                    let vlen = st.pop_addr()?;
                    let voff = st.pop_addr()?;
                    let klen = st.pop_addr()?;
                    let koff = st.pop_addr()?;
                    self.ensure_mem(st, koff + klen)?;
                    self.ensure_mem(st, voff + vlen)?;
                    st.charge(self.schedule.storage_per_byte * (klen + vlen) as u64)?;
                    let key = st.memory[koff..koff + klen].to_vec();
                    let value = st.memory[voff..voff + vlen].to_vec();
                    host.storage_put(&key, &value);
                }
                Op::SDel => {
                    let klen = st.pop_addr()?;
                    let koff = st.pop_addr()?;
                    self.ensure_mem(st, koff + klen)?;
                    let key = st.memory[koff..koff + klen].to_vec();
                    host.storage_delete(&key);
                }
                Op::CallDataSize => {
                    let v = st.calldata.len() as i64;
                    st.push(v)?;
                }
                Op::CallDataCopy => {
                    let len = st.pop_addr()?;
                    let src = st.pop_addr()?;
                    let dst = st.pop_addr()?;
                    if src + len > st.calldata.len() {
                        return Err(VmError::BadMemAccess);
                    }
                    self.ensure_mem(st, dst + len)?;
                    let (src, len, dst) = (src, len, dst);
                    st.memory[dst..dst + len].copy_from_slice(&st.calldata[src..src + len]);
                }
                Op::Caller => {
                    let dst = st.pop_addr()?;
                    self.ensure_mem(st, dst + 20)?;
                    let caller = host.caller();
                    st.memory[dst..dst + 20].copy_from_slice(&caller);
                }
                Op::Value => {
                    let v = host.call_value();
                    st.push(v)?;
                }
                Op::Height => {
                    let v = host.block_height() as i64;
                    st.push(v)?;
                }
                Op::Transfer => {
                    let amount = st.pop()?;
                    let addr_off = st.pop_addr()?;
                    self.ensure_mem(st, addr_off + 20)?;
                    let to = st.memory[addr_off..addr_off + 20].to_vec();
                    let ok = host.transfer(&to, amount);
                    st.push(ok as i64)?;
                }
                Op::Emit => {
                    let len = st.pop_addr()?;
                    let off = st.pop_addr()?;
                    let topic = st.pop()?;
                    self.ensure_mem(st, off + len)?;
                    let data = st.memory[off..off + len].to_vec();
                    host.emit(topic, &data);
                }
                Op::Hash => {
                    let dst = st.pop_addr()?;
                    let len = st.pop_addr()?;
                    let src = st.pop_addr()?;
                    self.ensure_mem(st, src + len)?;
                    st.charge(self.schedule.hash_per_byte * len as u64)?;
                    let digest = sha256(&st.memory[src..src + len]);
                    self.ensure_mem(st, dst + 32)?;
                    st.memory[dst..dst + 32].copy_from_slice(&digest);
                }
                Op::Return | Op::Revert => {
                    let len = st.pop_addr()?;
                    let off = st.pop_addr()?;
                    self.ensure_mem(st, off + len)?;
                    let data = st.memory[off..off + len].to_vec();
                    return Ok(if op == Op::Return { Halt::Return(data) } else { Halt::Revert(data) });
                }
            }
        }
    }

    fn ensure_mem(&self, st: &mut Frame<'_>, end: usize) -> Result<(), VmError> {
        if end <= st.memory.len() {
            return Ok(());
        }
        if end > self.config.max_memory {
            return Err(VmError::MemoryLimit);
        }
        let growth = (end - st.memory.len()) as u64;
        st.charge(self.schedule.memory_growth_per_byte * growth)?;
        st.memory.resize(end, 0);
        st.peak_memory = st.peak_memory.max(st.memory.len());
        Ok(())
    }
}

/// Per-execution machine state. Borrows code/calldata; owns stack/memory.
struct Frame<'a> {
    code: &'a [u8],
    calldata: &'a [u8],
    pc: usize,
    stack: Vec<i64>,
    memory: Vec<u8>,
    peak_memory: usize,
    gas_left: u64,
    steps: u64,
}

enum Halt {
    Stop,
    Return(Vec<u8>),
    Revert(Vec<u8>),
}

impl Frame<'_> {
    fn charge(&mut self, gas: u64) -> Result<(), VmError> {
        if self.gas_left < gas {
            self.gas_left = 0;
            return Err(VmError::OutOfGas);
        }
        self.gas_left -= gas;
        Ok(())
    }

    fn push(&mut self, v: i64) -> Result<(), VmError> {
        if self.stack.len() >= 1024 {
            return Err(VmError::StackOverflow);
        }
        self.stack.push(v);
        Ok(())
    }

    fn pop(&mut self) -> Result<i64, VmError> {
        self.stack.pop().ok_or(VmError::StackUnderflow)
    }

    /// Pop a value that must be a sane non-negative memory address/length.
    fn pop_addr(&mut self) -> Result<usize, VmError> {
        let v = self.pop()?;
        if !(0..=(1i64 << 40)).contains(&v) {
            return Err(VmError::BadMemAccess);
        }
        Ok(v as usize)
    }

    fn imm_u8(&mut self) -> Result<u8, VmError> {
        let b = *self.code.get(self.pc).ok_or(VmError::TruncatedImmediate)?;
        self.pc += 1;
        Ok(b)
    }

    fn imm_u32(&mut self) -> Result<u32, VmError> {
        let bytes = self
            .code
            .get(self.pc..self.pc + 4)
            .ok_or(VmError::TruncatedImmediate)?;
        self.pc += 4;
        Ok(u32::from_be_bytes(bytes.try_into().expect("4")))
    }

    fn imm_i64(&mut self) -> Result<i64, VmError> {
        let bytes = self
            .code
            .get(self.pc..self.pc + 8)
            .ok_or(VmError::TruncatedImmediate)?;
        self.pc += 8;
        Ok(i64::from_be_bytes(bytes.try_into().expect("8")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembler::assemble;
    use crate::host::MockHost;

    fn run(src: &str, calldata: &[u8], gas: u64) -> (ExecOutcome, MockHost) {
        let code = assemble(src).expect("assembles");
        let mut host = MockHost::new();
        let out = Vm::default().execute(&code, calldata, gas, &mut host);
        (out, host)
    }

    #[test]
    fn arithmetic_and_return() {
        // Compute (7 + 5) * 3 and return the 8-byte little-endian word.
        let src = "
            push 7
            push 5
            add
            push 3
            mul
            push 0
            mstore        ; mem[0] = 36
            push 0
            push 8
            return
        ";
        let (out, _) = run(src, &[], 10_000);
        assert!(out.success);
        assert_eq!(i64::from_le_bytes(out.return_data.try_into().unwrap()), 36);
    }

    #[test]
    fn loop_sums_one_to_ten() {
        let src = "
            push 0        ; sum
            push 1        ; i
        loop:
            dup 0
            push 10
            gt
            jumpi done
            swap 0        ; [i, sum]
            dup 1         ; [i, sum, i]
            add           ; [i, sum+i]
            swap 0        ; [sum', i]
            push 1
            add           ; i += 1
            jump loop
        done:
            pop           ; drop i
            push 0
            mstore
            push 0
            push 8
            return
        ";
        let (out, _) = run(src, &[], 100_000);
        assert!(out.success, "error: {:?}", out.error);
        assert_eq!(i64::from_le_bytes(out.return_data.try_into().unwrap()), 55);
    }

    #[test]
    fn storage_round_trip_through_host() {
        // sput key "K" (1 byte at mem[0]) = value "VV" (2 bytes at mem[8]).
        let src = "
            push 75       ; 'K'
            push 0
            mstore
            push 22102    ; 'VV' little-endian = 0x5656
            push 8
            mstore
            push 0
            push 1
            push 8
            push 2
            sput
            ; read it back to mem[100]
            push 0
            push 1
            push 100
            sget
            push 32
            mstore        ; store returned length at mem[32]
            push 100
            push 2
            return
        ";
        let (out, host) = run(src, &[], 100_000);
        assert!(out.success, "error: {:?}", out.error);
        assert_eq!(out.return_data, b"VV");
        assert_eq!(host.storage.get(b"K".as_slice()), Some(&b"VV".to_vec()));
    }

    #[test]
    fn sget_missing_pushes_minus_one() {
        let src = "
            push 0
            push 1
            push 64
            sget          ; key = mem[0..1] (zero byte), absent
            push 0
            mstore
            push 0
            push 8
            return
        ";
        let (out, _) = run(src, &[], 100_000);
        assert!(out.success);
        assert_eq!(i64::from_le_bytes(out.return_data.try_into().unwrap()), -1);
    }

    #[test]
    fn calldata_copy_and_size() {
        let src = "
            cdsize
            push 0
            mstore        ; mem[0] = len
            push 8        ; dst
            push 0        ; src
            cdsize        ; len
            cdcopy
            push 0
            push 12
            return
        ";
        let (out, _) = run(src, b"abcd", 100_000);
        assert!(out.success, "error: {:?}", out.error);
        assert_eq!(&out.return_data[..8], &4i64.to_le_bytes());
        assert_eq!(&out.return_data[8..12], b"abcd");
    }

    #[test]
    fn out_of_gas_aborts() {
        let src = "
        loop:
            push 1
            pop
            jump loop
        ";
        let (out, _) = run(src, &[], 500);
        assert!(!out.success);
        assert_eq!(out.error, Some(VmError::OutOfGas));
        assert_eq!(out.gas_used, 500);
    }

    #[test]
    fn revert_fails_without_fault() {
        let src = "
            push 99
            push 0
            mstore
            push 0
            push 8
            revert
        ";
        let (out, _) = run(src, &[], 10_000);
        assert!(!out.success);
        assert_eq!(out.error, None);
        assert_eq!(i64::from_le_bytes(out.return_data.try_into().unwrap()), 99);
    }

    #[test]
    fn stack_underflow_detected() {
        let (out, _) = run("add", &[], 10_000);
        assert_eq!(out.error, Some(VmError::StackUnderflow));
        let (out, _) = run("pop", &[], 10_000);
        assert_eq!(out.error, Some(VmError::StackUnderflow));
        let (out, _) = run("push 1\ndup 3", &[], 10_000);
        assert_eq!(out.error, Some(VmError::StackUnderflow));
    }

    #[test]
    fn stack_overflow_detected() {
        let src = "
        loop:
            push 1
            jump loop
        ";
        let (out, _) = run(src, &[], 10_000_000);
        assert_eq!(out.error, Some(VmError::StackOverflow));
    }

    #[test]
    fn division_by_zero_faults() {
        let (out, _) = run("push 4\npush 0\ndiv", &[], 10_000);
        assert_eq!(out.error, Some(VmError::DivisionByZero));
        let (out, _) = run("push 4\npush 0\nmod", &[], 10_000);
        assert_eq!(out.error, Some(VmError::DivisionByZero));
    }

    #[test]
    fn bad_opcode_and_bad_jump() {
        let mut host = MockHost::new();
        let out = Vm::default().execute(&[0xee], &[], 1000, &mut host);
        assert_eq!(out.error, Some(VmError::BadOpcode(0xee)));

        // Hand-craft a jump past the end of code (the assembler only emits
        // resolvable labels, so a bad target needs raw bytes).
        let mut code = vec![Op::Jump as u8];
        code.extend_from_slice(&99_999u32.to_be_bytes());
        let out = Vm::default().execute(&code, &[], 1000, &mut host);
        assert_eq!(out.error, Some(VmError::BadJump));
    }

    #[test]
    fn negative_address_faults() {
        let (out, _) = run("push -8\nmload", &[], 10_000);
        assert_eq!(out.error, Some(VmError::BadMemAccess));
    }

    #[test]
    fn memory_limit_enforced() {
        let vm = Vm::new(VmConfig { max_memory: 1024, ..VmConfig::default() }, GasSchedule::default());
        let code = assemble("push 4096\nmload").unwrap();
        let mut host = MockHost::new();
        let out = vm.execute(&code, &[], 1_000_000, &mut host);
        assert_eq!(out.error, Some(VmError::MemoryLimit));
    }

    #[test]
    fn peak_memory_reported() {
        let (out, _) = run("push 1000\nmload\npop", &[], 100_000);
        assert!(out.success);
        assert_eq!(out.peak_memory, 1008);
    }

    #[test]
    fn transfer_and_emit_reach_host() {
        let src = "
            push 0
            caller        ; write caller (all zero here) to mem[0]
            push 0        ; addr_off
            push 25
            transfer
            pop
            push 7        ; topic
            push 0        ; off
            push 4        ; len
            emit
            stop
        ";
        let (out, host) = run(src, &[], 100_000);
        assert!(out.success, "error: {:?}", out.error);
        assert_eq!(host.transfers, vec![([0u8; 20], 25)]);
        assert_eq!(host.events.len(), 1);
        assert_eq!(host.events[0].0, 7);
    }

    #[test]
    fn hash_writes_digest() {
        let src = "
            push 4242
            push 0
            mstore
            push 0        ; src
            push 8        ; len
            push 64       ; dst
            hash
            push 64
            push 32
            return
        ";
        let (out, _) = run(src, &[], 100_000);
        assert!(out.success);
        assert_eq!(out.return_data, sha256(&4242i64.to_le_bytes()));
    }

    #[test]
    fn value_and_height_from_host() {
        let code = assemble("value\nheight\nadd\npush 0\nmstore\npush 0\npush 8\nreturn").unwrap();
        let mut host = MockHost { call_value: 40, height: 2, ..MockHost::new() };
        let out = Vm::default().execute(&code, &[], 100_000, &mut host);
        assert_eq!(i64::from_le_bytes(out.return_data.try_into().unwrap()), 42);
    }

    #[test]
    fn falling_off_the_end_is_stop() {
        let (out, _) = run("push 1", &[], 10_000);
        assert!(out.success);
        assert!(out.return_data.is_empty());
    }

    #[test]
    fn gas_used_is_monotone_in_work() {
        let (small, _) = run("push 1\npop", &[], 100_000);
        let (big, _) = run("push 1\npush 2\nadd\npush 0\nmstore", &[], 100_000);
        assert!(big.gas_used > small.gas_used);
        assert!(small.steps < big.steps);
    }
}

/// Seeded fuzzing of the interpreter: arbitrary bytecode and calldata never
/// panic or spend more gas than the limit, and the same input always gives
/// the same outcome and the same storage.
#[cfg(test)]
mod seeded_props {
    use super::*;
    use crate::host::MockHost;
    use bb_sim::SimRng;

    fn random_bytes(rng: &mut SimRng, max_len: u64) -> Vec<u8> {
        let mut v = vec![0u8; rng.below(max_len) as usize];
        rng.fill_bytes(&mut v);
        v
    }

    #[test]
    fn arbitrary_bytecode_never_panics_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0005);
        for i in 0..256 {
            let code = random_bytes(&mut rng, 256);
            let calldata = random_bytes(&mut rng, 64);
            let vm = Vm::default();
            let mut host = MockHost::new();
            let out = vm.execute(&code, &calldata, 50_000, &mut host);
            assert!(out.gas_used <= 50_000, "case {i}");
        }
    }

    #[test]
    fn execution_is_deterministic_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0006);
        for i in 0..256 {
            let code = random_bytes(&mut rng, 128);
            let calldata = random_bytes(&mut rng, 32);
            let vm = Vm::default();
            let mut h1 = MockHost::new();
            let mut h2 = MockHost::new();
            let a = vm.execute(&code, &calldata, 20_000, &mut h1);
            let b = vm.execute(&code, &calldata, 20_000, &mut h2);
            assert_eq!(a, b, "case {i}");
            assert_eq!(h1.storage, h2.storage, "case {i}");
        }
    }
}
