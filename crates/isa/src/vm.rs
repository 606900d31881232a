//! The trace-emitting interpreter.

use std::fmt;

use tlabp_trace::{BranchClass, BranchRecord, Trace, TrapRecord};

use crate::inst::{AluOp, Inst, Reg};
use crate::program::Program;

/// Default data-memory size in words.
pub const DEFAULT_MEMORY_WORDS: usize = 1 << 20;

/// Default dynamic-instruction budget.
pub const DEFAULT_MAX_INSTRUCTIONS: u64 = 200_000_000;

/// A run-time error raised by the VM.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VmError {
    /// Execution fell off the end of the program text.
    PcOutOfRange {
        /// The offending instruction index.
        pc: usize,
    },
    /// A load or store touched an address outside data memory.
    MemoryOutOfRange {
        /// The offending word address.
        address: i64,
        /// Index of the faulting instruction.
        pc: usize,
    },
    /// Division or remainder by zero.
    DivisionByZero {
        /// Index of the faulting instruction.
        pc: usize,
    },
    /// `ret` executed with an empty call stack.
    ReturnWithoutCall {
        /// Index of the faulting instruction.
        pc: usize,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::PcOutOfRange { pc } => write!(f, "pc {pc} outside program text"),
            VmError::MemoryOutOfRange { address, pc } => {
                write!(f, "memory access to word {address} out of range at pc {pc}")
            }
            VmError::DivisionByZero { pc } => write!(f, "division by zero at pc {pc}"),
            VmError::ReturnWithoutCall { pc } => {
                write!(f, "return with empty call stack at pc {pc}")
            }
        }
    }
}

impl std::error::Error for VmError {}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A `halt` instruction executed.
    Halted,
    /// The dynamic-instruction budget was exhausted (long-running
    /// benchmarks are truncated this way, as the paper truncates its
    /// traces at 20M conditional branches).
    InstructionLimit,
}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Why execution stopped.
    pub stop: StopReason,
    /// Dynamic instructions executed.
    pub instructions: u64,
}

/// The mini-RISC virtual machine: executes a [`Program`] and emits the
/// branch/trap trace the prediction simulator consumes.
///
/// # Example
///
/// ```
/// use tlabp_isa::asm::assemble;
/// use tlabp_isa::vm::Vm;
///
/// let program = assemble(
///     "       li   r1, 0
///             li   r2, 8
///      top:   addi r1, r1, 1
///             blt  r1, r2, top
///             halt",
/// ).expect("valid assembly");
/// let mut vm = Vm::new(program);
/// let outcome = vm.run()?;
/// assert_eq!(outcome.instructions, 2 + 2 * 8 + 1);
/// let trace = vm.into_trace();
/// assert_eq!(trace.conditional_branches().count(), 8);
/// # Ok::<(), tlabp_isa::vm::VmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Vm {
    program: Program,
    regs: [i64; 32],
    memory: Vec<i64>,
    pc: usize,
    instret: u64,
    max_instructions: u64,
    call_stack: Vec<usize>,
    trace: Trace,
}

impl Vm {
    /// Creates a VM over `program` with default memory and instruction
    /// budget.
    #[must_use]
    pub fn new(program: Program) -> Self {
        Vm::with_limits(program, DEFAULT_MEMORY_WORDS, DEFAULT_MAX_INSTRUCTIONS)
    }

    /// Creates a VM with explicit data-memory size (words) and dynamic
    /// instruction budget.
    ///
    /// # Panics
    ///
    /// Panics if `memory_words` is zero.
    #[must_use]
    pub fn with_limits(program: Program, memory_words: usize, max_instructions: u64) -> Self {
        assert!(memory_words > 0, "memory must be non-empty");
        Vm {
            program,
            regs: [0; 32],
            memory: vec![0; memory_words],
            pc: 0,
            instret: 0,
            max_instructions,
            call_stack: Vec::new(),
            trace: Trace::new(),
        }
    }

    /// Reads a register.
    #[must_use]
    pub fn reg(&self, r: Reg) -> i64 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to `r0` are ignored).
    pub fn set_reg(&mut self, r: Reg, value: i64) {
        if r != Reg::ZERO {
            self.regs[r.index()] = value;
        }
    }

    /// Reads a data-memory word (e.g. to inspect results after a run).
    ///
    /// # Panics
    ///
    /// Panics if `address` is out of range.
    #[must_use]
    pub fn mem(&self, address: usize) -> i64 {
        self.memory[address]
    }

    /// The trace accumulated so far.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the VM, returning the accumulated trace.
    #[must_use]
    pub fn into_trace(mut self) -> Trace {
        self.trace.set_total_instructions(self.instret);
        self.trace
    }

    fn mem_index(&self, base: Reg, offset: i64, pc: usize) -> Result<usize, VmError> {
        let address = self.reg(base).wrapping_add(offset);
        usize::try_from(address)
            .ok()
            .filter(|&a| a < self.memory.len())
            .ok_or(VmError::MemoryOutOfRange { address, pc })
    }

    fn alu(op: AluOp, a: i64, b: i64, pc: usize) -> Result<i64, VmError> {
        Ok(match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    return Err(VmError::DivisionByZero { pc });
                }
                a.wrapping_div(b)
            }
            AluOp::Rem => {
                if b == 0 {
                    return Err(VmError::DivisionByZero { pc });
                }
                a.wrapping_rem(b)
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 0x3f) as u32),
            AluOp::Shr => a.wrapping_shr((b & 0x3f) as u32),
            AluOp::Slt => i64::from(a < b),
        })
    }

    /// Runs until `halt`, an error, or the instruction budget.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on invalid memory access, division by zero,
    /// pc out of range, or return with an empty call stack.
    pub fn run(&mut self) -> Result<RunOutcome, VmError> {
        loop {
            if self.instret >= self.max_instructions {
                return Ok(RunOutcome {
                    stop: StopReason::InstructionLimit,
                    instructions: self.instret,
                });
            }
            let pc = self.pc;
            let Some(&inst) = self.program.instructions().get(pc) else {
                return Err(VmError::PcOutOfRange { pc });
            };
            self.instret += 1;
            let mut next_pc = pc + 1;
            match inst {
                Inst::Alu { op, rd, a, b } => {
                    let value = Vm::alu(op, self.reg(a), self.reg(b), pc)?;
                    self.set_reg(rd, value);
                }
                Inst::AluImm { op, rd, a, imm } => {
                    let value = Vm::alu(op, self.reg(a), imm, pc)?;
                    self.set_reg(rd, value);
                }
                Inst::LoadImm { rd, imm } => self.set_reg(rd, imm),
                Inst::Load { rd, base, offset } => {
                    let index = self.mem_index(base, offset, pc)?;
                    let value = self.memory[index];
                    self.set_reg(rd, value);
                }
                Inst::Store { src, base, offset } => {
                    let index = self.mem_index(base, offset, pc)?;
                    self.memory[index] = self.reg(src);
                }
                Inst::Branch { cond, a, b, target } => {
                    let taken = cond.eval(self.reg(a), self.reg(b));
                    self.trace.push(BranchRecord::conditional(
                        Program::address_of(pc),
                        taken,
                        Program::address_of(target),
                        self.instret,
                    ));
                    if taken {
                        next_pc = target;
                    }
                }
                Inst::Jump { target } => {
                    self.trace.push(BranchRecord::unconditional(
                        Program::address_of(pc),
                        BranchClass::Unconditional,
                        Program::address_of(target),
                        self.instret,
                    ));
                    next_pc = target;
                }
                Inst::Call { target } => {
                    self.call_stack.push(pc + 1);
                    self.trace.push(BranchRecord::unconditional(
                        Program::address_of(pc),
                        BranchClass::Call,
                        Program::address_of(target),
                        self.instret,
                    ));
                    next_pc = target;
                }
                Inst::Ret => {
                    let return_to =
                        self.call_stack.pop().ok_or(VmError::ReturnWithoutCall { pc })?;
                    self.trace.push(BranchRecord::unconditional(
                        Program::address_of(pc),
                        BranchClass::Return,
                        Program::address_of(return_to),
                        self.instret,
                    ));
                    next_pc = return_to;
                }
                Inst::Trap { code: _ } => {
                    self.trace.push(TrapRecord::new(Program::address_of(pc), self.instret));
                }
                Inst::Halt => {
                    return Ok(RunOutcome { stop: StopReason::Halted, instructions: self.instret });
                }
                Inst::Nop => {}
            }
            self.pc = next_pc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(source: &str) -> (Vm, RunOutcome) {
        let program = assemble(source).expect("test program assembles");
        let mut vm = Vm::with_limits(program, 4096, 10_000_000);
        let outcome = vm.run().expect("test program runs");
        (vm, outcome)
    }

    #[test]
    fn arithmetic_and_registers() {
        let (vm, _) = run("li r1, 6
             li r2, 7
             mul r3, r1, r2
             subi r4, r3, 2
             halt");
        assert_eq!(vm.reg(Reg::new(3)), 42);
        assert_eq!(vm.reg(Reg::new(4)), 40);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (vm, _) = run("li r0, 99\nhalt");
        assert_eq!(vm.reg(Reg::ZERO), 0);
    }

    #[test]
    fn loads_and_stores() {
        let (vm, _) = run("li r1, 100
             li r2, 55
             st r2, r1, 4
             ld r3, r1, 4
             halt");
        assert_eq!(vm.mem(104), 55);
        assert_eq!(vm.reg(Reg::new(3)), 55);
    }

    #[test]
    fn loop_emits_conditional_trace() {
        let (vm, outcome) = run("       li  r1, 0
                    li  r2, 5
             top:   addi r1, r1, 1
                    blt r1, r2, top
                    halt");
        assert_eq!(outcome.stop, StopReason::Halted);
        let trace = vm.into_trace();
        let dirs: Vec<bool> = trace.conditional_branches().map(|b| b.taken).collect();
        assert_eq!(dirs, vec![true, true, true, true, false]);
        // Loop branch is backward.
        assert!(trace.conditional_branches().all(|b| b.is_backward()));
    }

    #[test]
    fn call_and_return_trace_classes() {
        let (vm, _) = run("       call fn
                    halt
             fn:    nop
                    ret");
        let trace = vm.into_trace();
        let classes: Vec<BranchClass> = trace.branches().map(|b| b.class).collect();
        assert_eq!(classes, vec![BranchClass::Call, BranchClass::Return]);
        // Return target is the instruction after the call.
        let ret = trace.branches().nth(1).unwrap();
        assert_eq!(ret.target, Program::address_of(1));
    }

    #[test]
    fn nested_calls_unwind_correctly() {
        let (vm, _) = run("       call a
                    halt
             a:     call b
                    ret
             b:     ret");
        assert_eq!(vm.reg(Reg::ZERO), 0); // reached halt without error
        let trace = vm.trace();
        assert_eq!(trace.branches().count(), 4);
    }

    #[test]
    fn trap_emits_trap_event_and_continues() {
        let (vm, _) = run("trap 3\nli r1, 1\nhalt");
        assert_eq!(vm.reg(Reg::new(1)), 1);
        let trace = vm.into_trace();
        assert_eq!(trace.iter().filter(|e| e.as_branch().is_none()).count(), 1);
    }

    #[test]
    fn instruction_budget_stops_infinite_loop() {
        let program = assemble("top: j top").unwrap();
        let mut vm = Vm::with_limits(program, 64, 1000);
        let outcome = vm.run().unwrap();
        assert_eq!(outcome.stop, StopReason::InstructionLimit);
        assert_eq!(outcome.instructions, 1000);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let program = assemble("li r1, 1\ndiv r2, r1, r0\nhalt").unwrap();
        let mut vm = Vm::with_limits(program, 64, 1000);
        assert_eq!(vm.run(), Err(VmError::DivisionByZero { pc: 1 }));
    }

    #[test]
    fn memory_bounds_checked() {
        let program = assemble("li r1, 9999999\nld r2, r1, 0\nhalt").unwrap();
        let mut vm = Vm::with_limits(program, 64, 1000);
        assert!(matches!(vm.run(), Err(VmError::MemoryOutOfRange { .. })));
    }

    #[test]
    fn return_without_call_is_an_error() {
        let program = assemble("ret").unwrap();
        let mut vm = Vm::with_limits(program, 64, 1000);
        assert_eq!(vm.run(), Err(VmError::ReturnWithoutCall { pc: 0 }));
    }

    #[test]
    fn falling_off_the_end_is_an_error() {
        let program = assemble("nop").unwrap();
        let mut vm = Vm::with_limits(program, 64, 1000);
        assert_eq!(vm.run(), Err(VmError::PcOutOfRange { pc: 1 }));
    }

    #[test]
    fn trace_instret_matches_execution_order() {
        let (vm, _) = run("li r1, 1\nj next\nnext: halt");
        let trace = vm.into_trace();
        let jump = trace.branches().next().unwrap();
        assert_eq!(jump.instret, 2, "jump is the second instruction executed");
    }

    #[test]
    fn shift_operations() {
        let (vm, _) = run("li r1, 1
             li r2, 4
             shl r3, r1, r2
             li r4, -16
             shri r5, r4, 2
             halt");
        assert_eq!(vm.reg(Reg::new(3)), 16);
        assert_eq!(vm.reg(Reg::new(5)), -4, "shr is arithmetic");
    }
}
