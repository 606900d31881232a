//! The instruction set of the mini-RISC trace generator.
//!
//! A small load/store architecture with 32 general-purpose registers
//! (`r0` hardwired to zero), word-addressed data memory, conditional
//! branches, unconditional jumps, calls/returns and traps — the classes of
//! control transfer the paper's Figure 4 distinguishes. It intentionally
//! mirrors the *trace-relevant* features of the Motorola 88100 the paper
//! used, not its encoding.

use std::fmt;

/// A register name `r0`–`r31`; `r0` always reads zero and ignores writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// Number of architectural registers.
    pub const COUNT: u8 = 32;
    /// The zero register.
    pub const ZERO: Reg = Reg(0);

    /// Creates register `rN`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub const fn new(index: u8) -> Self {
        assert!(index < Reg::COUNT, "register index out of range");
        Reg(index)
    }

    /// The register number.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Condition codes for conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if signed less-than.
    Lt,
    /// Branch if signed greater-or-equal.
    Ge,
    /// Branch if signed less-or-equal.
    Le,
    /// Branch if signed greater-than.
    Gt,
}

impl Cond {
    /// Evaluates the condition on two operand values.
    #[must_use]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Ge => a >= b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
        }
    }

    /// The branch mnemonic (`beq`, `bne`, ...).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Ge => "bge",
            Cond::Le => "ble",
            Cond::Gt => "bgt",
        }
    }
}

/// Binary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (traps the VM on divide-by-zero).
    Div,
    /// Signed remainder (traps the VM on divide-by-zero).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Logical shift left (shift amount masked to 6 bits).
    Shl,
    /// Arithmetic shift right (shift amount masked to 6 bits).
    Shr,
    /// Set if signed less-than (1 or 0).
    Slt,
}

impl AluOp {
    /// The assembly mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Slt => "slt",
        }
    }
}

/// One instruction. Branch/jump/call targets are instruction indices into
/// the program's text (resolved from labels at assembly time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// `rd = a <op> b`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        a: Reg,
        /// Second source register.
        b: Reg,
    },
    /// `rd = a <op> imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        a: Reg,
        /// Immediate operand.
        imm: i64,
    },
    /// `rd = imm`.
    LoadImm {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// `rd = mem[base + offset]`.
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset.
        offset: i64,
    },
    /// `mem[base + offset] = src`.
    Store {
        /// Source register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset.
        offset: i64,
    },
    /// Conditional branch: `if a <cond> b goto target`.
    Branch {
        /// Condition.
        cond: Cond,
        /// First compared register.
        a: Reg,
        /// Second compared register.
        b: Reg,
        /// Target instruction index.
        target: usize,
    },
    /// Unconditional jump.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Subroutine call (pushes the return address on the VM call stack).
    Call {
        /// Target instruction index.
        target: usize,
    },
    /// Subroutine return (pops the VM call stack).
    Ret,
    /// Operating-system trap: emits a trap trace event (context-switch
    /// trigger) and continues.
    Trap {
        /// Trap code, recorded for diagnostics.
        code: u16,
    },
    /// Stops execution.
    Halt,
    /// Does nothing.
    Nop,
}

impl Inst {
    /// Whether this instruction is any kind of branch (for Figure 4
    /// accounting).
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(self, Inst::Branch { .. } | Inst::Jump { .. } | Inst::Call { .. } | Inst::Ret)
    }

    /// A fixed-width binary encoding, injective over all instructions:
    /// the first word holds the variant tag in its low byte and the
    /// narrow fields (operation or condition, registers, trap code) in
    /// the four bytes above it; the second holds the variant's 64-bit
    /// field (immediate, offset or target), or 0. Workload fingerprints
    /// fold it instead of rendering each instruction to text.
    #[must_use]
    pub fn encode(&self) -> [u64; 2] {
        let head = |tag: u8, fields: [u8; 4]| {
            let [f0, f1, f2, f3] = fields;
            u64::from_le_bytes([tag, f0, f1, f2, f3, 0, 0, 0])
        };
        match *self {
            Inst::Alu { op, rd, a, b } => [head(0, [op as u8, rd.0, a.0, b.0]), 0],
            Inst::AluImm { op, rd, a, imm } => [head(1, [op as u8, rd.0, a.0, 0]), imm as u64],
            Inst::LoadImm { rd, imm } => [head(2, [0, rd.0, 0, 0]), imm as u64],
            Inst::Load { rd, base, offset } => [head(3, [0, rd.0, base.0, 0]), offset as u64],
            Inst::Store { src, base, offset } => [head(4, [0, src.0, base.0, 0]), offset as u64],
            Inst::Branch { cond, a, b, target } => {
                [head(5, [cond as u8, a.0, b.0, 0]), target as u64]
            }
            Inst::Jump { target } => [head(6, [0; 4]), target as u64],
            Inst::Call { target } => [head(7, [0; 4]), target as u64],
            Inst::Ret => [head(8, [0; 4]), 0],
            Inst::Trap { code } => {
                let [lo, hi] = code.to_le_bytes();
                [head(9, [lo, hi, 0, 0]), 0]
            }
            Inst::Halt => [head(10, [0; 4]), 0],
            Inst::Nop => [head(11, [0; 4]), 0],
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Alu { op, rd, a, b } => write!(f, "{} {rd}, {a}, {b}", op.mnemonic()),
            Inst::AluImm { op, rd, a, imm } => {
                write!(f, "{}i {rd}, {a}, {imm}", op.mnemonic())
            }
            Inst::LoadImm { rd, imm } => write!(f, "li {rd}, {imm}"),
            Inst::Load { rd, base, offset } => write!(f, "ld {rd}, {base}, {offset}"),
            Inst::Store { src, base, offset } => write!(f, "st {src}, {base}, {offset}"),
            Inst::Branch { cond, a, b, target } => {
                write!(f, "{} {a}, {b}, @{target}", cond.mnemonic())
            }
            Inst::Jump { target } => write!(f, "j @{target}"),
            Inst::Call { target } => write!(f, "call @{target}"),
            Inst::Ret => f.write_str("ret"),
            Inst::Trap { code } => write!(f, "trap {code}"),
            Inst::Halt => f.write_str("halt"),
            Inst::Nop => f.write_str("nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_zero_and_bounds() {
        assert_eq!(Reg::ZERO.index(), 0);
        assert_eq!(Reg::new(31).index(), 31);
        assert_eq!(Reg::new(5).to_string(), "r5");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_rejects_32() {
        let _ = Reg::new(32);
    }

    #[test]
    fn cond_eval_table() {
        assert!(Cond::Eq.eval(3, 3));
        assert!(!Cond::Eq.eval(3, 4));
        assert!(Cond::Ne.eval(3, 4));
        assert!(Cond::Lt.eval(-1, 0));
        assert!(Cond::Ge.eval(0, 0));
        assert!(Cond::Le.eval(-5, -5));
        assert!(Cond::Gt.eval(7, 6));
        assert!(!Cond::Gt.eval(6, 6));
    }

    #[test]
    fn branch_classification() {
        let branch = Inst::Branch { cond: Cond::Eq, a: Reg::ZERO, b: Reg::ZERO, target: 0 };
        assert!(branch.is_branch());
        assert!(Inst::Ret.is_branch());
        assert!(Inst::Jump { target: 0 }.is_branch());
        assert!(Inst::Call { target: 0 }.is_branch());
        assert!(!Inst::Nop.is_branch());
        assert!(!Inst::Trap { code: 1 }.is_branch());
    }

    /// Every instruction over a product of field values (each field's
    /// extremes included). Two distinct samples differ in at least one
    /// field or in their variant, so an injective encoding over this set
    /// covers both single-field changes and cross-variant collisions.
    fn encoding_samples() -> Vec<Inst> {
        use AluOp::*;
        let ops = [Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Slt];
        let conds = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Le, Cond::Gt];
        let regs = [Reg::ZERO, Reg::new(1), Reg::new(31)];
        let imms = [0, 1, -1, i64::MIN, i64::MAX];
        let targets = [0, 1, usize::MAX];
        let mut samples = vec![Inst::Ret, Inst::Halt, Inst::Nop];
        for code in [0, 1, 0x100, u16::MAX] {
            samples.push(Inst::Trap { code });
        }
        for target in targets {
            samples.extend([Inst::Jump { target }, Inst::Call { target }]);
        }
        for (rd, a) in regs.iter().flat_map(|&rd| regs.iter().map(move |&a| (rd, a))) {
            for imm in imms {
                samples.push(Inst::Load { rd, base: a, offset: imm });
                samples.push(Inst::Store { src: rd, base: a, offset: imm });
                samples.extend(ops.iter().map(|&op| Inst::AluImm { op, rd, a, imm }));
            }
            for b in regs {
                samples.extend(ops.iter().map(|&op| Inst::Alu { op, rd, a, b }));
            }
            for target in targets {
                samples.extend(conds.iter().map(|&cond| Inst::Branch {
                    cond,
                    a: rd,
                    b: a,
                    target,
                }));
            }
        }
        for rd in regs {
            samples.extend(imms.iter().map(|&imm| Inst::LoadImm { rd, imm }));
        }
        samples
    }

    #[test]
    fn encoding_is_injective_across_fields_and_variants() {
        // Exhaustive on purpose: a new variant fails to compile here
        // until the sample set (and `encode`) covers it.
        let variant = |inst: &Inst| match inst {
            Inst::Alu { .. } => 0,
            Inst::AluImm { .. } => 1,
            Inst::LoadImm { .. } => 2,
            Inst::Load { .. } => 3,
            Inst::Store { .. } => 4,
            Inst::Branch { .. } => 5,
            Inst::Jump { .. } => 6,
            Inst::Call { .. } => 7,
            Inst::Ret => 8,
            Inst::Trap { .. } => 9,
            Inst::Halt => 10,
            Inst::Nop => 11,
        };
        let samples = encoding_samples();
        let covered: std::collections::HashSet<u8> = samples.iter().map(variant).collect();
        assert_eq!(covered.len(), 12, "the samples cover every variant");
        let mut seen = std::collections::HashMap::new();
        for inst in &samples {
            if let Some(other) = seen.insert(inst.encode(), *inst) {
                assert_eq!(other, *inst, "{other:?} and {inst:?} share an encoding");
            }
        }
        assert_eq!(seen.len(), samples.len(), "the samples are distinct instructions");
    }

    #[test]
    fn display_round_readable() {
        let inst = Inst::Branch { cond: Cond::Lt, a: Reg::new(1), b: Reg::new(2), target: 7 };
        assert_eq!(inst.to_string(), "blt r1, r2, @7");
        assert_eq!(Inst::LoadImm { rd: Reg::new(3), imm: -9 }.to_string(), "li r3, -9");
    }
}
