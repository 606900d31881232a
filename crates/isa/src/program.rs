//! Programs: instruction sequences with label metadata, plus a builder
//! API for generated code.

use std::collections::HashMap;
use std::fmt;

use crate::inst::{AluOp, Cond, Inst, Reg};

/// Base text address: instruction index `i` lives at byte address
/// `TEXT_BASE + 4 * i`. Branch trace records use these byte addresses, so
/// branch pcs are dense the way real code is.
pub const TEXT_BASE: u64 = 0x1000;

/// An executable program for the mini-RISC VM.
///
/// # Example
///
/// ```
/// use tlabp_isa::program::ProgramBuilder;
/// use tlabp_isa::inst::{Cond, Reg};
///
/// let mut b = ProgramBuilder::new();
/// let r1 = Reg::new(1);
/// let r2 = Reg::new(2);
/// b.li(r1, 0);
/// b.li(r2, 10);
/// let top = b.label("loop");
/// b.bind(top);
/// b.addi(r1, r1, 1);
/// b.branch(Cond::Lt, r1, r2, top);
/// b.halt();
/// let program = b.build()?;
/// assert_eq!(program.len(), 5);
/// # Ok::<(), tlabp_isa::program::ProgramError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    instructions: Vec<Inst>,
    labels: HashMap<String, usize>,
}

impl Program {
    /// The instructions.
    #[must_use]
    pub fn instructions(&self) -> &[Inst] {
        &self.instructions
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instruction index a label resolves to, if defined.
    #[must_use]
    pub fn label(&self, name: &str) -> Option<usize> {
        self.labels.get(name).copied()
    }

    /// The byte address of instruction index `index`.
    #[must_use]
    pub fn address_of(index: usize) -> u64 {
        TEXT_BASE + 4 * index as u64
    }

    /// Number of static conditional branches in the program text.
    #[must_use]
    pub fn static_conditional_branches(&self) -> usize {
        self.instructions.iter().filter(|i| matches!(i, Inst::Branch { .. })).count()
    }

    pub(crate) fn with_labels(instructions: Vec<Inst>, labels: HashMap<String, usize>) -> Self {
        Program { instructions, labels }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut by_index: HashMap<usize, &str> = HashMap::new();
        for (name, &index) in &self.labels {
            by_index.insert(index, name);
        }
        for (i, inst) in self.instructions.iter().enumerate() {
            if let Some(name) = by_index.get(&i) {
                writeln!(f, "{name}:")?;
            }
            writeln!(f, "    {inst}")?;
        }
        Ok(())
    }
}

/// Error building or assembling a program.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProgramError {
    /// A label was referenced but never bound to a location.
    UnboundLabel {
        /// The label's name.
        name: String,
    },
    /// A label was bound twice.
    DuplicateLabel {
        /// The label's name.
        name: String,
    },
    /// An assembly line failed to parse.
    Syntax {
        /// 1-based source line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnboundLabel { name } => write!(f, "label {name:?} is never bound"),
            ProgramError::DuplicateLabel { name } => {
                write!(f, "label {name:?} is bound more than once")
            }
            ProgramError::Syntax { line, message } => {
                write!(f, "syntax error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A forward-referenceable label handle issued by [`ProgramBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Incrementally builds a [`Program`], with label binding and patching —
/// the API the generated workloads (e.g. the gcc-like synthetic control
/// flow graph) use instead of text assembly.
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    instructions: Vec<Inst>,
    label_names: Vec<String>,
    bound: Vec<Option<usize>>,
    /// (instruction index, label) pairs whose targets need patching.
    fixups: Vec<(usize, Label)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Declares a label (not yet bound to a location).
    pub fn label(&mut self, name: impl Into<String>) -> Label {
        let id = Label(self.label_names.len());
        self.label_names.push(name.into());
        self.bound.push(None);
        id
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound (builder misuse is a
    /// programming error, unlike assembling untrusted text).
    pub fn bind(&mut self, label: Label) {
        assert!(self.bound[label.0].is_none(), "label {:?} bound twice", self.label_names[label.0]);
        self.bound[label.0] = Some(self.instructions.len());
    }

    /// Current instruction count (the index the next emitted instruction
    /// will occupy).
    #[must_use]
    pub fn here(&self) -> usize {
        self.instructions.len()
    }

    fn push(&mut self, inst: Inst) -> &mut Self {
        self.instructions.push(inst);
        self
    }

    /// Emits a raw instruction.
    ///
    /// Control-flow instructions pushed this way must carry
    /// already-resolved targets; prefer [`ProgramBuilder::branch`],
    /// [`ProgramBuilder::jump`] and [`ProgramBuilder::call`], which
    /// resolve labels.
    pub fn inst(&mut self, inst: Inst) -> &mut Self {
        self.push(inst)
    }

    /// Emits `rd = a <op> b`.
    pub fn alu(&mut self, op: AluOp, rd: Reg, a: Reg, b: Reg) -> &mut Self {
        self.push(Inst::Alu { op, rd, a, b })
    }

    /// Emits `rd = a + b`.
    pub fn add(&mut self, rd: Reg, a: Reg, b: Reg) -> &mut Self {
        self.alu(AluOp::Add, rd, a, b)
    }

    /// Emits `rd = a - b`.
    pub fn sub(&mut self, rd: Reg, a: Reg, b: Reg) -> &mut Self {
        self.alu(AluOp::Sub, rd, a, b)
    }

    /// Emits `rd = a <op> imm`.
    pub fn alu_imm(&mut self, op: AluOp, rd: Reg, a: Reg, imm: i64) -> &mut Self {
        self.push(Inst::AluImm { op, rd, a, imm })
    }

    /// Emits `rd = a + imm`.
    pub fn addi(&mut self, rd: Reg, a: Reg, imm: i64) -> &mut Self {
        self.alu_imm(AluOp::Add, rd, a, imm)
    }

    /// Emits `rd = imm`.
    pub fn li(&mut self, rd: Reg, imm: i64) -> &mut Self {
        self.push(Inst::LoadImm { rd, imm })
    }

    /// Emits `rd = mem[base + offset]`.
    pub fn ld(&mut self, rd: Reg, base: Reg, offset: i64) -> &mut Self {
        self.push(Inst::Load { rd, base, offset })
    }

    /// Emits `mem[base + offset] = src`.
    pub fn st(&mut self, src: Reg, base: Reg, offset: i64) -> &mut Self {
        self.push(Inst::Store { src, base, offset })
    }

    /// Emits a conditional branch to `target`.
    pub fn branch(&mut self, cond: Cond, a: Reg, b: Reg, target: Label) -> &mut Self {
        let at = self.instructions.len();
        self.fixups.push((at, target));
        self.push(Inst::Branch { cond, a, b, target: usize::MAX })
    }

    /// Emits an unconditional jump to `target`.
    pub fn jump(&mut self, target: Label) -> &mut Self {
        let at = self.instructions.len();
        self.fixups.push((at, target));
        self.push(Inst::Jump { target: usize::MAX })
    }

    /// Emits a call to `target`.
    pub fn call(&mut self, target: Label) -> &mut Self {
        let at = self.instructions.len();
        self.fixups.push((at, target));
        self.push(Inst::Call { target: usize::MAX })
    }

    /// Emits a return.
    pub fn ret(&mut self) -> &mut Self {
        self.push(Inst::Ret)
    }

    /// Emits a trap.
    pub fn trap(&mut self, code: u16) -> &mut Self {
        self.push(Inst::Trap { code })
    }

    /// Emits a halt.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Inst::Halt)
    }

    /// Emits a no-op.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Inst::Nop)
    }

    /// Resolves all label references and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::UnboundLabel`] if any referenced label was
    /// never bound.
    pub fn build(mut self) -> Result<Program, ProgramError> {
        for &(at, label) in &self.fixups {
            let Some(target) = self.bound[label.0] else {
                return Err(ProgramError::UnboundLabel { name: self.label_names[label.0].clone() });
            };
            match &mut self.instructions[at] {
                Inst::Branch { target: t, .. }
                | Inst::Jump { target: t }
                | Inst::Call { target: t } => *t = target,
                other => unreachable!("fixup on non-control instruction {other}"),
            }
        }
        let labels = self
            .label_names
            .iter()
            .zip(&self.bound)
            .filter_map(|(name, bound)| bound.map(|index| (name.clone(), index)))
            .collect();
        Ok(Program::with_labels(self.instructions, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_resolves_forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        let r1 = Reg::new(1);
        let end = b.label("end");
        let top = b.label("top");
        b.bind(top);
        b.addi(r1, r1, 1);
        b.branch(Cond::Ge, r1, Reg::new(2), end); // forward
        b.jump(top); // backward
        b.bind(end);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.label("top"), Some(0));
        assert_eq!(p.label("end"), Some(3));
        match p.instructions()[1] {
            Inst::Branch { target, .. } => assert_eq!(target, 3),
            ref other => panic!("expected branch, got {other}"),
        }
        match p.instructions()[2] {
            Inst::Jump { target } => assert_eq!(target, 0),
            ref other => panic!("expected jump, got {other}"),
        }
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        let nowhere = b.label("nowhere");
        b.jump(nowhere);
        let err = b.build().unwrap_err();
        assert_eq!(err, ProgramError::UnboundLabel { name: "nowhere".to_owned() });
        assert!(err.to_string().contains("nowhere"));
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label("l");
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn static_branch_count() {
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        b.bind(top);
        b.branch(Cond::Eq, Reg::ZERO, Reg::ZERO, top);
        b.branch(Cond::Ne, Reg::ZERO, Reg::ZERO, top);
        b.jump(top);
        let p = b.build().unwrap();
        assert_eq!(p.static_conditional_branches(), 2);
    }

    #[test]
    fn addresses_are_word_spaced() {
        assert_eq!(Program::address_of(0), TEXT_BASE);
        assert_eq!(Program::address_of(3), TEXT_BASE + 12);
    }

    #[test]
    fn display_includes_labels() {
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        b.bind(top);
        b.nop();
        b.jump(top);
        let p = b.build().unwrap();
        let text = p.to_string();
        assert!(text.contains("top:"));
        assert!(text.contains("j @0"));
    }
}
