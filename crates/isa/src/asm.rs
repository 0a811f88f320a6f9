//! Programmatic assembler and linker for TRV64.
//!
//! [`ProgramBuilder`] is the backbone of the scripting-engine code
//! generators (`luart`/`jsrt`/`wasmrt`): interpreter dispatch loops and
//! bytecode handlers are emitted through it, with forward-referenced labels
//! resolved at [`ProgramBuilder::finish`] time. It also provides a data
//! section (constants, jump tables) and the usual pseudo-instructions
//! (`li`, `la`, `mv`, `j`, `call`, `ret`).
//!
//! Code that is assembled once and run over many data sections declares
//! the addresses it cannot know yet with [`ProgramBuilder::import`] and
//! finishes into an [`Object`]: encoded text whose `la`/`li` words against
//! those imports are left as relocations. Each [`Linker`] from
//! [`Object::linker`] appends one data section, binds the imports and
//! patches the relocated words, yielding the same [`Program`] that
//! assembling text and data together would have produced.

use crate::encode::EncodeError;
use crate::instr::*;
use crate::{FReg, Reg};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A code or data label; resolved to an address when the program is
/// finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// A fully assembled program image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Base address of the text section.
    pub text_base: u64,
    /// Encoded instruction words.
    pub text: Vec<u32>,
    /// Base address of the data section.
    pub data_base: u64,
    /// Raw data bytes.
    pub data: Vec<u8>,
    /// Entry point address.
    pub entry: u64,
    /// Named symbols (labels given a name) and their addresses. Programs
    /// linked from one [`Object`] share its table.
    pub symbols: Arc<BTreeMap<String, u64>>,
}

impl Program {
    /// Number of instructions in the text section.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the text section is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Address of a named symbol.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Disassembles the text section as `(address, instruction)` pairs.
    ///
    /// Words that fail to decode are skipped (none are produced by the
    /// builder itself).
    pub fn disassemble(&self) -> Vec<(u64, Instruction)> {
        self.text
            .iter()
            .enumerate()
            .filter_map(|(i, w)| {
                Instruction::decode(*w).ok().map(|ins| (self.text_base + 4 * i as u64, ins))
            })
            .collect()
    }
}

/// Errors produced while assembling a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never bound.
    UnboundLabel {
        /// Label name, if one was given.
        name: String,
    },
    /// A label was bound twice.
    DuplicateBind {
        /// Label name.
        name: String,
    },
    /// `la` cannot reach an address: `lui`+`addi` loads only values in
    /// `-0x8000_0000..0x7fff_f800`, where the rounded high part fits
    /// `lui`'s 20-bit immediate.
    AddressOutOfRange {
        /// Label name.
        name: String,
        /// The label's address.
        addr: u64,
    },
    /// A relocated `li` needs a different number of words than were
    /// reserved for it (see [`ProgramBuilder::li_import`]).
    RelocationWidth {
        /// Import name.
        name: String,
        /// The value being loaded.
        value: u64,
        /// Words reserved in the text.
        reserved: usize,
    },
    /// An instruction could not be encoded (out-of-range immediate/offset).
    Encode {
        /// Address of the offending instruction.
        pc: u64,
        /// Underlying encoding error.
        source: EncodeError,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel { name } => write!(f, "label `{name}` was never bound"),
            AsmError::DuplicateBind { name } => write!(f, "label `{name}` bound twice"),
            AsmError::AddressOutOfRange { name, addr } => {
                write!(f, "label `{name}` at {addr:#x} is out of `la` range")
            }
            AsmError::RelocationWidth { name, value, reserved } => write!(
                f,
                "`li` of `{name}` = {value:#x} takes {} words, {reserved} reserved",
                ProgramBuilder::li_len(*value as i64)
            ),
            AsmError::Encode { pc, source } => write!(f, "at {pc:#x}: {source}"),
        }
    }
}

impl Error for AsmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AsmError::Encode { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
enum Fixup {
    Branch {
        idx: usize,
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        label: Label,
    },
    Jal {
        idx: usize,
        rd: Reg,
        label: Label,
    },
    Thdl {
        idx: usize,
        label: Label,
    },
    /// Words loading a label's absolute value; left open as a relocation
    /// when the label is an unbound import.
    Abs(Reloc),
}

/// Text words that load an absolute value into `rd`.
#[derive(Debug, Clone, Copy)]
struct Reloc {
    idx: usize,
    rd: Reg,
    /// `Some(n)`: the `li` sequence, which must take exactly `n` words;
    /// `None`: the fixed `lui`+`addi` pair of `la`.
    li_words: Option<usize>,
    label: Label,
}

impl Reloc {
    /// Encodes the load of `value` over the reserved words.
    fn patch(
        &self,
        text: &mut [u32],
        text_base: u64,
        value: u64,
        name: &str,
    ) -> Result<(), AsmError> {
        let mut seq = Vec::with_capacity(2);
        match self.li_words {
            None => {
                let (hi, lo) = hi_lo(value as i64).ok_or_else(|| AsmError::AddressOutOfRange {
                    name: name.to_string(),
                    addr: value,
                })?;
                seq.push(Instruction::Lui { rd: self.rd, imm: hi });
                seq.push(Instruction::AluImm {
                    op: AluImmOp::Addi,
                    rd: self.rd,
                    rs1: self.rd,
                    imm: lo,
                });
            }
            Some(reserved) => {
                li_seq(self.rd, value as i64, &mut seq);
                if seq.len() != reserved {
                    return Err(AsmError::RelocationWidth {
                        name: name.to_string(),
                        value,
                        reserved,
                    });
                }
            }
        }
        for (k, instr) in seq.iter().enumerate() {
            let pc = text_base + 4 * (self.idx + k) as u64;
            text[self.idx + k] =
                instr.encode().map_err(|source| AsmError::Encode { pc, source })?;
        }
        Ok(())
    }
}

/// `lui`+`addi` halves of `value`, when it is a 32-bit value whose rounded
/// high part fits `lui`'s signed 20-bit immediate (`lui` sign-extends, so
/// `0x7fff_f800..=0x7fff_ffff` would round up to `0x8000_0000` and load
/// negative).
fn hi_lo(value: i64) -> Option<(i32, i32)> {
    i32::try_from(value).ok()?;
    let hi = (value + 0x800) >> 12;
    (hi <= 0x7_ffff).then_some((hi as i32, (value - (hi << 12)) as i32))
}

/// The shortest `addi`/`lui+addi`/shift-or sequence loading `value`.
fn li_seq(rd: Reg, value: i64, out: &mut Vec<Instruction>) {
    if (-16384..=16383).contains(&value) {
        out.push(Instruction::AluImm { op: AluImmOp::Addi, rd, rs1: Reg::ZERO, imm: value as i32 });
    } else if let Some((hi, lo)) = hi_lo(value) {
        out.push(Instruction::Lui { rd, imm: hi });
        if lo != 0 {
            out.push(Instruction::AluImm { op: AluImmOp::Addi, rd, rs1: rd, imm: lo });
        }
    } else {
        // Build the upper bits recursively, then shift in 14-bit chunks.
        li_seq(rd, value >> 14, out);
        out.push(Instruction::AluImm { op: AluImmOp::Slli, rd, rs1: rd, imm: 14 });
        let low = (value & 0x3fff) as i32;
        if low != 0 {
            out.push(Instruction::AluImm { op: AluImmOp::Ori, rd, rs1: rd, imm: low });
        }
    }
}

/// A data section under construction: raw bytes plus 8-byte slots that
/// will hold a label's absolute address.
#[derive(Debug, Clone)]
struct Data {
    base: u64,
    bytes: Vec<u8>,
    slots: Vec<(usize, Label)>,
}

impl Data {
    fn pc(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }

    fn bytes(&mut self, bytes: &[u8]) -> u64 {
        let addr = self.pc();
        self.bytes.extend_from_slice(bytes);
        addr
    }

    fn dword_label(&mut self, label: Label) -> u64 {
        self.slots.push((self.bytes.len(), label));
        self.bytes(&[0u8; 8])
    }

    fn align(&mut self, align: u64) {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let pad = self.pc().next_multiple_of(align) - self.pc();
        self.bytes.resize(self.bytes.len() + pad as usize, 0);
    }

    /// Fills every label slot with the address `resolve` gives.
    fn fill(
        &mut self,
        mut resolve: impl FnMut(Label) -> Result<u64, AsmError>,
    ) -> Result<(), AsmError> {
        for &(offset, label) in &self.slots {
            self.bytes[offset..offset + 8].copy_from_slice(&resolve(label)?.to_le_bytes());
        }
        Ok(())
    }
}

/// Incremental assembler producing a [`Program`].
///
/// # Examples
///
/// ```
/// use tarch_isa::asm::ProgramBuilder;
/// use tarch_isa::Reg;
///
/// let mut b = ProgramBuilder::new(0x1000, 0x10000);
/// let done = b.new_label("done");
/// b.li(Reg::A0, 5);
/// b.li(Reg::A1, 0);
/// let loop_top = b.here("loop");
/// b.beqz(Reg::A0, done);
/// b.add(Reg::A1, Reg::A1, Reg::A0);
/// b.addi(Reg::A0, Reg::A0, -1);
/// b.j(loop_top);
/// b.bind(done);
/// b.halt();
/// let program = b.finish()?;
/// assert!(program.len() >= 7);
/// # Ok::<(), tarch_isa::asm::AsmError>(())
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    text_base: u64,
    instrs: Vec<Instruction>,
    data: Data,
    labels: Vec<(Option<u64>, String)>,
    imports: Vec<Label>,
    fixups: Vec<Fixup>,
    entry: Option<u64>,
}

impl ProgramBuilder {
    /// Creates a builder with the given text and data base addresses.
    pub fn new(text_base: u64, data_base: u64) -> ProgramBuilder {
        ProgramBuilder {
            text_base,
            instrs: Vec::new(),
            data: Data { base: data_base, bytes: Vec::new(), slots: Vec::new() },
            labels: Vec::new(),
            imports: Vec::new(),
            fixups: Vec::new(),
            entry: None,
        }
    }

    /// Current program counter (address of the next emitted instruction).
    pub fn pc(&self) -> u64 {
        self.text_base + 4 * self.instrs.len() as u64
    }

    /// Current data cursor (address of the next emitted data byte).
    pub fn data_pc(&self) -> u64 {
        self.data.pc()
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Declares a new, unbound label. The name is kept for diagnostics and
    /// exported as a symbol once bound.
    pub fn new_label(&mut self, name: &str) -> Label {
        self.labels.push((None, name.to_string()));
        Label(self.labels.len() as u32 - 1)
    }

    /// Declares a label that stays unbound here: [`ProgramBuilder::la`] and
    /// [`ProgramBuilder::li_import`] against it become relocations of the
    /// [`Object`] that a [`Linker`] patches once it knows the value.
    pub fn import(&mut self, name: &str) -> Label {
        let label = self.new_label(name);
        self.imports.push(label);
        label
    }

    /// Binds a label to the current pc.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound (catching codegen bugs early;
    /// the same condition is also reported by [`ProgramBuilder::finish`]).
    pub fn bind(&mut self, label: Label) {
        let pc = self.pc();
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.0.is_none(), "label `{}` bound twice", slot.1);
        slot.0 = Some(pc);
    }

    /// Declares and immediately binds a label at the current pc.
    pub fn here(&mut self, name: &str) -> Label {
        let l = self.new_label(name);
        self.bind(l);
        l
    }

    /// Binds a label to the current *data* cursor.
    pub fn bind_data(&mut self, label: Label) {
        let addr = self.data_pc();
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.0.is_none(), "label `{}` bound twice", slot.1);
        slot.0 = Some(addr);
    }

    /// Marks the current pc as the program entry point (defaults to
    /// `text_base`).
    pub fn set_entry_here(&mut self) {
        self.entry = Some(self.pc());
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, instr: Instruction) {
        self.instrs.push(instr);
    }

    // --- data section -------------------------------------------------

    /// Appends raw bytes to the data section, returning their address.
    pub fn bytes(&mut self, bytes: &[u8]) -> u64 {
        self.data.bytes(bytes)
    }

    /// Appends a little-endian 8-byte value, returning its address.
    pub fn dword(&mut self, value: u64) -> u64 {
        self.bytes(&value.to_le_bytes())
    }

    /// Appends an 8-byte slot that will hold `label`'s absolute address.
    pub fn dword_label(&mut self, label: Label) -> u64 {
        self.data.dword_label(label)
    }

    /// Pads the data section to the given power-of-two alignment.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn align_data(&mut self, align: u64) {
        self.data.align(align);
    }

    // --- control flow with labels --------------------------------------

    /// Emits a conditional branch to a label.
    pub fn branch(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, label: Label) {
        let idx = self.instrs.len();
        self.instrs.push(Instruction::Branch { cond, rs1, rs2, offset: 0 });
        self.fixups.push(Fixup::Branch { idx, cond, rs1, rs2, label });
    }

    /// `beq rs1, rs2, label`.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.branch(BranchCond::Eq, rs1, rs2, label);
    }

    /// `bne rs1, rs2, label`.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.branch(BranchCond::Ne, rs1, rs2, label);
    }

    /// `blt rs1, rs2, label` (signed).
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.branch(BranchCond::Lt, rs1, rs2, label);
    }

    /// `bge rs1, rs2, label` (signed).
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.branch(BranchCond::Ge, rs1, rs2, label);
    }

    /// `bltu rs1, rs2, label`.
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.branch(BranchCond::Ltu, rs1, rs2, label);
    }

    /// `bgeu rs1, rs2, label`.
    pub fn bgeu(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.branch(BranchCond::Geu, rs1, rs2, label);
    }

    /// `bgt rs1, rs2, label` (signed; swaps operands of `blt`).
    pub fn bgt(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.branch(BranchCond::Lt, rs2, rs1, label);
    }

    /// `ble rs1, rs2, label` (signed; swaps operands of `bge`).
    pub fn ble(&mut self, rs1: Reg, rs2: Reg, label: Label) {
        self.branch(BranchCond::Ge, rs2, rs1, label);
    }

    /// Branch if a register is zero.
    pub fn beqz(&mut self, rs1: Reg, label: Label) {
        self.beq(rs1, Reg::ZERO, label);
    }

    /// Branch if a register is non-zero.
    pub fn bnez(&mut self, rs1: Reg, label: Label) {
        self.bne(rs1, Reg::ZERO, label);
    }

    /// `jal rd, label`.
    pub fn jal(&mut self, rd: Reg, label: Label) {
        let idx = self.instrs.len();
        self.instrs.push(Instruction::Jal { rd, offset: 0 });
        self.fixups.push(Fixup::Jal { idx, rd, label });
    }

    /// Unconditional jump (`jal zero, label`).
    pub fn j(&mut self, label: Label) {
        self.jal(Reg::ZERO, label);
    }

    /// Call a subroutine (`jal ra, label`).
    pub fn call(&mut self, label: Label) {
        self.jal(Reg::RA, label);
    }

    /// Return from a subroutine (`jalr zero, 0(ra)`).
    pub fn ret(&mut self) {
        self.emit(Instruction::Jalr { rd: Reg::ZERO, rs1: Reg::RA, imm: 0 });
    }

    /// Indirect jump through a register (`jalr zero, 0(rs1)`).
    pub fn jr(&mut self, rs1: Reg) {
        self.emit(Instruction::Jalr { rd: Reg::ZERO, rs1, imm: 0 });
    }

    /// Indirect call through a register (`jalr ra, 0(rs1)`).
    pub fn jalr_call(&mut self, rs1: Reg) {
        self.emit(Instruction::Jalr { rd: Reg::RA, rs1, imm: 0 });
    }

    /// `thdl label`: register the type-miss handler.
    pub fn thdl(&mut self, label: Label) {
        let idx = self.instrs.len();
        self.instrs.push(Instruction::Thdl { offset: 0 });
        self.fixups.push(Fixup::Thdl { idx, label });
    }

    // --- pseudo-instructions -------------------------------------------

    /// No-op (`addi zero, zero, 0`).
    pub fn nop(&mut self) {
        self.addi(Reg::ZERO, Reg::ZERO, 0);
    }

    /// Register move (`addi rd, rs, 0`).
    pub fn mv(&mut self, rd: Reg, rs: Reg) {
        self.addi(rd, rs, 0);
    }

    /// Arithmetic negation (`sub rd, zero, rs`).
    pub fn neg(&mut self, rd: Reg, rs: Reg) {
        self.emit(Instruction::Alu { op: AluOp::Sub, rd, rs1: Reg::ZERO, rs2: rs });
    }

    /// Bitwise NOT (`xori rd, rs, -1`).
    pub fn not(&mut self, rd: Reg, rs: Reg) {
        self.emit(Instruction::AluImm { op: AluImmOp::Xori, rd, rs1: rs, imm: -1 });
    }

    /// Set-if-zero (`sltiu rd, rs, 1`).
    pub fn seqz(&mut self, rd: Reg, rs: Reg) {
        self.emit(Instruction::AluImm { op: AluImmOp::Sltiu, rd, rs1: rs, imm: 1 });
    }

    /// Set-if-non-zero (`sltu rd, zero, rs`).
    pub fn snez(&mut self, rd: Reg, rs: Reg) {
        self.emit(Instruction::Alu { op: AluOp::Sltu, rd, rs1: Reg::ZERO, rs2: rs });
    }

    /// Loads an arbitrary 64-bit constant using the shortest
    /// `addi`/`lui+addi`/shift-or sequence (1–10 instructions).
    pub fn li(&mut self, rd: Reg, value: i64) {
        li_seq(rd, value, &mut self.instrs);
    }

    /// Number of instructions [`ProgramBuilder::li`] emits for `value`.
    pub fn li_len(value: i64) -> usize {
        let mut seq = Vec::new();
        li_seq(Reg::ZERO, value, &mut seq);
        seq.len()
    }

    /// Loads a label's absolute address (always a `lui`+`addi` pair so the
    /// fixup size is fixed).
    pub fn la(&mut self, rd: Reg, label: Label) {
        self.reserve_abs(rd, label, None);
    }

    /// Loads a label's value with exactly the sequence
    /// [`ProgramBuilder::li`] would emit for it, which must be `words`
    /// instructions long (see [`ProgramBuilder::li_len`]). Used for an
    /// imported value whose `li` width the text was assembled for.
    pub fn li_import(&mut self, rd: Reg, label: Label, words: usize) {
        self.reserve_abs(rd, label, Some(words));
    }

    fn reserve_abs(&mut self, rd: Reg, label: Label, li_words: Option<usize>) {
        let idx = self.instrs.len();
        self.instrs.resize(idx + li_words.unwrap_or(2), Instruction::Lui { rd, imm: 0 });
        self.fixups.push(Fixup::Abs(Reloc { idx, rd, li_words, label }));
    }

    // --- common instruction shorthands ----------------------------------

    /// `addi rd, rs1, imm`.
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Instruction::AluImm { op: AluImmOp::Addi, rd, rs1, imm });
    }

    /// `add rd, rs1, rs2`.
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instruction::Alu { op: AluOp::Add, rd, rs1, rs2 });
    }

    /// `sub rd, rs1, rs2`.
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instruction::Alu { op: AluOp::Sub, rd, rs1, rs2 });
    }

    /// `mul rd, rs1, rs2`.
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instruction::Alu { op: AluOp::Mul, rd, rs1, rs2 });
    }

    /// `div rd, rs1, rs2` (signed).
    pub fn div(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instruction::Alu { op: AluOp::Div, rd, rs1, rs2 });
    }

    /// `rem rd, rs1, rs2` (signed).
    pub fn rem(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instruction::Alu { op: AluOp::Rem, rd, rs1, rs2 });
    }

    /// `and rd, rs1, rs2`.
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instruction::Alu { op: AluOp::And, rd, rs1, rs2 });
    }

    /// `or rd, rs1, rs2`.
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instruction::Alu { op: AluOp::Or, rd, rs1, rs2 });
    }

    /// `xor rd, rs1, rs2`.
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instruction::Alu { op: AluOp::Xor, rd, rs1, rs2 });
    }

    /// `sll rd, rs1, rs2`.
    pub fn sll(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instruction::Alu { op: AluOp::Sll, rd, rs1, rs2 });
    }

    /// `srl rd, rs1, rs2`.
    pub fn srl(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instruction::Alu { op: AluOp::Srl, rd, rs1, rs2 });
    }

    /// `slt rd, rs1, rs2` (signed).
    pub fn slt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instruction::Alu { op: AluOp::Slt, rd, rs1, rs2 });
    }

    /// `sltu rd, rs1, rs2`.
    pub fn sltu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instruction::Alu { op: AluOp::Sltu, rd, rs1, rs2 });
    }

    /// `andi rd, rs1, imm`.
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Instruction::AluImm { op: AluImmOp::Andi, rd, rs1, imm });
    }

    /// `ori rd, rs1, imm`.
    pub fn ori(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Instruction::AluImm { op: AluImmOp::Ori, rd, rs1, imm });
    }

    /// `xori rd, rs1, imm`.
    pub fn xori(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Instruction::AluImm { op: AluImmOp::Xori, rd, rs1, imm });
    }

    /// `slli rd, rs1, shamt`.
    pub fn slli(&mut self, rd: Reg, rs1: Reg, shamt: i32) {
        self.emit(Instruction::AluImm { op: AluImmOp::Slli, rd, rs1, imm: shamt });
    }

    /// `srli rd, rs1, shamt`.
    pub fn srli(&mut self, rd: Reg, rs1: Reg, shamt: i32) {
        self.emit(Instruction::AluImm { op: AluImmOp::Srli, rd, rs1, imm: shamt });
    }

    /// `srai rd, rs1, shamt`.
    pub fn srai(&mut self, rd: Reg, rs1: Reg, shamt: i32) {
        self.emit(Instruction::AluImm { op: AluImmOp::Srai, rd, rs1, imm: shamt });
    }

    /// `ld rd, imm(rs1)`.
    pub fn ld(&mut self, rd: Reg, imm: i32, rs1: Reg) {
        self.emit(Instruction::Load { width: MemWidth::Double, signed: true, rd, rs1, imm });
    }

    /// `lw rd, imm(rs1)` (sign-extended).
    pub fn lw(&mut self, rd: Reg, imm: i32, rs1: Reg) {
        self.emit(Instruction::Load { width: MemWidth::Word, signed: true, rd, rs1, imm });
    }

    /// `lwu rd, imm(rs1)`.
    pub fn lwu(&mut self, rd: Reg, imm: i32, rs1: Reg) {
        self.emit(Instruction::Load { width: MemWidth::Word, signed: false, rd, rs1, imm });
    }

    /// `lbu rd, imm(rs1)`.
    pub fn lbu(&mut self, rd: Reg, imm: i32, rs1: Reg) {
        self.emit(Instruction::Load { width: MemWidth::Byte, signed: false, rd, rs1, imm });
    }

    /// `sd rs2, imm(rs1)`.
    pub fn sd(&mut self, rs2: Reg, imm: i32, rs1: Reg) {
        self.emit(Instruction::Store { width: MemWidth::Double, rs2, rs1, imm });
    }

    /// `sw rs2, imm(rs1)`.
    pub fn sw(&mut self, rs2: Reg, imm: i32, rs1: Reg) {
        self.emit(Instruction::Store { width: MemWidth::Word, rs2, rs1, imm });
    }

    /// `sb rs2, imm(rs1)`.
    pub fn sb(&mut self, rs2: Reg, imm: i32, rs1: Reg) {
        self.emit(Instruction::Store { width: MemWidth::Byte, rs2, rs1, imm });
    }

    /// `fld rd, imm(rs1)`.
    pub fn fld(&mut self, rd: FReg, imm: i32, rs1: Reg) {
        self.emit(Instruction::FpLoad { rd, rs1, imm });
    }

    /// `fsd rs2, imm(rs1)`.
    pub fn fsd(&mut self, rs2: FReg, imm: i32, rs1: Reg) {
        self.emit(Instruction::FpStore { rs2, rs1, imm });
    }

    /// `tld rd, imm(rs1)` (tagged load).
    pub fn tld(&mut self, rd: Reg, imm: i32, rs1: Reg) {
        self.emit(Instruction::Tld { rd, rs1, imm });
    }

    /// `tsd rs2, imm(rs1)` (tagged store).
    pub fn tsd(&mut self, rs2: Reg, imm: i32, rs1: Reg) {
        self.emit(Instruction::Tsd { rs2, rs1, imm });
    }

    /// `xadd rd, rs1, rs2` (polymorphic add).
    pub fn xadd(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instruction::Typed { op: TypedAluOp::Xadd, rd, rs1, rs2 });
    }

    /// `xsub rd, rs1, rs2` (polymorphic subtract).
    pub fn xsub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instruction::Typed { op: TypedAluOp::Xsub, rd, rs1, rs2 });
    }

    /// `xmul rd, rs1, rs2` (polymorphic multiply).
    pub fn xmul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Instruction::Typed { op: TypedAluOp::Xmul, rd, rs1, rs2 });
    }

    /// `tchk rs1, rs2` (stand-alone TRT check).
    pub fn tchk(&mut self, rs1: Reg, rs2: Reg) {
        self.emit(Instruction::Tchk { rs1, rs2 });
    }

    /// `tget rd, rs1` (read type tag).
    pub fn tget(&mut self, rd: Reg, rs1: Reg) {
        self.emit(Instruction::Tget { rd, rs1 });
    }

    /// `tset rs1, rd` (write rd's tag from rs1's value).
    pub fn tset(&mut self, rs1: Reg, rd: Reg) {
        self.emit(Instruction::Tset { rs1, rd });
    }

    /// `chklb rd, imm(rs1)` (Checked Load fused load-compare-branch).
    pub fn chklb(&mut self, rd: Reg, imm: i32, rs1: Reg) {
        self.emit(Instruction::Chklb { rd, rs1, imm });
    }

    /// `ecall` (native host call).
    pub fn ecall(&mut self) {
        self.emit(Instruction::Ecall);
    }

    /// `halt`.
    pub fn halt(&mut self) {
        self.emit(Instruction::Halt);
    }

    // --- finishing ------------------------------------------------------

    /// Resolves all fixups and encodes the program.
    ///
    /// # Errors
    ///
    /// Returns an error for unbound labels (imports included), addresses
    /// `la` cannot reach, or out-of-range branch offsets.
    pub fn finish(self) -> Result<Program, AsmError> {
        let object = self.finish_object()?;
        match object.relocs.first() {
            Some(r) => {
                Err(AsmError::UnboundLabel { name: object.import_name(r.label).to_string() })
            }
            None => Ok(object.program),
        }
    }

    /// Resolves every fixup whose label is bound and encodes the program,
    /// leaving loads of unbound [imports](ProgramBuilder::import) open as
    /// relocations for a [`Linker`].
    ///
    /// # Errors
    ///
    /// As [`ProgramBuilder::finish`], except that unbound imports used by
    /// `la`/`li_import` are not errors.
    pub fn finish_object(mut self) -> Result<Object, AsmError> {
        let mut abs = Vec::new();
        for fixup in std::mem::take(&mut self.fixups) {
            match fixup {
                Fixup::Branch { idx, cond, rs1, rs2, label } => {
                    let offset = self.offset_to(label, idx, 0)?;
                    self.instrs[idx] = Instruction::Branch { cond, rs1, rs2, offset };
                }
                Fixup::Jal { idx, rd, label } => {
                    let offset = self.offset_to(label, idx, 0)?;
                    self.instrs[idx] = Instruction::Jal { rd, offset };
                }
                // thdl: R_hdl ← pc + 4 + offset
                Fixup::Thdl { idx, label } => {
                    let offset = self.offset_to(label, idx, 4)?;
                    self.instrs[idx] = Instruction::Thdl { offset };
                }
                Fixup::Abs(reloc) => abs.push(reloc),
            }
        }

        let mut text = Vec::with_capacity(self.instrs.len());
        for (i, instr) in self.instrs.iter().enumerate() {
            let word = instr
                .encode()
                .map_err(|source| AsmError::Encode { pc: self.text_base + 4 * i as u64, source })?;
            text.push(word);
        }
        let mut relocs = Vec::new();
        for reloc in abs {
            match self.labels[reloc.label.0 as usize] {
                (Some(addr), ref name) => reloc.patch(&mut text, self.text_base, addr, name)?,
                (None, _) if self.imports.contains(&reloc.label) => relocs.push(reloc),
                (None, ref name) => return Err(AsmError::UnboundLabel { name: name.clone() }),
            }
        }
        let labels = &self.labels;
        self.data.fill(|label| resolve(labels, label))?;

        let mut symbols = BTreeMap::new();
        let mut imports = Vec::new();
        for (i, (addr, name)) in self.labels.into_iter().enumerate() {
            match addr {
                Some(addr) if !name.is_empty() => {
                    symbols.insert(name, addr);
                }
                None if self.imports.contains(&Label(i as u32)) => {
                    imports.push((Label(i as u32), name))
                }
                _ => {}
            }
        }

        Ok(Object {
            program: Program {
                text_base: self.text_base,
                text,
                data_base: self.data.base,
                data: self.data.bytes,
                entry: self.entry.unwrap_or(self.text_base),
                symbols: Arc::new(symbols),
            },
            relocs,
            imports,
        })
    }

    /// pc-relative offset from instruction `idx` (plus `bias`) to `label`.
    fn offset_to(&self, label: Label, idx: usize, bias: u64) -> Result<i32, AsmError> {
        let target = resolve(&self.labels, label)?;
        let pc = self.text_base + 4 * idx as u64 + bias;
        Ok(target.wrapping_sub(pc) as i64 as i32)
    }
}

fn resolve(labels: &[(Option<u64>, String)], label: Label) -> Result<u64, AsmError> {
    let (addr, name) = &labels[label.0 as usize];
    addr.ok_or_else(|| AsmError::UnboundLabel { name: name.clone() })
}

/// A program whose text still loads some [imported](ProgramBuilder::import)
/// values through relocations.
///
/// Assemble code that does not change once, then link it against many
/// data sections: each [`Linker`] copies the text, appends its data after
/// the object's own, and patches only the relocated words.
#[derive(Debug, Clone)]
pub struct Object {
    program: Program,
    relocs: Vec<Reloc>,
    imports: Vec<(Label, String)>,
}

impl Object {
    /// The assembled program, relocated words still unpatched.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Starts linking one data section against this object.
    pub fn linker(&self) -> Linker<'_> {
        Linker {
            object: self,
            data: Data {
                base: self.program.data_base,
                bytes: self.program.data.clone(),
                slots: Vec::new(),
            },
            labels: Vec::new(),
            values: vec![None; self.imports.len()],
        }
    }

    fn import_slot(&self, import: Label) -> usize {
        self.imports
            .iter()
            .position(|(l, _)| *l == import)
            .unwrap_or_else(|| panic!("label {} is not an unbound import", import.0))
    }

    fn import_name(&self, import: Label) -> &str {
        &self.imports[self.import_slot(import)].1
    }
}

/// Appends one data section to an [`Object`], binds its imports and
/// patches its relocations into a finished [`Program`].
///
/// The linker's own labels (from [`Linker::new_label`]) name data
/// addresses within this section; imports are named by the labels that
/// [`ProgramBuilder::import`] returned.
///
/// # Examples
///
/// ```
/// use tarch_isa::asm::ProgramBuilder;
/// use tarch_isa::Reg;
///
/// let mut b = ProgramBuilder::new(0x1000, 0x20000);
/// let table = b.import("table");
/// b.la(Reg::A0, table);
/// b.ld(Reg::A0, 0, Reg::A0);
/// b.halt();
/// let object = b.finish_object()?;
///
/// let mut l = object.linker();
/// l.dword(7);
/// l.bind_import(table);
/// l.dword(42);
/// let program = l.finish()?;
/// assert_eq!(program.data.len(), 16);
/// assert_eq!(program.text.len(), object.program().text.len());
/// # Ok::<(), tarch_isa::asm::AsmError>(())
/// ```
#[derive(Debug)]
pub struct Linker<'o> {
    object: &'o Object,
    data: Data,
    labels: Vec<Option<u64>>,
    values: Vec<Option<u64>>,
}

impl Linker<'_> {
    /// Declares a new, unbound data label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() as u32 - 1)
    }

    /// Binds a label from [`Linker::new_label`] to the data cursor.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        let pc = self.data.pc();
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "data label {} bound twice", label.0);
        *slot = Some(pc);
    }

    /// Binds an import of the object to the data cursor.
    ///
    /// # Panics
    ///
    /// Panics if `import` is not one of the object's unbound imports.
    pub fn bind_import(&mut self, import: Label) {
        let pc = self.data.pc();
        self.set_import(import, pc);
    }

    /// Gives an import of the object an absolute value.
    ///
    /// # Panics
    ///
    /// Panics if `import` is not one of the object's unbound imports.
    pub fn set_import(&mut self, import: Label, value: u64) {
        let slot = self.object.import_slot(import);
        self.values[slot] = Some(value);
    }

    /// Appends raw bytes, returning their address.
    pub fn bytes(&mut self, bytes: &[u8]) -> u64 {
        self.data.bytes(bytes)
    }

    /// Appends a little-endian 8-byte value, returning its address.
    pub fn dword(&mut self, value: u64) -> u64 {
        self.data.bytes(&value.to_le_bytes())
    }

    /// Appends an 8-byte slot that will hold a linker label's address.
    pub fn dword_label(&mut self, label: Label) -> u64 {
        self.data.dword_label(label)
    }

    /// Pads the data section to the given power-of-two alignment.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn align_data(&mut self, align: u64) {
        self.data.align(align);
    }

    /// Fills the data slots and patches every relocation.
    ///
    /// # Errors
    ///
    /// Returns an error for an unbound label or import, an `la` address
    /// out of range, or an `li` value whose width differs from the one
    /// reserved.
    pub fn finish(mut self) -> Result<Program, AsmError> {
        let labels = &self.labels;
        self.data.fill(|label| {
            labels[label.0 as usize]
                .ok_or_else(|| AsmError::UnboundLabel { name: format!("data label {}", label.0) })
        })?;
        let object = self.object;
        let mut text = object.program.text.clone();
        for reloc in &object.relocs {
            let slot = object.import_slot(reloc.label);
            let name = &object.imports[slot].1;
            let value =
                self.values[slot].ok_or_else(|| AsmError::UnboundLabel { name: name.clone() })?;
            reloc.patch(&mut text, object.program.text_base, value, name)?;
        }
        Ok(Program {
            text_base: object.program.text_base,
            text,
            data_base: self.data.base,
            data: self.data.bytes,
            entry: object.program.entry,
            symbols: Arc::clone(&object.program.symbols),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut b = ProgramBuilder::new(0x1000, 0x8000);
        let fwd = b.new_label("fwd");
        let top = b.here("top");
        b.beq(Reg::A0, Reg::A1, fwd); // at 0x1000, target 0x100c → +12
        b.j(top); // at 0x1004, target 0x1000 → -4
        b.nop();
        b.bind(fwd);
        b.halt();
        let p = b.finish().unwrap();
        let dis = p.disassemble();
        assert_eq!(
            dis[0].1,
            Instruction::Branch { cond: BranchCond::Eq, rs1: Reg::A0, rs2: Reg::A1, offset: 12 }
        );
        assert_eq!(dis[1].1, Instruction::Jal { rd: Reg::ZERO, offset: -4 });
        assert_eq!(p.symbol("fwd"), Some(0x100c));
        assert_eq!(p.symbol("top"), Some(0x1000));
    }

    #[test]
    fn unbound_label_errors() {
        let mut b = ProgramBuilder::new(0, 0x8000);
        let l = b.new_label("nowhere");
        b.j(l);
        assert_eq!(b.finish().unwrap_err(), AsmError::UnboundLabel { name: "nowhere".into() });
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn duplicate_bind_panics() {
        let mut b = ProgramBuilder::new(0, 0x8000);
        let l = b.new_label("x");
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn li_sequences() {
        // Each (value, max_len) pair; correctness of the produced value is
        // verified end-to-end by the core executor tests.
        for (value, max_len) in
            [(0i64, 1), (100, 1), (-1, 1), (16384, 2), (0x12345678, 2), (-0x80000000, 2)]
        {
            let mut b = ProgramBuilder::new(0, 0x8000);
            b.li(Reg::A0, value);
            assert!(b.len() <= max_len, "li {value} took {} instructions", b.len());
            b.finish().unwrap();
        }
        let mut b = ProgramBuilder::new(0, 0x8000);
        b.li(Reg::A0, 0x7ff8_0000_0000_0000u64 as i64); // NaN-box pattern
        assert!(b.len() <= 10);
        b.finish().unwrap();
    }

    #[test]
    fn la_and_data_labels() {
        let mut b = ProgramBuilder::new(0x1000, 0x20000);
        let table = b.new_label("table");
        let handler = b.new_label("handler");
        b.la(Reg::S3, table);
        b.halt();
        b.bind(handler);
        b.halt();
        b.align_data(8);
        b.bind_data(table);
        b.dword_label(handler);
        b.dword(42);
        let p = b.finish().unwrap();
        assert_eq!(p.symbol("table"), Some(0x20000));
        let handler_addr = p.symbol("handler").unwrap();
        assert_eq!(&p.data[0..8], &handler_addr.to_le_bytes());
        // la expands to lui+addi computing 0x20000.
        let dis = p.disassemble();
        assert_eq!(dis[0].1, Instruction::Lui { rd: Reg::S3, imm: 0x20 });
        assert_eq!(
            dis[1].1,
            Instruction::AluImm { op: AluImmOp::Addi, rd: Reg::S3, rs1: Reg::S3, imm: 0 }
        );
    }

    #[test]
    fn li_avoids_lui_rounding_past_i32_max() {
        // lui+addi of 0x7fff_f800.. would round the high part up to
        // 0x8_0000, which lui sign-extends; those values take the
        // shift/or sequence (values checked on the core in tarch-core).
        let lui_hi = |value: i64| {
            let mut b = ProgramBuilder::new(0, 0x8000);
            b.li(Reg::A0, value);
            let p = b.finish().unwrap();
            let dis = p.disassemble();
            let shifts = dis
                .iter()
                .any(|(_, i)| matches!(i, Instruction::AluImm { op: AluImmOp::Slli, .. }));
            match dis[0].1 {
                Instruction::Lui { imm, .. } if !shifts => Some(imm),
                _ => None,
            }
        };
        assert_eq!(lui_hi(0x7fff_f7ff), Some(0x7_ffff));
        assert_eq!(lui_hi(-0x8000_0000), Some(-0x8_0000));
        for value in [0x7fff_f800, 0x7fff_f900, 0x7fff_ffff, 0x8000_0000] {
            assert_eq!(lui_hi(value), None, "{value:#x}");
        }
    }

    #[test]
    fn la_out_of_range_is_an_error() {
        for data_base in [0x7fff_f800u64, 0x7fff_ffff, 0x8000_0000, 0x1_0000_0000] {
            let mut b = ProgramBuilder::new(0x1000, data_base);
            let x = b.new_label("x");
            b.la(Reg::A0, x);
            b.halt();
            b.bind_data(x);
            b.dword(1);
            assert_eq!(
                b.finish().unwrap_err(),
                AsmError::AddressOutOfRange { name: "x".into(), addr: data_base }
            );
        }
        let err =
            crate::text::assemble("la a0, x\nhalt\n.data\nx:\n.dword 1\n", 0x1000, 0x1_0000_0000)
                .unwrap_err();
        assert!(err.message.contains("out of `la` range"), "{err}");
    }

    /// Emits the same text either monolithically or as an object plus a
    /// linked data section.
    fn import_demo(split: bool, nlocals: u64) -> Result<Program, AsmError> {
        let mut b = ProgramBuilder::new(0x1000, 0x20000);
        let top = 0x0100_0000 + 8 * nlocals as i64;
        let words = ProgramBuilder::li_len(top);
        let (table, sp) = if split {
            (b.import("table"), b.import("sp"))
        } else {
            (b.new_label("table"), b.new_label("sp"))
        };
        b.la(Reg::A0, table);
        if split {
            b.li_import(Reg::SP, sp, words);
        } else {
            b.li(Reg::SP, top);
        }
        let handler = b.here("handler");
        b.halt();
        b.align_data(8);
        b.dword_label(handler);
        if !split {
            b.dword(9);
            b.bind_data(table);
            b.dword(7);
            return b.finish();
        }
        let object = b.finish_object()?;
        let mut l = object.linker();
        l.dword(9);
        l.bind_import(table);
        l.dword(7);
        l.set_import(sp, top as u64);
        l.finish()
    }

    #[test]
    fn linking_an_object_matches_monolithic_assembly() {
        for nlocals in [0, 1, 512, 513] {
            let whole = import_demo(false, nlocals).unwrap();
            let linked = import_demo(true, nlocals).unwrap();
            assert_eq!(linked.text, whole.text, "{nlocals} locals");
            assert_eq!(linked.data, whole.data);
            assert_eq!(linked.entry, whole.entry);
            assert_eq!(linked.symbol("handler"), whole.symbol("handler"));
        }
    }

    #[test]
    fn link_errors_are_typed() {
        let mut b = ProgramBuilder::new(0x1000, 0x20000);
        let table = b.import("table");
        let sp = b.import("sp");
        b.la(Reg::A0, table);
        b.li_import(Reg::SP, sp, 1);
        b.halt();
        let object = b.finish_object().unwrap();
        // A relocated object cannot finish unlinked.
        let mut b = ProgramBuilder::new(0x1000, 0x20000);
        let t = b.import("t");
        b.la(Reg::A0, t);
        assert_eq!(b.finish().unwrap_err(), AsmError::UnboundLabel { name: "t".into() });

        let mut l = object.linker();
        l.bind_import(table);
        assert_eq!(l.finish().unwrap_err(), AsmError::UnboundLabel { name: "sp".into() });

        let mut l = object.linker();
        l.bind_import(table);
        l.set_import(sp, 0x0100_0008);
        assert_eq!(
            l.finish().unwrap_err(),
            AsmError::RelocationWidth { name: "sp".into(), value: 0x0100_0008, reserved: 1 }
        );

        let mut l = object.linker();
        l.set_import(table, 0x8000_0000);
        l.set_import(sp, 0x0100_0000);
        assert_eq!(
            l.finish().unwrap_err(),
            AsmError::AddressOutOfRange { name: "table".into(), addr: 0x8000_0000 }
        );

        let mut l = object.linker();
        let dangling = l.new_label();
        l.dword_label(dangling);
        assert!(matches!(l.finish(), Err(AsmError::UnboundLabel { .. })));
    }

    #[test]
    fn thdl_offset_is_relative_to_next_pc() {
        let mut b = ProgramBuilder::new(0x1000, 0x8000);
        let slow = b.new_label("slow");
        b.thdl(slow); // at 0x1000; R_hdl = 0x1004 + offset
        b.halt();
        b.bind(slow); // 0x1008
        b.halt();
        let p = b.finish().unwrap();
        assert_eq!(p.disassemble()[0].1, Instruction::Thdl { offset: 4 });
    }

    #[test]
    fn entry_point() {
        let mut b = ProgramBuilder::new(0x1000, 0x8000);
        b.nop();
        b.set_entry_here();
        b.halt();
        let p = b.finish().unwrap();
        assert_eq!(p.entry, 0x1004);
    }
}
