//! TRV64 code generator: emits the `luart` interpreter.
//!
//! The generated program *is* the scripting engine: a threaded dispatch
//! loop plus one handler per bytecode, with the engine's static data
//! (dispatch table, function table, bytecode, constant tables) in the data
//! section. It runs on the simulated Typed Architecture core, so dynamic
//! instruction counts, branch behaviour and I-cache pressure emerge from
//! real execution.
//!
//! The interpreter text depends only on the ISA level, so it is assembled
//! once per level per process and cached; [`build_image`] then links just
//! the module's data (function table, bytecode, constants, strings) and
//! patches the entry's loads of the main function's addresses.
//!
//! Three variants of the five hot bytecodes (paper Table 3) are selected by
//! [`IsaLevel`]:
//!
//! * **Baseline** — software type guards, mirroring the paper's
//!   Figure 1(c) `gcc -O3` listing;
//! * **CheckedLoad** — `settype` + `chklb` fused guards; on a mismatch the
//!   handler falls back to the baseline guard chain (the fast-path type
//!   pair is fixed at build time, hence the FP-workload regressions the
//!   paper reports);
//! * **Typed** — `tld`/`tsd`/`thdl` + polymorphic `xadd`/`xsub`/`xmul` and
//!   `tchk`, mirroring Figure 3; the type-miss handler is the baseline
//!   guard chain ("nothing but the original code", Section 3.2).

use crate::bytecode::{Const, Module, Op};
use crate::helpers;
use crate::layout::{callinfo, funcinfo, map, table, tag, TAG_OFFSET};
use crate::layout;
use std::sync::{Arc, OnceLock};
use tarch_core::{CodeCache, IsaLevel};
use tarch_isa::asm::{AsmError, Label, Object, ProgramBuilder};
use tarch_isa::{FReg, FpCmpOp, FpuOp, Instruction, Reg};
use tarch_sim::heap::Interner;
use tarch_sim::Image;

// Register conventions of the generated interpreter.
/// VM program counter (byte address of the next bytecode).
const PC: Reg = Reg::S0;
/// Frame base (address of `R(0)`).
const BASE: Reg = Reg::S1;
/// Constants base of the current function.
const KB: Reg = Reg::S2;
/// Dispatch table base.
const DT: Reg = Reg::S3;
/// CallInfo stack pointer.
const CI: Reg = Reg::S4;
/// Function table base.
const FT: Reg = Reg::S5;
/// CallInfo stack limit.
const CI_LIM: Reg = Reg::S6;
/// Value stack limit.
const STK_LIM: Reg = Reg::S7;
/// Current bytecode word (set by the dispatch loop).
const W: Reg = Reg::T0;
// Operand TValue addresses, named after the paper's Figure 1(c) registers.
const RB: Reg = Reg::S8;
const RC: Reg = Reg::S9;
const RA: Reg = Reg::S10;

/// Generates the interpreter + program image for a compiled module.
///
/// # Errors
///
/// Returns [`AsmError`] if the emitted program fails to assemble (it only
/// can if a handler outgrows branch range, which would be a codegen bug).
pub fn build_image(module: &Module, level: IsaLevel) -> Result<Image<Op>, AsmError> {
    let interp = interpreter(level)?;
    let mut l = interp.object.linker();
    let mut strings = Interner::default();
    // The object's data ends with the dispatch table; the function table
    // follows it.
    let code: Vec<Label> = module.protos.iter().map(|_| l.new_label()).collect();
    let consts: Vec<Label> = module.protos.iter().map(|_| l.new_label()).collect();
    for (i, p) in module.protos.iter().enumerate() {
        l.dword_label(code[i]);
        l.dword_label(consts[i]);
        l.dword(p.nregs as u64 + 1);
        l.dword(0); // reserved
    }
    // HALT sentinel bytecode (bottom-of-stack return target).
    l.bind_import(interp.halt_bc);
    let halt_word = crate::bytecode::Bc::new(Op::Halt, 0, 0, 0).encode();
    l.bytes(&halt_word.to_le_bytes());
    l.bytes(&halt_word.to_le_bytes()); // padding word

    // Per-function bytecode and constants.
    for (i, p) in module.protos.iter().enumerate() {
        l.align_data(8);
        l.bind(code[i]);
        if i == module.main {
            l.bind_import(interp.main_code);
        }
        for bc in &p.code {
            l.bytes(&bc.encode().to_le_bytes());
        }
        l.align_data(16);
        l.bind(consts[i]);
        if i == module.main {
            l.bind_import(interp.main_consts);
        }
        for k in &p.consts {
            let (value, t) = match k {
                Const::Int(v) => (*v as u64, tag::INT),
                Const::Float(v) => (v.to_bits(), tag::FLOAT),
                Const::Str(s) => (strings.intern(s) as u64, tag::STR),
            };
            l.dword(value);
            l.dword(t as u64);
        }
    }
    Ok(Image {
        program: l.finish()?,
        handler_entries: interp.handler_entries.clone(),
        dispatch_pc: interp.dispatch_pc,
        strings: strings.into_strings(),
        level,
        code_cache: Arc::clone(&interp.code_cache),
    })
}

/// The interpreter text for one ISA level, with the addresses of the
/// module's HALT sentinel and main function left to the linker.
#[derive(Debug)]
struct Interp {
    object: Object,
    /// Shared by every VM whose image links `object`.
    code_cache: Arc<CodeCache>,
    handler_entries: Vec<(Op, u64)>,
    dispatch_pc: u64,
    halt_bc: Label,
    main_code: Label,
    main_consts: Label,
}

/// The cached interpreter for `level`, assembled on first use.
fn interpreter(level: IsaLevel) -> Result<&'static Interp, AsmError> {
    static TEXT: [OnceLock<Result<Interp, AsmError>>; 3] = [const { OnceLock::new() }; 3];
    TEXT[level as usize].get_or_init(|| Gen::new(level).assemble()).as_ref().map_err(Clone::clone)
}

struct Gen {
    b: ProgramBuilder,
    level: IsaLevel,
    dispatch: Label,
    handler_labels: Vec<(Op, Label)>,
    stack_ov: Label,
    div_zero: Label,
    dispatch_table: Label,
    functable: Label,
    halt_bc: Label,
    main_code: Label,
    main_consts: Label,
}

impl Gen {
    fn new(level: IsaLevel) -> Gen {
        let mut b = ProgramBuilder::new(map::TEXT_BASE, map::DATA_BASE);
        let dispatch = b.new_label("dispatch");
        let stack_ov = b.new_label("stack_overflow");
        let div_zero = b.new_label("div_zero");
        let handler_labels =
            Op::ALL.iter().map(|op| (*op, b.new_label(&format!("op_{}", op.name())))).collect();
        let dispatch_table = b.new_label("dispatch_table");
        let functable = b.new_label("functable");
        let halt_bc = b.import("halt_bc");
        let main_code = b.import("main_code_alias");
        let main_consts = b.import("main_consts_alias");
        Gen {
            b,
            level,
            dispatch,
            handler_labels,
            stack_ov,
            div_zero,
            dispatch_table,
            functable,
            halt_bc,
            main_code,
            main_consts,
        }
    }

    fn assemble(mut self) -> Result<Interp, AsmError> {
        self.emit_entry();
        self.emit_dispatch();
        self.emit_handlers();
        self.emit_dispatch_table();
        let object = self.b.finish_object()?;
        let program = object.program();
        let mut handler_entries: Vec<(Op, u64)> = Op::ALL
            .iter()
            .map(|op| (*op, program.symbol(&format!("op_{}", op.name())).expect("handler symbol")))
            .collect();
        handler_entries.sort_by_key(|(_, pc)| *pc);
        let dispatch_pc = program.symbol("dispatch").expect("dispatch symbol");
        let code_cache = Arc::new(CodeCache::new(program.text_base, program.text.len()));
        Ok(Interp {
            object,
            code_cache,
            handler_entries,
            dispatch_pc,
            halt_bc: self.halt_bc,
            main_code: self.main_code,
            main_consts: self.main_consts,
        })
    }

    fn handler(&self, op: Op) -> Label {
        self.handler_labels.iter().find(|(o, _)| *o == op).expect("all ops labelled").1
    }

    // --- decode helpers -------------------------------------------------

    /// `dst = BASE + A*16`.
    fn decode_a_addr(&mut self, dst: Reg) {
        self.b.srli(dst, W, 18);
        self.b.andi(dst, dst, 0xff);
        self.b.slli(dst, dst, 4);
        self.b.add(dst, dst, BASE);
    }

    /// `dst = raw B field` (9 bits).
    fn decode_b_field(&mut self, dst: Reg) {
        self.b.srli(dst, W, 9);
        self.b.andi(dst, dst, 0x1ff);
    }

    /// `dst = raw C field` (9 bits).
    fn decode_c_field(&mut self, dst: Reg) {
        self.b.andi(dst, W, 0x1ff);
    }

    /// `dst = BASE + B*16` (register operand).
    fn decode_b_reg_addr(&mut self, dst: Reg) {
        self.decode_b_field(dst);
        self.b.slli(dst, dst, 4);
        self.b.add(dst, dst, BASE);
    }

    /// RK operand: `dst` = TValue address in the frame or constant table.
    fn decode_rk_addr(&mut self, dst: Reg, tmp: Reg, is_b: bool, tag_name: &str) {
        if is_b {
            self.decode_b_field(dst);
        } else {
            self.decode_c_field(dst);
        }
        let is_const = self.b.new_label(&format!("rk_const_{tag_name}"));
        let done = self.b.new_label(&format!("rk_done_{tag_name}"));
        self.b.andi(tmp, dst, 0x100);
        self.b.bnez(tmp, is_const);
        self.b.slli(dst, dst, 4);
        self.b.add(dst, dst, BASE);
        self.b.j(done);
        self.b.bind(is_const);
        self.b.andi(dst, dst, 0xff);
        self.b.slli(dst, dst, 4);
        self.b.add(dst, dst, KB);
        self.b.bind(done);
    }

    /// `dst = sign-extended 18-bit jump offset * 4` (bytecode words→bytes).
    fn decode_offset(&mut self, dst: Reg) {
        self.b.slli(dst, W, 46);
        self.b.srai(dst, dst, 44);
    }

    /// Copies a TValue (`ld/ld/sd/sd`), the baseline 16-byte move.
    fn copy_tvalue(&mut self, dst_addr: Reg, src_addr: Reg, t1: Reg, t2: Reg) {
        self.b.ld(t1, 0, src_addr);
        self.b.ld(t2, TAG_OFFSET, src_addr);
        self.b.sd(t1, 0, dst_addr);
        self.b.sd(t2, TAG_OFFSET, dst_addr);
    }

    /// `j dispatch`.
    fn next(&mut self) {
        let d = self.dispatch;
        self.b.j(d);
    }

    /// Emits an `ecall` to a native helper (id in `a7`).
    fn ecall(&mut self, id: u64) {
        self.b.li(Reg::A7, id as i64);
        self.b.ecall();
    }

    // --- program sections ------------------------------------------------

    fn emit_entry(&mut self) {
        self.b.set_entry_here();
        if self.level == IsaLevel::CheckedLoad {
            // The Checked Load build keeps R_exptype pinned to Int between
            // checks (the fast-path type is fixed at build time); handlers
            // that check other types restore the invariant afterwards.
            self.b.li(Reg::T1, tag::INT as i64);
            self.b.emit(Instruction::SetSpr { spr: tarch_isa::Spr::ExpType, rs1: Reg::T1 });
        }
        // Typed Architecture configuration (Section 4.1 / Tables 4–5).
        if self.level == IsaLevel::Typed {
            let spr = layout::spr_settings();
            self.b.li(Reg::T1, spr.offset as i64);
            self.b.emit(Instruction::SetSpr { spr: tarch_isa::Spr::Offset, rs1: Reg::T1 });
            self.b.li(Reg::T1, spr.mask as i64);
            self.b.emit(Instruction::SetSpr { spr: tarch_isa::Spr::Mask, rs1: Reg::T1 });
            self.b.li(Reg::T1, spr.shift as i64);
            self.b.emit(Instruction::SetSpr { spr: tarch_isa::Spr::Shift, rs1: Reg::T1 });
            for rule in layout::trt_rules() {
                self.b.li(Reg::T1, rule.pack() as i64);
                self.b.emit(Instruction::SetSpr { spr: tarch_isa::Spr::TrtPush, rs1: Reg::T1 });
            }
        }
        let (dt, ft) = (self.dispatch_table, self.functable);
        self.b.la(DT, dt);
        self.b.la(FT, ft);
        self.b.li(CI, map::CI_BASE as i64);
        self.b.li(CI_LIM, map::CI_LIMIT as i64);
        self.b.li(STK_LIM, map::STACK_LIMIT as i64);
        self.b.li(BASE, map::STACK_BASE as i64);
        let (mc, mk, hb) = (self.main_code, self.main_consts, self.halt_bc);
        self.b.la(KB, mk);
        self.b.la(PC, mc);
        // Bottom CallInfo returns into a HALT bytecode.
        self.b.la(Reg::T1, hb);
        self.b.sd(Reg::T1, callinfo::RET_PC, CI);
        self.b.sd(BASE, callinfo::RET_BASE, CI);
        self.b.sd(KB, callinfo::RET_CONSTS, CI);
        self.b.addi(CI, CI, callinfo::STRIDE as i32);
        self.next();

        // Shared error stubs.
        let so = self.stack_ov;
        self.b.bind(so);
        self.b.li(Reg::A0, helpers::errcode::STACK_OVERFLOW as i64);
        self.ecall(helpers::ERROR);
        self.b.halt();
        let dz = self.div_zero;
        self.b.bind(dz);
        self.b.li(Reg::A0, helpers::errcode::DIV_BY_ZERO as i64);
        self.ecall(helpers::ERROR);
        self.b.halt();
    }

    fn emit_dispatch(&mut self) {
        let d = self.dispatch;
        self.b.bind(d);
        self.b.lwu(W, 0, PC);
        self.b.addi(PC, PC, 4);
        self.b.srli(Reg::T1, W, 26);
        self.b.slli(Reg::T1, Reg::T1, 3);
        self.b.add(Reg::T1, Reg::T1, DT);
        self.b.ld(Reg::T1, 0, Reg::T1);
        self.b.jr(Reg::T1);
    }

    fn emit_handlers(&mut self) {
        for op in Op::ALL {
            let label = self.handler(op);
            self.b.bind(label);
            match op {
                Op::Move => self.h_move(),
                Op::LoadK => self.h_loadk(),
                Op::LoadNil => self.h_loadnil(),
                Op::LoadBool => self.h_loadbool(),
                Op::NewTable => self.h_newtable(),
                Op::Add | Op::Sub | Op::Mul => self.h_arith_hot(op),
                Op::Div => self.h_div(),
                Op::IDiv | Op::Mod => self.h_intdiv(op),
                Op::Unm => self.h_unm(),
                Op::Not => self.h_not(),
                Op::Len => self.h_len(),
                Op::Concat => self.h_concat(),
                Op::CmpEq | Op::CmpNe => self.h_cmp_eq(op),
                Op::CmpLt | Op::CmpLe => self.h_cmp_ord(op),
                Op::Jmp => self.h_jmp(),
                Op::JmpIf | Op::JmpNot => self.h_jmp_cond(op),
                Op::GetTable => self.h_gettable(),
                Op::SetTable => self.h_settable(),
                Op::GetGlobal => self.h_getglobal(),
                Op::SetGlobal => self.h_setglobal(),
                Op::Call => self.h_call(),
                Op::CallB => self.h_callb(),
                Op::Return => self.h_return(),
                Op::ForPrep => self.h_forprep(),
                Op::ForLoop => self.h_forloop(),
                Op::Halt => self.b.halt(),
            }
        }
    }

    // --- simple handlers --------------------------------------------------

    fn h_move(&mut self) {
        self.decode_a_addr(RA);
        self.decode_b_reg_addr(RB);
        self.copy_tvalue(RA, RB, Reg::T1, Reg::T2);
        self.next();
    }

    fn h_loadk(&mut self) {
        self.decode_a_addr(RA);
        self.decode_b_field(Reg::T1);
        self.b.slli(Reg::T1, Reg::T1, 4);
        self.b.add(Reg::T1, Reg::T1, KB);
        self.copy_tvalue(RA, Reg::T1, Reg::T2, Reg::T3);
        self.next();
    }

    fn h_loadnil(&mut self) {
        self.decode_a_addr(RA);
        self.b.sd(Reg::ZERO, 0, RA);
        self.b.sd(Reg::ZERO, TAG_OFFSET, RA);
        self.next();
    }

    fn h_loadbool(&mut self) {
        self.decode_a_addr(RA);
        self.decode_b_field(Reg::T1);
        self.b.sd(Reg::T1, 0, RA);
        self.b.li(Reg::T2, tag::BOOL as i64);
        self.b.sd(Reg::T2, TAG_OFFSET, RA);
        self.next();
    }

    fn h_newtable(&mut self) {
        self.decode_a_addr(Reg::A1);
        self.decode_b_field(Reg::A2);
        self.ecall(helpers::NEWTABLE);
        self.next();
    }

    fn h_getglobal(&mut self) {
        self.decode_a_addr(Reg::A1);
        self.decode_b_field(Reg::A2);
        self.b.slli(Reg::A2, Reg::A2, 4);
        self.b.add(Reg::A2, Reg::A2, KB);
        self.ecall(helpers::GETGLOBAL);
        self.next();
    }

    fn h_setglobal(&mut self) {
        self.decode_a_addr(Reg::A1);
        self.decode_b_field(Reg::A2);
        self.b.slli(Reg::A2, Reg::A2, 4);
        self.b.add(Reg::A2, Reg::A2, KB);
        self.ecall(helpers::SETGLOBAL);
        self.next();
    }

    fn h_concat(&mut self) {
        self.decode_a_addr(Reg::A1);
        self.decode_rk_addr(Reg::A2, Reg::T1, true, "ccb");
        self.decode_rk_addr(Reg::A3, Reg::T1, false, "ccc");
        self.b.li(Reg::A0, Op::Concat as i64);
        self.ecall(helpers::ARITH_SLOW);
        self.next();
    }

    fn h_callb(&mut self) {
        self.decode_a_addr(Reg::A1);
        self.decode_b_field(Reg::A2);
        self.decode_c_field(Reg::A3);
        self.ecall(helpers::BUILTIN);
        self.next();
    }

    fn h_jmp(&mut self) {
        self.decode_offset(Reg::T1);
        self.b.add(PC, PC, Reg::T1);
        self.next();
    }

    fn h_jmp_cond(&mut self, op: Op) {
        // Truthiness: falsy ⇔ tag == NIL, or tag == BOOL with value 0.
        self.decode_a_addr(RA);
        self.decode_offset(Reg::T1);
        let jump = self.b.new_label("cond_jump");
        let no_jump = self.b.new_label("cond_fall");
        let (on_falsy, on_truthy) =
            if op == Op::JmpNot { (jump, no_jump) } else { (no_jump, jump) };
        self.b.lbu(Reg::T2, TAG_OFFSET, RA);
        self.b.beqz(Reg::T2, on_falsy); // nil
        self.b.li(Reg::T3, tag::BOOL as i64);
        self.b.bne(Reg::T2, Reg::T3, on_truthy); // non-boolean: truthy
        self.b.ld(Reg::T4, 0, RA);
        self.b.bnez(Reg::T4, on_truthy);
        if op == Op::JmpNot {
            // falsy target == jump
        }
        self.b.bind(on_falsy);
        if op == Op::JmpNot {
            self.b.add(PC, PC, Reg::T1);
            self.next();
            self.b.bind(on_truthy);
            self.next();
        } else {
            self.next();
            self.b.bind(on_truthy);
            self.b.add(PC, PC, Reg::T1);
            self.next();
        }
    }

    fn h_unm(&mut self) {
        self.decode_a_addr(RA);
        self.decode_b_reg_addr(RB);
        let float = self.b.new_label("unm_float");
        let slow = self.b.new_label("unm_slow");
        self.b.lbu(Reg::T1, TAG_OFFSET, RB);
        self.b.li(Reg::T2, tag::INT as i64);
        self.b.bne(Reg::T1, Reg::T2, float);
        self.b.ld(Reg::T3, 0, RB);
        self.b.neg(Reg::T3, Reg::T3);
        self.b.sd(Reg::T3, 0, RA);
        self.b.sb(Reg::T2, TAG_OFFSET, RA);
        self.next();
        self.b.bind(float);
        self.b.li(Reg::T2, tag::FLOAT as i64);
        self.b.bne(Reg::T1, Reg::T2, slow);
        self.b.ld(Reg::T3, 0, RB);
        self.b.li(Reg::T4, 1);
        self.b.slli(Reg::T4, Reg::T4, 63);
        self.b.xor(Reg::T3, Reg::T3, Reg::T4);
        self.b.sd(Reg::T3, 0, RA);
        self.b.sb(Reg::T2, TAG_OFFSET, RA);
        self.next();
        self.b.bind(slow);
        self.b.li(Reg::A0, Op::Unm as i64);
        self.b.mv(Reg::A1, RA);
        self.b.mv(Reg::A2, RB);
        self.b.mv(Reg::A3, RB);
        self.ecall(helpers::ARITH_SLOW);
        self.next();
    }

    fn h_not(&mut self) {
        self.decode_a_addr(RA);
        self.decode_b_reg_addr(RB);
        let falsy = self.b.new_label("not_falsy");
        let store = self.b.new_label("not_store");
        self.b.lbu(Reg::T1, TAG_OFFSET, RB);
        self.b.ld(Reg::T3, 0, RB);
        self.b.li(Reg::T4, 0); // default result: false (operand truthy)
        self.b.beqz(Reg::T1, falsy); // nil
        self.b.li(Reg::T2, tag::BOOL as i64);
        self.b.bne(Reg::T1, Reg::T2, store); // non-boolean: truthy
        self.b.bnez(Reg::T3, store); // true boolean
        self.b.bind(falsy);
        self.b.li(Reg::T4, 1);
        self.b.bind(store);
        self.b.sd(Reg::T4, 0, RA);
        self.b.li(Reg::T2, tag::BOOL as i64);
        self.b.sb(Reg::T2, TAG_OFFSET, RA);
        self.next();
    }

    fn h_len(&mut self) {
        self.decode_a_addr(RA);
        self.decode_b_reg_addr(RB);
        let slow = self.b.new_label("len_slow");
        self.b.lbu(Reg::T1, TAG_OFFSET, RB);
        self.b.li(Reg::T2, tag::TABLE as i64);
        self.b.bne(Reg::T1, Reg::T2, slow);
        self.b.ld(Reg::T3, 0, RB);
        self.b.ld(Reg::T4, table::LEN, Reg::T3);
        self.b.sd(Reg::T4, 0, RA);
        self.b.li(Reg::T2, tag::INT as i64);
        self.b.sb(Reg::T2, TAG_OFFSET, RA);
        self.next();
        self.b.bind(slow);
        self.b.mv(Reg::A1, RA);
        self.b.mv(Reg::A2, RB);
        self.ecall(helpers::LEN_SLOW);
        self.next();
    }

    // --- arithmetic -------------------------------------------------------

    /// The five hot type-guarded bytecodes: ADD/SUB/MUL.
    fn h_arith_hot(&mut self, op: Op) {
        self.decode_a_addr(RA);
        self.decode_rk_addr(RB, Reg::T1, true, "ab");
        self.decode_rk_addr(RC, Reg::T1, false, "ac");
        let guard_chain = self.b.new_label("arith_guard_chain");
        match self.level {
            IsaLevel::Baseline => {
                // Fall straight into the software guard chain.
            }
            IsaLevel::CheckedLoad => {
                // Fixed Int fast path (fast-path type chosen at build
                // time); R_exptype is pinned to Int, so the fused
                // load-compare-branch needs no setup. A mismatch falls
                // back to the software chain.
                self.b.thdl(guard_chain);
                self.b.li(Reg::A4, tag::INT as i64); // result tag for the store
                self.b.chklb(Reg::A2, TAG_OFFSET, RB);
                self.b.chklb(Reg::A2, TAG_OFFSET, RC);
                self.b.ld(Reg::A2, 0, RB);
                self.b.ld(Reg::A3, 0, RC);
                self.emit_int_op(op, Reg::A3, Reg::A2, Reg::A3);
                self.b.sb(Reg::A4, TAG_OFFSET, RA);
                self.b.sd(Reg::A3, 0, RA);
                self.next();
            }
            IsaLevel::Typed => {
                // Figure 3's transformed handler.
                self.b.tld(Reg::A2, 0, RB);
                self.b.tld(Reg::A3, 0, RC);
                self.b.thdl(guard_chain);
                match op {
                    Op::Add => self.b.xadd(Reg::A2, Reg::A2, Reg::A3),
                    Op::Sub => self.b.xsub(Reg::A2, Reg::A2, Reg::A3),
                    _ => self.b.xmul(Reg::A2, Reg::A2, Reg::A3),
                }
                self.b.tsd(Reg::A2, 0, RA);
                self.next();
            }
        }
        self.b.bind(guard_chain);
        self.emit_arith_guard_chain(op);
    }

    /// The software type-guard chain of Figure 1(c): Int×Int and
    /// Float×Float inline, Int↔Float with an inline convert, everything
    /// else through the runtime helper.
    fn emit_arith_guard_chain(&mut self, op: Op) {
        let is_float_rb = self.b.new_label("arith_isFloat_Rb");
        let int_flt = self.b.new_label("arith_int_flt");
        let flt_any = self.b.new_label("arith_flt_any");
        let flt_flt = self.b.new_label("arith_flt_flt");
        let slow = self.b.new_label("arith_slow");
        let store_f = self.b.new_label("arith_store_float");

        // isInt_Rb
        self.b.lbu(Reg::A2, TAG_OFFSET, RB);
        self.b.li(Reg::A4, tag::INT as i64);
        self.b.bne(Reg::A2, Reg::A4, is_float_rb);
        // isInt_Rc
        self.b.lbu(Reg::A5, TAG_OFFSET, RC);
        self.b.bne(Reg::A5, Reg::A4, int_flt);
        // Int × Int
        self.b.ld(Reg::A2, 0, RB);
        self.b.ld(Reg::A5, 0, RC);
        self.emit_int_op(op, Reg::A5, Reg::A2, Reg::A5);
        self.b.sb(Reg::A4, TAG_OFFSET, RA);
        self.b.sd(Reg::A5, 0, RA);
        self.next();

        // Int × Float: convert rb.
        self.b.bind(int_flt);
        self.b.li(Reg::A4, tag::FLOAT as i64);
        self.b.bne(Reg::A5, Reg::A4, slow);
        self.b.ld(Reg::T2, 0, RB);
        self.b.emit(Instruction::FcvtDL { rd: FReg::F2, rs1: Reg::T2 });
        self.b.fld(FReg::F5, 0, RC);
        self.b.j(store_f);

        // Float × (Float | Int)
        self.b.bind(is_float_rb);
        self.b.li(Reg::A4, tag::FLOAT as i64);
        self.b.bne(Reg::A2, Reg::A4, slow);
        self.b.bind(flt_any);
        self.b.lbu(Reg::A5, TAG_OFFSET, RC);
        self.b.beq(Reg::A5, Reg::A4, flt_flt);
        self.b.li(Reg::T3, tag::INT as i64);
        self.b.bne(Reg::A5, Reg::T3, slow);
        // Float × Int: convert rc.
        self.b.fld(FReg::F2, 0, RB);
        self.b.ld(Reg::T2, 0, RC);
        self.b.emit(Instruction::FcvtDL { rd: FReg::F5, rs1: Reg::T2 });
        self.b.j(store_f);

        self.b.bind(flt_flt);
        self.b.fld(FReg::F2, 0, RB);
        self.b.fld(FReg::F5, 0, RC);

        self.b.bind(store_f);
        let fop = match op {
            Op::Add => FpuOp::Fadd,
            Op::Sub => FpuOp::Fsub,
            _ => FpuOp::Fmul,
        };
        self.b.emit(Instruction::Fpu { op: fop, rd: FReg::F5, rs1: FReg::F2, rs2: FReg::F5 });
        self.b.sb(Reg::A4, TAG_OFFSET, RA);
        self.b.fsd(FReg::F5, 0, RA);
        self.next();

        // Strings and other types: runtime helper.
        self.b.bind(slow);
        self.b.li(Reg::A0, op as i64);
        self.b.mv(Reg::A1, RA);
        self.b.mv(Reg::A2, RB);
        self.b.mv(Reg::A3, RC);
        self.ecall(helpers::ARITH_SLOW);
        self.next();
    }

    /// Integer op with the paper's operand order (`rd = rs1 op rs2` with
    /// rb in rs1).
    fn emit_int_op(&mut self, op: Op, rd: Reg, rs1: Reg, rs2: Reg) {
        match op {
            Op::Add => self.b.add(rd, rs1, rs2),
            Op::Sub => self.b.sub(rd, rs1, rs2),
            _ => self.b.mul(rd, rs1, rs2),
        }
    }

    fn h_div(&mut self) {
        // `/` always produces a float; per-operand numeric check + load.
        self.decode_a_addr(RA);
        self.decode_rk_addr(RB, Reg::T1, true, "db");
        self.decode_rk_addr(RC, Reg::T1, false, "dc");
        let slow = self.b.new_label("div_slow");
        self.emit_load_float(RB, FReg::F2, slow);
        self.emit_load_float(RC, FReg::F5, slow);
        self.b.emit(Instruction::Fpu {
            op: FpuOp::Fdiv,
            rd: FReg::F5,
            rs1: FReg::F2,
            rs2: FReg::F5,
        });
        self.b.li(Reg::T2, tag::FLOAT as i64);
        self.b.sb(Reg::T2, TAG_OFFSET, RA);
        self.b.fsd(FReg::F5, 0, RA);
        self.next();
        self.b.bind(slow);
        self.b.li(Reg::A0, Op::Div as i64);
        self.b.mv(Reg::A1, RA);
        self.b.mv(Reg::A2, RB);
        self.b.mv(Reg::A3, RC);
        self.ecall(helpers::ARITH_SLOW);
        self.next();
    }

    /// Loads a numeric TValue into an FP register, converting integers.
    fn emit_load_float(&mut self, src: Reg, dst: FReg, slow: Label) {
        let is_float = self.b.new_label("lf_float");
        let done = self.b.new_label("lf_done");
        self.b.lbu(Reg::T2, TAG_OFFSET, src);
        self.b.li(Reg::T3, tag::INT as i64);
        self.b.bne(Reg::T2, Reg::T3, is_float);
        self.b.ld(Reg::T4, 0, src);
        self.b.emit(Instruction::FcvtDL { rd: dst, rs1: Reg::T4 });
        self.b.j(done);
        self.b.bind(is_float);
        self.b.li(Reg::T3, tag::FLOAT as i64);
        self.b.bne(Reg::T2, Reg::T3, slow);
        self.b.fld(dst, 0, src);
        self.b.bind(done);
    }

    fn h_intdiv(&mut self, op: Op) {
        // `//` and `%`: Int×Int inline with floor semantics; anything else
        // through the helper.
        self.decode_a_addr(RA);
        self.decode_rk_addr(RB, Reg::T1, true, "ib");
        self.decode_rk_addr(RC, Reg::T1, false, "ic");
        let slow = self.b.new_label("idiv_slow");
        let dz = self.div_zero;
        self.b.lbu(Reg::T2, TAG_OFFSET, RB);
        self.b.li(Reg::T3, tag::INT as i64);
        self.b.bne(Reg::T2, Reg::T3, slow);
        self.b.lbu(Reg::T2, TAG_OFFSET, RC);
        self.b.bne(Reg::T2, Reg::T3, slow);
        self.b.ld(Reg::T4, 0, RB);
        self.b.ld(Reg::T5, 0, RC);
        self.b.beqz(Reg::T5, dz);
        let store = self.b.new_label("idiv_store");
        if op == Op::IDiv {
            // q = a/b; if (a%b != 0 && (a^b) < 0) q -= 1.
            self.b.div(Reg::T6, Reg::T4, Reg::T5);
            self.b.rem(Reg::T2, Reg::T4, Reg::T5);
            self.b.beqz(Reg::T2, store);
            self.b.xor(Reg::T2, Reg::T4, Reg::T5);
            self.b.bge(Reg::T2, Reg::ZERO, store);
            self.b.addi(Reg::T6, Reg::T6, -1);
        } else {
            // r = a%b; if (r != 0 && (r^b) < 0) r += b.
            self.b.rem(Reg::T6, Reg::T4, Reg::T5);
            self.b.beqz(Reg::T6, store);
            self.b.xor(Reg::T2, Reg::T6, Reg::T5);
            self.b.bge(Reg::T2, Reg::ZERO, store);
            self.b.add(Reg::T6, Reg::T6, Reg::T5);
        }
        self.b.bind(store);
        self.b.sd(Reg::T6, 0, RA);
        self.b.sb(Reg::T3, TAG_OFFSET, RA);
        self.next();
        self.b.bind(slow);
        self.b.li(Reg::A0, op as i64);
        self.b.mv(Reg::A1, RA);
        self.b.mv(Reg::A2, RB);
        self.b.mv(Reg::A3, RC);
        self.ecall(helpers::ARITH_SLOW);
        self.next();
    }

    // --- comparisons -------------------------------------------------------

    fn h_cmp_eq(&mut self, op: Op) {
        // Equality: same tag → raw compare (ints, interned string ids,
        // booleans, nil, table pointers); Int↔Float → numeric; different
        // non-numeric tags → constant false/true; floats → FP compare.
        self.decode_a_addr(RA);
        self.decode_rk_addr(RB, Reg::T1, true, "eb");
        self.decode_rk_addr(RC, Reg::T1, false, "ec");
        let raw_cmp = self.b.new_label("eq_raw");
        let flt_cmp = self.b.new_label("eq_flt");
        let mixed = self.b.new_label("eq_mixed");
        let differ = self.b.new_label("eq_differ");
        let store = self.b.new_label("eq_store");
        self.b.lbu(Reg::T2, TAG_OFFSET, RB);
        self.b.lbu(Reg::T3, TAG_OFFSET, RC);
        self.b.bne(Reg::T2, Reg::T3, differ);
        self.b.li(Reg::T4, tag::FLOAT as i64);
        self.b.beq(Reg::T2, Reg::T4, flt_cmp);
        self.b.bind(raw_cmp);
        self.b.ld(Reg::T5, 0, RB);
        self.b.ld(Reg::T6, 0, RC);
        self.b.xor(Reg::T5, Reg::T5, Reg::T6);
        if op == Op::CmpEq {
            self.b.seqz(Reg::T5, Reg::T5);
        } else {
            self.b.snez(Reg::T5, Reg::T5);
        }
        self.b.j(store);
        self.b.bind(flt_cmp);
        self.b.fld(FReg::F2, 0, RB);
        self.b.fld(FReg::F5, 0, RC);
        self.b.emit(Instruction::FpCmp {
            op: FpCmpOp::Feq,
            rd: Reg::T5,
            rs1: FReg::F2,
            rs2: FReg::F5,
        });
        if op == Op::CmpNe {
            self.b.xori(Reg::T5, Reg::T5, 1);
        }
        self.b.j(store);
        self.b.bind(differ);
        // Int↔Float pairs are numerically comparable.
        self.b.or(Reg::T4, Reg::T2, Reg::T3);
        self.b.li(Reg::T5, (tag::INT | tag::FLOAT) as i64);
        self.b.beq(Reg::T4, Reg::T5, mixed);
        self.b.li(Reg::T5, (op == Op::CmpNe) as i64);
        self.b.j(store);
        self.b.bind(mixed);
        self.b.li(Reg::A0, op as i64);
        self.b.mv(Reg::A1, RB);
        self.b.mv(Reg::A2, RC);
        self.ecall(helpers::COMPARE_SLOW);
        self.b.mv(Reg::T5, Reg::A0);
        self.b.bind(store);
        self.b.sd(Reg::T5, 0, RA);
        self.b.li(Reg::T2, tag::BOOL as i64);
        self.b.sb(Reg::T2, TAG_OFFSET, RA);
        self.next();
    }

    fn h_cmp_ord(&mut self, op: Op) {
        self.decode_a_addr(RA);
        self.decode_rk_addr(RB, Reg::T1, true, "ob");
        self.decode_rk_addr(RC, Reg::T1, false, "oc");
        let flt = self.b.new_label("ord_flt");
        let slow = self.b.new_label("ord_slow");
        let store = self.b.new_label("ord_store");
        self.b.lbu(Reg::T2, TAG_OFFSET, RB);
        self.b.lbu(Reg::T3, TAG_OFFSET, RC);
        self.b.li(Reg::T4, tag::INT as i64);
        self.b.bne(Reg::T2, Reg::T4, flt);
        self.b.bne(Reg::T3, Reg::T4, slow);
        self.b.ld(Reg::T5, 0, RB);
        self.b.ld(Reg::T6, 0, RC);
        if op == Op::CmpLt {
            self.b.slt(Reg::T5, Reg::T5, Reg::T6);
        } else {
            // a <= b  ⇔  !(b < a)
            self.b.slt(Reg::T5, Reg::T6, Reg::T5);
            self.b.xori(Reg::T5, Reg::T5, 1);
        }
        self.b.j(store);
        self.b.bind(flt);
        self.b.li(Reg::T4, tag::FLOAT as i64);
        self.b.bne(Reg::T2, Reg::T4, slow);
        self.b.bne(Reg::T3, Reg::T4, slow);
        self.b.fld(FReg::F2, 0, RB);
        self.b.fld(FReg::F5, 0, RC);
        let fop = if op == Op::CmpLt { FpCmpOp::Flt } else { FpCmpOp::Fle };
        self.b.emit(Instruction::FpCmp { op: fop, rd: Reg::T5, rs1: FReg::F2, rs2: FReg::F5 });
        self.b.j(store);
        self.b.bind(slow);
        self.b.li(Reg::A0, op as i64);
        self.b.mv(Reg::A1, RB);
        self.b.mv(Reg::A2, RC);
        self.ecall(helpers::COMPARE_SLOW);
        self.b.mv(Reg::T5, Reg::A0);
        self.b.bind(store);
        self.b.sd(Reg::T5, 0, RA);
        self.b.li(Reg::T2, tag::BOOL as i64);
        self.b.sb(Reg::T2, TAG_OFFSET, RA);
        self.next();
    }

    // --- tables -------------------------------------------------------------

    fn h_gettable(&mut self) {
        // R(A) = R(B)[RK(C)]
        self.decode_a_addr(RA);
        self.decode_b_reg_addr(RB);
        self.decode_rk_addr(RC, Reg::T1, false, "gc");
        let slow = self.b.new_label("gettable_slow");
        match self.level {
            IsaLevel::Baseline => {
                self.b.lbu(Reg::T2, TAG_OFFSET, RB);
                self.b.li(Reg::T3, tag::TABLE as i64);
                self.b.bne(Reg::T2, Reg::T3, slow);
                self.b.lbu(Reg::T2, TAG_OFFSET, RC);
                self.b.li(Reg::T3, tag::INT as i64);
                self.b.bne(Reg::T2, Reg::T3, slow);
                self.b.ld(Reg::T4, 0, RB); // table header
                self.b.ld(Reg::T5, 0, RC); // key
                self.emit_array_index(Reg::T4, Reg::T5, Reg::T6, slow);
                self.copy_tvalue(RA, Reg::T6, Reg::T2, Reg::T3);
                self.next();
            }
            IsaLevel::CheckedLoad => {
                self.b.thdl(slow);
                self.b.li(Reg::T3, tag::TABLE as i64);
                self.b.emit(Instruction::SetSpr {
                    spr: tarch_isa::Spr::ExpType,
                    rs1: Reg::T3,
                });
                self.b.chklb(Reg::T2, TAG_OFFSET, RB);
                self.b.li(Reg::T3, tag::INT as i64);
                self.b.emit(Instruction::SetSpr {
                    spr: tarch_isa::Spr::ExpType,
                    rs1: Reg::T3,
                });
                self.b.chklb(Reg::T2, TAG_OFFSET, RC);
                self.b.ld(Reg::T4, 0, RB);
                self.b.ld(Reg::T5, 0, RC);
                self.emit_array_index(Reg::T4, Reg::T5, Reg::T6, slow);
                self.copy_tvalue(RA, Reg::T6, Reg::T2, Reg::T3);
                self.next();
            }
            IsaLevel::Typed => {
                self.b.tld(Reg::A2, 0, RB);
                self.b.tld(Reg::A3, 0, RC);
                self.b.thdl(slow);
                self.b.tchk(Reg::A2, Reg::A3); // (Table, Int) rule
                self.emit_array_index(Reg::A2, Reg::A3, Reg::T6, slow);
                self.b.tld(Reg::T2, 0, Reg::T6);
                self.b.tsd(Reg::T2, 0, RA);
                self.next();
            }
        }
        self.b.bind(slow);
        self.b.mv(Reg::A1, RA);
        self.b.mv(Reg::A2, RB);
        self.b.mv(Reg::A3, RC);
        self.ecall(helpers::GETTABLE_SLOW);
        self.next();
    }

    /// `elem_addr = arr_ptr + (key-1)*16`, bounds-checked against the
    /// array border (`hdr` = header address, `key` = integer key).
    fn emit_array_index(&mut self, hdr: Reg, key: Reg, elem_addr: Reg, slow: Label) {
        self.b.ld(Reg::T2, table::LEN, hdr);
        self.b.addi(elem_addr, key, -1);
        self.b.bgeu(elem_addr, Reg::T2, slow); // unsigned: catches key < 1 too
        self.b.ld(Reg::T2, table::PTR, hdr);
        self.b.slli(elem_addr, elem_addr, 4);
        self.b.add(elem_addr, elem_addr, Reg::T2);
    }

    fn h_settable(&mut self) {
        // R(A)[RK(B)] = RK(C)
        self.decode_a_addr(RA); // the table
        self.decode_rk_addr(RB, Reg::T1, true, "sb");
        self.decode_rk_addr(RC, Reg::T1, false, "sc");
        let slow = self.b.new_label("settable_slow");
        let store = self.b.new_label("settable_store");
        match self.level {
            IsaLevel::Baseline | IsaLevel::CheckedLoad => {
                if self.level == IsaLevel::Baseline {
                    self.b.lbu(Reg::T2, TAG_OFFSET, RA);
                    self.b.li(Reg::T3, tag::TABLE as i64);
                    self.b.bne(Reg::T2, Reg::T3, slow);
                    self.b.lbu(Reg::T2, TAG_OFFSET, RB);
                    self.b.li(Reg::T3, tag::INT as i64);
                    self.b.bne(Reg::T2, Reg::T3, slow);
                } else {
                    self.b.thdl(slow);
                    self.b.li(Reg::T3, tag::TABLE as i64);
                    self.b.emit(Instruction::SetSpr {
                        spr: tarch_isa::Spr::ExpType,
                        rs1: Reg::T3,
                    });
                    self.b.chklb(Reg::T2, TAG_OFFSET, RA);
                    self.b.li(Reg::T3, tag::INT as i64);
                    self.b.emit(Instruction::SetSpr {
                        spr: tarch_isa::Spr::ExpType,
                        rs1: Reg::T3,
                    });
                    self.b.chklb(Reg::T2, TAG_OFFSET, RB);
                }
                self.b.ld(Reg::T4, 0, RA);
                self.b.ld(Reg::T5, 0, RB);
                self.emit_settable_bounds(Reg::T4, Reg::T5, Reg::T6, slow, store);
                self.b.bind(store);
                self.copy_tvalue(Reg::T6, RC, Reg::T2, Reg::T3);
                self.next();
            }
            IsaLevel::Typed => {
                self.b.tld(Reg::A2, 0, RA);
                self.b.tld(Reg::A3, 0, RB);
                self.b.thdl(slow);
                self.b.tchk(Reg::A2, Reg::A3);
                self.emit_settable_bounds(Reg::A2, Reg::A3, Reg::T6, slow, store);
                self.b.bind(store);
                self.b.tld(Reg::T2, 0, RC);
                self.b.tsd(Reg::T2, 0, Reg::T6);
                self.next();
            }
        }
        self.b.bind(slow);
        self.b.mv(Reg::A1, RA);
        self.b.mv(Reg::A2, RB);
        self.b.mv(Reg::A3, RC);
        self.ecall(helpers::SETTABLE_SLOW);
        self.next();
    }

    /// Bounds check with in-place append: in-range keys go to `store`;
    /// `key == len+1 && len < cap` bumps the border and goes to `store`;
    /// everything else to `slow`. On `store`, `elem` holds the element
    /// address. `hdr`/`key` must be T4/T5-compatible scratch.
    fn emit_settable_bounds(&mut self, hdr: Reg, key: Reg, elem: Reg, slow: Label, store: Label) {
        let in_range = self.b.new_label("st_in_range");
        self.b.ld(Reg::T2, table::LEN, hdr);
        self.b.addi(elem, key, -1);
        self.b.bltu(elem, Reg::T2, in_range);
        // Append? key-1 == len and len < cap.
        self.b.bne(elem, Reg::T2, slow);
        self.b.ld(Reg::T3, table::CAP, hdr);
        self.b.bgeu(Reg::T2, Reg::T3, slow);
        self.b.addi(Reg::T2, Reg::T2, 1);
        self.b.sd(Reg::T2, table::LEN, hdr);
        self.b.bind(in_range);
        self.b.ld(Reg::T2, table::PTR, hdr);
        self.b.slli(elem, elem, 4);
        self.b.add(elem, elem, Reg::T2);
        self.b.j(store);
    }

    // --- calls -------------------------------------------------------------

    fn h_call(&mut self) {
        let ov = self.stack_ov;
        // A = argument window base, B = function index.
        self.decode_a_addr(Reg::T1); // new base address
        self.b.bgeu(CI, CI_LIM, ov);
        self.b.sd(PC, callinfo::RET_PC, CI);
        self.b.sd(BASE, callinfo::RET_BASE, CI);
        self.b.sd(KB, callinfo::RET_CONSTS, CI);
        self.b.addi(CI, CI, callinfo::STRIDE as i32);
        self.b.mv(BASE, Reg::T1);
        self.decode_b_field(Reg::T2);
        self.b.slli(Reg::T2, Reg::T2, 5); // FuncInfo stride = 32
        self.b.add(Reg::T2, Reg::T2, FT);
        self.b.ld(PC, funcinfo::CODE, Reg::T2);
        self.b.ld(KB, funcinfo::CONSTS, Reg::T2);
        // Value-stack overflow check: base + nregs*16 < limit.
        self.b.ld(Reg::T3, funcinfo::NREGS, Reg::T2);
        self.b.slli(Reg::T3, Reg::T3, 4);
        self.b.add(Reg::T3, Reg::T3, BASE);
        self.b.bgeu(Reg::T3, STK_LIM, ov);
        self.next();
    }

    fn h_return(&mut self) {
        let nil_result = self.b.new_label("ret_nil");
        let pop = self.b.new_label("ret_pop");
        self.decode_b_field(Reg::T1);
        self.b.beqz(Reg::T1, nil_result);
        self.decode_a_addr(RA);
        // Result moves to the callee's R(0) == the caller's R(A).
        self.copy_tvalue(BASE, RA, Reg::T2, Reg::T3);
        self.b.j(pop);
        self.b.bind(nil_result);
        self.b.sd(Reg::ZERO, 0, BASE);
        self.b.sd(Reg::ZERO, TAG_OFFSET, BASE);
        self.b.bind(pop);
        self.b.addi(CI, CI, -(callinfo::STRIDE as i32));
        self.b.ld(PC, callinfo::RET_PC, CI);
        self.b.ld(BASE, callinfo::RET_BASE, CI);
        self.b.ld(KB, callinfo::RET_CONSTS, CI);
        self.next();
    }

    // --- numeric for ---------------------------------------------------------

    fn h_forprep(&mut self) {
        self.decode_a_addr(RA); // control block: idx, limit, step, var
        self.decode_offset(Reg::T1);
        let slow = self.b.new_label("forprep_slow");
        let jump = self.b.new_label("forprep_jump");
        self.b.lbu(Reg::T2, TAG_OFFSET, RA);
        self.b.li(Reg::T3, tag::INT as i64);
        self.b.bne(Reg::T2, Reg::T3, slow);
        self.b.lbu(Reg::T2, TAG_OFFSET + 16, RA);
        self.b.bne(Reg::T2, Reg::T3, slow);
        self.b.lbu(Reg::T2, TAG_OFFSET + 32, RA);
        self.b.bne(Reg::T2, Reg::T3, slow);
        // idx -= step
        self.b.ld(Reg::T4, 0, RA);
        self.b.ld(Reg::T5, 32, RA);
        self.b.sub(Reg::T4, Reg::T4, Reg::T5);
        self.b.sd(Reg::T4, 0, RA);
        self.b.j(jump);
        self.b.bind(slow);
        self.b.mv(Reg::A1, RA);
        self.ecall(helpers::FORPREP_SLOW);
        self.b.bind(jump);
        self.b.add(PC, PC, Reg::T1);
        self.next();
    }

    fn h_forloop(&mut self) {
        self.decode_a_addr(RA);
        self.decode_offset(Reg::T1);
        let flt = self.b.new_label("forloop_flt");
        let neg = self.b.new_label("forloop_neg");
        let cont = self.b.new_label("forloop_cont");
        let fneg = self.b.new_label("forloop_fneg");
        let fcont = self.b.new_label("forloop_fcont");
        let exit = self.b.new_label("forloop_exit");
        self.b.lbu(Reg::T2, TAG_OFFSET, RA);
        self.b.li(Reg::T3, tag::INT as i64);
        self.b.bne(Reg::T2, Reg::T3, flt);
        // Integer loop.
        self.b.ld(Reg::T4, 0, RA); // idx
        self.b.ld(Reg::T5, 32, RA); // step
        self.b.ld(Reg::T6, 16, RA); // limit
        self.b.add(Reg::T4, Reg::T4, Reg::T5);
        self.b.blt(Reg::T5, Reg::ZERO, neg);
        self.b.bgt(Reg::T4, Reg::T6, exit);
        self.b.j(cont);
        self.b.bind(neg);
        self.b.blt(Reg::T4, Reg::T6, exit);
        self.b.bind(cont);
        self.b.sd(Reg::T4, 0, RA); // idx
        self.b.sd(Reg::T4, 48, RA); // var value
        self.b.sb(Reg::T3, TAG_OFFSET + 48, RA); // var tag = Int
        self.b.add(PC, PC, Reg::T1);
        self.next();
        // Float loop.
        self.b.bind(flt);
        self.b.fld(FReg::F2, 0, RA);
        self.b.fld(FReg::F5, 32, RA);
        self.b.fld(FReg::F6, 16, RA);
        self.b.emit(Instruction::Fpu {
            op: FpuOp::Fadd,
            rd: FReg::F2,
            rs1: FReg::F2,
            rs2: FReg::F5,
        });
        // step < 0 ?
        self.b.emit(Instruction::FmvXD { rd: Reg::T4, rs1: FReg::F5 });
        self.b.blt(Reg::T4, Reg::ZERO, fneg);
        self.b.emit(Instruction::FpCmp {
            op: FpCmpOp::Fle,
            rd: Reg::T4,
            rs1: FReg::F2,
            rs2: FReg::F6,
        });
        self.b.j(fcont);
        self.b.bind(fneg);
        self.b.emit(Instruction::FpCmp {
            op: FpCmpOp::Fle,
            rd: Reg::T4,
            rs1: FReg::F6,
            rs2: FReg::F2,
        });
        self.b.bind(fcont);
        self.b.beqz(Reg::T4, exit);
        self.b.fsd(FReg::F2, 0, RA);
        self.b.fsd(FReg::F2, 48, RA);
        self.b.li(Reg::T5, tag::FLOAT as i64);
        self.b.sb(Reg::T5, TAG_OFFSET + 48, RA);
        self.b.add(PC, PC, Reg::T1);
        self.next();
        // Shared exit: fall through to the next bytecode.
        self.b.bind(exit);
        self.next();
    }

    // --- data section --------------------------------------------------------

    /// The dispatch table (one handler address per opcode), then the
    /// function table's label: the data every module shares.
    fn emit_dispatch_table(&mut self) {
        self.b.align_data(8);
        let dt = self.dispatch_table;
        self.b.bind_data(dt);
        for op in Op::ALL {
            let h = self.handler(op);
            self.b.dword_label(h);
        }
        let ft = self.functable;
        self.b.bind_data(ft);
    }
}
