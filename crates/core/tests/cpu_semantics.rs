//! End-to-end semantics and timing tests for the Typed Architecture core,
//! driven through the text assembler.

use tarch_core::{CoreConfig, Cpu, StepEvent, Trap};
use tarch_isa::text::assemble;
use tarch_isa::{Reg, TrtClass, TrtRule};

const TEXT_BASE: u64 = 0x1000;
const DATA_BASE: u64 = 0x2_0000;

fn run(src: &str) -> Cpu {
    run_with(src, |_| {})
}

fn run_with(src: &str, setup: impl FnOnce(&mut Cpu)) -> Cpu {
    let program = assemble(src, TEXT_BASE, DATA_BASE)
        .unwrap_or_else(|e| panic!("assembly failed: {e}\n{src}"));
    let mut cpu = Cpu::new(CoreConfig::paper());
    cpu.load_program(&program);
    setup(&mut cpu);
    match cpu.run(2_000_000) {
        Ok(StepEvent::Halted) => cpu,
        Ok(other) => panic!("program stopped with {other:?} instead of halting"),
        Err(t) => panic!("trap: {t}"),
    }
}

fn a0(cpu: &Cpu) -> u64 {
    cpu.regs().read(Reg::A0).v
}

#[test]
fn arithmetic_and_logic() {
    let cpu = run("
        li a1, 100
        li a2, 7
        add a0, a1, a2
        sub a3, a1, a2
        mul a4, a1, a2
        div a5, a1, a2
        rem a6, a1, a2
        halt
    ");
    assert_eq!(a0(&cpu), 107);
    assert_eq!(cpu.regs().read(Reg::A3).v, 93);
    assert_eq!(cpu.regs().read(Reg::A4).v, 700);
    assert_eq!(cpu.regs().read(Reg::A5).v, 14);
    assert_eq!(cpu.regs().read(Reg::A6).v, 2);
}

#[test]
fn li_loads_values_around_the_lui_rounding_boundary() {
    // lui+addi rounds the high part up; just below 2^31 that would wrap
    // into lui's sign bit, so these values must take the shift/or path.
    for value in [
        0x7fff_f7ffu64,
        0x7fff_f800,
        0x7fff_f900,
        0x7fff_ffff,
        0x8000_0000,
        0x8000_0800,
        0xffff_ffff_8000_0000,
        0xffff_ffff_7fff_f7ff,
    ] {
        let cpu = run(&format!("li a0, {}\nhalt\n", value as i64));
        assert_eq!(a0(&cpu), value, "li a0, {value:#x}");
    }
}

#[test]
fn la_loads_the_highest_reachable_address() {
    let cpu = run("la a0, x\nhalt\nx:\nhalt\n");
    assert_eq!(a0(&cpu), TEXT_BASE + 12, "la of a text label");
    let program = assemble("la a0, x\nhalt\n.data\nx:\n.dword 1\n", TEXT_BASE, 0x7fff_f7f8)
        .expect("0x7fff_f7f8 is in la range");
    let mut cpu = Cpu::new(CoreConfig::paper());
    cpu.load_program(&program);
    assert_eq!(cpu.run(100).expect("no trap"), StepEvent::Halted);
    assert_eq!(a0(&cpu), 0x7fff_f7f8);
}

#[test]
fn riscv_division_by_zero_semantics() {
    let cpu = run("
        li a1, 42
        li a2, 0
        div a0, a1, a2
        rem a3, a1, a2
        divu a4, a1, a2
        halt
    ");
    assert_eq!(a0(&cpu) as i64, -1);
    assert_eq!(cpu.regs().read(Reg::A3).v, 42);
    assert_eq!(cpu.regs().read(Reg::A4).v, u64::MAX);
}

#[test]
fn word_ops_sign_extend() {
    let cpu = run("
        li a1, 0x7fffffff
        li a2, 1
        addw a0, a1, a2
        halt
    ");
    assert_eq!(a0(&cpu) as i64, i32::MIN as i64);
}

#[test]
fn shifts_and_compares() {
    let cpu = run("
        li a1, -8
        srai a0, a1, 1
        srli a2, a1, 60
        li a3, -1
        li a4, 1
        slt a5, a3, a4
        sltu a6, a3, a4
        halt
    ");
    assert_eq!(a0(&cpu) as i64, -4);
    assert_eq!(cpu.regs().read(Reg::A2).v, 0xf);
    assert_eq!(cpu.regs().read(Reg::A5).v, 1);
    assert_eq!(cpu.regs().read(Reg::A6).v, 0);
}

#[test]
fn loads_stores_all_widths() {
    let cpu = run("
        la s0, buf
        li a1, -2
        sb a1, 0(s0)
        sh a1, 2(s0)
        sw a1, 4(s0)
        sd a1, 8(s0)
        lb a0, 0(s0)
        lbu a2, 0(s0)
        lh a3, 2(s0)
        lhu a4, 2(s0)
        lw a5, 4(s0)
        lwu a6, 4(s0)
        ld a7, 8(s0)
        halt
        .data
        buf: .dword 0, 0
    ");
    assert_eq!(a0(&cpu) as i64, -2);
    assert_eq!(cpu.regs().read(Reg::A2).v, 0xfe);
    assert_eq!(cpu.regs().read(Reg::A3).v as i64, -2);
    assert_eq!(cpu.regs().read(Reg::A4).v, 0xfffe);
    assert_eq!(cpu.regs().read(Reg::A5).v as i64, -2);
    assert_eq!(cpu.regs().read(Reg::A6).v, 0xffff_fffe);
    assert_eq!(cpu.regs().read(Reg::A7).v as i64, -2);
}

#[test]
fn call_return_and_loop() {
    // sum 1..=10 via a subroutine.
    let cpu = run("
        .entry main
        sumto:
            li t0, 0
        loop:
            add t0, t0, a1
            addi a1, a1, -1
            bnez a1, loop
            mv a0, t0
            ret
        main:
            li a1, 10
            call sumto
            halt
    ");
    assert_eq!(a0(&cpu), 55);
}

#[test]
fn fp_pipeline_ops() {
    let cpu = run("
        la s0, vals
        fld f1, 0(s0)
        fld f2, 8(s0)
        fadd.d f3, f1, f2
        fmul.d f4, f1, f2
        fdiv.d f5, f1, f2
        fsub.d f6, f1, f2
        fsd f3, 16(s0)
        fle.d a0, f1, f2
        flt.d a1, f2, f1
        feq.d a2, f1, f1
        fcvt.l.d a3, f4
        li a4, 9
        fcvt.d.l f7, a4
        fsqrt.d f8, f7
        fcvt.l.d a5, f8
        halt
        .data
        vals: .dword 0x4008000000000000, 0x3fe0000000000000, 0
    "); // 3.0, 0.5
    assert_eq!(cpu.mem().read_u64(DATA_BASE + 16), 3.5f64.to_bits());
    assert_eq!(a0(&cpu), 0); // 3.0 <= 0.5 is false
    assert_eq!(cpu.regs().read(Reg::A1).v, 1); // 0.5 < 3.0
    assert_eq!(cpu.regs().read(Reg::A2).v, 1);
    assert_eq!(cpu.regs().read(Reg::A3).v, 1); // trunc(1.5)
    assert_eq!(cpu.regs().read(Reg::A5).v, 3); // sqrt(9)
}

fn lua_setup(src_body: &str) -> String {
    format!(
        "
        li t0, 0b001
        setoffset t0
        li t0, 0xff
        setmask t0
        li t0, 0
        setshift t0
        {src_body}
        "
    )
}

fn push_lua_rules(cpu: &mut Cpu) {
    const INT: u8 = 0x13;
    const FLT: u8 = 0x83;
    for class in [TrtClass::Xadd, TrtClass::Xsub, TrtClass::Xmul] {
        cpu.trt_mut().push(TrtRule::new(class, INT, INT, INT));
        cpu.trt_mut().push(TrtRule::new(class, FLT, FLT, FLT));
    }
}

#[test]
fn typed_add_int_fast_path() {
    let src = lua_setup(
        "
        la s10, rb
        la s9, rc
        la s11, ra
        tld a2, 0(s10)
        tld a3, 0(s9)
        thdl slow
        xadd a4, a2, a3
        tsd a4, 0(s11)
        li a0, 1
        halt
    slow:
        li a0, 99
        halt
        .data
        rb: .dword 40, 0x13
        rc: .dword 2, 0x13
        ra: .dword 0, 0
    ",
    );
    let cpu = run_with(&src, push_lua_rules);
    assert_eq!(a0(&cpu), 1, "must stay on the fast path");
    let ra = DATA_BASE + 32;
    assert_eq!(cpu.mem().read_u64(ra), 42);
    assert_eq!(cpu.mem().read_u8(ra + 8), 0x13);
    assert_eq!(cpu.counters().type_hits, 1);
    assert_eq!(cpu.counters().type_misses, 0);
}

#[test]
fn typed_add_float_binds_fp_alu() {
    let src = lua_setup(
        "
        la s10, rb
        la s9, rc
        la s11, ra
        tld a2, 0(s10)
        tld a3, 0(s9)
        thdl slow
        xadd a4, a2, a3
        tsd a4, 0(s11)
        li a0, 1
        halt
    slow:
        li a0, 99
        halt
        .data
        rb: .dword 0x3ff0000000000000, 0x83   # 1.0, Float tag
        rc: .dword 0x4000000000000000, 0x83   # 2.0
        ra: .dword 0, 0
    ",
    );
    let cpu = run_with(&src, push_lua_rules);
    assert_eq!(a0(&cpu), 1);
    let ra = DATA_BASE + 32;
    assert_eq!(f64::from_bits(cpu.mem().read_u64(ra)), 3.0);
    assert_eq!(cpu.mem().read_u8(ra + 8), 0x83);
}

#[test]
fn typed_add_mixed_types_redirects_to_handler() {
    let src = lua_setup(
        "
        la s10, rb
        la s9, rc
        tld a2, 0(s10)
        tld a3, 0(s9)
        thdl slow
        xadd a4, a2, a3
        li a0, 1
        halt
    slow:
        li a0, 99
        halt
        .data
        rb: .dword 40, 0x13                   # Int
        rc: .dword 0x4000000000000000, 0x83   # Float
    ",
    );
    let cpu = run_with(&src, push_lua_rules);
    assert_eq!(a0(&cpu), 99, "mixed types must take the slow path");
    assert_eq!(cpu.counters().type_misses, 1);
    assert_eq!(cpu.counters().type_hits, 0);
}

#[test]
fn tchk_hits_and_misses() {
    let src = lua_setup(
        "
        la s10, tbl
        la s9, key
        tld a2, 0(s10)
        tld a3, 0(s9)
        thdl slow
        tchk a2, a3
        li a0, 1
        halt
    slow:
        li a0, 99
        halt
        .data
        tbl: .dword 0xdead, 5    # Table tag
        key: .dword 3, 0x13      # Int tag
    ",
    );
    // With the Table-Int rule installed: hit.
    let cpu = run_with(&src, |cpu| {
        cpu.trt_mut().push(TrtRule::new(TrtClass::Tchk, 5, 0x13, 5));
    });
    assert_eq!(a0(&cpu), 1);
    assert_eq!(cpu.counters().type_hits, 1);

    // Without rules: miss.
    let cpu = run(&src);
    assert_eq!(a0(&cpu), 99);
    assert_eq!(cpu.counters().type_misses, 1);
}

#[test]
fn tget_tset_roundtrip() {
    let src = lua_setup(
        "
        la s10, rb
        tld a2, 0(s10)
        tget a0, a2        # a0 = tag of rb = 0x13
        li a3, 0x83
        tset a3, a2        # retag rb as Float
        tget a1, a2
        halt
        .data
        rb: .dword 7, 0x13
    ",
    );
    let cpu = run(&src);
    assert_eq!(a0(&cpu), 0x13);
    assert_eq!(cpu.regs().read(Reg::A1).v, 0x83);
    assert!(cpu.regs().read(Reg::A2).f, "tset must refresh the F/I bit");
}

#[test]
fn nanbox_typed_add_with_overflow_redirect() {
    // SpiderMonkey layout: offset=0b1100 (NaN detect + overflow detect),
    // shift=47, mask=0x0f. Int tag = 1.
    let src = "
        li t0, 0b1100
        setoffset t0
        li t0, 47
        setshift t0
        li t0, 0x0f
        setmask t0
        la s10, rb
        la s9, rc
        la s11, ra
        tld a2, 0(s10)
        tld a3, 0(s9)
        thdl slow
        xadd a4, a2, a3
        tsd a4, 0(s11)
        li a0, 1
        halt
    slow:
        li a0, 99
        halt
        .data
        rb: .dword 0, 0
        rc: .dword 0, 0
        ra: .dword 0, 0
    ";
    let program = assemble(src, TEXT_BASE, DATA_BASE).unwrap();

    let boxed_int = |v: i64| -> u64 {
        (0x1fffu64 << 51) | (1u64 << 47) | ((v as u64) & ((1 << 47) - 1))
    };

    // Case 1: 20 + 22 stays in int32 range → fast path.
    let mut cpu = Cpu::new(CoreConfig::paper());
    cpu.load_program(&program);
    cpu.trt_mut().push(TrtRule::new(TrtClass::Xadd, 1, 1, 1));
    cpu.mem_mut().write_u64(DATA_BASE, boxed_int(20));
    cpu.mem_mut().write_u64(DATA_BASE + 16, boxed_int(22));
    while cpu.step().unwrap() != StepEvent::Halted {}
    assert_eq!(a0(&cpu), 1);
    let stored = cpu.mem().read_u64(DATA_BASE + 32);
    assert!(tarch_core::is_nan_boxed(stored));
    assert_eq!(stored & ((1 << 47) - 1), 42);

    // Case 2: int32 overflow → overflow-triggered type miss.
    let mut cpu = Cpu::new(CoreConfig::paper());
    cpu.load_program(&program);
    cpu.trt_mut().push(TrtRule::new(TrtClass::Xadd, 1, 1, 1));
    cpu.mem_mut().write_u64(DATA_BASE, boxed_int(i32::MAX as i64));
    cpu.mem_mut().write_u64(DATA_BASE + 16, boxed_int(1));
    while cpu.step().unwrap() != StepEvent::Halted {}
    assert_eq!(a0(&cpu), 99, "overflow must redirect to the slow path");
    assert_eq!(cpu.counters().overflow_misses, 1);
    assert_eq!(cpu.counters().type_misses, 0, "overflow is counted separately");
}

#[test]
fn nanbox_doubles_pass_through_tld_tsd() {
    let src = "
        li t0, 0b1100
        setoffset t0
        li t0, 47
        setshift t0
        li t0, 0x0f
        setmask t0
        la s10, rb
        tld a2, 0(s10)
        tsd a2, 8(s10)
        halt
        .data
        rb: .dword 0x400921fb54442d18, 0   # pi
    ";
    let cpu = run(src);
    assert_eq!(cpu.mem().read_u64(DATA_BASE + 8), 0x4009_21fb_5444_2d18);
    assert!(cpu.regs().read(Reg::A2).f);
}

#[test]
fn chklb_fast_and_slow() {
    let src = "
        li t0, 0x13
        settype t0
        la s10, rb
        thdl slow
        chklb a2, 8(s10)
        li a0, 1
        halt
    slow:
        li a0, 99
        halt
        .data
        rb: .dword 7, 0x13
    ";
    let cpu = run(src);
    assert_eq!(a0(&cpu), 1);
    assert_eq!(cpu.counters().chklb_checks, 1);
    assert_eq!(cpu.counters().chklb_misses, 0);

    // Change the tag: chklb must redirect.
    let program = assemble(src, TEXT_BASE, DATA_BASE).unwrap();
    let mut cpu = Cpu::new(CoreConfig::paper());
    cpu.load_program(&program);
    cpu.mem_mut().write_u8(DATA_BASE + 8, 0x83);
    while cpu.step().unwrap() != StepEvent::Halted {}
    assert_eq!(a0(&cpu), 99);
    assert_eq!(cpu.counters().chklb_misses, 1);
}

#[test]
fn set_trt_instruction_installs_rules() {
    // Packed rule: in1=0x13, in2=0x13, class=0 (xadd), out=0x13.
    let src = lua_setup(
        "
        li t0, 0x13001313
        set_trt t0
        la s10, rb
        tld a2, 0(s10)
        thdl slow
        xadd a0, a2, a2
        halt
    slow:
        li a0, 99
        halt
        .data
        rb: .dword 21, 0x13
    ",
    );
    let cpu = run(&src);
    assert_eq!(a0(&cpu), 42);
    // flush_trt drops the rules.
    let src2 = lua_setup(
        "
        li t0, 0x13001313
        set_trt t0
        flush_trt
        la s10, rb
        tld a2, 0(s10)
        thdl slow
        xadd a0, a2, a2
        halt
    slow:
        li a0, 99
        halt
        .data
        rb: .dword 21, 0x13
    ",
    );
    let cpu = run(&src2);
    assert_eq!(a0(&cpu), 99);
}

#[test]
fn invalid_trt_rule_traps() {
    let program = assemble("li t0, 0xff0000\nset_trt t0\nhalt\n", TEXT_BASE, DATA_BASE).unwrap();
    let mut cpu = Cpu::new(CoreConfig::paper());
    cpu.load_program(&program);
    let err = cpu.run(10).unwrap_err();
    assert!(matches!(err, Trap::InvalidTrtRule { .. }));
}

#[test]
fn misaligned_load_traps() {
    let program = assemble("li a0, 3\nld a1, 0(a0)\nhalt\n", TEXT_BASE, DATA_BASE).unwrap();
    let mut cpu = Cpu::new(CoreConfig::paper());
    cpu.load_program(&program);
    let err = cpu.run(10).unwrap_err();
    assert!(matches!(err, Trap::MisalignedAccess { addr: 3, align: 8, .. }));
}

#[test]
fn invalid_instruction_traps() {
    let mut cpu = Cpu::new(CoreConfig::paper());
    cpu.mem_mut().write_u32(0x100, 0xffff_ffff);
    cpu.set_pc(0x100);
    let err = cpu.run(1).unwrap_err();
    assert!(matches!(err, Trap::InvalidInstruction { pc: 0x100, .. }));
}

#[test]
fn ecall_pauses_and_resumes() {
    let program = assemble("li a0, 5\necall\naddi a0, a0, 1\nhalt\n", TEXT_BASE, DATA_BASE).unwrap();
    let mut cpu = Cpu::new(CoreConfig::paper());
    cpu.load_program(&program);
    assert_eq!(cpu.run(100).unwrap(), StepEvent::Ecall);
    assert_eq!(a0(&cpu), 5);
    // Host "services" the call by doubling a0 and charging costs.
    let v = cpu.regs().read(Reg::A0).v;
    cpu.regs_mut().write_untyped(Reg::A0, v * 2);
    let before = *cpu.counters();
    cpu.charge(100, 130);
    assert_eq!(cpu.counters().instructions, before.instructions + 100);
    assert_eq!(cpu.run(100).unwrap(), StepEvent::Halted);
    assert_eq!(a0(&cpu), 11);
}

#[test]
fn csrr_reads_counters() {
    let cpu = run("
        csrr a1, instret
        csrr a2, cycle
        csrr a0, icachemiss
        halt
    ");
    assert!(cpu.regs().read(Reg::A1).v >= 1);
    assert!(cpu.regs().read(Reg::A2).v >= 1);
    assert!(a0(&cpu) >= 1, "cold I-cache must have missed");
}

#[test]
fn cycles_at_least_instructions() {
    let cpu = run("
        li a1, 200
        li a0, 0
    top:
        add a0, a0, a1
        addi a1, a1, -1
        bnez a1, top
        halt
    ");
    let c = cpu.counters();
    assert!(c.cycles >= c.instructions, "in-order single issue: CPI >= 1");
    assert_eq!(a0(&cpu), 20100); // sum of 200 down to 1
}

#[test]
fn load_use_bubble_costs_a_cycle() {
    // Dependent load→use vs load...independent→use.
    let dep = run("
        la s0, d
        ld a1, 0(s0)
        ld a1, 0(s0)
        ld a1, 0(s0)
        ld a1, 0(s0)
        add a0, a1, a1
        halt
        .data
        d: .dword 21
    ");
    let indep = run("
        la s0, d
        ld a1, 0(s0)
        ld a1, 0(s0)
        ld a1, 0(s0)
        ld a1, 0(s0)
        nop
        add a0, a1, a1
        halt
        .data
        d: .dword 21
    ");
    assert_eq!(a0(&dep), 42);
    assert_eq!(a0(&indep), 42);
    // The independent version has one more instruction but the same cycle
    // count: the nop hides the load-use bubble.
    assert_eq!(indep.counters().instructions, dep.counters().instructions + 1);
    assert_eq!(indep.counters().cycles, dep.counters().cycles);
}

#[test]
fn branch_mispredicts_cost_cycles() {
    // A data-dependent unpredictable-ish pattern vs an always-taken loop of
    // the same instruction count.
    let predictable = run("
        li a1, 512
        li a0, 0
    top:
        addi a0, a0, 1
        addi a1, a1, -1
        bnez a1, top
        halt
    ");
    let alternating = run("
        li a1, 512
        li a0, 0
    top:
        andi t0, a1, 3
        bnez t0, skip
        addi a0, a0, 1
    skip:
        addi a1, a1, -1
        bnez a1, top
        halt
    ");
    let p = predictable.branch_stats();
    let a = alternating.branch_stats();
    assert!(p.branch_misses < 10, "countdown loop should train: {p:?}");
    assert!(a.branches > p.branches);
    // Period-4 pattern is learnable by 7-bit gshare; just check counting.
    assert_eq!(alternating.regs().read(Reg::A0).v, 128);
}

#[test]
fn typed_state_roundtrips_through_context_switch() {
    use tarch_core::TypedState;
    let src = lua_setup(
        "
        la s10, rb
        tld a2, 0(s10)
        halt
        .data
        rb: .dword 7, 0x13
    ",
    );
    let cpu = run_with(&src, push_lua_rules);
    let state = TypedState::save(&cpu);
    assert_eq!(state.trt_rules.len(), 6);
    assert_eq!(state.spr.offset, 0b001);
    let mut fresh = Cpu::new(CoreConfig::paper());
    state.restore(&mut fresh);
    assert_eq!(fresh.regs().read(Reg::A2).t, 0x13);
    assert_eq!(fresh.trt().len(), 6);
}
