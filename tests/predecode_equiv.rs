//! Counter-equivalence golden tests for the host-side fast paths.
//!
//! The predecoded-instruction table, the basic-block engine (with its
//! chaining and macro-op-fusion layers), the MRU cache/TLB memos, and
//! the tarch-trace observability layer are
//! pure host-side mechanisms: the architectural model — every `PerfCounters` field, the branch-predictor statistics,
//! the final register state, program output — must be bit-identical with
//! any combination of them enabled or disabled. These tests run the
//! *same* program under each fast-path configuration and diff everything
//! observable against the fully-naive reference (re-decode every fetch,
//! step one instruction at a time, scan every cache way and TLB entry):
//!
//! * every `tarch_isa::samples::all_forms()` instruction, executed as a
//!   tiny standalone program (covering every format's fetch/execute path,
//!   including ones that trap or run into a bounded loop);
//! * real Lua, JS and WASM workloads through the full simulated engines,
//!   at all three ISA levels.
//!
//! The shared code cache is held to a stricter bar still: a core that
//! adopts blocks and closures from a warm cache must report exactly what
//! a core without one reports, host-side statistics and trace events
//! included.

use std::sync::Arc;
use tarch_bench::workloads::{self, Scale};
use tarch_core::trace::TraceEvent;
use tarch_core::{
    BlockStats, BranchStats, CodeCache, CoreConfig, Cpu, IsaLevel, PerfCounters, PredecodeStats,
    StepEvent, TraceSummary, Trap,
};
use tarch_isa::asm::Program;
use tarch_isa::text::assemble;
use tarch_isa::{samples, AluImmOp, Instruction, Reg};
use tarch_sim::{Engine, Machine, RunOutcome, Vm};

const TEXT_BASE: u64 = 0x1000;
const DATA_BASE: u64 = 0x2_0000;
const FORM_STEPS: u64 = 200;
const VM_STEPS: u64 = 2_000_000_000;

/// One named fast-path configuration under test.
#[derive(Debug, Clone, Copy)]
struct Variant {
    name: &'static str,
    predecode: bool,
    blocks: bool,
    mem_fast_paths: bool,
    /// Block chaining (only meaningful with `blocks`).
    chain: bool,
    /// Macro-op fusion at block-build time (only meaningful with `blocks`).
    fuse: bool,
    /// The tarch-trace observability layer (sampler + event ring +
    /// metric windows); purely host-side, so it must not perturb any
    /// architectural counter either.
    trace: bool,
    /// Tier-3 template compilation of hot blocks (only meaningful with
    /// `blocks`). Tiered variants run with a threshold of 2, so even
    /// test-scale programs execute plenty of compiled blocks.
    tier: bool,
}

impl Variant {
    const fn bare(name: &'static str, predecode: bool, blocks: bool, mem: bool) -> Variant {
        Variant {
            name,
            predecode,
            blocks,
            mem_fast_paths: mem,
            chain: false,
            fuse: false,
            trace: false,
            tier: false,
        }
    }
}

/// The fully-naive reference: every host-side fast path off.
const REFERENCE: Variant = Variant::bare("naive", false, false, false);

/// Each fast path alone (the block engine both with and without the
/// predecode table under it — the block builder has a decode path for
/// each), the chain×fuse×tier combinations of the block engine,
/// everything together (the shipping default), and the observability
/// layer on both the stepwise and the fully-optimised hot loop.
const VARIANTS: [Variant; 13] = [
    Variant::bare("predecode", true, false, false),
    Variant::bare("blocks", false, true, false),
    Variant::bare("blocks+predecode", true, true, false),
    Variant::bare("mru", false, false, true),
    Variant { chain: true, ..Variant::bare("blocks+chain", false, true, false) },
    Variant { fuse: true, ..Variant::bare("blocks+fuse", false, true, false) },
    Variant {
        chain: true,
        fuse: true,
        ..Variant::bare("blocks+chain+fuse", false, true, false)
    },
    Variant { tier: true, ..Variant::bare("blocks+tier", false, true, false) },
    Variant { tier: true, fuse: true, ..Variant::bare("blocks+tier+fuse", false, true, false) },
    Variant {
        tier: true,
        chain: true,
        fuse: true,
        ..Variant::bare("blocks+tier+chain+fuse", false, true, false)
    },
    Variant { chain: true, fuse: true, tier: true, ..Variant::bare("all", true, true, true) },
    Variant { trace: true, ..Variant::bare("naive+trace", false, false, false) },
    Variant {
        chain: true,
        fuse: true,
        tier: true,
        trace: true,
        ..Variant::bare("all+trace", true, true, true)
    },
];

fn config(v: Variant) -> CoreConfig {
    CoreConfig {
        predecode: v.predecode,
        blocks: v.blocks,
        mem_fast_paths: v.mem_fast_paths,
        chain_blocks: v.chain,
        fuse: v.fuse,
        tier: v.tier,
        // Low enough that test-scale programs cross it and spend most of
        // their run inside compiled blocks.
        tier_threshold: 2,
        // Dense sampling, short windows and a tiny ring, so a traced run
        // exercises every tracer path (including overflow) while the
        // architectural state must stay bit-identical.
        trace: v.trace.then_some(tarch_core::TraceConfig {
            sample_period: 1_000,
            window_cycles: 50_000,
            ring_capacity: 64,
        }),
        ..CoreConfig::paper()
    }
}

/// Everything architecturally observable after a bounded run.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<StepEvent, Trap>,
    counters: PerfCounters,
    branch: BranchStats,
    regs: Vec<u64>,
    pc: u64,
}

/// Runs `instr` as a standalone `[instr, halt]` program with every
/// integer register pointing at writable data, bounded by `FORM_STEPS`
/// (branch forms can loop through zeroed memory; typed forms can redirect
/// to a null handler — both are fine as long as all runs agree).
fn run_form(instr: Instruction, variant: Variant) -> Observed {
    let program = Program {
        text_base: TEXT_BASE,
        text: vec![
            instr.encode().expect("sample form encodes"),
            Instruction::Halt.encode().expect("halt encodes"),
        ],
        data_base: DATA_BASE,
        data: (0..=255u8).collect(),
        entry: TEXT_BASE,
        symbols: Default::default(),
    };
    let mut cpu = Cpu::new(config(variant));
    cpu.load_program(&program);
    for n in 1..32 {
        let r = Reg::new(n).expect("valid register");
        cpu.regs_mut().write_untyped(r, DATA_BASE + 64);
    }
    let outcome = cpu.run(FORM_STEPS);
    Observed {
        outcome,
        counters: *cpu.counters(),
        branch: cpu.branch_stats(),
        regs: (0..32).map(|n| cpu.regs().read(Reg::new(n).unwrap()).v).collect(),
        pc: cpu.pc(),
    }
}

#[test]
fn every_sample_form_is_counter_identical() {
    for instr in samples::all_forms() {
        let reference = run_form(instr, REFERENCE);
        for variant in VARIANTS {
            let observed = run_form(instr, variant);
            assert_eq!(
                observed, reference,
                "`{}` diverged from naive reference for `{instr}`",
                variant.name
            );
        }
    }
}

fn check_vm_equivalence(workload: &str) {
    let w = workloads::by_name(workload).expect("known workload");
    let src = w.source(Scale::Test);
    let chunk = miniscript::parse(&src).expect("parses");
    let module = luart::compile(&chunk).expect("compiles");

    for level in tarch_core::IsaLevel::ALL {
        let run_lua = |variant: Variant| {
            let mut vm = luart::LuaVm::new(&module, level, config(variant))
                .unwrap_or_else(|e| panic!("{workload} luart {level} [{}]: {e}", variant.name));
            vm.run(VM_STEPS)
                .unwrap_or_else(|e| panic!("{workload} luart {level} [{}]: {e}", variant.name))
        };
        let reference = run_lua(REFERENCE);
        for variant in VARIANTS {
            let observed = run_lua(variant);
            let tag = format!("{workload}: luart {level} [{}]", variant.name);
            assert_eq!(observed.output, reference.output, "{tag} output diverged");
            assert_eq!(observed.counters, reference.counters, "{tag} counters diverged");
            assert_eq!(observed.branch, reference.branch, "{tag} branch stats diverged");
        }

        let run_js = |variant: Variant| {
            let mut vm = jsrt::JsVm::from_source(&src, level, config(variant))
                .unwrap_or_else(|e| panic!("{workload} jsrt {level} [{}]: {e}", variant.name));
            vm.run(VM_STEPS)
                .unwrap_or_else(|e| panic!("{workload} jsrt {level} [{}]: {e}", variant.name))
        };
        let reference = run_js(REFERENCE);
        for variant in VARIANTS {
            let observed = run_js(variant);
            let tag = format!("{workload}: jsrt {level} [{}]", variant.name);
            assert_eq!(observed.output, reference.output, "{tag} output diverged");
            assert_eq!(observed.counters, reference.counters, "{tag} counters diverged");
            assert_eq!(observed.branch, reference.branch, "{tag} branch stats diverged");
        }

        let run_wasm = |variant: Variant| {
            let mut vm = wasmrt::WasmVm::from_source(&src, level, config(variant))
                .unwrap_or_else(|e| panic!("{workload} wasmrt {level} [{}]: {e}", variant.name));
            vm.run(VM_STEPS)
                .unwrap_or_else(|e| panic!("{workload} wasmrt {level} [{}]: {e}", variant.name))
        };
        let reference = run_wasm(REFERENCE);
        for variant in VARIANTS {
            let observed = run_wasm(variant);
            let tag = format!("{workload}: wasmrt {level} [{}]", variant.name);
            assert_eq!(observed.output, reference.output, "{tag} output diverged");
            assert_eq!(observed.counters, reference.counters, "{tag} counters diverged");
            assert_eq!(observed.branch, reference.branch, "{tag} branch stats diverged");
        }
    }
}

#[test]
fn lua_js_and_wasm_workload_counters_identical() {
    check_vm_equivalence("fibo");
}

/// Distills a real [`PgoProfile`] out of a finished profile run's
/// recorders — the same shape the runner's artifact pipeline produces,
/// with thresholds low enough that test-scale runs yield decisions.
fn distill_profile(cpu: &Cpu) -> tarch_core::PgoProfile {
    let edges = cpu.edge_profile().expect("edge profiling was enabled");
    let dominant = edges.dominant(8, 60);
    let links = edges.top_successors(8, tarch_core::LINK_HINT_SLOTS);
    let hot: Vec<u64> = edges.edges().map(|(from, _, _)| from).collect();
    let pairs = cpu.pair_profile().map(|p| {
        p.sorted().into_iter().map(|(a, b, _)| (a.to_string(), b.to_string())).collect()
    });
    tarch_core::PgoProfile::new(hot, dominant, links, pairs)
}

/// PGO must be host-side only: with a *real* measured profile loaded —
/// driving superblock formation, per-workload fusion filtering, and
/// sample-triggered tier-up — every counter, branch statistic and output
/// byte must match the naive reference, across the chain × fuse × tier
/// engine matrix. A deliberately empty profile (the stale-profile
/// degenerate case) must behave identically too.
#[test]
fn pgo_guided_runs_are_counter_identical() {
    // Profile-run variant: blocks + chain so the edge recorder observes
    // chainable exits, fuse so the engine is the shipping shape.
    const PROFILER: Variant =
        Variant { chain: true, fuse: true, ..Variant::bare("profiler", true, true, true) };
    // Guided variants: every layer the profile can influence, alone and
    // together (superblocks need chain; the pair table needs fuse; hot
    // tier-up needs tier).
    const GUIDED: [Variant; 4] = [
        Variant { chain: true, ..Variant::bare("pgo:blocks+chain", false, true, false) },
        Variant {
            chain: true,
            fuse: true,
            ..Variant::bare("pgo:blocks+chain+fuse", false, true, false)
        },
        Variant {
            chain: true,
            fuse: true,
            tier: true,
            ..Variant::bare("pgo:blocks+tier+chain+fuse", false, true, false)
        },
        Variant { chain: true, fuse: true, tier: true, ..Variant::bare("pgo:all", true, true, true) },
    ];

    let w = workloads::by_name("fibo").expect("known workload");
    let src = w.source(Scale::Test);
    let chunk = miniscript::parse(&src).expect("parses");
    let module = luart::compile(&chunk).expect("compiles");

    for level in tarch_core::IsaLevel::ALL {
        // Lua: profile, then check every guided variant against naive.
        let profile = {
            let mut vm =
                luart::LuaVm::new(&module, level, config(PROFILER)).expect("builds");
            vm.cpu_mut().enable_pair_profile();
            vm.cpu_mut().enable_edge_profile();
            vm.run(VM_STEPS).expect("profile run completes");
            distill_profile(vm.cpu())
        };
        assert!(!profile.is_empty(), "test-scale fibo must yield a real profile");
        let reference = {
            let mut vm = luart::LuaVm::new(&module, level, config(REFERENCE)).expect("builds");
            vm.run(VM_STEPS).expect("runs")
        };
        for (tag, p) in
            [("measured", profile.clone()), ("empty", tarch_core::PgoProfile::default())]
        {
            for variant in GUIDED {
                let mut cfg = config(variant);
                cfg.pgo = Some(std::sync::Arc::new(p.clone()));
                let mut vm = luart::LuaVm::new(&module, level, cfg).expect("builds");
                let observed = vm.run(VM_STEPS).expect("guided run completes");
                let tag = format!("luart {level} [{}] ({tag} profile)", variant.name);
                assert_eq!(observed.output, reference.output, "{tag} output diverged");
                assert_eq!(observed.counters, reference.counters, "{tag} counters diverged");
                assert_eq!(observed.branch, reference.branch, "{tag} branch stats diverged");
            }
        }

        // JS: same loop through the stack-based engine.
        let profile = {
            let mut vm = jsrt::JsVm::from_source(&src, level, config(PROFILER)).expect("builds");
            vm.cpu_mut().enable_pair_profile();
            vm.cpu_mut().enable_edge_profile();
            vm.run(VM_STEPS).expect("profile run completes");
            distill_profile(vm.cpu())
        };
        let reference = {
            let mut vm =
                jsrt::JsVm::from_source(&src, level, config(REFERENCE)).expect("builds");
            vm.run(VM_STEPS).expect("runs")
        };
        for variant in GUIDED {
            let mut cfg = config(variant);
            cfg.pgo = Some(std::sync::Arc::new(profile.clone()));
            let mut vm = jsrt::JsVm::from_source(&src, level, cfg).expect("builds");
            let observed = vm.run(VM_STEPS).expect("guided run completes");
            let tag = format!("jsrt {level} [{}]", variant.name);
            assert_eq!(observed.output, reference.output, "{tag} output diverged");
            assert_eq!(observed.counters, reference.counters, "{tag} counters diverged");
            assert_eq!(observed.branch, reference.branch, "{tag} branch stats diverged");
        }

        // WASM: same loop through the statically typed engine.
        let profile = {
            let mut vm =
                wasmrt::WasmVm::from_source(&src, level, config(PROFILER)).expect("builds");
            vm.cpu_mut().enable_pair_profile();
            vm.cpu_mut().enable_edge_profile();
            vm.run(VM_STEPS).expect("profile run completes");
            distill_profile(vm.cpu())
        };
        let reference = {
            let mut vm =
                wasmrt::WasmVm::from_source(&src, level, config(REFERENCE)).expect("builds");
            vm.run(VM_STEPS).expect("runs")
        };
        for variant in GUIDED {
            let mut cfg = config(variant);
            cfg.pgo = Some(std::sync::Arc::new(profile.clone()));
            let mut vm = wasmrt::WasmVm::from_source(&src, level, cfg).expect("builds");
            let observed = vm.run(VM_STEPS).expect("guided run completes");
            let tag = format!("wasmrt {level} [{}]", variant.name);
            assert_eq!(observed.output, reference.output, "{tag} output diverged");
            assert_eq!(observed.counters, reference.counters, "{tag} counters diverged");
            assert_eq!(observed.branch, reference.branch, "{tag} branch stats diverged");
        }
    }
}

#[test]
fn helper_heavy_workload_counters_identical() {
    // string/table helpers go through `ecall`, whose native implementations
    // write simulated memory via `mem_mut` — the epoch-revalidation path
    // for both the predecode slots and the block table.
    check_vm_equivalence("k-nucleotide");
}

/// The shipping engine with tracing on and a ring large enough to keep
/// every event, so a run's whole event stream can be compared.
fn cache_config() -> CoreConfig {
    let mut cfg = config(VARIANTS[VARIANTS.len() - 1]);
    if let Some(trace) = cfg.trace.as_mut() {
        trace.ring_capacity = 1 << 16;
    }
    cfg
}

/// Everything a core reports about itself: architectural results plus
/// the host-side statistics and trace that must not depend on a cache.
#[derive(Debug, PartialEq)]
struct CoreReport {
    outcome: Result<StepEvent, Trap>,
    output: String,
    counters: PerfCounters,
    branch: BranchStats,
    blocks: BlockStats,
    predecode: PredecodeStats,
    trace: Option<TraceSummary>,
    events: Vec<TraceEvent>,
}

fn core_report(cpu: &mut Cpu, outcome: Result<StepEvent, Trap>, output: String) -> CoreReport {
    let trace = cpu.finish_trace();
    CoreReport {
        outcome,
        output,
        counters: *cpu.counters(),
        branch: cpu.branch_stats(),
        blocks: cpu.block_stats(),
        predecode: cpu.predecode_stats(),
        trace,
        events: cpu.tracer().map(|t| t.ring().iter().copied().collect()).unwrap_or_default(),
    }
}

/// Warms each level's code cache with `warmers`, then runs `src` once
/// through `Vm::new` (cache attached) and once on a machine loaded with
/// the same image but no cache; the two reports must be identical.
fn check_warm_cache<E: Engine>(
    engine: &str,
    src: &str,
    warmers: &[String],
    host: impl Fn(Vec<String>) -> E::Host,
    output: impl Fn(&E::Host) -> String,
) {
    let cfg = cache_config();
    for level in IsaLevel::ALL {
        let tag = format!("{engine} {level}");
        for warm in warmers {
            let mut vm = Vm::<E>::from_source(warm, level, cfg.clone()).expect("warmer builds");
            vm.run(VM_STEPS).unwrap_or_else(|e| panic!("{tag} warmer: {e}"));
        }
        let mut vm = Vm::<E>::from_source(src, level, cfg.clone()).expect("builds");
        let cache = Arc::clone(&vm.image().code_cache);
        let before = cache.stats();
        let report = vm.run(VM_STEPS).unwrap_or_else(|e| panic!("{tag}: {e}"));
        let cached = core_report(vm.cpu_mut(), Ok(StepEvent::Halted), report.output);
        let after = cache.stats();
        assert!(after.adopted > before.adopted, "{tag}: the warm cache served no block");
        assert!(after.closures_adopted > before.closures_adopted, "{tag}: no closure adopted");

        let image = vm.image();
        let mut machine = Machine::new(cfg.clone(), host(image.strings.clone()));
        machine.load(&image.program);
        let outcome = machine.run(VM_STEPS).unwrap_or_else(|e| panic!("{tag} uncached: {e}"));
        assert_eq!(outcome, RunOutcome::Halted, "{tag} uncached");
        let out = output(machine.host());
        let uncached = core_report(machine.cpu_mut(), Ok(StepEvent::Halted), out);
        assert_eq!(cached, uncached, "{tag}: a warm code cache changed what the core reports");
    }
}

#[test]
fn warm_code_cache_changes_no_counter_or_statistic() {
    let source = |name: &str| workloads::by_name(name).expect("known workload").source(Scale::Test);
    // All three link the same jsrt and wasmrt texts (main has locals),
    // so the warmers fill the cache the tested module runs on.
    let src = source("k-nucleotide");
    let warmers = [source("n-sieve"), source("spectral-norm")];
    check_warm_cache::<luart::Lua>("luart", &src, &warmers, luart::LuaHost::new, |h| {
        h.output().to_string()
    });
    check_warm_cache::<jsrt::Js>("jsrt", &src, &warmers, jsrt::JsHost::new, |h| {
        h.output().to_string()
    });
    check_warm_cache::<wasmrt::Wasm>("wasmrt", &src, &warmers, wasmrt::WasmHost::new, |h| {
        h.output().to_string()
    });
}

/// A loop whose body a guest store rewrites halfway: four `+1` passes,
/// then four `+100` passes over the same entry pc.
const SMC_SRC: &str = "
top:
    addi a0, a0, 1      # patch target: rewritten to addi a0, a0, 100
    j    mid
mid:
    addi s1, s1, -1
    bnez s1, top
    bnez s2, done
    li   s2, 1
    li   s1, 4
    li   s3, 0x20000    # data base: holds the replacement word
    lw   t0, 0(s3)
    li   s4, 0x1000     # text base: address of the patch target
    sw   t0, 0(s4)
    bnez s2, top
done:
    halt
";

/// [`SMC_SRC`] with its replacement word in data.
fn smc_program() -> Program {
    let mut program = assemble(SMC_SRC, TEXT_BASE, DATA_BASE).expect("assembles");
    let patch = Instruction::AluImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::A0, imm: 100 };
    program.data = patch.encode().expect("encodes").to_le_bytes().to_vec();
    program
}

/// Runs [`SMC_SRC`] on a fresh core, with `cache` attached if given.
fn run_smc(cache: Option<&CodeCache>) -> CoreReport {
    let mut cpu = Cpu::new(cache_config());
    cpu.load_program(&smc_program());
    if let Some(cache) = cache {
        cpu.attach_code_cache(cache);
    }
    cpu.regs_mut().write_untyped(Reg::S1, 4);
    let outcome = cpu.run(10_000);
    assert_eq!(cpu.regs().read(Reg::A0).v, 404, "the rewritten word must take effect");
    core_report(&mut cpu, outcome, String::new())
}

/// One core rewrites a word of the text a cache was built over: its
/// rebuilt block must not be adopted from (or published over) the
/// cache's stale entry, and a second core running the same program
/// must adopt the original block, then take the word-check path after
/// its own rewrite. Both report what a core without a cache reports.
#[test]
fn self_modifying_store_takes_the_word_check_path() {
    let uncached = run_smc(None);
    let program = smc_program();
    let cache = CodeCache::new(program.text_base, program.text.len());
    assert_eq!(run_smc(Some(&cache)), uncached, "first core (publishes)");
    let first = cache.stats();
    assert!(first.published > 0 && first.rejected > 0, "{first:?}");
    assert_eq!(run_smc(Some(&cache)), uncached, "second core (adopts, then rejects)");
    let second = cache.stats();
    assert_eq!(second.published, first.published, "a rewritten block was published");
    assert!(second.adopted > first.adopted, "{second:?}");
    assert!(second.rejected > first.rejected, "{second:?}");
}
