//! One guest VM of any engine, built from source through the layers'
//! public functions, each call timed from outside.
//!
//! The pipeline of one job is `miniscript::parse` → `<engine>::compile`
//! → `<Engine>Vm::new` (which runs `<engine>::build_image` and then loads
//! the image) → `run`. When spans are on, the image build and the load
//! are also run once on their own, so the `Vm::new` span can be split
//! between the two layers; that extra work is tracing overhead.

use crate::refclock::{scale, RefClock};
use crate::spans::{Spans, JOB};
use jsrt::JsVm;
use luart::LuaVm;
use std::time::Instant;
use tarch_core::{BlockStats, CoreConfig, Cpu, IsaLevel, PerfCounters, PredecodeStats};
use tarch_runner::EngineKind;
use wasmrt::WasmVm;

/// Step budget for one run; every benchmark job halts far below it.
pub const STEP_BUDGET: u64 = 20_000_000_000;

/// Simulated instructions per slice of a run timed against a
/// [`RefClock`]: about 40 ms of host time.
pub const SLICE_STEPS: u64 = 2_000_000;

/// A ready-to-run guest.
#[derive(Debug)]
pub enum Vm {
    /// `luart`.
    Lua(LuaVm),
    /// `jsrt`.
    Js(JsVm),
    /// `wasmrt`.
    Wasm(WasmVm),
}

/// What one run left behind on the simulated core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Everything the guest printed.
    pub output: String,
    /// Architectural counters.
    pub counters: PerfCounters,
    /// Branch and jump mispredictions.
    pub branch_misses: u64,
    /// Host block-engine statistics.
    pub blocks: BlockStats,
    /// Host predecode statistics.
    pub predecode: PredecodeStats,
}

impl RunStats {
    /// Reads the statistics of a core that has run; `output` is the
    /// guest's output.
    pub fn of(cpu: &Cpu, output: String) -> RunStats {
        RunStats {
            output,
            counters: *cpu.counters(),
            branch_misses: cpu.branch_stats().total_misses(),
            blocks: cpu.block_stats(),
            predecode: cpu.predecode_stats(),
        }
    }
}

/// One built and run job, with its host timings.
#[derive(Debug, Clone)]
pub struct Job {
    /// Host nanoseconds from source to a ready VM.
    pub build_ns: u64,
    /// Host nanoseconds of the run.
    pub run_ns: u64,
    /// Instruction words in the guest's interpreter image.
    pub text_words: u64,
    /// The run's results.
    pub stats: RunStats,
}

/// Builds a guest from source; with spans on, each layer call is a span
/// of `job`.
///
/// # Errors
///
/// The failing layer's error rendering.
pub fn build(
    engine: EngineKind,
    source: &str,
    level: IsaLevel,
    core: &CoreConfig,
    sp: &mut Spans,
    job: u64,
) -> Result<Vm, String> {
    let chunk = sp
        .time(job, "miniscript.parse", || miniscript::parse(source))
        .map_err(|e| e.to_string())?;
    macro_rules! pipeline {
        ($krate:ident, $vm:ident, $host:ident, $variant:ident) => {{
            let module = sp
                .time(job, concat!(stringify!($krate), ".compile"), || {
                    $krate::compile(&chunk)
                })
                .map_err(|e| e.to_string())?;
            // `Vm::new` builds the image and then loads it, in one call.
            // Traced, both halves are also run once on their own, and the
            // `new` span is split in the proportion they took.
            let image_share = if sp.on() {
                let t0 = sp.now_ns();
                let image = $krate::build_image(&module, level).map_err(|e| e.to_string())?;
                let t1 = sp.now_ns();
                let mut machine = tarch_sim::Machine::new(
                    core.clone(),
                    $krate::$host::new(image.strings.clone()),
                );
                machine.load(&image.program);
                let t2 = sp.now_ns();
                drop(machine);
                sp.push("bench.probe", job, t0, sp.now_ns());
                Some((t1 - t0) as f64 / (t2 - t0).max(1) as f64)
            } else {
                None
            };
            let start = sp.now_ns();
            let vm = $vm::new(&module, level, core.clone()).map_err(|e| e.to_string())?;
            if let Some(share) = image_share {
                let end = sp.now_ns();
                let split = start + ((end - start) as f64 * share) as u64;
                sp.push(
                    concat!(stringify!($krate), ".build_image"),
                    job,
                    start,
                    split,
                );
                sp.push("tarch-sim.load", job, split, end);
            }
            Vm::$variant(vm)
        }};
    }
    Ok(match engine {
        EngineKind::Lua => pipeline!(luart, LuaVm, LuaHost, Lua),
        EngineKind::Js => pipeline!(jsrt, JsVm, JsHost, Js),
        EngineKind::Wasm => pipeline!(wasmrt, WasmVm, WasmHost, Wasm),
    })
}

impl Vm {
    /// The simulated core.
    pub fn cpu(&self) -> &Cpu {
        match self {
            Vm::Lua(vm) => vm.cpu(),
            Vm::Js(vm) => vm.cpu(),
            Vm::Wasm(vm) => vm.cpu(),
        }
    }

    /// Instruction words in the interpreter image.
    pub fn text_words(&self) -> u64 {
        (match self {
            Vm::Lua(vm) => vm.image().program.text.len(),
            Vm::Js(vm) => vm.image().program.text.len(),
            Vm::Wasm(vm) => vm.image().program.text.len(),
        }) as u64
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// Traps, runtime errors and an exhausted step budget.
    pub fn run(&mut self, max_steps: u64) -> Result<RunStats, String> {
        let output = match self {
            Vm::Lua(vm) => vm
                .run(max_steps)
                .map(|r| r.output)
                .map_err(|e| e.to_string()),
            Vm::Js(vm) => vm
                .run(max_steps)
                .map(|r| r.output)
                .map_err(|e| e.to_string()),
            Vm::Wasm(vm) => vm
                .run(max_steps)
                .map(|r| r.output)
                .map_err(|e| e.to_string()),
        }?;
        Ok(RunStats::of(self.cpu(), output))
    }

    /// Runs one slice of up to `steps` simulated instructions; returns
    /// whether the guest halted.
    ///
    /// # Errors
    ///
    /// Traps and runtime errors.
    pub fn run_slice(&mut self, steps: u64) -> Result<bool, String> {
        match self {
            Vm::Lua(vm) => vm
                .run_slice(steps)
                .map(|_| vm.is_halted())
                .map_err(|e| e.to_string()),
            Vm::Js(vm) => vm
                .run_slice(steps)
                .map(|_| vm.is_halted())
                .map_err(|e| e.to_string()),
            Vm::Wasm(vm) => vm
                .run_slice(steps)
                .map(|_| vm.is_halted())
                .map_err(|e| e.to_string()),
        }
    }

    /// The statistics of everything run so far.
    pub fn stats(&self) -> RunStats {
        let output = match self {
            Vm::Lua(vm) => vm.report_now().output,
            Vm::Js(vm) => vm.report_now().output,
            Vm::Wasm(vm) => vm.report_now().output,
        };
        RunStats::of(self.cpu(), output)
    }

    /// Runs to completion in slices of [`SLICE_STEPS`], each bracketed by
    /// ticks of `clock`, and returns the results with the run's host
    /// nanoseconds corrected to nominal host speed.
    ///
    /// # Errors
    ///
    /// Traps, runtime errors and an exhausted step budget.
    pub fn run_ticked(&mut self, clock: &mut RefClock) -> Result<(RunStats, u64), String> {
        let mut corrected_ns = 0;
        for _ in 0..STEP_BUDGET / SLICE_STEPS {
            let start = Instant::now();
            let halted = self.run_slice(SLICE_STEPS)?;
            corrected_ns += scale(start.elapsed().as_nanos() as u64, clock.factor());
            if halted {
                return Ok((self.stats(), corrected_ns));
            }
        }
        Err(format!(
            "program did not halt within {STEP_BUDGET} simulated instructions"
        ))
    }
}

/// Builds and runs one job, timing both halves. With spans on, the job
/// span `bench.job` encloses the layer spans and the run is the span
/// `tarch-core.run`. With a `clock`, the build is corrected to nominal
/// host speed and the run goes in ticked slices, each corrected.
///
/// # Errors
///
/// Any build or run failure.
pub fn run_job(
    engine: EngineKind,
    source: &str,
    level: IsaLevel,
    core: &CoreConfig,
    sp: &mut Spans,
    job: u64,
    clock: Option<&mut RefClock>,
) -> Result<Job, String> {
    let t0 = sp.now_ns();
    let mut vm = build(engine, source, level, core, sp, job)?;
    let t1 = sp.now_ns();
    let (build_ns, stats, run_ns) = match clock {
        Some(clock) => {
            let build_ns = scale(t1 - t0, clock.factor());
            let (stats, run_ns) = vm.run_ticked(clock)?;
            (build_ns, stats, run_ns)
        }
        None => {
            let stats = sp.time(job, "tarch-core.run", || vm.run(STEP_BUDGET))?;
            (t1 - t0, stats, sp.now_ns() - t1)
        }
    };
    sp.push(JOB, job, t0, sp.now_ns());
    Ok(Job {
        build_ns,
        run_ns,
        text_words: vm.text_words(),
        stats,
    })
}
