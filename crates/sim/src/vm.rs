//! The guest-VM driver shared by every scripting engine.
//!
//! An engine is a compiler from MiniScript to its bytecode, a code
//! generator that turns a compiled module into an interpreter [`Image`],
//! and a native host. [`Vm`] does everything else once: it loads the
//! image, runs it (whole, in preemptible slices, or with per-opcode
//! attribution) and reports what the guest printed and what the core
//! counted.

use crate::machine::{Machine, RunOutcome, SimError};
use crate::native::NativeHost;
use miniscript::{Chunk, ParseError};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;
use tarch_core::{BranchStats, CodeCache, CoreConfig, Cpu, IsaLevel, PerfCounters};
use tarch_isa::asm::{AsmError, Program};

/// A scripting engine that [`Vm`] can drive.
///
/// Implemented by the marker types `luart::Lua`, `jsrt::Js` and
/// `wasmrt::Wasm`. The trait is sealed in spirit: its items live in
/// `private::EngineImpl`, which is public only so that the engine crates
/// can implement it.
pub trait Engine: private::EngineImpl {}

impl<E: private::EngineImpl> Engine for E {}

#[doc(hidden)]
pub mod private {
    use super::*;

    /// What an engine supplies to [`Vm`](super::Vm).
    pub trait EngineImpl: fmt::Debug + Clone + 'static {
        /// Bytecode opcode, the key of an [`OpProfile`].
        type Op: Copy + Eq + Hash + fmt::Debug + Send + Sync + 'static;
        /// A compiled module.
        type Module;
        /// The native host servicing the interpreter's `ecall`s.
        type Host: NativeHost + Clone + fmt::Debug + Send;
        /// Compilation error.
        type CompileError: Error + Send + Sync + 'static;

        /// Compiles a parsed chunk.
        fn compile(chunk: &Chunk) -> Result<Self::Module, Self::CompileError>;

        /// Generates the interpreter image for a module at an ISA level.
        fn build_image(module: &Self::Module, level: IsaLevel)
            -> Result<Image<Self::Op>, AsmError>;

        /// A host pre-loaded with the image's interned strings.
        fn host(strings: Vec<String>) -> Self::Host;

        /// Everything the guest has printed.
        fn output(host: &Self::Host) -> &str;
    }
}

/// A built engine image: the assembled interpreter plus the metadata the
/// runtime and the experiment harness need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image<Op> {
    /// The assembled program.
    pub program: Program,
    /// Handler entry pcs, one per opcode, sorted by address.
    pub handler_entries: Vec<(Op, u64)>,
    /// Entry pc of the dispatch loop.
    pub dispatch_pc: u64,
    /// Interned strings; index is the string id used in value payloads.
    pub strings: Vec<String>,
    /// The ISA level the image was generated for.
    pub level: IsaLevel,
    /// Decoded blocks and compiled closures shared by every VM whose
    /// image links the same interpreter text; [`Vm::new`] attaches it to
    /// the core.
    pub code_cache: Arc<CodeCache>,
}

/// Error from building or running an engine.
#[derive(Debug)]
pub enum EngineError {
    /// MiniScript parse error.
    Parse(ParseError),
    /// Bytecode compilation error (for `wasmrt`, including type inference).
    Compile(Box<dyn Error + Send + Sync>),
    /// Interpreter assembly error (codegen bug).
    Asm(AsmError),
    /// Simulation error (trap or runtime error).
    Sim(SimError),
    /// The step budget ran out before the program halted.
    StepLimit {
        /// The budget that was exhausted.
        max_steps: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Compile(e) => write!(f, "{e}"),
            EngineError::Asm(e) => write!(f, "{e}"),
            EngineError::Sim(e) => write!(f, "{e}"),
            EngineError::StepLimit { max_steps } => {
                write!(f, "program did not halt within {max_steps} simulated instructions")
            }
        }
    }
}

impl Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> EngineError {
        EngineError::Parse(e)
    }
}

impl From<AsmError> for EngineError {
    fn from(e: AsmError) -> EngineError {
        EngineError::Asm(e)
    }
}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> EngineError {
        EngineError::Sim(e)
    }
}

/// Per-opcode attribution from an instrumented run.
#[derive(Debug, Clone)]
pub struct OpProfile<Op> {
    /// Dynamic bytecode count per opcode.
    pub dynamic: HashMap<Op, u64>,
    /// Native instructions attributed to each opcode's handler (including
    /// the following dispatch sequence).
    pub instructions: HashMap<Op, u64>,
}

impl<Op: Eq + Hash> OpProfile<Op> {
    /// Total dynamic bytecodes.
    pub fn total_bytecodes(&self) -> u64 {
        self.dynamic.values().sum()
    }

    /// Average native instructions per dynamic instance of `op`.
    pub fn instr_per_bytecode(&self, op: Op) -> f64 {
        let d = self.dynamic.get(&op).copied().unwrap_or(0);
        if d == 0 {
            0.0
        } else {
            self.instructions.get(&op).copied().unwrap_or(0) as f64 / d as f64
        }
    }
}

/// Results of one engine run.
#[derive(Debug, Clone)]
pub struct RunReport<Op> {
    /// Everything the program printed.
    pub output: String,
    /// Hardware performance counters.
    pub counters: PerfCounters,
    /// Branch predictor statistics.
    pub branch: BranchStats,
    /// The ISA level that ran.
    pub level: IsaLevel,
    /// Per-opcode attribution (only from [`Vm::run_profiled`]).
    pub profile: Option<OpProfile<Op>>,
}

impl<Op> RunReport<Op> {
    /// Control-flow mispredictions per kilo-instruction (Figure 7 metric).
    pub fn branch_mpki(&self) -> f64 {
        self.counters.per_kilo_instr(self.branch.total_misses())
    }

    /// The same report with every profiled opcode renamed by `f`; erases
    /// the engine's opcode type for callers that drive several engines.
    pub fn map_ops<K: Eq + Hash>(self, f: impl Fn(Op) -> K) -> RunReport<K> {
        let rekey = |m: HashMap<Op, u64>| m.into_iter().map(|(op, n)| (f(op), n)).collect();
        RunReport {
            output: self.output,
            counters: self.counters,
            branch: self.branch,
            level: self.level,
            profile: self.profile.map(|p| OpProfile {
                dynamic: rekey(p.dynamic),
                instructions: rekey(p.instructions),
            }),
        }
    }
}

/// A ready-to-run engine instance: a simulated machine with the engine's
/// image loaded and its host attached.
#[derive(Debug, Clone)]
pub struct Vm<E: Engine> {
    machine: Machine<E::Host>,
    // Immutable after construction and shared by reference count, so
    // cloning a VM (fleet tenants) never deep-copies the program image.
    image: Arc<Image<E::Op>>,
}

impl<E: Engine> Vm<E> {
    /// Builds an engine for a compiled module.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if code generation fails.
    pub fn new(
        module: &E::Module,
        level: IsaLevel,
        core: CoreConfig,
    ) -> Result<Vm<E>, EngineError> {
        let image = Arc::new(E::build_image(module, level)?);
        let mut machine = Machine::new(core, E::host(image.strings.clone()));
        machine.load(&image.program);
        machine.cpu_mut().attach_code_cache(&image.code_cache);
        Ok(Vm { machine, image })
    }

    /// Parses, compiles and builds an engine in one step.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] on parse/compile/codegen failures.
    pub fn from_source(src: &str, level: IsaLevel, core: CoreConfig) -> Result<Vm<E>, EngineError> {
        let chunk = miniscript::parse(src)?;
        let module = E::compile(&chunk).map_err(|e| EngineError::Compile(Box::new(e)))?;
        Vm::new(&module, level, core)
    }

    /// The generated image (program + metadata).
    pub fn image(&self) -> &Image<E::Op> {
        &self.image
    }

    /// The simulated core (read access for measurement tooling).
    pub fn cpu(&self) -> &Cpu {
        self.machine.cpu()
    }

    /// The simulated core, mutably: measurement tooling (e.g. enabling
    /// the opcode-pair profile) and freezing memory for copy-on-write
    /// clones.
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        self.machine.cpu_mut()
    }

    /// Runs one scheduling slice of up to `max_steps` simulated
    /// instructions, servicing `ecall`s. Unlike [`Vm::run`], exhausting
    /// the slice is not an error — the VM can be resumed with another
    /// call — so this is the entry point for preemptive schedulers.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] on traps and runtime errors.
    pub fn run_slice(&mut self, max_steps: u64) -> Result<RunOutcome, EngineError> {
        Ok(self.machine.run(max_steps)?)
    }

    /// Whether the guest program has executed `halt`.
    pub fn is_halted(&self) -> bool {
        self.machine.cpu().is_halted()
    }

    /// Report of everything observable so far, without running: output,
    /// counters, branch statistics. For slice-based callers
    /// ([`Vm::run_slice`]) that finish a guest across several slices.
    pub fn report_now(&self) -> RunReport<E::Op> {
        self.report(None)
    }

    /// Runs to completion (up to `max_steps` simulated instructions).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] on traps, runtime errors, or step-limit
    /// exhaustion.
    pub fn run(&mut self, max_steps: u64) -> Result<RunReport<E::Op>, EngineError> {
        let outcome = self.machine.run(max_steps)?;
        self.finish(outcome, max_steps, None)
    }

    /// Runs with per-opcode attribution: dynamic bytecode counts and native
    /// instructions per handler (regenerates Figures 2(a) and 2(b)).
    ///
    /// # Errors
    ///
    /// Same as [`Vm::run`].
    pub fn run_profiled(&mut self, max_steps: u64) -> Result<RunReport<E::Op>, EngineError> {
        let entries: HashMap<u64, E::Op> =
            self.image.handler_entries.iter().map(|(op, pc)| (*pc, *op)).collect();
        let mut profile = OpProfile { dynamic: HashMap::new(), instructions: HashMap::new() };
        let mut current: Option<E::Op> = None;
        let mut since_entry = 0u64;
        let outcome = self.machine.run_observed(max_steps, |pc| {
            if let Some(op) = entries.get(&pc) {
                if let Some(prev) = current {
                    *profile.instructions.entry(prev).or_insert(0) += since_entry;
                }
                *profile.dynamic.entry(*op).or_insert(0) += 1;
                current = Some(*op);
                since_entry = 0;
            }
            since_entry += 1;
        })?;
        if let Some(prev) = current {
            *profile.instructions.entry(prev).or_insert(0) += since_entry;
        }
        self.finish(outcome, max_steps, Some(profile))
    }

    fn finish(
        &self,
        outcome: RunOutcome,
        max_steps: u64,
        profile: Option<OpProfile<E::Op>>,
    ) -> Result<RunReport<E::Op>, EngineError> {
        match outcome {
            RunOutcome::Halted => Ok(self.report(profile)),
            RunOutcome::StepLimit => Err(EngineError::StepLimit { max_steps }),
        }
    }

    fn report(&self, profile: Option<OpProfile<E::Op>>) -> RunReport<E::Op> {
        RunReport {
            output: E::output(self.machine.host()).to_string(),
            counters: *self.machine.cpu().counters(),
            branch: self.machine.cpu().branch_stats(),
            level: self.image.level,
            profile,
        }
    }
}
