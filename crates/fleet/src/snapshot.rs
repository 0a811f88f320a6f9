//! Frozen VM templates: build once, freeze, stamp out clones.
//!
//! The fork-server idiom. Constructing a guest VM — parsing MiniScript,
//! compiling to bytecode, generating the typed interpreter image,
//! loading it into simulated memory — costs a large fraction of a
//! small-scale simulation. A [`Template`] pays that cost once, freezes
//! the simulated memory into a shared copy-on-write base image
//! (`tarch_core::Cpu::freeze_memory`), and then [`Template::spawn`]s
//! tenants as plain `clone()`s: every clone shares the frozen pages and
//! the warm predecode/block state, copying only what it writes.
//! [`measure_costs`] quantifies the gap on the live host.
//!
//! Tier-3 compiled blocks ride along for free: the block table holds
//! them as `Arc`s, so a clone of a tiered core starts with its
//! template's compiled cache warm — no tenant recompiles what the
//! template (or the parent, for a mid-run fork) already tiered up. The
//! generation checks inside each compiled closure keep the shared code
//! safe: a tenant that patches its own (copy-on-write) text deopts only
//! itself; siblings keep executing the shared closures against their
//! own unmodified pages.

use jsrt::JsVm;
use luart::LuaVm;
use std::time::Instant;
use tarch_core::{CoreConfig, Cpu, IsaLevel};
use tarch_isa::asm::Program;
use tarch_runner::EngineKind;
use tarch_sim::{EngineError, RunOutcome, RunReport};
use wasmrt::WasmVm;

/// One guest VM of any engine, engine-erased for the scheduler, the
/// experiment harness and the measurement tooling. Built by
/// [`build_guest`]; every method forwards to the engine's
/// [`tarch_sim::Vm`].
#[derive(Debug, Clone)]
pub enum Guest {
    /// A `luart` engine instance.
    Lua(Box<LuaVm>),
    /// A `jsrt` engine instance.
    Js(Box<JsVm>),
    /// A `wasmrt` engine instance.
    Wasm(Box<WasmVm>),
}

/// A run report whose profile names each opcode by its mnemonic.
pub type GuestReport = RunReport<&'static str>;

/// Evaluates `$body` with `$vm` bound to the guest's engine VM.
macro_rules! with_vm {
    ($guest:expr, $vm:ident => $body:expr) => {
        match $guest {
            Guest::Lua($vm) => $body,
            Guest::Js($vm) => $body,
            Guest::Wasm($vm) => $body,
        }
    };
}

impl Guest {
    /// Runs to completion (up to `max_steps` simulated instructions).
    ///
    /// # Errors
    ///
    /// [`EngineError`] on traps, runtime errors, or step-limit exhaustion.
    pub fn run(&mut self, max_steps: u64) -> Result<GuestReport, EngineError> {
        with_vm!(self, vm => vm.run(max_steps).map(|r| r.map_ops(|op| op.name())))
    }

    /// Runs to completion with per-opcode attribution.
    ///
    /// # Errors
    ///
    /// Same as [`Guest::run`].
    pub fn run_profiled(&mut self, max_steps: u64) -> Result<GuestReport, EngineError> {
        with_vm!(self, vm => vm.run_profiled(max_steps).map(|r| r.map_ops(|op| op.name())))
    }

    /// Runs one scheduling slice of up to `max_steps` simulated
    /// instructions; exhausting the slice leaves the guest resumable.
    ///
    /// # Errors
    ///
    /// The engine's error rendering on traps or runtime errors.
    pub fn run_slice(&mut self, max_steps: u64) -> Result<RunOutcome, String> {
        with_vm!(self, vm => vm.run_slice(max_steps)).map_err(|e| e.to_string())
    }

    /// Whether the guest program has halted.
    pub fn is_halted(&self) -> bool {
        with_vm!(self, vm => vm.is_halted())
    }

    /// Everything the guest has printed so far.
    pub fn output(&self) -> String {
        with_vm!(self, vm => vm.report_now().output)
    }

    /// The simulated core.
    pub fn cpu(&self) -> &Cpu {
        with_vm!(self, vm => vm.cpu())
    }

    /// The simulated core, mutably.
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        with_vm!(self, vm => vm.cpu_mut())
    }

    /// The guest's assembled interpreter image.
    pub fn program(&self) -> &Program {
        with_vm!(self, vm => &vm.image().program)
    }
}

/// Builds a ready-to-run guest of `engine` from MiniScript source,
/// without freezing (the full-construction path a [`Template`]
/// amortizes away).
///
/// # Errors
///
/// [`EngineError`] on parse, compile or codegen failure.
pub fn build_guest(
    engine: EngineKind,
    source: &str,
    level: IsaLevel,
    core: CoreConfig,
) -> Result<Guest, EngineError> {
    Ok(match engine {
        EngineKind::Lua => Guest::Lua(Box::new(LuaVm::from_source(source, level, core)?)),
        EngineKind::Js => Guest::Js(Box::new(JsVm::from_source(source, level, core)?)),
        EngineKind::Wasm => Guest::Wasm(Box::new(WasmVm::from_source(source, level, core)?)),
    })
}

/// A fully constructed, frozen guest image that tenants are cloned from.
#[derive(Debug, Clone)]
pub struct Template {
    guest: Guest,
}

impl Template {
    /// Builds the guest and freezes its memory into the shared base.
    ///
    /// # Errors
    ///
    /// The rendering of [`build_guest`]'s error.
    pub fn build(
        engine: EngineKind,
        source: &str,
        level: IsaLevel,
        core: CoreConfig,
    ) -> Result<Template, String> {
        let mut guest = build_guest(engine, source, level, core).map_err(|e| e.to_string())?;
        guest.cpu_mut().freeze_memory();
        Ok(Template { guest })
    }

    /// Stamps out one tenant: a clone sharing the frozen pages
    /// copy-on-write, with its tracer (if any) relabelled so exported
    /// events stay attributable to this tenant.
    pub fn spawn(&self, tenant: u32) -> Guest {
        let mut guest = self.guest.clone();
        if let Some(t) = guest.cpu_mut().tracer_mut() {
            t.set_tenant(tenant);
        }
        guest
    }

    /// The frozen prototype (read access, e.g. for equivalence tests).
    pub fn guest(&self) -> &Guest {
        &self.guest
    }
}

/// Measured per-VM cost of full construction vs. cloning, in host
/// wall-nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct CloneCosts {
    /// Average nanoseconds to construct one guest from source.
    pub construct_nanos: u64,
    /// Average nanoseconds to clone one tenant from a frozen template.
    pub clone_nanos: u64,
}

impl CloneCosts {
    /// How many times cheaper a clone was; infinite when clones measured
    /// below the timer's resolution.
    pub fn speedup(&self) -> f64 {
        if self.clone_nanos == 0 {
            f64::INFINITY
        } else {
            self.construct_nanos as f64 / self.clone_nanos as f64
        }
    }
}

/// Times `iters` full constructions against `iters` clones of one
/// frozen template (the clones are built but never run).
///
/// # Errors
///
/// Propagates construction failures.
pub fn measure_costs(
    engine: EngineKind,
    source: &str,
    level: IsaLevel,
    core: CoreConfig,
    iters: u32,
) -> Result<CloneCosts, String> {
    let iters = iters.max(1);
    let t0 = Instant::now();
    for _ in 0..iters {
        // Keep the whole pipeline observable so the optimizer cannot
        // elide construction work.
        let guest = build_guest(engine, source, level, core.clone()).map_err(|e| e.to_string())?;
        std::hint::black_box(&guest);
    }
    let construct_nanos = (t0.elapsed().as_nanos() / u128::from(iters)) as u64;

    let template = Template::build(engine, source, level, core)?;
    let t1 = Instant::now();
    for tenant in 0..iters {
        let guest = template.spawn(tenant);
        std::hint::black_box(&guest);
    }
    let clone_nanos = (t1.elapsed().as_nanos() / u128::from(iters)) as u64;
    Ok(CloneCosts { construct_nanos, clone_nanos })
}
