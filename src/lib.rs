//! # typed-arch — facade crate
//!
//! One-stop re-exports for the Typed Architectures reproduction (ASPLOS
//! 2017). See the README for the architecture overview and DESIGN.md for
//! the system inventory; the individual crates carry the detailed docs:
//!
//! * [`isa`] — the TRV64 instruction set and assemblers;
//! * [`mem`] — caches, TLBs, DRAM timing, physical memory;
//! * [`core`] — the Typed Architecture processor model (the paper's
//!   contribution);
//! * [`sim`] — machine integration, the native-helper interface and the
//!   guest-VM driver every engine runs under;
//! * [`script`] — the MiniScript frontend and reference interpreter;
//! * [`lua`] — the register-based Lua-like engine;
//! * [`js`] — the stack-based NaN-boxing engine;
//! * [`energy`] — the area/power/EDP model;
//! * [`runner`] — the parallel experiment runner (worker pool, result
//!   cache, `BENCH_*.json` artifacts);
//! * [`mod@bench`] — workloads and the experiment harness.
//!
//! # Examples
//!
//! ```
//! use typed_arch::core::{CoreConfig, IsaLevel};
//! use typed_arch::lua::LuaVm;
//!
//! let mut vm = LuaVm::from_source("print(6 * 7)", IsaLevel::Typed, CoreConfig::paper())?;
//! assert_eq!(vm.run(10_000_000)?.output, "42\n");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

/// The TRV64 instruction set (`tarch-isa`).
pub use tarch_isa as isa;

/// Memory-hierarchy models (`tarch-mem`).
pub use tarch_mem as mem;

/// The Typed Architecture core (`tarch-core`).
pub use tarch_core as core;

/// Machine integration (`tarch-sim`).
pub use tarch_sim as sim;

/// The MiniScript frontend (`miniscript`).
pub use miniscript as script;

/// The register-based Lua-like engine (`luart`).
pub use luart as lua;

/// The stack-based NaN-boxing engine (`jsrt`).
pub use jsrt as js;

/// The area/power/EDP model (`tarch-energy`).
pub use tarch_energy as energy;

/// The parallel experiment runner (`tarch-runner`).
pub use tarch_runner as runner;

/// Workloads and the experiment harness (`tarch-bench`).
pub use tarch_bench as bench;
