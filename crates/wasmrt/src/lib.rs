//! # wasmrt — the WASM-subset, statically typed, untagged-stack engine
//!
//! The third engine in the evaluation, and the control group for the other
//! two: where `luart` (tagged registers) and `jsrt` (NaN-boxed stack) carry
//! type tags on every value at run time, `wasmrt` resolves every type at
//! compile time and carries **none**. It answers the question the paper's
//! hardware raises — *how much of the Typed Architecture win survives if the
//! guest language is statically typed to begin with?*
//!
//! The pipeline:
//!
//! * a **fixpoint type-inference pass** over MiniScript assigns every local,
//!   global, table and function boundary a concrete type (`i64`, `f64`,
//!   string id, table handle) or rejects the program;
//! * the typed program compiles to a **WASM-subset bytecode**: a typed
//!   operand stack, separate `i64.*`/`f64.*` arithmetic with explicit
//!   `f64.convert_i64_s` conversions, structured control flow lowered to
//!   verified branches, direct calls, and untagged 8-byte stack slots;
//! * a [`validate`] pass abstractly interprets every function the way a WASM
//!   engine validates a module — stack depth and slot types are checked
//!   statically, so the interpreter needs no dynamic checks;
//! * the generated interpreter is **identical at every ISA level**: with no
//!   tags to load, check, or predict, there is nothing for `tld`/`tchk`/the
//!   TRT to do, and the Base/Predecode/Typed images are byte-for-byte the
//!   same ([`build_image`] asserts this in its tests).
//!
//! Consequently `type_checks`, `type_hits`, `tagged_mem` and `typed_alu`
//! read **zero** on every `wasmrt` run — the quantitative statement that the paper's
//! hardware accelerates exactly the tag traffic a static type system
//! removes at compile time.
//!
//! # Examples
//!
//! ```
//! use tarch_core::{CoreConfig, IsaLevel};
//! use wasmrt::WasmVm;
//!
//! let src = "
//!     local s = 0
//!     for i = 1, 100 do s = s + i end
//!     print(s)
//! ";
//! // Same guest program, with and without the typed hardware...
//! let mut base = WasmVm::from_source(src, IsaLevel::Baseline, CoreConfig::paper())?;
//! let mut typed = WasmVm::from_source(src, IsaLevel::Typed, CoreConfig::paper())?;
//! let rb = base.run(10_000_000)?;
//! let rt = typed.run(10_000_000)?;
//! assert_eq!(rb.output, "5050\n");
//! assert_eq!(rt.output, "5050\n");
//! // ...runs in exactly the same number of cycles: statically typed code
//! // leaves the type hardware with nothing to accelerate.
//! assert_eq!(rb.counters.cycles, rt.counters.cycles);
//! assert_eq!(rt.counters.type_checks, 0);
//! assert_eq!(rt.counters.tagged_mem, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bytecode;
mod codegen;
mod compiler;
pub mod helpers_mod;
pub mod layout;
mod runtime;

pub use bytecode::{validate, Bc, Builtin, Const, Module, Op, Proto, TyCode, ValidateError};
pub use codegen::build_image;
pub use compiler::{compile, CompileError};
pub use tarch_sim::EngineError;

/// The `wasmrt` engine, as driven by [`tarch_sim::Vm`].
#[derive(Debug, Clone, Copy)]
pub struct Wasm;

impl tarch_sim::private::EngineImpl for Wasm {
    type Op = Op;
    type Module = Module;
    type Host = WasmHost;
    type CompileError = CompileError;

    fn compile(chunk: &miniscript::Chunk) -> Result<Module, CompileError> {
        compile(chunk)
    }

    fn build_image(
        module: &Module,
        level: tarch_core::IsaLevel,
    ) -> Result<WasmImage, tarch_isa::asm::AsmError> {
        build_image(module, level)
    }

    fn host(strings: Vec<String>) -> WasmHost {
        WasmHost::new(strings)
    }

    fn output(host: &WasmHost) -> &str {
        host.output()
    }
}

/// A ready-to-run `wasmrt` engine instance.
///
/// # Examples
///
/// ```
/// use tarch_core::{CoreConfig, IsaLevel};
/// use wasmrt::WasmVm;
///
/// let mut vm = WasmVm::from_source("print(40 + 2)", IsaLevel::Typed, CoreConfig::paper())?;
/// let report = vm.run(10_000_000)?;
/// assert_eq!(report.output, "42\n");
/// // Statically typed guest: the typed hardware had nothing to do.
/// assert_eq!(report.counters.type_checks, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type WasmVm = tarch_sim::Vm<Wasm>;
/// A built `wasmrt` image.
pub type WasmImage = tarch_sim::Image<Op>;
/// Results of one `wasmrt` run. `type_checks`, `type_hits`, `tagged_mem`
/// and `typed_alu` read zero by construction: the image contains no
/// typed-hardware instructions.
pub type RunReport = tarch_sim::RunReport<Op>;
/// Per-opcode attribution of one `wasmrt` run.
pub type OpProfile = tarch_sim::OpProfile<Op>;
pub use runtime::WasmHost;
