//! # tarch-sim — machine integration
//!
//! Glue between the Typed Architecture core (`tarch-core`) and the software
//! that runs on it:
//!
//! * [`Machine`] — a core plus a [`NativeHost`] servicing `ecall`s, with
//!   run loops (plain, step-budgeted, and observed for per-handler
//!   attribution);
//! * [`NativeHost`] / [`Cost`] — the native helper interface and its
//!   documented affine cost model (see [`native`] module docs for why
//!   helper costs are identical across ISA levels);
//! * [`SimError`] — unified trap/host error reporting;
//! * [`Vm`] — the one guest-VM driver behind every scripting engine. An
//!   [`Engine`] (`luart`, `jsrt`, `wasmrt`) supplies only its compiler,
//!   its [`Image`] generator and its host; `Vm` loads, runs, slices,
//!   profiles and reports for all of them, with one [`EngineError`] and
//!   one [`RunReport`];
//! * [`heap::Heap`] — the guest heap the three engines' native hosts
//!   share: string [`heap::Interner`], bump allocator, printed output, and
//!   tables with an array part in simulated memory (generic over each
//!   engine's [`heap::SlotCodec`]) and a host-side hash part, laid out
//!   per the shared guest memory [`layout`].
//!
//! Each engine's host implements [`NativeHost`] for its runtime services
//! — builtins, slow arithmetic and comparison paths, value codecs — over
//! a [`heap::Heap`].

pub mod heap;
pub mod layout;
mod machine;
pub mod native;
mod vm;

pub use machine::{Machine, RunOutcome, SimError};
pub use native::{arg_slots, Cost, HostError, NativeHost, NoHost, HELPER_CPI_TENTHS};
#[doc(hidden)]
pub use vm::private;
pub use vm::{Engine, EngineError, Image, OpProfile, RunReport, Vm};
