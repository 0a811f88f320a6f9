//! Native host services (`ecall`) and their cost model.
//!
//! The scripting engines keep their hot interpreter paths — dispatch, type
//! guards, arithmetic, table indexing — in simulated TRV64 assembly, but
//! runtime services that the paper also leaves in software (string
//! interning and hashing, hash-table probes, allocation growth, `printf`
//! and I/O) execute *functionally* in Rust against simulated memory and
//! charge a calibrated instruction/cycle cost.
//!
//! Costs are **identical across ISA levels**, which reproduces the paper's
//! Amdahl's-law dilution for CALL-heavy benchmarks (Section 7.1: mandelbrot,
//! pidigits, k-nucleotide are limited by native library time).
//!
//! The cost model is affine: `instructions = base + per_unit × units`,
//! `cycles = ⌈instructions × 1.3⌉` (a typical interpreter-era CPI for this
//! class of core).

use tarch_core::{Cpu, Trap};
use std::error::Error;
use std::fmt;

/// Cycles charged per charged instruction, in tenths (13 = CPI 1.3).
pub const HELPER_CPI_TENTHS: u64 = 13;

/// An instruction/cycle cost charged to the simulated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Instructions to charge.
    pub instructions: u64,
    /// Cycles to charge.
    pub cycles: u64,
}

impl Cost {
    /// An affine cost: `base + per_unit × units` instructions at the
    /// standard helper CPI.
    ///
    /// # Examples
    ///
    /// ```
    /// use tarch_sim::Cost;
    /// let c = Cost::affine(40, 6, 10); // e.g. hash 10 bytes
    /// assert_eq!(c.instructions, 100);
    /// assert_eq!(c.cycles, 130);
    /// ```
    pub fn affine(base: u64, per_unit: u64, units: u64) -> Cost {
        let instructions = base + per_unit * units;
        Cost { instructions, cycles: instructions * HELPER_CPI_TENTHS / 10 }
    }

    /// A fixed cost of `instructions` at the standard helper CPI.
    pub fn fixed(instructions: u64) -> Cost {
        Cost::affine(instructions, 0, 0)
    }

    /// Component-wise sum.
    pub fn plus(self, other: Cost) -> Cost {
        Cost {
            instructions: self.instructions + other.instructions,
            cycles: self.cycles + other.cycles,
        }
    }

    /// Charges this cost to a core.
    pub fn charge(self, cpu: &mut Cpu) {
        cpu.charge(self.instructions, self.cycles);
    }
}

/// Error raised by a native host while servicing an `ecall`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostError {
    /// The helper id that failed (value of `a7`).
    pub helper: u64,
    /// Description of the failure.
    pub message: String,
}

impl HostError {
    /// Creates a host error.
    pub fn new(helper: u64, message: impl Into<String>) -> HostError {
        HostError { helper, message: message.into() }
    }
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "native helper {} failed: {}", self.helper, self.message)
    }
}

impl Error for HostError {}

impl From<Trap> for HostError {
    fn from(t: Trap) -> HostError {
        HostError::new(u64::MAX, t.to_string())
    }
}

/// The guest addresses of a builtin's `nargs` argument slots of `size`
/// bytes each, starting at `base`. Both come from guest registers: the
/// count is bounded by the value stack the arguments live on
/// ([`layout::map`](crate::layout::map)), and no slot may run past the
/// top of the address space.
///
/// # Errors
///
/// A [`HostError`] for `helper` when the slots would not fit on the
/// value stack or would wrap around the address space.
pub fn arg_slots(
    helper: u64,
    base: u64,
    nargs: u64,
    size: u64,
) -> Result<impl Iterator<Item = u64>, HostError> {
    use crate::layout::map::{STACK_BASE, STACK_LIMIT};
    if nargs > (STACK_LIMIT - STACK_BASE) / size {
        return Err(HostError::new(
            helper,
            format!("{nargs} arguments do not fit on the value stack"),
        ));
    }
    if base.checked_add(nargs * size).is_none() {
        return Err(HostError::new(
            helper,
            format!("{nargs} arguments at {base:#x} run past the address space"),
        ));
    }
    Ok((0..nargs).map(move |i| base + i * size))
}

/// Error codes an interpreter passes in `a0` to its engine's fatal-error
/// helper; every engine uses the same codes.
pub mod errcode {
    /// CallInfo or value stack overflow.
    pub const STACK_OVERFLOW: u64 = 1;
    /// Division or modulo by integer zero.
    pub const DIV_BY_ZERO: u64 = 2;
}

impl HostError {
    /// The error an interpreter raises through its fatal-error helper
    /// `helper` with [`errcode`] `code`.
    pub fn runtime(helper: u64, code: u64) -> HostError {
        let msg = match code {
            errcode::STACK_OVERFLOW => "stack overflow",
            errcode::DIV_BY_ZERO => "integer division by zero",
            _ => "runtime error",
        };
        HostError::new(helper, msg)
    }
}

/// Services `ecall` instructions for a running machine.
///
/// By convention the helper id is passed in `a7` and arguments in
/// `a0`–`a6`; results are written back to argument registers or simulated
/// memory, and the helper charges its [`Cost`] via [`Cpu::charge`].
pub trait NativeHost {
    /// Services one `ecall`. The pc has already advanced past the `ecall`.
    ///
    /// # Errors
    ///
    /// Returns [`HostError`] for unknown helper ids or invalid arguments —
    /// this aborts the simulation, like a fatal runtime error would.
    fn ecall(&mut self, cpu: &mut Cpu) -> Result<(), HostError>;
}

/// A host that rejects every `ecall`; suitable for pure-assembly programs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoHost;

impl NativeHost for NoHost {
    fn ecall(&mut self, cpu: &mut Cpu) -> Result<(), HostError> {
        let id = cpu.regs().read(tarch_isa::Reg::A7).v;
        Err(HostError::new(id, "program made an ecall but no host is attached"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_cost_math() {
        let c = Cost::affine(100, 25, 4);
        assert_eq!(c.instructions, 200);
        assert_eq!(c.cycles, 260);
        assert_eq!(Cost::fixed(10).plus(c).instructions, 210);
    }

    #[test]
    fn zero_cost_is_free() {
        let c = Cost::affine(0, 5, 0);
        assert_eq!(c, Cost::default());
    }
}
