//! The guest memory layout every engine shares.
//!
//! The three engines place their interpreter, static data, stacks and
//! heap at the same addresses and give tables the same 32-byte header;
//! they differ only in what a value slot holds. Each engine's `layout`
//! module re-exports these.

/// Memory map of an engine inside the simulated machine.
pub mod map {
    /// Interpreter text.
    pub const TEXT_BASE: u64 = 0x0001_0000;
    /// Static data: dispatch table, function table, bytecode, constants.
    pub const DATA_BASE: u64 = 0x0040_0000;
    /// VM value stack.
    pub const STACK_BASE: u64 = 0x0100_0000;
    /// Value-stack overflow limit.
    pub const STACK_LIMIT: u64 = 0x017f_0000;
    /// CallInfo stack.
    pub const CI_BASE: u64 = 0x0180_0000;
    /// CallInfo overflow limit.
    pub const CI_LIMIT: u64 = 0x01a0_0000;
    /// Bump-allocated heap (GC is off, as in the paper's runs).
    pub const HEAP_BASE: u64 = 0x0200_0000;
    /// Heap exhaustion limit.
    pub const HEAP_LIMIT: u64 = 0x0800_0000;
}

/// Table header field offsets (32-byte header in the simulated heap),
/// read and written by the generated interpreters' fast paths and by
/// [`Heap`](crate::heap::Heap).
pub mod header {
    /// Address of the dense array part.
    pub const PTR: i32 = 0;
    /// Array part capacity, in elements.
    pub const CAP: i32 = 8;
    /// Array part length (`#t` border), in elements.
    pub const LEN: i32 = 16;
    /// Host-side hash-part id.
    pub const HASH_ID: i32 = 24;
    /// Header size in bytes.
    pub const SIZE: u64 = 32;
}

#[cfg(test)]
mod tests {
    use super::map::*;

    #[test]
    fn memory_regions_do_not_overlap() {
        let regions = [
            (TEXT_BASE, DATA_BASE),
            (DATA_BASE, STACK_BASE),
            (STACK_BASE, STACK_LIMIT),
            (CI_BASE, CI_LIMIT),
            (HEAP_BASE, HEAP_LIMIT),
        ];
        for w in regions.windows(2) {
            assert!(w[0].1 <= w[1].0, "{w:?}");
        }
    }
}
