//! Guest-supplied table sizes must never overflow host arithmetic.
//!
//! Each engine's "new table" helper takes its capacity hint from a guest
//! register. A raw TRV64 program that passes a hint whose byte size does
//! not fit in 64 bits must end in the host's "heap exhausted" error: not a
//! host panic, and not a wrapped size that hands the guest a tiny table
//! whose header claims an enormous capacity.

use tarch_core::CoreConfig;
use tarch_isa::text::assemble;
use tarch_sim::{Machine, NativeHost, RunOutcome, SimError};

/// Runs `li a7, helper; li a2, hint; li a1, <scratch>; ecall; halt`.
fn new_table<H: NativeHost>(host: H, helper: u64, hint: u64) -> Result<RunOutcome, SimError> {
    let src = format!("li a7, {helper}\nli a2, {hint:#x}\nli a1, 0x400000\necall\nhalt\n");
    let program = assemble(&src, 0x1000, 0x20000).expect("assembles");
    let mut m = Machine::new(CoreConfig::paper(), host);
    m.load(&program);
    m.run(100)
}

fn assert_exhausted(r: Result<RunOutcome, SimError>, engine: &str) {
    match r {
        Err(SimError::Host(e)) => assert!(e.message.contains("heap exhausted"), "{engine}: {e}"),
        other => panic!("{engine}: expected heap exhaustion, got {other:?}"),
    }
}

#[test]
fn lua_oversized_table_hint_exhausts_the_heap() {
    let host = || luart::LuaHost::new(Vec::new());
    let helper = luart::helpers::NEWTABLE;
    assert_eq!(new_table(host(), helper, 4).unwrap(), RunOutcome::Halted);
    // 2^60 slots of 16 bytes is 2^64 bytes: wraps to zero unchecked.
    assert_exhausted(new_table(host(), helper, 1 << 60), "lua");
    assert_exhausted(new_table(host(), helper, u64::MAX), "lua");
}

#[test]
fn js_oversized_array_hint_exhausts_the_heap() {
    let host = || jsrt::JsHost::new(Vec::new());
    let helper = jsrt::helpers_mod::NEWARR;
    assert_eq!(new_table(host(), helper, 4).unwrap(), RunOutcome::Halted);
    // 2^61 slots of 8 bytes is 2^64 bytes.
    assert_exhausted(new_table(host(), helper, 1 << 61), "js");
    assert_exhausted(new_table(host(), helper, u64::MAX), "js");
}

#[test]
fn wasm_oversized_array_hint_exhausts_the_heap() {
    let host = || wasmrt::WasmHost::new(Vec::new());
    let helper = wasmrt::helpers_mod::NEWARR;
    assert_eq!(new_table(host(), helper, 4).unwrap(), RunOutcome::Halted);
    assert_exhausted(new_table(host(), helper, 1 << 61), "wasm");
    assert_exhausted(new_table(host(), helper, u64::MAX), "wasm");
}
