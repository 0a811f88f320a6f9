//! Guest-supplied builtin argument counts must never panic or hang the host.
//!
//! Each engine's builtin helper takes the address of its first argument
//! from `a1` and the argument count from `a3`. A raw TRV64 program that
//! claims more arguments than the value stack holds, or arguments that
//! run past the top of the address space, must end in a typed host
//! error: not an arithmetic-overflow panic, a capacity panic, or a loop
//! over 2^64 slots.

use tarch_core::CoreConfig;
use tarch_isa::text::assemble;
use tarch_sim::layout::map::STACK_BASE;
use tarch_sim::{Machine, NativeHost, RunOutcome, SimError};

/// Runs `print` (builtin 0) with `nargs` arguments at `base`, all typed
/// as integers for wasmrt (`a4 = 0`).
fn print_call<H: NativeHost>(
    host: H,
    helper: u64,
    base: u64,
    nargs: u64,
) -> Result<RunOutcome, SimError> {
    let src = format!(
        "li a7, {helper}\nli a1, {base:#x}\nli a2, 0\nli a3, {nargs:#x}\nli a4, 0\necall\nhalt\n"
    );
    let program = assemble(&src, 0x1000, 0x20000).expect("assembles");
    let mut m = Machine::new(CoreConfig::paper(), host);
    m.load(&program);
    m.run(100)
}

fn assert_rejected(r: Result<RunOutcome, SimError>, engine: &str, why: &str) {
    match r {
        Err(SimError::Host(e)) => assert!(e.message.contains(why), "{engine}: {e}"),
        other => panic!("{engine}: expected a host error ({why}), got {other:?}"),
    }
}

/// A well-formed call halts; arguments wrapping the address space and a
/// count the value stack cannot hold are both refused.
fn check<H: NativeHost>(host: impl Fn() -> H, helper: u64, slot: u64, engine: &str) {
    assert_eq!(print_call(host(), helper, STACK_BASE, 2).unwrap(), RunOutcome::Halted);
    assert_rejected(print_call(host(), helper, u64::MAX - slot, 2), engine, "address space");
    assert_rejected(print_call(host(), helper, STACK_BASE, u64::MAX), engine, "value stack");
    assert_rejected(print_call(host(), helper, STACK_BASE, 1 << 40), engine, "value stack");
}

#[test]
fn lua_builtin_argument_count_is_bounded() {
    check(|| luart::LuaHost::new(Vec::new()), luart::helpers::BUILTIN, 16, "lua");
}

#[test]
fn js_builtin_argument_count_is_bounded() {
    check(|| jsrt::JsHost::new(Vec::new()), jsrt::helpers_mod::BUILTIN, 8, "js");
}

#[test]
fn wasm_builtin_argument_count_is_bounded() {
    let host = || wasmrt::WasmHost::new(Vec::new());
    check(host, wasmrt::helpers_mod::BUILTIN, 8, "wasm");
    // Sixteen 4-bit type codes fit in `a4`; a seventeenth argument has
    // none, which must not become an over-wide shift.
    let r = print_call(host(), wasmrt::helpers_mod::BUILTIN, STACK_BASE, 17);
    assert_rejected(r, "wasm", "bad type code");
}
