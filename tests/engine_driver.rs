//! The guest-VM driver contract, pinned for every engine.
//!
//! For lua/js/wasm × the three ISA levels on fibo and k-nucleotide at test
//! scale:
//!
//! * `run_profiled`'s per-opcode `dynamic` and `instructions` maps, sorted
//!   by opcode name, fold into one FNV-1a fingerprint pinned here;
//! * `run` and `run_profiled` agree on output, counters and branch
//!   statistics;
//! * `run` with a budget too small to finish fails with
//!   `EngineError::StepLimit` carrying exactly that budget (the harness
//!   turns it into `ExecError::StepBudget`);
//! * running in 1000-step `run_slice`s and then `report_now` gives the
//!   same output, counters and branch statistics as one `run`.
//!
//! On a fingerprint mismatch the test prints the engine's table as it now
//! stands.

use std::collections::HashMap;
use std::fmt::Debug;
use tarch_bench::workloads::{self, Scale};
use tarch_core::{CoreConfig, IsaLevel};

const MAX_STEPS: u64 = 500_000_000;
const SMALL_BUDGET: u64 = 1_000;
const SLICE: u64 = 1_000;
const WORKLOADS: [&str; 2] = ["fibo", "k-nucleotide"];

/// FNV-1a 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn map<Op: Debug>(&mut self, m: &HashMap<Op, u64>) {
        let mut rows: Vec<(String, u64)> =
            m.iter().map(|(op, n)| (format!("{op:?}"), *n)).collect();
        rows.sort();
        self.u64(rows.len() as u64);
        for (name, n) in rows {
            self.u64(name.len() as u64);
            self.bytes(name.as_bytes());
            self.u64(n);
        }
    }
}

/// Checks the contract on every (workload, level) cell of one engine and
/// returns the profile fingerprints in cell order.
macro_rules! engine_cells {
    ($krate:ident, $vm:ident) => {{
        let mut out = Vec::new();
        for name in WORKLOADS {
            let src = workloads::by_name(name).expect("known workload").source(Scale::Test);
            for level in IsaLevel::ALL {
                let tag = format!("{name}/{}/{}", stringify!($krate), level.name());
                let build =
                    || $krate::$vm::from_source(&src, level, CoreConfig::paper()).expect("builds");

                let plain = build().run(MAX_STEPS).unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert_eq!(plain.level, level, "{tag}");
                assert!(!plain.output.is_empty(), "{tag}: no output");

                let profiled =
                    build().run_profiled(MAX_STEPS).unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert_eq!(profiled.output, plain.output, "{tag}: profiled output");
                assert_eq!(profiled.counters, plain.counters, "{tag}: profiled counters");
                assert_eq!(profiled.branch, plain.branch, "{tag}: profiled branch stats");
                assert!(plain.profile.is_none(), "{tag}: unprofiled run carries a profile");
                let profile = profiled.profile.expect("profile requested");
                let mut h = Fnv::new();
                h.map(&profile.dynamic);
                h.map(&profile.instructions);
                out.push((tag.clone(), h.0));

                match build().run(SMALL_BUDGET) {
                    Err($krate::EngineError::StepLimit { max_steps }) => {
                        assert_eq!(max_steps, SMALL_BUDGET, "{tag}: budget carried")
                    }
                    other => panic!("{tag}: expected StepLimit, got {other:?}"),
                }

                let mut sliced = build();
                let mut slices = 0u64;
                while !sliced.is_halted() {
                    sliced.run_slice(SLICE).unwrap_or_else(|e| panic!("{tag}: {e}"));
                    slices += 1;
                    assert!(slices * SLICE <= MAX_STEPS, "{tag}: sliced run did not halt");
                }
                let now = sliced.report_now();
                assert_eq!(now.output, plain.output, "{tag}: sliced output");
                assert_eq!(now.counters, plain.counters, "{tag}: sliced counters");
                assert_eq!(now.branch, plain.branch, "{tag}: sliced branch stats");
            }
        }
        out
    }};
}

fn check(engine: &str, got: Vec<(String, u64)>, golden: &[u64]) {
    let table: Vec<String> =
        got.iter().map(|(tag, fp)| format!("    {fp:#018x}, // {tag}")).collect();
    let ok = got.len() == golden.len() && got.iter().zip(golden).all(|((_, a), b)| a == b);
    assert!(ok, "{engine} profile fingerprints changed; table now:\n{}", table.join("\n"));
}

#[test]
fn lua_driver_contract() {
    check(
        "lua",
        engine_cells!(luart, LuaVm),
        &[
            0xc7e993a8eca97878, // fibo/luart/baseline
            0x977128132bad59f1, // fibo/luart/checked-load
            0xccfb9250fa2658e7, // fibo/luart/typed
            0xf0c97b00a9d3724b, // k-nucleotide/luart/baseline
            0xa9da95f339cfdbbd, // k-nucleotide/luart/checked-load
            0xbe29ba5edad776a2, // k-nucleotide/luart/typed
        ],
    );
}

#[test]
fn js_driver_contract() {
    check(
        "js",
        engine_cells!(jsrt, JsVm),
        &[
            0xe268773e29909173, // fibo/jsrt/baseline
            0x064b6386d46e3df3, // fibo/jsrt/checked-load
            0x80e22393cbd64ad0, // fibo/jsrt/typed
            0xb92d17cb13028e79, // k-nucleotide/jsrt/baseline
            0x2f273dc799b62cf4, // k-nucleotide/jsrt/checked-load
            0x6f3e8317884ebee4, // k-nucleotide/jsrt/typed
        ],
    );
}

#[test]
fn wasm_driver_contract() {
    check(
        "wasm",
        engine_cells!(wasmrt, WasmVm),
        &[
            0xa1b0480fa9f8d157, // fibo/wasmrt/baseline
            0xa1b0480fa9f8d157, // fibo/wasmrt/checked-load
            0xa1b0480fa9f8d157, // fibo/wasmrt/typed
            0x6494e35d15d5639b, // k-nucleotide/wasmrt/baseline
            0x6494e35d15d5639b, // k-nucleotide/wasmrt/checked-load
            0x6494e35d15d5639b, // k-nucleotide/wasmrt/typed
        ],
    );
}
