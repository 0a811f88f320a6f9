//! The cached interpreter text and its code cache are shared safely.
//!
//! Each engine assembles its interpreter text once per key and links only
//! the module's data per image, and every VM of a text shares that text's
//! decoded blocks and compiled closures. This file holds a single test,
//! so the process starts with every cache cold: eight threads then build
//! the same modules at once and run a VM of each, racing to fill each
//! text entry and to publish each block and closure, and a second round
//! builds and runs them again from the warm caches. Every image of a
//! module must be identical, and every run must report the same results
//! and statistics, whichever thread filled a cache and however warm it
//! was. Fleet workers and the runner pool build and run VMs concurrently,
//! so this race is real.

use std::sync::Barrier;
use std::thread;
use tarch_core::{BlockStats, CoreConfig, IsaLevel, PerfCounters, PredecodeStats};

/// One main with 0 locals and one with 1: the entry's stack-top `li`
/// takes one word for the first and two for the second, so both text
/// widths of jsrt and wasmrt are filled.
const SOURCES: [&str; 2] = ["print(1)", "local s = \"a\" for i = 1, 3 do s = s .. i end print(s)"];

#[derive(Debug, PartialEq, Eq)]
enum Image {
    Lua(luart::LuaImage),
    Js(jsrt::JsImage),
    Wasm(wasmrt::WasmImage),
}

/// What one VM run reports, cache or no cache.
#[derive(Debug, PartialEq, Eq)]
struct Ran {
    output: String,
    counters: PerfCounters,
    blocks: BlockStats,
    predecode: PredecodeStats,
}

/// Builds and runs a VM of every source on every engine and level. A
/// tier threshold of 2 makes even these small programs compile (and so
/// publish or adopt) closures.
fn run_all() -> Vec<Ran> {
    let core = CoreConfig { tier_threshold: 2, ..CoreConfig::paper() };
    let mut out = Vec::new();
    macro_rules! run {
        ($vm:ty, $src:expr, $level:expr) => {{
            let mut vm = <$vm>::from_source($src, $level, core.clone()).expect("builds");
            let report = vm.run(1_000_000).expect("runs");
            out.push(Ran {
                output: report.output,
                counters: report.counters,
                blocks: vm.cpu().block_stats(),
                predecode: vm.cpu().predecode_stats(),
            });
        }};
    }
    for src in SOURCES {
        for level in IsaLevel::ALL {
            run!(luart::LuaVm, src, level);
            run!(jsrt::JsVm, src, level);
            run!(wasmrt::WasmVm, src, level);
        }
    }
    out
}

fn build_all() -> Vec<Image> {
    let mut out = Vec::new();
    for src in SOURCES {
        let chunk = miniscript::parse(src).expect("parses");
        let lua = luart::compile(&chunk).expect("compiles");
        let js = jsrt::compile(&chunk).expect("compiles");
        let wasm = wasmrt::compile(&chunk).expect("compiles");
        for level in IsaLevel::ALL {
            out.push(Image::Lua(luart::build_image(&lua, level).expect("builds")));
            out.push(Image::Js(jsrt::build_image(&js, level).expect("builds")));
            out.push(Image::Wasm(wasmrt::build_image(&wasm, level).expect("builds")));
        }
    }
    out
}

#[test]
fn concurrent_cold_and_warm_builds_are_identical() {
    const THREADS: usize = 8;
    let barrier = Barrier::new(THREADS);
    let cold: Vec<(Vec<Image>, Vec<Ran>)> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    (build_all(), run_all())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("builder thread")).collect()
    });
    let warm = build_all();
    let warm_runs = run_all();
    assert_eq!(warm.len(), 2 * 3 * 3);
    for (t, (images, runs)) in cold.iter().enumerate() {
        assert!(images == &warm, "thread {t}'s cold-cache images differ from warm ones");
        assert!(runs == &warm_runs, "thread {t}'s cold-cache runs differ from warm ones");
    }
    assert!(warm_runs.iter().any(|r| r.blocks.compiles > 0), "no run tiered up");
    // The two sources really do take different text widths.
    let text_len = |i: usize| match &warm[i] {
        Image::Js(img) => img.program.text.len(),
        Image::Wasm(img) => img.program.text.len(),
        Image::Lua(img) => img.program.text.len(),
    };
    for engine in 1..3 {
        assert_eq!(text_len(engine) + 1, text_len(9 + engine), "engine {engine}");
    }
}
