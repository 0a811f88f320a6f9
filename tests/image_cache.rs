//! The cached interpreter text is shared safely.
//!
//! Each engine assembles its interpreter text once per key and links only
//! the module's data per image. This file holds a single test, so the
//! process starts with every cache cold: eight threads then build the
//! same modules at once, racing to fill each entry, and a second round
//! builds them again from the warm cache. Every image of a module must be
//! identical, whichever thread filled the cache and however warm it was.
//! Fleet workers and the runner pool build VMs concurrently, so this
//! race is real.

use std::sync::Barrier;
use std::thread;
use tarch_core::IsaLevel;

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
    let cold: Vec<Vec<Image>> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    build_all()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("builder thread")).collect()
    });
    let warm = build_all();
    assert_eq!(warm.len(), 2 * 3 * 3);
    for (t, images) in cold.iter().enumerate() {
        assert!(images == &warm, "thread {t}'s cold-cache images differ from warm ones");
    }
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
