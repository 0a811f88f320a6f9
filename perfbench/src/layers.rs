//! Per-layer metrics of a traced run.

use crate::metrics::{Values, LAYERS};
use crate::spans::Spans;
use crate::stats::median;
use crate::vm::RunStats;
use tarch_runner::EngineKind;

/// Simulated counters and host engine statistics summed over the jobs
/// of one traced pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoreTotals {
    /// Retired instructions.
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Hardware type checks.
    pub type_checks: u64,
    /// Type mispredictions: TRT misses plus overflow misses.
    pub type_misses: u64,
    /// Branch and jump mispredictions.
    pub branch_misses: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// D-cache misses.
    pub dcache_misses: u64,
    /// I-TLB plus D-TLB misses.
    pub tlb_misses: u64,
    /// Block entries served from the block table.
    pub block_hits: u64,
    /// Block transfers through a chain link.
    pub chained: u64,
    /// Blocks decoded and installed.
    pub blocks_built: u64,
    /// Blocks tier-compiled.
    pub compiles: u64,
    /// Compiled blocks abandoned.
    pub tier_deopts: u64,
    /// Predecode slots filled.
    pub predecode_fills: u64,
}

impl CoreTotals {
    /// Adds one run.
    pub fn add(&mut self, s: &RunStats) {
        let c = &s.counters;
        self.instructions += c.instructions;
        self.cycles += c.cycles;
        self.type_checks += c.type_checks;
        self.type_misses += c.type_misses + c.overflow_misses;
        self.branch_misses += s.branch_misses;
        self.icache_misses += c.icache_misses;
        self.dcache_misses += c.dcache_misses;
        self.tlb_misses += c.itlb_misses + c.dtlb_misses;
        self.block_hits += s.blocks.hits;
        self.chained += s.blocks.chained_transfers;
        self.blocks_built += s.blocks.builds;
        self.compiles += s.blocks.compiles;
        self.tier_deopts += s.blocks.tier_deopts;
        self.predecode_fills += s.predecode.fills;
    }
}

/// Mean interpreter-image size per engine, in instruction words.
#[derive(Debug, Default, Clone)]
pub struct TextWords([(u64, u64); 3]);

impl TextWords {
    /// Records one image.
    pub fn add(&mut self, engine: EngineKind, words: u64) {
        let slot = &mut self.0[engine_index(engine)];
        slot.0 += words;
        slot.1 += 1;
    }

    fn mean(&self, engine: EngineKind) -> f64 {
        let (sum, n) = self.0[engine_index(engine)];
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }
}

fn engine_index(engine: EngineKind) -> usize {
    match engine {
        EngineKind::Lua => 0,
        EngineKind::Js => 1,
        EngineKind::Wasm => 2,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median duration in microseconds of the spans called `name`.
pub fn median_us(spans: &Spans, name: &str) -> f64 {
    let d: Vec<f64> = spans
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.nanos() as f64 / 1e3)
        .collect();
    median(&d)
}

/// Sets every per-layer metric that comes from spans and core totals.
/// `core` and `run_s` describe one traced pass; self times are averaged
/// over `passes`. The fleet, runner and tracing-overhead metrics are
/// set to zero here and overwritten by the workloads that have them.
pub fn set_values(
    v: &mut Values,
    spans: &Spans,
    passes: usize,
    core: &CoreTotals,
    run_s: f64,
    text: &TextWords,
) {
    for name in [
        "miniscript.parse",
        "luart.compile",
        "jsrt.compile",
        "wasmrt.compile",
        "luart.build_image",
        "jsrt.build_image",
        "wasmrt.build_image",
        "tarch-sim.load",
    ] {
        v.set(format!("{name}_us"), median_us(spans, name));
    }
    v.set("luart.text_words", text.mean(EngineKind::Lua));
    v.set("jsrt.text_words", text.mean(EngineKind::Js));
    v.set("wasmrt.text_words", text.mean(EngineKind::Wasm));

    let kilo = |n: u64| 1000.0 * ratio(n, core.instructions);
    let entries = core.block_hits + core.chained + core.blocks_built;
    v.set("tarch-core.run_s", run_s);
    v.set(
        "tarch-core.ns_per_instr",
        if core.instructions == 0 {
            0.0
        } else {
            run_s * 1e9 / core.instructions as f64
        },
    );
    v.set(
        "tarch-core.block_hit_rate",
        ratio(core.block_hits + core.chained, entries),
    );
    v.set("tarch-core.chained_frac", ratio(core.chained, entries));
    v.set("tarch-core.compiles", core.compiles as f64);
    v.set("tarch-core.tier_deopts", core.tier_deopts as f64);
    v.set("tarch-core.predecode_fills", core.predecode_fills as f64);
    v.set("tarch-core.blocks_built", core.blocks_built as f64);
    v.set("tarch-core.instructions", core.instructions as f64);
    v.set("tarch-core.ipc", ratio(core.instructions, core.cycles));
    v.set("tarch-core.type_checks", core.type_checks as f64);
    v.set(
        "tarch-core.type_miss_rate",
        ratio(core.type_misses, core.type_checks),
    );
    v.set("tarch-core.branch_mpki", kilo(core.branch_misses));
    v.set("tarch-mem.icache_mpki", kilo(core.icache_misses));
    v.set("tarch-mem.dcache_mpki", kilo(core.dcache_misses));
    v.set("tarch-mem.tlb_mpki", kilo(core.tlb_misses));

    for name in [
        "tarch-fleet.template_build_us",
        "tarch-fleet.spawn_us",
        "tarch-fleet.run_fleet_s",
        "tarch-fleet.evicted",
        "tarch-runner.overhead_ms",
        "bench.trace_overhead_pct",
    ] {
        v.set(name, 0.0);
    }

    let self_ns = spans.self_times();
    let total: u64 = self_ns.values().sum();
    for layer in LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        v.set(
            format!("{layer}.self_ms"),
            ns as f64 / 1e6 / passes.max(1) as f64,
        );
        v.set(format!("{layer}.self_share"), ratio(ns, total));
    }
}
