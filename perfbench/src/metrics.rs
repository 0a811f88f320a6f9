//! The metric catalog and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// For end-to-end metrics: the share of the parent's median by which
    /// it may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, printed with `--trace 0` on every workload. A
/// *job* is a Table-7 cell on `paper-matrix`, a script on
/// `short-scripts` and a tenant on `fleet`.
pub const END_TO_END: [Metric; 11] = [
    e2e("sim_mips", "MIPS", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("jobs_per_s", "1/s", "higher", 0.25),
    e2e("job_p50_us", "us", "lower", 0.25),
    e2e("job_p99_us", "us", "lower", 0.25),
    e2e("sim_cycles", "cycles", "lower", 0.1),
    e2e("job_p99_mcycles", "Mcycles", "lower", 0.15),
    e2e("typed_speedup_lua", "x", "higher", 0.05),
    e2e("typed_speedup_js", "x", "higher", 0.05),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("ok_frac", "fraction", "higher", 0.01),
];

/// Layers that self time is reported for.
pub const LAYERS: [&str; 8] = [
    "bench",
    "miniscript",
    "luart",
    "jsrt",
    "wasmrt",
    "tarch-sim",
    "tarch-core",
    "tarch-fleet",
];

/// Per-layer metrics, printed with `--trace 1` on every workload (zero
/// where a workload does not call the layer).
pub const PER_LAYER: [Metric; 49] = [
    layer("miniscript.parse_us", "us", "lower"),
    layer("luart.compile_us", "us", "lower"),
    layer("jsrt.compile_us", "us", "lower"),
    layer("wasmrt.compile_us", "us", "lower"),
    layer("luart.build_image_us", "us", "lower"),
    layer("jsrt.build_image_us", "us", "lower"),
    layer("wasmrt.build_image_us", "us", "lower"),
    layer("tarch-sim.load_us", "us", "lower"),
    layer("luart.text_words", "words", "lower"),
    layer("jsrt.text_words", "words", "lower"),
    layer("wasmrt.text_words", "words", "lower"),
    layer("tarch-core.run_s", "s", "lower"),
    layer("tarch-core.ns_per_instr", "ns", "lower"),
    layer("tarch-core.block_hit_rate", "fraction", "higher"),
    layer("tarch-core.chained_frac", "fraction", "higher"),
    layer("tarch-core.compiles", "count", "lower"),
    layer("tarch-core.tier_deopts", "count", "lower"),
    layer("tarch-core.predecode_fills", "count", "lower"),
    layer("tarch-core.blocks_built", "count", "lower"),
    layer("tarch-core.instructions", "count", "lower"),
    layer("tarch-core.ipc", "instr/cycle", "higher"),
    layer("tarch-core.type_checks", "count", "lower"),
    layer("tarch-core.type_miss_rate", "fraction", "lower"),
    layer("tarch-core.branch_mpki", "1/kinstr", "lower"),
    layer("tarch-mem.icache_mpki", "1/kinstr", "lower"),
    layer("tarch-mem.dcache_mpki", "1/kinstr", "lower"),
    layer("tarch-mem.tlb_mpki", "1/kinstr", "lower"),
    layer("tarch-fleet.template_build_us", "us", "lower"),
    layer("tarch-fleet.spawn_us", "us", "lower"),
    layer("tarch-fleet.run_fleet_s", "s", "lower"),
    layer("tarch-fleet.evicted", "count", "lower"),
    layer("tarch-runner.overhead_ms", "ms", "lower"),
    layer("bench.trace_overhead_pct", "%", "lower"),
    layer("bench.self_ms", "ms", "lower"),
    layer("miniscript.self_ms", "ms", "lower"),
    layer("luart.self_ms", "ms", "lower"),
    layer("jsrt.self_ms", "ms", "lower"),
    layer("wasmrt.self_ms", "ms", "lower"),
    layer("tarch-sim.self_ms", "ms", "lower"),
    layer("tarch-core.self_ms", "ms", "lower"),
    layer("tarch-fleet.self_ms", "ms", "lower"),
    layer("bench.self_share", "fraction", "lower"),
    layer("miniscript.self_share", "fraction", "lower"),
    layer("luart.self_share", "fraction", "lower"),
    layer("jsrt.self_share", "fraction", "lower"),
    layer("wasmrt.self_share", "fraction", "lower"),
    layer("tarch-sim.self_share", "fraction", "lower"),
    layer("tarch-core.self_share", "fraction", "higher"),
    layer("tarch-fleet.self_share", "fraction", "lower"),
];

/// Whether `name` is a valid metric or workload name: 1–64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values collected by a run.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Jobs attempted (cells, scripts or tenants; each pass counts).
    pub attempted: u64,
    /// Jobs that failed any check.
    pub failed: u64,
    /// Measured metric values.
    pub values: Values,
}

impl Outcome {
    /// The result line: one JSON object carrying every metric of
    /// `catalog`. A metric that was not set or is not finite is a bug
    /// in the benchmark and panics.
    pub fn json_line(&self, catalog: &[Metric]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in catalog.iter().enumerate() {
            let v = self
                .values
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} not measured", m.name));
            assert!(v.is_finite(), "metric {} is not finite: {v}", m.name);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
