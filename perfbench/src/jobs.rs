//! The closed loop shared by `paper-matrix` and `short-scripts`: one
//! client builds and runs each job of a fixed list in turn, pass after
//! pass, until the measuring time is up.
//!
//! On a shared host, a job's build and run are each timed as the lower
//! quartile of their repetitions (five build-only set-up rounds and every
//! pass), after each time is corrected against the reference clock
//! (`refclock.rs`): short jobs in chunks of about 20 ms, and the long
//! `paper-matrix` cells slice by slice. Interference only adds time, and
//! the correction can overshoot; the lower quartile drops both the slow
//! tail and the odd over-corrected sample.
//!
//! Checks on every job: it must build and halt, print exactly what the
//! `miniscript` oracle printed, and leave the same simulated counters
//! and host engine statistics in every pass — and, in a traced run, in
//! its untraced and traced twin runs. Across the jobs of one group, the
//! `wasmrt` ones must agree at every ISA level.

use crate::layers::{CoreTotals, TextWords};
use crate::metrics::Values;
use crate::refclock::{scale, RefClock};
use crate::stats::{geomean, median, percentile};
use crate::vm::{self, RunStats};
use crate::Ctx;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use tarch_core::{CoreConfig, IsaLevel};
use tarch_runner::EngineKind;

/// Set-up rounds before the measured passes of an untraced run.
pub const SETUP_ROUNDS: usize = 5;

/// Host time of short jobs corrected with one reference tick.
const CHUNK_NS: u64 = 20_000_000;

/// One job: a source built for one engine at one ISA level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Engine.
    pub engine: EngineKind,
    /// ISA level.
    pub level: IsaLevel,
    /// Index into [`JobSet::sources`].
    pub source: usize,
}

/// The jobs of one pass, in run order.
#[derive(Debug, Clone)]
pub struct JobSet {
    /// Guest sources.
    pub sources: Vec<String>,
    /// The oracle's output for each source.
    pub expected: Vec<String>,
    /// Jobs, in the order a pass runs them.
    pub specs: Vec<Spec>,
    /// Core configuration.
    pub core: CoreConfig,
    /// Run untraced jobs in ticked slices (long jobs).
    pub ticked: bool,
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Collected {
    /// Passes completed.
    pub passes: usize,
    /// Host nanoseconds of all passes.
    pub wall_ns: u64,
    /// Instructions retired over all passes (untraced runs).
    pub instructions: u64,
    /// Jobs completed over all passes.
    pub jobs_done: u64,
    /// Each job's corrected build times, nanoseconds.
    pub build_ns: Vec<Vec<u64>>,
    /// Each job's corrected run times, nanoseconds.
    pub run_ns: Vec<Vec<u64>>,
    /// Each job's results in the first pass.
    pub first: Vec<Option<RunStats>>,
    /// Jobs attempted (one per job per pass).
    pub attempted: u64,
    /// Jobs that failed a check.
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    /// Traced runs: counters of the first traced pass.
    pub core: CoreTotals,
    /// Traced runs: seconds inside `run` per pass.
    pub run_s: Vec<f64>,
    /// Traced runs: image sizes of the first traced pass.
    pub text: TextWords,
    /// Traced runs: build-plus-run nanoseconds of the untraced twins.
    pub untraced_ns: u64,
    /// Traced runs: build-plus-run nanoseconds of the traced twins.
    pub traced_ns: u64,
    /// Per pass: pass wall minus the jobs' build and run, milliseconds.
    pub overhead_ms: Vec<f64>,
}

/// Short-job times waiting for the next reference tick: spec index,
/// raw build and run nanoseconds (run 0 for a build-only set-up round).
#[derive(Debug, Default)]
struct Pending {
    jobs: Vec<(usize, u64, u64)>,
    raw_ns: u64,
}

impl Pending {
    fn push(
        &mut self,
        c: &mut Collected,
        clock: &mut RefClock,
        i: usize,
        build_ns: u64,
        run_ns: u64,
    ) {
        self.jobs.push((i, build_ns, run_ns));
        self.raw_ns += build_ns + run_ns;
        if self.raw_ns >= CHUNK_NS {
            self.settle(c, clock);
        }
    }

    /// Corrects the waiting times with a fresh tick and records them.
    fn settle(&mut self, c: &mut Collected, clock: &mut RefClock) {
        if self.jobs.is_empty() {
            return;
        }
        let f = clock.factor();
        for (i, build_ns, run_ns) in self.jobs.drain(..) {
            c.build_ns[i].push(scale(build_ns, f));
            if run_ns > 0 {
                c.run_ns[i].push(scale(run_ns, f));
            }
        }
        self.raw_ns = 0;
    }
}

impl Collected {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// Runs the set until the measuring time is up (at least one pass).
pub fn run(set: &JobSet, ctx: &mut Ctx) -> Collected {
    let n = set.specs.len();
    let mut c = Collected {
        first: vec![None; n],
        build_ns: vec![Vec::new(); n],
        run_ns: vec![Vec::new(); n],
        ..Collected::default()
    };
    let trace = ctx.args.trace;
    let mut clock = RefClock::new();
    let mut pending = Pending::default();
    if !trace {
        for _ in 0..SETUP_ROUNDS {
            for (i, spec) in set.specs.iter().enumerate() {
                let t = Instant::now();
                // Failures surface, and are counted, in the passes.
                let built = vm::build(
                    spec.engine,
                    &set.sources[spec.source],
                    spec.level,
                    &set.core,
                    &mut ctx.spans,
                    0,
                );
                let ns = t.elapsed().as_nanos() as u64;
                if built.is_ok() {
                    pending.push(&mut c, &mut clock, i, ns, 0);
                }
            }
        }
        pending.settle(&mut c, &mut clock);
    }
    ctx.start_clock();
    loop {
        let pass_start = Instant::now();
        let mut jobs_ns = 0;
        let mut run_ns = 0;
        for (i, spec) in set.specs.iter().enumerate() {
            let id = (c.passes * set.specs.len() + i) as u64;
            let source = &set.sources[spec.source];
            let label = format!(
                "{}/{}/source {}",
                spec.engine.id(),
                spec.level.name(),
                spec.source
            );
            c.attempted += 1;
            let job = if trace {
                // Twins in alternating order, so neither side always runs
                // on a warm host.
                let traced_first = i % 2 == 1;
                let mut twins = [None, None];
                for traced in [traced_first, !traced_first] {
                    ctx.spans.set_on(traced);
                    twins[usize::from(traced)] = Some(vm::run_job(
                        spec.engine,
                        source,
                        spec.level,
                        &set.core,
                        &mut ctx.spans,
                        id,
                        None,
                    ));
                }
                ctx.spans.set_on(false);
                let [untraced, traced] = twins.map(Option::unwrap);
                match (untraced, traced) {
                    (Ok(u), Ok(t)) => {
                        jobs_ns += t.build_ns + t.run_ns;
                        c.untraced_ns += u.build_ns + u.run_ns;
                        c.traced_ns += t.build_ns + t.run_ns;
                        run_ns += t.run_ns;
                        if c.passes == 0 {
                            c.core.add(&t.stats);
                            c.text.add(spec.engine, t.text_words);
                        }
                        if u.stats != t.stats {
                            c.fail(format!("{label}: traced run differs from untraced run"));
                        }
                        Ok(u)
                    }
                    (Err(e), _) | (_, Err(e)) => Err(e),
                }
            } else {
                let clock = set.ticked.then_some(&mut clock);
                vm::run_job(
                    spec.engine,
                    source,
                    spec.level,
                    &set.core,
                    &mut ctx.spans,
                    id,
                    clock,
                )
            };
            let job = match job {
                Ok(job) => job,
                Err(e) => {
                    c.fail(format!("{label}: {e}"));
                    continue;
                }
            };
            jobs_ns += job.build_ns + job.run_ns;
            if trace || set.ticked {
                // Traced twins are not timed for the end-to-end metrics;
                // ticked jobs come back corrected.
                c.build_ns[i].push(job.build_ns);
                c.run_ns[i].push(job.run_ns);
            } else {
                pending.push(&mut c, &mut clock, i, job.build_ns, job.run_ns);
            }
            c.instructions += job.stats.counters.instructions;
            c.jobs_done += 1;
            if job.stats.output != set.expected[spec.source] {
                c.fail(format!(
                    "{label}: output differs from the miniscript oracle"
                ));
            }
            match &c.first[i] {
                None if c.passes == 0 => c.first[i] = Some(job.stats),
                Some(first) if *first != job.stats => c.fail(format!(
                    "{label}: pass {} counters differ from pass 0",
                    c.passes
                )),
                _ => {}
            }
        }
        if !trace {
            pending.settle(&mut c, &mut clock);
        }
        let pass = pass_start.elapsed();
        c.passes += 1;
        c.wall_ns += pass.as_nanos() as u64;
        c.run_s.push(run_ns as f64 / 1e9);
        c.overhead_ms
            .push((pass.as_nanos() as u64).saturating_sub(jobs_ns) as f64 / 1e6);
        if !ctx.another_pass_fits(pass) {
            break;
        }
    }
    check_wasm_levels(set, &mut c);
    c
}

/// `wasmrt` images are identical at every ISA level, so its jobs of one
/// source must agree exactly across levels.
fn check_wasm_levels(set: &JobSet, c: &mut Collected) {
    let mut seen: HashMap<usize, usize> = HashMap::new();
    for (i, spec) in set.specs.iter().enumerate() {
        if spec.engine != EngineKind::Wasm {
            continue;
        }
        match seen.get(&spec.source) {
            None => {
                seen.insert(spec.source, i);
            }
            Some(&j) => {
                if let (Some(a), Some(b)) = (&c.first[i], &c.first[j]) {
                    if a.counters != b.counters || a.output != b.output {
                        c.fail(format!(
                            "wasm/source {}: results differ across ISA levels",
                            spec.source
                        ));
                    }
                }
            }
        }
    }
}

/// Geomean over sources run on `engine` at both levels of baseline
/// cycles over typed cycles.
pub fn typed_speedup(set: &JobSet, c: &Collected, engine: EngineKind) -> f64 {
    let mut cycles: HashMap<(usize, &'static str), u64> = HashMap::new();
    for (spec, first) in set.specs.iter().zip(&c.first) {
        if let (true, Some(s)) = (spec.engine == engine, first) {
            cycles.insert((spec.source, spec.level.name()), s.counters.cycles);
        }
    }
    let ratios: Vec<f64> = (0..set.sources.len())
        .filter_map(|src| {
            let base = cycles.get(&(src, IsaLevel::Baseline.name()))?;
            let typed = cycles.get(&(src, IsaLevel::Typed.name()))?;
            Some(*base as f64 / *typed as f64)
        })
        .collect();
    geomean(&ratios)
}

/// The typical one of a job's repeated times: their lower quartile.
pub fn typical_ns(samples: &[u64]) -> f64 {
    percentile(
        &samples.iter().map(|&ns| ns as f64).collect::<Vec<_>>(),
        25.0,
    )
}

/// Each completed job's typical build time plus typical run time, in
/// microseconds.
fn typical_us(c: &Collected) -> Vec<f64> {
    c.build_ns
        .iter()
        .zip(&c.run_ns)
        .filter(|(b, r)| !b.is_empty() && !r.is_empty())
        .map(|(b, r)| (typical_ns(b) + typical_ns(r)) / 1e3)
        .collect()
}

/// The end-to-end metrics of an untraced run: a pass as if every job
/// had taken its typical corrected time.
pub fn e2e_values(set: &JobSet, c: &Collected) -> Values {
    let mut v = Values::default();
    let typical = typical_us(c);
    let pass_s = typical.iter().sum::<f64>() / 1e6;
    let first: Vec<&RunStats> = c.first.iter().flatten().collect();
    let instructions: u64 = first.iter().map(|s| s.counters.instructions).sum();
    let job_cycles: Vec<f64> = first.iter().map(|s| s.counters.cycles as f64).collect();
    let setup_ns: f64 = c
        .build_ns
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| typical_ns(b))
        .sum();
    v.set("sim_mips", instructions as f64 / pass_s / 1e6);
    v.set("setup_s", setup_ns / 1e9);
    v.set("jobs_per_s", typical.len() as f64 / pass_s);
    v.set("job_p50_us", percentile(&typical, 50.0));
    v.set("job_p99_us", percentile(&typical, 99.0));
    v.set("sim_cycles", job_cycles.iter().sum());
    v.set("job_p99_mcycles", percentile(&job_cycles, 99.0) / 1e6);
    v.set("typed_speedup_lua", typed_speedup(set, c, EngineKind::Lua));
    v.set("typed_speedup_js", typed_speedup(set, c, EngineKind::Js));
    v
}

/// The per-layer metrics of a traced run.
pub fn layer_values(ctx: &Ctx, c: &Collected) -> Values {
    let mut v = Values::default();
    crate::layers::set_values(
        &mut v,
        &ctx.spans,
        c.passes,
        &c.core,
        median(&c.run_s),
        &c.text,
    );
    v.set("tarch-runner.overhead_ms", median(&c.overhead_ms));
    v.set(
        "bench.trace_overhead_pct",
        overhead_pct(c.untraced_ns, c.traced_ns),
    );
    v
}

/// Traced wall over untraced wall, minus one, in percent.
pub fn overhead_pct(untraced_ns: u64, traced_ns: u64) -> f64 {
    if untraced_ns == 0 {
        0.0
    } else {
        100.0 * (traced_ns as f64 / untraced_ns as f64 - 1.0)
    }
}

/// Report lines common to both job workloads.
pub fn notes(ctx: &mut Ctx, c: &Collected, unit: &str) {
    let wall_s = Duration::from_nanos(c.wall_ns).as_secs_f64();
    ctx.note(format!(
        "{} passes, {} {unit} runs in {wall_s:.2} s wall ({:.2} MIPS, {:.1} jobs/s on the raw wall); \
         job_p50_us/job_p99_us over {} jobs' typical corrected times",
        c.passes,
        c.jobs_done,
        c.instructions as f64 / wall_s / 1e6,
        c.jobs_done as f64 / wall_s,
        typical_us(c).len()
    ));
    if ctx.args.trace {
        ctx.note(format!(
            "tracing overhead: traced twins {:.3} s vs untraced twins {:.3} s ({:+.2}%)",
            c.traced_ns as f64 / 1e9,
            c.untraced_ns as f64 / 1e9,
            overhead_pct(c.untraced_ns, c.traced_ns)
        ));
    }
    for e in &c.errors {
        ctx.note(format!("FAILED {e}"));
    }
}
