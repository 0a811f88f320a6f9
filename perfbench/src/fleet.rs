//! `fleet`: many live VMs interleaved in short slices over copy-on-write
//! memory. Templates of the allocation-heavy `Scale::Test` binary-trees
//! cell — lua and js at baseline and typed, plus wasm at a seed-chosen
//! level — each serve 100 clones through `tarch_fleet::run_fleet`
//! on one host worker. A pass serves every template once; each
//! template's build and spawns, and its fleet, are corrected against the
//! reference clock and timed as the lower quartile of their repetitions,
//! so passes are kept to a few seconds.
//!
//! The seed draws the slice length, each template's shuffle seed, the
//! wasm level and the template order. The draw is kept
//! narrow so the figures of two seeds stay comparable.

use crate::jobs::{overhead_pct, typical_ns, SETUP_ROUNDS};
use crate::layers::{self, CoreTotals, TextWords};
use crate::matrix::{oracle, shuffle};
use crate::metrics::{Outcome, Values};
use crate::refclock::{scale, RefClock};
use crate::spans::{Spans, JOB};
use crate::stats::{geomean, median, percentile};
use crate::vm::RunStats;
use crate::Ctx;
use std::time::Instant;
use tarch_bench::workloads::{self, Scale};
use tarch_core::{CoreConfig, IsaLevel};
use tarch_fleet::{run_fleet, FleetConfig, FleetOutcome, Guest, Template};
use tarch_runner::EngineKind;
use tarch_testkit::Rng;

/// Table-7 workloads the templates run. One workload keeps the
/// templates' per-tenant host costs close together, so the per-tenant
/// percentiles do not fall in a gap between workloads.
pub const WORKLOADS: [&str; 1] = ["binary-trees"];
/// Simulated cores the tenants of one template are dealt across.
pub const SHARDS: u32 = 8;
/// Simulated cycles charged at every switch-in.
pub const CTXSW_CYCLES: u64 = 200;
/// Per-tenant cycle budget; far above what any tenant needs.
pub const BUDGET_CYCLES: u64 = 20_000_000_000;
/// Clones each template serves. Fixed, because the tenants per shard set
/// the completion latencies that `job_p99_mcycles` reports.
pub const TENANTS: u32 = 100;

/// One template and how it is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tpl {
    /// Index into [`WORKLOADS`].
    pub workload: usize,
    /// Engine.
    pub engine: EngineKind,
    /// ISA level.
    pub level: IsaLevel,
    /// Clones served.
    pub tenants: u32,
    /// Preemption quantum, simulated instructions.
    pub slice: u64,
    /// `run_fleet` shuffle seed.
    pub fleet_seed: u64,
}

/// The templates of one pass, in serving order.
pub fn roster(seed: u64) -> Vec<Tpl> {
    let mut rng = Rng::new(seed ^ 0x3f1d_c0de_fee7_beef);
    let mut out = Vec::new();
    for workload in 0..WORKLOADS.len() {
        // Baseline and typed templates of a workload share the slice, so
        // their cycles compare directly.
        let slice = rng.range_u64(1800, 2201);
        let wasm_level = *rng.choice(&IsaLevel::ALL);
        for (engine, level) in [
            (EngineKind::Lua, IsaLevel::Baseline),
            (EngineKind::Lua, IsaLevel::Typed),
            (EngineKind::Js, IsaLevel::Baseline),
            (EngineKind::Js, IsaLevel::Typed),
            (EngineKind::Wasm, wasm_level),
        ] {
            out.push(Tpl {
                workload,
                engine,
                level,
                tenants: TENANTS,
                slice,
                fleet_seed: rng.u64(),
            });
        }
    }
    shuffle(&mut out, &mut rng);
    out
}

/// One template served: built, its clones spawned, its fleet run.
#[derive(Debug)]
struct Served {
    build_ns: u64,
    spawn_ns: u64,
    fleet_ns: u64,
    outcome: FleetOutcome,
    text_words: u64,
    /// Traced runs only: one extra clone run alone in the same slices,
    /// whose core statistics `run_fleet` does not expose.
    probe: Option<(RunStats, u64)>,
    /// With a reference clock: build plus spawns, and the fleet,
    /// corrected to nominal host speed.
    corrected_ns: Option<(u64, u64)>,
}

impl Served {
    fn wall_ns(&self) -> u64 {
        self.build_ns + self.spawn_ns + self.fleet_ns + self.probe.as_ref().map_or(0, |p| p.1)
    }
}

fn text_words(g: &Guest) -> u64 {
    (match g {
        Guest::Lua(vm) => vm.image().program.text.len(),
        Guest::Js(vm) => vm.image().program.text.len(),
        Guest::Wasm(vm) => vm.image().program.text.len(),
    }) as u64
}

fn serve(
    t: &Tpl,
    source: &str,
    sp: &mut Spans,
    job: u64,
    mut clock: Option<&mut RefClock>,
) -> Result<Served, String> {
    if let Some(clock) = clock.as_deref_mut() {
        // Starts the bracket: the tick before the build.
        clock.factor();
    }
    let t0 = sp.now_ns();
    let template = sp.time(job, "tarch-fleet.template_build", || {
        Template::build(t.engine, source, t.level, CoreConfig::paper())
    })?;
    let t1 = sp.now_ns();
    let clones: Vec<Guest> = (0..t.tenants).map(|i| template.spawn(i)).collect();
    let t2 = sp.now_ns();
    drop(clones);
    sp.push("tarch-fleet.spawn", job, t1, t2);
    let setup_factor = clock.as_deref_mut().map(RefClock::factor);
    let cfg = FleetConfig {
        tenants: t.tenants,
        shards: SHARDS,
        budget_cycles: BUDGET_CYCLES,
        slice_steps: t.slice,
        ctxsw_cycles: CTXSW_CYCLES,
        seed: t.fleet_seed,
        workers: 1,
    };
    let t3 = sp.now_ns();
    let outcome = sp.time(job, "tarch-fleet.run_fleet", || run_fleet(&template, &cfg))?;
    let t4 = sp.now_ns();
    let corrected_ns = match (clock, setup_factor) {
        (Some(clock), Some(f)) => Some((scale(t2 - t0, f), scale(t4 - t3, clock.factor()))),
        _ => None,
    };
    let probe = if sp.on() {
        let mut g = template.spawn(t.tenants);
        let stats = sp.time(job, "tarch-core.run", || -> Result<RunStats, String> {
            while !g.is_halted() {
                g.run_slice(t.slice)?;
            }
            Ok(RunStats::of(g.cpu(), g.output()))
        })?;
        Some((stats, sp.now_ns() - t4))
    } else {
        None
    };
    sp.push(JOB, job, t0, sp.now_ns());
    Ok(Served {
        build_ns: t1 - t0,
        spawn_ns: t2 - t1,
        fleet_ns: t4 - t3,
        outcome,
        text_words: text_words(template.guest()),
        probe,
        corrected_ns,
    })
}

#[derive(Debug, Default)]
struct Collected {
    passes: usize,
    wall_ns: u64,
    instructions: u64,
    tenants_done: u64,
    /// Per template: corrected `Template::build` plus spawns, nanoseconds.
    setup_ns: Vec<Vec<u64>>,
    /// Per template: corrected `run_fleet`, nanoseconds.
    fleet_ns: Vec<Vec<u64>>,
    first: Vec<Option<FleetOutcome>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    core: CoreTotals,
    run_s: Vec<f64>,
    fleet_s: Vec<f64>,
    spawn_us: Vec<f64>,
    text: TextWords,
    untraced_ns: u64,
    traced_ns: u64,
    overhead_ms: Vec<f64>,
}

impl Collected {
    fn fail(&mut self, tenants: u32, what: String) {
        self.failed += u64::from(tenants);
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// Runs the workload.
///
/// # Errors
///
/// A workload the oracle cannot run.
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let sources: Vec<String> = WORKLOADS
        .iter()
        .map(|n| {
            workloads::by_name(n)
                .expect("Table-7 workload")
                .source(Scale::Test)
        })
        .collect();
    let expected = sources
        .iter()
        .map(|s| oracle(s))
        .collect::<Result<Vec<_>, _>>()?;
    let tpls = roster(ctx.args.seed);
    let trace = ctx.args.trace;
    let mut c = Collected {
        first: vec![None; tpls.len()],
        setup_ns: vec![Vec::new(); tpls.len()],
        fleet_ns: vec![Vec::new(); tpls.len()],
        ..Collected::default()
    };
    let mut clock = RefClock::new();
    if !trace {
        for _ in 0..SETUP_ROUNDS {
            for (i, tpl) in tpls.iter().enumerate() {
                clock.factor();
                let t = Instant::now();
                // Failures surface, and are counted, in the passes.
                if let Ok(template) = Template::build(
                    tpl.engine,
                    &sources[tpl.workload],
                    tpl.level,
                    CoreConfig::paper(),
                ) {
                    let clones: Vec<Guest> = (0..tpl.tenants).map(|i| template.spawn(i)).collect();
                    drop(clones);
                    let ns = scale(t.elapsed().as_nanos() as u64, clock.factor());
                    c.setup_ns[i].push(ns);
                }
            }
        }
    }
    ctx.start_clock();
    loop {
        let pass_start = Instant::now();
        let (mut served_ns, mut run_ns, mut fleet_ns) = (0, 0, 0);
        for (i, tpl) in tpls.iter().enumerate() {
            let id = (c.passes * tpls.len() + i) as u64;
            let label = format!(
                "{}/{}/{} ({} tenants)",
                WORKLOADS[tpl.workload],
                tpl.engine.id(),
                tpl.level.name(),
                tpl.tenants
            );
            let source = &sources[tpl.workload];
            c.attempted += u64::from(tpl.tenants);
            let served = if trace {
                let traced_first = i % 2 == 1;
                let mut twins = [None, None];
                for traced in [traced_first, !traced_first] {
                    ctx.spans.set_on(traced);
                    twins[usize::from(traced)] = Some(serve(tpl, source, &mut ctx.spans, id, None));
                }
                ctx.spans.set_on(false);
                match twins.map(Option::unwrap) {
                    [Ok(u), Ok(t)] => {
                        served_ns += t.wall_ns();
                        c.untraced_ns += u.wall_ns();
                        c.traced_ns += t.wall_ns();
                        fleet_ns += t.fleet_ns;
                        c.spawn_us
                            .push(t.spawn_ns as f64 / 1e3 / f64::from(tpl.tenants));
                        let (stats, probe_ns) = t.probe.as_ref().expect("traced serve has a probe");
                        run_ns += probe_ns;
                        if c.passes == 0 {
                            c.core.add(stats);
                            c.text.add(tpl.engine, t.text_words);
                        }
                        if stats.output != expected[tpl.workload] {
                            c.fail(1, format!("{label}: probe tenant output differs from the miniscript oracle"));
                        }
                        if u.outcome != t.outcome {
                            c.fail(
                                tpl.tenants,
                                format!("{label}: traced fleet differs from untraced fleet"),
                            );
                        }
                        Ok(u)
                    }
                    [Err(e), _] | [_, Err(e)] => Err(e),
                }
            } else {
                serve(tpl, source, &mut ctx.spans, id, Some(&mut clock))
            };
            let s = match served {
                Ok(s) => s,
                Err(e) => {
                    c.fail(tpl.tenants, format!("{label}: {e}"));
                    continue;
                }
            };
            served_ns += s.wall_ns();
            let (setup_ns, fleet_ns) = s
                .corrected_ns
                .unwrap_or((s.build_ns + s.spawn_ns, s.fleet_ns));
            c.setup_ns[i].push(setup_ns);
            c.fleet_ns[i].push(fleet_ns);
            let completed = s.outcome.completed();
            c.tenants_done += u64::from(completed);
            c.instructions += s
                .outcome
                .shards
                .iter()
                .flat_map(|sh| &sh.tenants)
                .map(|t| t.instructions)
                .sum::<u64>();
            if completed != tpl.tenants || s.outcome.evicted() != 0 {
                c.fail(
                    tpl.tenants - completed,
                    format!(
                        "{label}: {completed} completed, {} evicted",
                        s.outcome.evicted()
                    ),
                );
            }
            if s.outcome.output.as_deref() != Some(expected[tpl.workload].as_str()) {
                c.fail(
                    completed,
                    format!("{label}: tenant output differs from the miniscript oracle"),
                );
            }
            match &c.first[i] {
                None if c.passes == 0 => c.first[i] = Some(s.outcome),
                Some(first) if *first != s.outcome => c.fail(
                    tpl.tenants,
                    format!("{label}: pass {} fleet differs from pass 0", c.passes),
                ),
                _ => {}
            }
        }
        let pass = pass_start.elapsed();
        c.passes += 1;
        c.wall_ns += pass.as_nanos() as u64;
        c.run_s.push(run_ns as f64 / 1e9);
        c.fleet_s.push(fleet_ns as f64 / 1e9);
        c.overhead_ms
            .push((pass.as_nanos() as u64).saturating_sub(served_ns) as f64 / 1e6);
        if !ctx.another_pass_fits(pass) {
            break;
        }
    }

    let wall_s = c.wall_ns as f64 / 1e9;
    ctx.note(format!(
        "{} passes, {} templates, {} tenants completed in {wall_s:.2} s wall ({:.2} MIPS, {:.1} tenants/s \
         on the raw wall); job_p50_us/job_p99_us over {} templates' typical run_fleet time per tenant",
        c.passes,
        tpls.len(),
        c.tenants_done,
        c.instructions as f64 / wall_s / 1e6,
        c.tenants_done as f64 / wall_s,
        tpls.len()
    ));
    if trace {
        ctx.note(format!(
            "tracing overhead: traced serves {:.3} s vs untraced serves {:.3} s ({:+.2}%); \
             tarch-core metrics come from one probe clone per template run alone",
            c.traced_ns as f64 / 1e9,
            c.untraced_ns as f64 / 1e9,
            overhead_pct(c.untraced_ns, c.traced_ns)
        ));
    }
    for e in &c.errors {
        ctx.note(format!("FAILED {e}"));
    }
    let values = if trace {
        layer_values(ctx, &c)
    } else {
        e2e_values(&tpls, &c)
    };
    Ok(Outcome {
        attempted: c.attempted,
        failed: c.failed,
        values,
    })
}

/// The end-to-end metrics of an untraced run: a pass as if every
/// template had been built, spawned and served in its typical corrected
/// time.
fn e2e_values(tpls: &[Tpl], c: &Collected) -> Values {
    let mut v = Values::default();
    let setup_ns: f64 = c.setup_ns.iter().map(|ns| typical_ns(ns)).sum();
    let fleet_ns: f64 = c.fleet_ns.iter().map(|ns| typical_ns(ns)).sum();
    let pass_s = (setup_ns + fleet_ns) / 1e9;
    let per_tenant_us: Vec<f64> = tpls
        .iter()
        .zip(&c.fleet_ns)
        .filter(|(_, ns)| !ns.is_empty())
        .map(|(t, ns)| typical_ns(ns) / 1e3 / f64::from(t.tenants))
        .collect();
    let first: Vec<&FleetOutcome> = c.first.iter().flatten().collect();
    let instructions: u64 = first
        .iter()
        .flat_map(|o| &o.shards)
        .flat_map(|s| &s.tenants)
        .map(|t| t.instructions)
        .sum();
    let tenants: u32 = first.iter().map(|o| o.completed()).sum();
    let latencies: Vec<f64> = first
        .iter()
        .flat_map(|o| o.latencies())
        .map(|l| l as f64)
        .collect();
    let cycles = |o: &FleetOutcome| o.shards.iter().map(|s| s.clock_cycles).sum::<u64>();
    v.set("sim_mips", instructions as f64 / pass_s / 1e6);
    v.set("setup_s", setup_ns / 1e9);
    v.set("jobs_per_s", f64::from(tenants) / pass_s);
    v.set("job_p50_us", percentile(&per_tenant_us, 50.0));
    v.set("job_p99_us", percentile(&per_tenant_us, 99.0));
    v.set("sim_cycles", first.iter().map(|o| cycles(o) as f64).sum());
    v.set("job_p99_mcycles", percentile(&latencies, 99.0) / 1e6);
    for (engine, name) in [
        (EngineKind::Lua, "typed_speedup_lua"),
        (EngineKind::Js, "typed_speedup_js"),
    ] {
        let at = |w: usize, level: IsaLevel| {
            tpls.iter()
                .zip(&c.first)
                .find(|(t, _)| t.workload == w && t.engine == engine && t.level == level)
                .and_then(|(_, o)| o.as_ref())
                .map(|o| cycles(o) as f64)
        };
        let ratios: Vec<f64> = (0..WORKLOADS.len())
            .filter_map(|w| Some(at(w, IsaLevel::Baseline)? / at(w, IsaLevel::Typed)?))
            .collect();
        v.set(name, geomean(&ratios));
    }
    v
}

fn layer_values(ctx: &Ctx, c: &Collected) -> Values {
    let mut v = Values::default();
    layers::set_values(
        &mut v,
        &ctx.spans,
        c.passes,
        &c.core,
        median(&c.run_s),
        &c.text,
    );
    v.set(
        "tarch-fleet.template_build_us",
        layers::median_us(&ctx.spans, "tarch-fleet.template_build"),
    );
    v.set("tarch-fleet.spawn_us", median(&c.spawn_us));
    v.set("tarch-fleet.run_fleet_s", median(&c.fleet_s));
    v.set(
        "tarch-fleet.evicted",
        c.first
            .iter()
            .flatten()
            .map(|o| f64::from(o.evicted()))
            .sum(),
    );
    v.set("tarch-runner.overhead_ms", median(&c.overhead_ms));
    v.set(
        "bench.trace_overhead_pct",
        overhead_pct(c.untraced_ns, c.traced_ns),
    );
    v
}
