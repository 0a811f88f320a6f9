//! `paper-matrix`: the paper's evaluation, all 99 Table-7 cells (11
//! workloads × lua/js/wasm × baseline/checked-load/typed) at default
//! scale, one pass in a seeded order.

use crate::jobs::{self, JobSet, Spec};
use crate::metrics::Outcome;
use crate::Ctx;
use tarch_bench::workloads::{self, Scale};
use tarch_core::{CoreConfig, IsaLevel};
use tarch_runner::EngineKind;
use tarch_testkit::Rng;

/// Geomean typed speedups the paper reports (§6): +9.9 % for Lua, +11.2 %
/// for SpiderMonkey.
pub const PAPER_SPEEDUP: [(&str, f64); 2] = [("lua", 1.099), ("js", 1.112)];

/// Runs the oracle on `source`.
///
/// # Errors
///
/// Parse or runtime errors of the reference interpreter.
pub fn oracle(source: &str) -> Result<String, String> {
    let chunk = miniscript::parse(source).map_err(|e| e.to_string())?;
    let mut interp = miniscript::Interp::new();
    interp.run(&chunk).map_err(|e| e.to_string())?;
    Ok(interp.output().to_string())
}

/// Shuffles `items` in place with a seeded Fisher–Yates.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range_usize(0, i + 1));
    }
}

/// The job set: every cell, in an order drawn from `seed`.
///
/// # Errors
///
/// A workload the oracle cannot run.
pub fn job_set(seed: u64) -> Result<JobSet, String> {
    let all = workloads::all();
    let sources: Vec<String> = all.iter().map(|w| w.source(Scale::Default)).collect();
    let expected = sources
        .iter()
        .map(|s| oracle(s))
        .collect::<Result<Vec<_>, _>>()?;
    let mut specs = Vec::new();
    for source in 0..sources.len() {
        for engine in EngineKind::ALL {
            for level in IsaLevel::ALL {
                specs.push(Spec {
                    engine,
                    level,
                    source,
                });
            }
        }
    }
    shuffle(&mut specs, &mut Rng::new(seed));
    Ok(JobSet {
        sources,
        expected,
        specs,
        core: CoreConfig::paper(),
        ticked: true,
    })
}

/// Runs the workload.
///
/// # Errors
///
/// See [`job_set`].
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let set = job_set(ctx.args.seed)?;
    let c = jobs::run(&set, ctx);
    jobs::notes(ctx, &c, "cell");
    let values = if ctx.args.trace {
        jobs::layer_values(ctx, &c)
    } else {
        let v = jobs::e2e_values(&set, &c);
        for (engine, paper) in PAPER_SPEEDUP {
            let ours = v.get(&format!("typed_speedup_{engine}")).unwrap_or(0.0);
            ctx.note(format!(
                "typed_speedup_{engine} = {ours:.4}x ({:+.1}%) beside the paper's {:+.1}%: \
                 geomean over the 11 workloads of baseline/typed cycles, default-scale inputs, \
                 simulated core not validated against hardware",
                100.0 * (ours - 1.0),
                100.0 * (paper - 1.0)
            ));
        }
        v
    };
    Ok(Outcome {
        attempted: c.attempted,
        failed: c.failed,
        values,
    })
}
