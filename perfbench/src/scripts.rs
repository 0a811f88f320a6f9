//! `short-scripts`: the lightweight-scripting shape. A seeded batch of
//! small generated programs; each program runs on a seed-chosen engine
//! at all three ISA levels, and every (program, level) is a script that
//! is built from source and run once per pass. Passes repeat the batch,
//! cold each time, until the measuring time is up.

use crate::gen;
use crate::jobs::{self, JobSet, Spec};
use crate::matrix::{oracle, shuffle};
use crate::metrics::Outcome;
use crate::Ctx;
use tarch_core::{CoreConfig, IsaLevel};
use tarch_runner::EngineKind;
use tarch_testkit::Rng;

/// Programs per batch.
pub const PROGRAMS: usize = 300;

/// The job set for `seed`: engines are dealt in seeded permutations of
/// lua/js/wasm, so each engine gets a third of the programs.
///
/// # Errors
///
/// A generated program the oracle cannot run (a generator bug).
pub fn job_set(seed: u64) -> Result<JobSet, String> {
    let programs = gen::programs(seed, PROGRAMS);
    let sources: Vec<String> = programs.into_iter().map(|p| p.source).collect();
    let expected = sources
        .iter()
        .enumerate()
        .map(|(i, s)| oracle(s).map_err(|e| format!("generated program {i}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rng = Rng::new(seed ^ 0xe9e1_a3c5_77d0_2b4f);
    let mut specs = Vec::new();
    for chunk in (0..sources.len()).collect::<Vec<_>>().chunks(3) {
        let mut engines = EngineKind::ALL;
        shuffle(&mut engines, &mut rng);
        for (&source, engine) in chunk.iter().zip(engines) {
            for level in IsaLevel::ALL {
                specs.push(Spec {
                    engine,
                    level,
                    source,
                });
            }
        }
    }
    shuffle(&mut specs, &mut rng);
    Ok(JobSet {
        sources,
        expected,
        specs,
        core: CoreConfig::paper(),
        ticked: false,
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
    jobs::notes(ctx, &c, "script");
    let values = if ctx.args.trace {
        jobs::layer_values(ctx, &c)
    } else {
        jobs::e2e_values(&set, &c)
    };
    Ok(Outcome {
        attempted: c.attempted,
        failed: c.failed,
        values,
    })
}
