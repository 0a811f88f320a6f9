//! The `short-scripts` generator: deterministic, accepted by every
//! engine at every ISA level, printing what the oracle prints, and
//! making the typed hardware miss.

use perfbench::gen::{programs, Kind};
use perfbench::matrix::oracle;
use perfbench::spans::Spans;
use perfbench::vm::run_job;
use tarch_core::{CoreConfig, IsaLevel};
use tarch_runner::EngineKind;

#[test]
fn same_seed_same_programs() {
    assert_eq!(programs(7, 40), programs(7, 40));
    assert_ne!(programs(7, 40), programs(8, 40));
}

#[test]
fn every_kind_is_drawn_equally_often() {
    let drawn: Vec<Kind> = programs(1, 30).into_iter().flat_map(|p| p.kinds).collect();
    for kind in Kind::ALL {
        assert_eq!(drawn.iter().filter(|&&k| k == kind).count(), 10, "{kind:?}");
    }
}

#[test]
fn all_engines_and_levels_match_the_oracle() {
    let core = CoreConfig::paper();
    let mut sp = Spans::new(false);
    let (mut trt_misses, mut overflow_misses) = (0, 0);
    for seed in [0, 1, 2] {
        for (i, p) in programs(seed, 30).iter().enumerate() {
            let expected = oracle(&p.source)
                .unwrap_or_else(|e| panic!("seed {seed} program {i}: {e}\n{}", p.source));
            for engine in EngineKind::ALL {
                for level in IsaLevel::ALL {
                    let job = run_job(engine, &p.source, level, &core, &mut sp, 0, None)
                        .unwrap_or_else(|e| {
                            panic!(
                                "seed {seed} program {i} {}/{level}: {e}\n{}",
                                engine.id(),
                                p.source
                            )
                        });
                    assert_eq!(
                        job.stats.output,
                        expected,
                        "seed {seed} program {i} {}/{level}\n{}",
                        engine.id(),
                        p.source
                    );
                    if level == IsaLevel::Typed {
                        trt_misses += job.stats.counters.type_misses;
                        overflow_misses += job.stats.counters.overflow_misses;
                    }
                }
            }
        }
    }
    assert!(trt_misses > 0, "no Type Rule Table misses");
    assert!(overflow_misses > 0, "no int32 overflow misses");
}
