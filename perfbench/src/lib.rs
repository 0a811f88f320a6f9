//! # perfbench — the repository benchmark
//!
//! Three workloads drive the whole stack from MiniScript source to
//! simulated results, calling only the public functions of the layer
//! crates and timing each call from outside:
//!
//! * `paper-matrix` — the 99 Table-7 cells at default scale;
//! * `short-scripts` — a seeded stream of small generated programs, each
//!   built from source and run once;
//! * `fleet` — frozen templates serving hundreds of clones each through
//!   `tarch_fleet::run_fleet` in short slices.
//!
//! `--trace 0` measures the end-to-end metrics with spans off; `--trace
//! 1` runs every job twice, untraced and traced in alternating order,
//! and reports the per-layer metrics and the tracing overhead. The last
//! line of standard output is one JSON object; see `README.md` in this
//! directory for the metrics and what each workload is for.

pub mod fleet;
pub mod gen;
pub mod jobs;
pub mod layers;
pub mod matrix;
pub mod metrics;
pub mod refclock;
pub mod scripts;
pub mod spans;
pub mod stats;
pub mod vm;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use spans::Spans;
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper-matrix", "short-scripts", "fleet"];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A usage message naming the bad or missing flag.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|e| format!("--seed {value}: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds {value}: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds {value}: must be positive"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value}: must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (expected one of {})",
                WORKLOADS.join(", ")
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// State shared by a run: its arguments, the deadline and the span
/// recorder.
#[derive(Debug)]
pub struct Ctx {
    /// The arguments.
    pub args: Args,
    /// The span recorder (off unless tracing).
    pub spans: Spans,
    /// Human-readable report lines, printed before the result line.
    pub notes: Vec<String>,
    started: Instant,
}

impl Ctx {
    /// A context for `args`; the measuring clock starts at [`Ctx::start_clock`].
    pub fn new(args: Args) -> Ctx {
        Ctx {
            args,
            spans: Spans::new(false),
            notes: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Starts the measuring clock.
    pub fn start_clock(&mut self) {
        self.started = Instant::now();
    }

    /// Whether a pass that took `last` still fits before the deadline.
    pub fn another_pass_fits(&self, last: Duration) -> bool {
        (self.started.elapsed() + last).as_secs_f64() <= self.args.seconds
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Peak resident set size of this process in MiB (`getrusage` maximum
/// RSS, the `VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    // struct rusage on 64-bit Linux: two timevals (4 longs), then
    // ru_maxrss in KiB, then 13 more longs.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is as large as `struct rusage` and writable;
    // RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage[4] as f64 / 1024.0
    } else {
        0.0
    }
}

/// Runs the workload `ctx.args` names and returns its outcome; the
/// caller prints `ctx.notes` and the result line.
///
/// # Errors
///
/// Set-up failures that leave nothing to measure (an oracle that cannot
/// run a generated input).
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = match ctx.args.workload.as_str() {
        "paper-matrix" => matrix::run(ctx)?,
        "short-scripts" => scripts::run(ctx)?,
        "fleet" => fleet::run(ctx)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if !ctx.args.trace {
        out.values.set("peak_rss_mb", peak_rss_mb());
        out.values.set(
            "ok_frac",
            1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        );
    }
    Ok(out)
}

/// Writes the recorded spans as Chrome trace JSON to
/// `$CARGO_TARGET_DIR/perfbench/` (default `target/perfbench/`) and
/// returns the file's path.
///
/// # Errors
///
/// The I/O error, rendered.
pub fn write_spans(ctx: &Ctx) -> Result<std::path::PathBuf, String> {
    let dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
    )
    .join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        ctx.args.workload, ctx.args.seed
    ));
    std::fs::write(&path, ctx.spans.chrome_json())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// The metric catalog a run prints.
pub fn catalog(trace: bool) -> &'static [metrics::Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}
