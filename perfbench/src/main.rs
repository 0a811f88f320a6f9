//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints a human-readable report, then one JSON result line as the
//! last line of standard output. Exits 2 on a usage error and 1 when the
//! workload cannot be set up.

use perfbench::{catalog, run, Args, Ctx};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload paper-matrix|short-scripts|fleet --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let mut ctx = Ctx::new(args);
    let outcome = match run(&mut ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if ctx.args.trace {
        match perfbench::write_spans(&ctx) {
            Ok(path) => ctx.note(format!("spans written to {}", path.display())),
            Err(e) => ctx.note(format!("spans not written: {e}")),
        }
    }
    let a = &ctx.args;
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    for line in &ctx.notes {
        println!("  {line}");
    }
    let catalog = catalog(a.trace);
    for m in catalog {
        let v = outcome.values.get(m.name).unwrap_or(f64::NAN);
        println!(
            "  {:<32} {:>18.6} {:<12} ({} is better)",
            m.name, v, m.unit, m.better
        );
    }
    println!(
        "  attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    println!("{}", outcome.json_line(catalog));
}
