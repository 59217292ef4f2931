//! Slim Graph benchmark runner: one command, three workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced run.
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release --offline --manifest-path slimbench/Cargo.toml -- \
//!     --workload batch-rmat --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; everything above it is
//! the human report (fingerprint, end-to-end table, and with `--trace 1`
//! the per-layer and self-time tables). See `slimbench/README.md`.

mod batch;
mod fleet;
mod probes;
mod report;
mod serving;
mod spans;

use report::{Metric, Report};
use sg_graph::prng::mix64;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Kernel threads for every workload (the `SG_THREADS` knob, set in-process
/// so the figure does not depend on the caller's environment).
pub const SG_THREADS: usize = 2;

/// Per-run settings shared by every workload.
pub struct Env {
    pub seed: u64,
    pub seconds: f64,
    pub dir: PathBuf,
}

impl Env {
    pub fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }

    /// A deterministic 64-bit value derived from the workload seed and a
    /// stream label, so each generated input has its own seed.
    pub fn derive(&self, stream: u64) -> u64 {
        mix64(self.seed ^ mix64(stream.wrapping_add(0x5b_6e_c4)))
    }
}

/// Removes the run's scratch directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes `.bench_work` itself only when no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} out of range"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slimbench: {e}");
            std::process::exit(2);
        }
    };
    rayon::set_num_threads(SG_THREADS);
    let dir = Path::new(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("slimbench: creating {}: {e}", dir.display());
        std::process::exit(2);
    }
    let _guard = WorkDir(dir.clone());
    let env = Env { seed: args.seed, seconds: args.seconds, dir };

    let started = Instant::now();
    let report = match args.workload.as_str() {
        "batch-rmat" => batch::run(&env, args.trace),
        "serve-mix" => serving::run_serve_mix(&env, args.trace),
        "federated" => serving::run_federated(&env, args.trace),
        other => {
            eprintln!("slimbench: unknown workload {other} (batch-rmat|serve-mix|federated)");
            std::process::exit(2);
        }
    };
    print_report(&args, &report, started.elapsed());
    let ok = report.correct();
    println!("{}", report.result_json(args.trace));
    if !ok {
        std::process::exit(1);
    }
}

fn print_report(args: &Args, report: &Report, wall: Duration) {
    println!(
        "== slimbench {} seed={} seconds={} trace={} ==",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in report::fingerprint(args.seed, &report.inputs) {
        println!("fingerprint {k:<22} {v}");
    }
    let attempted = report.attempted.max(1);
    println!(
        "operations attempted={} failed={} failed_frac={:.6}",
        report.attempted,
        report.failed,
        report.failed as f64 / attempted as f64
    );
    for check in &report.failures {
        println!("FAILED CHECK: {check}");
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!("\n-- end-to-end (untraced) --");
    print_table(&report.end_to_end);
    if args.trace {
        println!("\n-- per-layer --");
        print_table(&report.per_layer);
        println!("\n-- self time by span (traced run) --");
        println!("{:<32} {:>8} {:>12} {:>12}", "span", "count", "self_ms", "total_ms");
        for row in &report.self_times {
            println!(
                "{:<32} {:>8} {:>12.3} {:>12.3}",
                row.name, row.count, row.self_ms, row.total_ms
            );
        }
    }
    println!("\nwall {:.1} s", wall.as_secs_f64());
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}
