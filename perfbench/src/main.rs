//! The repository benchmark: one binary, two seeded workloads, every output
//! checked, every metric printed by name with its unit and sample count.
//!
//! ```text
//! perfbench --workload <attack-paper|serve-paper>
//!           --seed <n> --seconds <s> --trace <0|1> [--size paper|tiny]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off. With `--trace 1` it measures the per-layer metrics instead: the
//! program's `obs` spans are switched on after setup (so synthesis stays out
//! of the snapshot), the benchmark wraps its own spans around calls into
//! each layer's public functions, and the snapshot is printed at the end.
//! The last line of standard output is always one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the lines above it are the
//! human-readable table and the host fingerprint. `python3 perfbench/run.py`
//! builds this binary and forwards its arguments.

mod attack;
mod expected;
mod host;
mod layers;
mod report;
mod serve;
mod stats;

use report::Report;
use std::process::ExitCode;
use std::time::Duration;

/// Problem size. `Paper` is what the benchmark measures; `Tiny` shrinks
/// every workload so the benchmark's own self-check finishes in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Paper,
    Tiny,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

impl Args {
    /// Share `frac` of the measurement budget.
    pub fn budget(&self, frac: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * frac)
    }
}

/// Scratch directory for the run's files, inside the build directory of the
/// checkout (`CARGO_TARGET_DIR`, default `.bench_build`); removed on drop.
pub struct WorkDir(std::path::PathBuf);

impl WorkDir {
    pub fn create(workload: &str) -> Result<WorkDir, String> {
        let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        let path = std::path::Path::new(&base)
            .join("perfbench-work")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub const WORKLOADS: [&str; 2] = ["attack-paper", "serve-paper"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Paper;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--size" => {
                size = match value()?.as_str() {
                    "paper" => Size::Paper,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size must be paper or tiny, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        size,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--size paper|tiny]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host = host::Host::fingerprint(args.size);
    let mut report = Report::new(&args);
    // The host's compute speed before and after the run, printed so that
    // runs taken while the host is in a different phase (co-tenants,
    // frequency) show it. Not part of any metric.
    let speed_before = host::fma_gflop_s();
    let outcome = match args.workload.as_str() {
        "attack-paper" => attack::run(&args, &host, &mut report),
        "serve-paper" => serve::run(&args, &host, &mut report),
        _ => unreachable!("validated in parse_args"),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    report.set_gauge_rss();
    println!("host: {}", host.describe());
    println!(
        "host speed: multiply-add {speed_before:.2} GFLOP/s before the run, {:.2} after",
        host::fma_gflop_s()
    );
    report.print_table();
    match report.json_line() {
        Ok(line) => {
            println!("{line}");
            if report.all_correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
