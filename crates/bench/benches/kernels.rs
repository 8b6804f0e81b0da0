//! Raw-speed floor for the attack's hot kernels: cache-blocked `matmul`,
//! `gram`, and the fused z-score + cross-correlation pass, timed at 1 and 8
//! forced threads. Each case emits one `kernel_bench` JSONL record carrying
//! GFLOP/s, and the committed `kernel_baseline.jsonl` gates regressions:
//! a case more than 25% below its best committed baseline is a soft
//! warning while the label has a single baseline record and a hard failure
//! once two or more exist (set `NEURODEANON_UPDATE_KERNEL_BASELINE=1` to
//! append the current run as a new baseline).
//!
//! The bench also times the `LeverageBank` builds — exact thin SVD,
//! one-sided Jacobi, and the blocked randomized subspace iteration — and at
//! paper scale asserts the subspace build is ≥3× faster than Jacobi and
//! that the subspace feature-count ablation tracks the exact path within
//! 0.5pp mean accuracy.
//!
//! Scale comes from `NEURODEANON_BENCH_SCALE` (`small` default; `paper`
//! runs the 64,620 × 100 HCP shape of §3.1.2).

use neurodeanon_bench::fail;
use neurodeanon_bench::scale::Scale;
use neurodeanon_bench::timing::{self, Bench, Sample};
use neurodeanon_core::attack::{AttackConfig, AttackPlan, MatchRule};
use neurodeanon_datasets::{Session, Task};
use neurodeanon_linalg::par::with_thread_count;
use neurodeanon_linalg::rsvd::RsvdConfig;
use neurodeanon_linalg::stats::{cross_correlation_fused_into, zscored_cols_into};
use neurodeanon_linalg::svd::jacobi_svd;
use neurodeanon_linalg::Matrix;
use neurodeanon_sampling::LeverageBank;
use neurodeanon_testkit::{json, Value};
use std::path::{Path, PathBuf};

/// Committed per-label GFLOP/s baselines (lives in the repo, unlike the
/// gitignored trajectory file).
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/benches/kernel_baseline.jsonl");

/// Regression gate: fail/warn when a case drops below this fraction of its
/// best committed baseline GFLOP/s.
const REGRESSION_FLOOR: f64 = 0.75;

fn bench_json_path() -> PathBuf {
    std::env::var("NEURODEANON_BENCH_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("bench_results.jsonl"))
}

/// One timed kernel case: its sample plus the GFLOP/s derived from the
/// fastest iteration.
struct KernelCase {
    sample: Sample,
    gflops: f64,
    threads: usize,
}

impl KernelCase {
    fn new(sample: Sample, flops: f64, threads: usize) -> Self {
        let gflops = flops / sample.min.as_nanos().max(1) as f64;
        KernelCase {
            sample,
            gflops,
            threads,
        }
    }

    fn to_json(&self, scale: &str) -> Value {
        json!({
            "group": "kernel_bench",
            "label": self.sample.label.as_str(),
            "scale": scale,
            "threads": self.threads as f64,
            "min_ns": self.sample.min.as_nanos() as f64,
            "median_ns": self.sample.median.as_nanos() as f64,
            "mean_ns": self.sample.mean.as_nanos() as f64,
            "gflops": self.gflops,
        })
    }
}

fn append(path: &Path, rec: &Value) {
    if let Err(e) = timing::append_jsonl(path, rec) {
        eprintln!("bench json append failed for {}: {e}", path.display());
    }
}

/// Baseline records for one label: every committed GFLOP/s figure.
fn baseline_gflops(baseline: &[Value], label: &str) -> Vec<f64> {
    baseline
        .iter()
        .filter(|v| v.get("label").and_then(Value::as_str) == Some(label))
        .filter_map(|v| v.get("gflops").and_then(Value::as_f64))
        .collect()
}

fn load_baseline(path: &Path) -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            neurodeanon_testkit::json::parse(l)
                .unwrap_or_else(|e| fail(&format!("kernel baseline line parses: {e}")))
        })
        .collect()
}

fn main() {
    // `--trace` turns on the obs span recorder for the whole bench run and
    // prints the aggregated tree at the end; results are unaffected by
    // contract (DESIGN.md §1.6), so the GFLOP/s gate still applies.
    let traced = std::env::args().skip(1).any(|a| a == "--trace");
    if traced {
        neurodeanon_obs::enable();
    }
    let scale = match std::env::var("NEURODEANON_BENCH_SCALE") {
        Ok(v) => Scale::parse(&v).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
        Err(_) => Scale::Small,
    };
    let scale_name = match scale {
        Scale::Small => "small",
        Scale::Paper => "paper",
    };
    let json_path = bench_json_path();
    let baseline_path = PathBuf::from(BASELINE_PATH);
    let baseline = load_baseline(&baseline_path);

    let cohort = scale.hcp(0x5eed);
    let known = cohort
        .group_matrix(Task::Rest, Session::One)
        .unwrap_or_else(|e| fail(&format!("{e} at kernels.rs:{}", line!())));
    let anon = cohort
        .group_matrix(Task::Rest, Session::Two)
        .unwrap_or_else(|e| fail(&format!("{e} at kernels.rs:{}", line!())));
    let a = known.as_matrix();
    let b = anon.as_matrix();
    let (m, n) = a.shape();
    println!("kernels @ {scale_name}: {m} features x {n} subjects");

    let iters = match scale {
        Scale::Small => 15,
        Scale::Paper => 3,
    };
    let bench = Bench::new("kernels").iters(iters).warmup(1);

    // Shared operands, built once outside the timed regions.
    let at = a.transpose();
    let mut az = Matrix::zeros(0, 0);
    zscored_cols_into(a, &mut az);

    let mut cases: Vec<KernelCase> = Vec::new();
    for threads in [1usize, 8] {
        with_thread_count(threads, || {
            // (n x m) · (m x n): the Gram-shaped product the thin SVD's
            // U-recovery and the rsvd projections are made of.
            let s = bench.run(&format!("matmul_{scale_name}_t{threads}"), || {
                at.matmul(a)
                    .unwrap_or_else(|e| fail(&format!("{e} at kernels.rs:{}", line!())))
            });
            cases.push(KernelCase::new(s, 2.0 * (n * m * n) as f64, threads));

            // AᵀA via the symmetric row-panel kernel (thin SVD's Gram route).
            let s = bench.run(&format!("gram_{scale_name}_t{threads}"), || a.gram());
            cases.push(KernelCase::new(s, (m * n * (n + 1)) as f64, threads));

            // The plan's steady-state query path: transpose + z-score +
            // correlate in one pass.
            let mut bz = Matrix::zeros(0, 0);
            let mut out = Matrix::zeros(0, 0);
            let s = bench.run(&format!("fused_xcorr_{scale_name}_t{threads}"), || {
                cross_correlation_fused_into(&az, b, &mut bz, &mut out)
                    .unwrap_or_else(|e| fail(&format!("{e} at kernels.rs:{}", line!())))
            });
            cases.push(KernelCase::new(s, 2.0 * (n * n * m) as f64, threads));
        });
    }

    // ---- LeverageBank builds: exact thin SVD vs one-sided Jacobi vs the
    // blocked randomized subspace iteration.
    let build = Bench::new("kernels").iters(1).warmup(0);
    let s_exact = build.run(&format!("bank_exact_{scale_name}"), || {
        LeverageBank::new(a).unwrap_or_else(|e| fail(&format!("{e} at kernels.rs:{}", line!())))
    });
    // Rank 48 + two power iterations: the subspace build has ~60x headroom
    // against the 3x Jacobi gate, so spend a little of it on capturing more
    // leverage mass — this is what holds the ablation delta under 0.5pp.
    let rsvd_cfg = RsvdConfig {
        rank: 48.min(n),
        power_iters: 2,
        ..Default::default()
    };
    let s_subspace = build.run(&format!("bank_subspace_{scale_name}"), || {
        LeverageBank::new_subspace(a, &rsvd_cfg)
            .unwrap_or_else(|e| fail(&format!("{e} at kernels.rs:{}", line!())))
    });
    let s_jacobi = build.run(&format!("bank_jacobi_{scale_name}"), || {
        jacobi_svd(a).unwrap_or_else(|e| fail(&format!("{e} at kernels.rs:{}", line!())))
    });
    let vs_jacobi = s_jacobi.min.as_nanos() as f64 / s_subspace.min.as_nanos().max(1) as f64;
    let vs_exact = s_exact.min.as_nanos() as f64 / s_subspace.min.as_nanos().max(1) as f64;
    println!("bank build: subspace is {vs_jacobi:.2}x faster than jacobi, {vs_exact:.2}x vs exact");
    if scale == Scale::Paper {
        assert!(
            vs_jacobi >= 3.0,
            "subspace bank build must be >=3x faster than the Jacobi path at paper scale, got {vs_jacobi:.2}x"
        );
    }
    for (s, speedup) in [
        (&s_exact, None),
        (&s_subspace, Some(vs_jacobi)),
        (&s_jacobi, None),
    ] {
        let rec = match speedup {
            Some(x) => json!({
                "group": "bank_build",
                "label": s.label.as_str(),
                "scale": scale_name,
                "min_ns": s.min.as_nanos() as f64,
                "median_ns": s.median.as_nanos() as f64,
                "mean_ns": s.mean.as_nanos() as f64,
                "speedup_vs_jacobi": x,
            }),
            None => s.to_json("bank_build"),
        };
        append(&json_path, &rec);
    }

    // ---- Subspace ablation tracking: mean accuracy across the Figure 4
    // feature-count sweep must degrade by <0.5pp vs the exact bank.
    let t_values = [50usize, 100, 200, 300];
    let mut exact_plan = AttackPlan::prepare(known.clone(), AttackConfig::default())
        .unwrap_or_else(|e| fail(&format!("{e} at kernels.rs:{}", line!())));
    let mut subspace_plan = AttackPlan::prepare(
        known.clone(),
        AttackConfig {
            randomized: Some(rsvd_cfg.clone()),
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| fail(&format!("{e} at kernels.rs:{}", line!())));
    let mut mean_exact = 0.0;
    let mut mean_subspace = 0.0;
    for &t in &t_values {
        mean_exact += exact_plan
            .run_with(&anon, t, MatchRule::Argmax)
            .unwrap_or_else(|e| fail(&format!("{e} at kernels.rs:{}", line!())))
            .accuracy;
        mean_subspace += subspace_plan
            .run_with(&anon, t, MatchRule::Argmax)
            .unwrap_or_else(|e| fail(&format!("{e} at kernels.rs:{}", line!())))
            .accuracy;
    }
    mean_exact /= t_values.len() as f64;
    mean_subspace /= t_values.len() as f64;
    let degradation = mean_exact - mean_subspace;
    println!(
        "ablation mean accuracy: exact {mean_exact:.4}, subspace {mean_subspace:.4} (delta {degradation:+.4})"
    );
    if scale == Scale::Paper {
        assert!(
            degradation < 0.005,
            "subspace ablation degraded mean accuracy by {degradation:.4} (>0.5pp)"
        );
    }

    // ---- Emit kernel records and apply the baseline regression gate.
    let mut failures: Vec<String> = Vec::new();
    for case in &cases {
        let rec = case.to_json(scale_name);
        append(&json_path, &rec);
        let prior = baseline_gflops(&baseline, &case.sample.label);
        if prior.is_empty() {
            continue;
        }
        let best = prior.iter().fold(f64::MIN, |a, &b| a.max(b));
        if case.gflops < REGRESSION_FLOOR * best {
            let msg = format!(
                "{}: {:.3} GFLOP/s is more than 25% below the committed baseline {:.3}",
                case.sample.label, case.gflops, best
            );
            if prior.len() == 1 {
                eprintln!("WARNING (single baseline record, not yet gating): {msg}");
            } else {
                failures.push(msg);
            }
        }
    }
    assert!(
        failures.is_empty(),
        "kernel regression gate failed:\n  {}",
        failures.join("\n  ")
    );

    if std::env::var("NEURODEANON_UPDATE_KERNEL_BASELINE").as_deref() == Ok("1") {
        for case in &cases {
            append(&baseline_path, &case.to_json(scale_name));
        }
        println!(
            "appended {} records to {}",
            cases.len(),
            baseline_path.display()
        );
    }

    // The trajectory must stay machine-readable end to end.
    let text = std::fs::read_to_string(&json_path)
        .unwrap_or_else(|e| fail(&format!("bench trajectory readable: {e}")));
    let ours = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            neurodeanon_testkit::json::parse(l)
                .unwrap_or_else(|e| fail(&format!("trajectory line parses as JSON: {e}")))
        })
        .filter(|v| v.get("group").and_then(Value::as_str) == Some("kernel_bench"))
        .count();
    assert!(
        ours >= cases.len(),
        "expected {} kernel_bench records in the trajectory, found {ours}",
        cases.len()
    );
    println!(
        "trajectory {} verified: {ours} kernel_bench records",
        json_path.display()
    );

    if traced {
        let snap = neurodeanon_obs::snapshot();
        eprintln!("--- trace ---");
        eprint!("{}", snap.render_tree());
        neurodeanon_bench::trace::export_jsonl(&snap, "kernels", &json_path)
            .unwrap_or_else(|e| fail(&format!("trace export writes: {e}")));
    }
}
