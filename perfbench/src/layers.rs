//! Per-layer probes of the traced run.
//!
//! Each probe times a call into one layer's public functions on the
//! workload's own operands, inside a benchmark-side `obs` span (`bench.*`),
//! so the exported snapshot attributes the program's own spans to the probe
//! that caused them. Layers that run nested inside one public call
//! (`LeverageBank::new` inside `AttackPlan::prepare`, `Matrix::is_finite`
//! inside `run_with`) are timed through their own public entry point on the
//! same operands. No span is added inside the program.

use crate::host::{self, Host};
use crate::report::Report;
use crate::stats::{median, median_secs};
use neurodeanon_connectome::{io, GroupMatrix};
use neurodeanon_core::attack::{AttackConfig, AttackPlan};
use neurodeanon_core::matching::match_scores;
use neurodeanon_linalg::stats::{
    cross_correlation_batched_into, cross_correlation_fused_into, zscored_cols_into,
};
use neurodeanon_linalg::Matrix;
use neurodeanon_obs as obs;
use neurodeanon_sampling::LeverageBank;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Operands of the probes: the workload's gallery, its queries as a group,
/// the attack configuration, and the gallery written as CSV.
pub struct Operands<'a> {
    pub known: &'a GroupMatrix,
    pub anon: &'a GroupMatrix,
    pub config: &'a AttackConfig,
    pub known_csv: &'a Path,
}

/// Median wall time of `reps` calls, in microseconds, inside span `name`.
fn probe_us(name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let _span = obs::span(name);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

pub fn probe(ops: &Operands, host: &Host, report: &mut Report) -> Result<(), String> {
    let known = ops.known;
    let anon = ops.anon;
    let (n_features, n_known, n_anon) = (known.n_features(), known.n_subjects(), anon.n_subjects());
    let t = ops.config.n_features.min(n_features);
    let shape = format!("{n_features} x {n_known} gallery, {n_anon} queries, t = {t}");

    // connectome::io — CSV ingest of the gallery.
    let csv_bytes = std::fs::metadata(ops.known_csv)
        .map_err(|e| format!("stat {}: {e}", ops.known_csv.display()))?
        .len();
    let mut read_ok = true;
    let read_s = {
        let _span = obs::span("bench.io_read");
        median_secs(3, || match io::read_group_csv(ops.known_csv) {
            Ok(g) => read_ok &= same_group(&g, known),
            Err(_) => read_ok = false,
        })
    };
    report.attempt(1);
    if !read_ok {
        report.fail("read_group_csv did not return the gallery that was written");
    }
    report.metric(
        "io.read_s",
        read_s,
        3,
        format!("read_group_csv of the gallery ({shape})"),
    );
    report.metric(
        "io.read_mb_per_s",
        csv_bytes as f64 / read_s / 1e6,
        3,
        format!("{csv_bytes} CSV bytes / io.read_s"),
    );

    // core::attack prepare, and the svd.thin count of one prepare.
    let thin_before = obs::counter("svd.thin_calls").get();
    let mut plan =
        AttackPlan::prepare(known.clone(), ops.config.clone()).map_err(|e| e.to_string())?;
    let thin_calls = obs::counter("svd.thin_calls").get() - thin_before;
    report.metric(
        "svd.thin_calls",
        thin_calls as f64,
        1,
        "svd.thin calls in one AttackPlan::prepare",
    );
    let prepare_s = {
        let _span = obs::span("bench.plan_prepare");
        let mut times = Vec::new();
        for _ in 0..3 {
            let k = known.clone();
            let t0 = Instant::now();
            let p = AttackPlan::prepare(k, ops.config.clone()).map_err(|e| e.to_string())?;
            times.push(t0.elapsed().as_secs_f64());
            drop(p);
        }
        median(&times)
    };
    report.metric(
        "plan.prepare_s",
        prepare_s,
        3,
        "AttackPlan::prepare (gallery clone untimed)",
    );

    // sampling / linalg::svd — the bank build nested inside prepare.
    let bank = LeverageBank::new(known.as_matrix()).map_err(|e| e.to_string())?;
    let bank_s = {
        let _span = obs::span("bench.bank_build");
        median_secs(3, || {
            black_box(LeverageBank::new(black_box(known.as_matrix())).ok());
        })
    };
    report.metric(
        "bank.build_s",
        bank_s,
        3,
        "LeverageBank::new on the gallery",
    );

    // A warmed plan: its clone is what a serve worker respawn pays.
    let first = plan.run_against(anon).map_err(|e| e.to_string())?;
    let clone_ms = probe_us("bench.plan_clone", 5, || {
        black_box(plan.clone());
    }) / 1e3;
    report.metric(
        "plan.clone_ms",
        clone_ms,
        5,
        "AttackPlan::clone of a warmed plan",
    );

    // core::attack select refresh: the public steps of a selection change.
    let indices = bank.select_indices(t, None).map_err(|e| e.to_string())?;
    let mut known_red = Matrix::zeros(0, 0);
    let mut known_z = Matrix::zeros(0, 0);
    let select_ms = probe_us("bench.plan_select", 20, || {
        let idx = bank.select_indices(t, None).expect("t validated above");
        known
            .as_matrix()
            .select_rows_into(&idx, &mut known_red)
            .expect("indices come from the bank of this matrix");
        zscored_cols_into(&known_red, &mut known_z);
    }) / 1e3;
    report.metric(
        "plan.select_ms",
        select_ms,
        20,
        "select_indices + select_rows_into + zscored_cols_into on the gallery",
    );

    // linalg::matrix — the whole-matrix finiteness scan and the gather.
    let anon_bytes = (anon.n_features() * anon.n_subjects() * 8) as f64;
    let mut finite = true;
    let scan_ms = probe_us("bench.validate_scan", 30, || {
        finite &= black_box(anon.as_matrix()).is_finite();
    }) / 1e3;
    report.attempt(1);
    if !finite {
        report.fail("clean query group scanned as non-finite");
    }
    let read_gb_s = {
        let _span = obs::span("bench.host_read");
        host::read_bandwidth_gb_s(host.probe_bytes)
    };
    let validate_gb_s = anon_bytes / (scan_ms / 1e3) / 1e9;
    report.metric(
        "validate.scan_ms",
        scan_ms,
        30,
        "Matrix::is_finite on the query group",
    );
    report.metric(
        "validate.gb_per_s",
        validate_gb_s,
        30,
        format!("{anon_bytes} bytes / validate.scan_ms"),
    );
    report.metric(
        "validate.pct_read_bw",
        100.0 * validate_gb_s / read_gb_s,
        30,
        "validate.gb_per_s / host.read_gb_s",
    );
    report.metric(
        "host.read_gb_s",
        read_gb_s,
        3,
        format!(
            "best of 3 single-thread passes over {} MiB (llc {} KiB)",
            host.probe_bytes >> 20,
            host.llc_bytes.unwrap_or(0) >> 10
        ),
    );
    let fma = {
        let _span = obs::span("bench.host_fma");
        host::fma_gflop_s()
    };
    report.metric(
        "host.fma_gflop_s",
        fma,
        3,
        "best of 3, 32 chains of x*a+b, single thread",
    );

    let mut anon_red = Matrix::zeros(0, 0);
    let gather_us = probe_us("bench.select_gather", 100, || {
        anon.as_matrix()
            .select_rows_into(&indices, &mut anon_red)
            .expect("indices are in range");
    });
    report.metric(
        "select.gather_us",
        gather_us,
        100,
        "select_rows_into of t rows of the query group",
    );

    // linalg::stats — the fused and the batched correlation kernels.
    let mut bz = Matrix::zeros(0, 0);
    let mut sim = Matrix::zeros(0, 0);
    cross_correlation_fused_into(&known_z, &anon_red, &mut bz, &mut sim)
        .map_err(|e| e.to_string())?;
    let fused_ms = probe_us("bench.xcorr_fused", 50, || {
        cross_correlation_fused_into(&known_z, &anon_red, &mut bz, &mut sim)
            .expect("shapes checked");
    }) / 1e3;
    let flops = 2.0 * (t * n_known * n_anon) as f64;
    report.metric(
        "xcorr.fused_ms",
        fused_ms,
        50,
        format!("cross_correlation_fused_into, {n_known} x {n_anon} at t = {t}"),
    );
    report.metric(
        "xcorr.gflop_s",
        flops / (fused_ms / 1e3) / 1e9,
        50,
        "computed 2*t*n_known*n_queries flops / xcorr.fused_ms",
    );
    let queries = anon_red.transpose();
    for (q, name) in [(1, "xcorr.batched_us.q1"), (16, "xcorr.batched_us.q16")] {
        let rows: Vec<&[f64]> = (0..q).map(|j| queries.row(j % queries.rows())).collect();
        let us = probe_us("bench.xcorr_batched", 200, || {
            cross_correlation_batched_into(&known_z, &rows, &mut bz, &mut sim)
                .expect("shapes checked");
        });
        report.metric(
            name,
            us,
            200,
            format!("cross_correlation_batched_into, {q} reduced queries"),
        );
    }

    // core::attack batch — the serve path on a warmed clone.
    let payloads: Vec<Vec<f64>> = (0..16).map(|j| anon.subject_features(j % n_anon)).collect();
    let mut worker_plan = plan.clone();
    for (q, name) in [
        (1, "plan.batch_us_per_query.q1"),
        (16, "plan.batch_us_per_query.q16"),
    ] {
        let refs: Vec<&[f64]> = payloads[..q].iter().map(Vec::as_slice).collect();
        worker_plan
            .correlate_batch(&refs)
            .map_err(|e| e.to_string())?;
        let us = probe_us("bench.plan_batch", 100, || {
            black_box(worker_plan.correlate_batch(&refs).expect("clean payloads"));
        });
        report.metric(
            name,
            us / q as f64,
            100,
            format!("AttackPlan::correlate_batch of {q} full payloads, per query"),
        );
    }

    // core::matching — scores of the run's similarity matrix.
    let scores_us = probe_us("bench.match_scores", 200, || {
        black_box(match_scores(&first.similarity).expect("finite similarity"));
    });
    report.metric(
        "match.scores_us",
        scores_us,
        200,
        format!("match_scores of a {n_known} x {n_anon} similarity"),
    );
    Ok(())
}

/// Bitwise equality of two group matrices (values and subject ids).
pub fn same_group(a: &GroupMatrix, b: &GroupMatrix) -> bool {
    a.subject_ids() == b.subject_ids()
        && a.n_regions() == b.n_regions()
        && a.as_matrix().shape() == b.as_matrix().shape()
        && a.as_matrix()
            .as_slice()
            .iter()
            .zip(b.as_matrix().as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Prints the obs snapshot taken since the last `obs::reset()`.
pub fn print_snapshot(report: &mut Report) {
    let snap = obs::snapshot();
    report.line(
        "obs snapshot (spans since the post-setup reset; bench.* spans are the benchmark's):",
    );
    for l in snap.render_tree().lines() {
        report.line(format!("  {l}"));
    }
}
