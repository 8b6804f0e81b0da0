//! Property suite for the attack-as-a-service layer (DESIGN.md §1.7).
//!
//! The serve contract under test:
//!
//! 1. **Batched GEMM ≡ one-shot pipeline, bitwise.** The similarity matrix
//!    of [`AttackPlan::correlate_batch`] matches the one-shot
//!    [`AttackPlan::run_with`] similarity column-for-column at the bit
//!    level, for every thread count and batch size — including
//!    ragged packings (a batch split into uneven sub-batches concatenates
//!    to the same bits).
//! 2. **Responses are packing- and parallelism-invariant.** A
//!    [`MatchServer`] answers every query identically no matter how many
//!    workers run, how queries fold into batches, or in what order they
//!    arrive.
//! 3. **Faults isolate.** Under injected chaos (malformed payloads, NaN
//!    payloads, worker panics), exactly the faulted queries receive typed
//!    errors; every other query's response is bit-identical to the
//!    fault-free run.
//! 4. **Degraded queries follow the policy paths.** Non-finite queries
//!    under `Mask`/`Impute` answer exactly like the one-shot degraded
//!    pipeline on a one-subject group.
//! 5. **Nothing is lost.** Backpressure, worker death, and shutdown all
//!    preserve the accepted-implies-answered invariant
//!    (`ServeReport::clean_drain`).

use neurodeanon_connectome::GroupMatrix;
use neurodeanon_core::attack::{AttackConfig, AttackPlan, MatchRule};
use neurodeanon_core::serve::{
    MatchServer, Query, QueryError, QueryResult, ServeConfig, ServeReport, SubmitError,
};
use neurodeanon_core::DegradedInput;
use neurodeanon_datasets::{
    ChaosSpec, HcpCohort, HcpCohortConfig, ServiceFaultKind, Session, Task,
};
use neurodeanon_linalg::par::with_thread_count;
use neurodeanon_linalg::Matrix;
use std::time::Duration;

fn cohort(n: usize, seed: u64) -> HcpCohort {
    HcpCohort::generate(HcpCohortConfig::small(n, seed)).unwrap()
}

fn config(degraded: DegradedInput, reject_margin: Option<f64>) -> AttackConfig {
    AttackConfig {
        n_features: 48,
        degraded,
        reject_margin,
        ..Default::default()
    }
}

/// The columns of a group matrix as owned full-length query payloads.
fn payloads(group: &GroupMatrix) -> Vec<Vec<f64>> {
    let m = group.as_matrix();
    (0..m.cols())
        .map(|j| (0..m.rows()).map(|r| m[(r, j)]).collect())
        .collect()
}

/// A one-subject group wrapping one payload (the solo reference shape).
fn singleton_group(values: &[f64], id: &str, n_regions: usize) -> GroupMatrix {
    let data = Matrix::from_fn(values.len(), 1, |r, _| values[r]);
    GroupMatrix::from_matrix(data, vec![id.to_string()], n_regions).unwrap()
}

/// Starts a server, submits every query, waits for all replies, shuts down.
fn run_server(
    plan: AttackPlan,
    cfg: ServeConfig,
    queries: &[Query],
) -> (Vec<QueryResult>, ServeReport) {
    let server = MatchServer::start(plan, cfg).unwrap();
    let receivers: Vec<_> = queries
        .iter()
        .map(|q| {
            server
                .submit(q.clone())
                .map_err(|(q, e)| format!("submit {} failed: {e}", q.id))
                .unwrap()
        })
        .collect();
    let results = receivers
        .into_iter()
        .map(|rx| rx.recv().expect("every accepted query must be answered"))
        .collect();
    (results, server.shutdown())
}

/// Bitwise response equality: scores and margins compared as bits so NaN
/// margins (no runner-up) compare equal too.
fn assert_same_result(a: &QueryResult, b: &QueryResult, what: &str) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.query_id, y.query_id, "{what}: query id");
            assert_eq!(x.subject_id, y.subject_id, "{what}: subject id");
            assert_eq!(x.best, y.best, "{what}: best index");
            assert_eq!(x.best_id, y.best_id, "{what}: best id");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{what}: score bits");
            assert_eq!(
                x.margin.to_bits(),
                y.margin.to_bits(),
                "{what}: margin bits"
            );
            assert_eq!(x.decision, y.decision, "{what}: decision");
        }
        (Err(x), Err(y)) => assert_eq!(x, y, "{what}: error"),
        _ => panic!("{what}: Ok/Err mismatch:\n  {a:?}\nvs\n  {b:?}"),
    }
}

/// Property 1: the batched similarity GEMM is bit-identical to the one-shot
/// pipeline for every thread count × batch size, and concatenating
/// ragged sub-batches reproduces the full batch exactly.
#[test]
fn batched_similarity_matches_one_shot_pipeline_bitwise() {
    let cohort = cohort(16, 0x5e41);
    let known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
    let anon = cohort.group_matrix(Task::Rest, Session::Two).unwrap();
    let queries = payloads(&anon);
    for threads in [1usize, 8] {
        with_thread_count(threads, || {
            let cfg = config(DegradedInput::Reject, None);
            for q_count in [1usize, 3, 16] {
                // One-shot pipeline on the first q_count anon subjects.
                let sub = GroupMatrix::from_matrix(
                    Matrix::from_fn(known.n_features(), q_count, |r, c| queries[c][r]),
                    (0..q_count).map(|i| format!("q{i}")).collect(),
                    known.n_regions(),
                )
                .unwrap();
                let mut one_shot = AttackPlan::prepare(known.clone(), cfg.clone()).unwrap();
                let outcome = one_shot
                    .run_with(&sub, cfg.n_features, MatchRule::Argmax)
                    .unwrap();
                // Batched path over the same payloads.
                let mut plan = AttackPlan::prepare(known.clone(), cfg.clone()).unwrap();
                let refs: Vec<&[f64]> = queries[..q_count].iter().map(|q| q.as_slice()).collect();
                let sim = plan.correlate_batch(&refs).unwrap();
                assert_eq!(sim.shape(), outcome.similarity.shape());
                for i in 0..sim.rows() {
                    for j in 0..sim.cols() {
                        assert_eq!(
                            sim[(i, j)].to_bits(),
                            outcome.similarity[(i, j)].to_bits(),
                            "threads={threads} Q={q_count} at ({i},{j})"
                        );
                    }
                }
            }
            // Ragged packing: 7 queries split 3+3+1 concatenate to the
            // same bits as one batch of 7.
            let refs: Vec<&[f64]> = queries[..7].iter().map(|q| q.as_slice()).collect();
            let mut plan = AttackPlan::prepare(known.clone(), cfg.clone()).unwrap();
            let full = plan.correlate_batch(&refs).unwrap();
            let mut col = 0usize;
            for chunk in refs.chunks(3) {
                let part = plan.correlate_batch(chunk).unwrap();
                for j in 0..part.cols() {
                    for i in 0..part.rows() {
                        assert_eq!(
                            part[(i, j)].to_bits(),
                            full[(i, col + j)].to_bits(),
                            "threads={threads} ragged col {}",
                            col + j
                        );
                    }
                }
                col += part.cols();
            }
        });
    }
}

/// Property 2: server responses depend only on the query and the plan —
/// never on worker count or batch packing. The (1 worker, batch 1) serial
/// server is the reference; wider configurations must reproduce it bitwise.
#[test]
fn server_responses_are_packing_and_parallelism_invariant() {
    let cohort = cohort(12, 0x5e42);
    let known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
    let anon = cohort.group_matrix(Task::Rest, Session::Two).unwrap();
    let cfg = config(DegradedInput::Reject, Some(0.02));
    let queries: Vec<Query> = payloads(&anon)
        .into_iter()
        .cycle()
        .take(40)
        .enumerate()
        .map(|(i, values)| Query::new(i as u64, format!("anon-{i}"), values))
        .collect();
    let serial = ServeConfig {
        workers: 1,
        batch_max: 1,
        ..ServeConfig::default()
    };
    let plan = AttackPlan::prepare(known.clone(), cfg.clone()).unwrap();
    let (reference, ref_report) = run_server(plan, serial, &queries);
    assert!(ref_report.clean_drain(), "reference drain: {ref_report:?}");
    assert_eq!(ref_report.answered, queries.len() as u64);
    for (workers, batch_max) in [(3usize, 4usize), (2, 16)] {
        let plan = AttackPlan::prepare(known.clone(), cfg.clone()).unwrap();
        let serve_cfg = ServeConfig {
            workers,
            batch_max,
            ..ServeConfig::default()
        };
        let (results, report) = run_server(plan, serve_cfg, &queries);
        assert!(
            report.clean_drain(),
            "drain {workers}w/{batch_max}b: {report:?}"
        );
        for (i, (got, want)) in results.iter().zip(&reference).enumerate() {
            assert_same_result(got, want, &format!("query {i} at {workers}w/{batch_max}b"));
        }
    }
}

/// Property 3: chaos faults isolate. Exactly the faulted queries get the
/// typed error of their fault class; every clean query answers bit-identical
/// to the fault-free reference even when a poison batchmate panicked the
/// worker mid-batch.
#[test]
fn chaos_faults_hit_exactly_their_queries() {
    let cohort = cohort(10, 0x5e43);
    let known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
    let anon = cohort.group_matrix(Task::Rest, Session::Two).unwrap();
    let cfg = config(DegradedInput::Reject, Some(0.02));
    let base: Vec<Query> = payloads(&anon)
        .into_iter()
        .cycle()
        .take(48)
        .enumerate()
        .map(|(i, values)| Query::new(i as u64, format!("anon-{i}"), values))
        .collect();
    let plan = AttackPlan::prepare(known.clone(), cfg.clone()).unwrap();
    let (reference, _) = run_server(
        plan,
        ServeConfig {
            workers: 1,
            batch_max: 4,
            ..ServeConfig::default()
        },
        &base,
    );
    for chaos_seed in [7u64, 99] {
        let spec = ChaosSpec {
            seed: chaos_seed,
            rate: 0.4,
        };
        spec.validate().unwrap();
        let mut faults = Vec::with_capacity(base.len());
        let chaotic: Vec<Query> = base
            .iter()
            .map(|q| {
                let mut q = q.clone();
                let fault = spec.apply(q.id, &mut q.values);
                if fault == Some(ServiceFaultKind::WorkerPanic) {
                    q.injected = fault;
                }
                faults.push(fault);
                q
            })
            .collect();
        assert!(
            faults.iter().any(|f| f.is_some()),
            "seed {chaos_seed}: chaos spec injected nothing at rate 0.4"
        );
        let plan = AttackPlan::prepare(known.clone(), cfg.clone()).unwrap();
        let (results, report) = run_server(
            plan,
            ServeConfig {
                workers: 2,
                batch_max: 8,
                max_respawns: 64,
                ..ServeConfig::default()
            },
            &chaotic,
        );
        assert!(report.clean_drain(), "chaos drain: {report:?}");
        for (i, (result, fault)) in results.iter().zip(&faults).enumerate() {
            let what = format!("seed {chaos_seed} query {i} fault {fault:?}");
            match fault {
                Some(ServiceFaultKind::TruncatePayload) => assert!(
                    matches!(result, Err(QueryError::WrongDimension { .. })),
                    "{what}: {result:?}"
                ),
                Some(ServiceFaultKind::NanPayload) => assert!(
                    matches!(result, Err(QueryError::NonFinite { .. })),
                    "{what}: {result:?}"
                ),
                Some(ServiceFaultKind::WorkerPanic) => assert!(
                    matches!(result, Err(QueryError::WorkerPanicked)),
                    "{what}: {result:?}"
                ),
                // A stalled producer delays a query, never changes it.
                Some(ServiceFaultKind::StallProducer) | None => {
                    assert_same_result(result, &reference[i], &what)
                }
            }
        }
        let n_panics = faults
            .iter()
            .filter(|f| **f == Some(ServiceFaultKind::WorkerPanic))
            .count() as u64;
        assert_eq!(report.quarantined, n_panics, "quarantine count");
        assert!(report.respawns >= n_panics, "respawns: {report:?}");
    }
}

/// Property 4: non-finite queries under `Mask`/`Impute` answer exactly like
/// the one-shot degraded pipeline run on a one-subject group.
#[test]
fn degraded_queries_follow_the_policy_paths() {
    let cohort = cohort(10, 0x5e44);
    let known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
    let anon = cohort.group_matrix(Task::Rest, Session::Two).unwrap();
    for policy in [DegradedInput::Mask, DegradedInput::Impute] {
        let cfg = config(policy, Some(0.02));
        let mut values = payloads(&anon).swap_remove(3);
        for v in values.iter_mut().step_by(13) {
            *v = f64::NAN;
        }
        // Solo reference through the public one-shot pipeline.
        let group = singleton_group(&values, "poisoned", known.n_regions());
        let mut solo = AttackPlan::prepare(known.clone(), cfg.clone()).unwrap();
        let outcome = solo
            .run_with(&group, cfg.n_features, MatchRule::Argmax)
            .unwrap();
        let plan = AttackPlan::prepare(known.clone(), cfg.clone()).unwrap();
        let (results, report) = run_server(
            plan,
            ServeConfig {
                workers: 1,
                batch_max: 4,
                ..ServeConfig::default()
            },
            &[Query::new(0, "poisoned", values)],
        );
        assert!(report.clean_drain(), "{policy}: {report:?}");
        let response = results[0].as_ref().unwrap_or_else(|e| {
            panic!("{policy}: degraded query must answer via the policy path, got {e}")
        });
        let p = outcome.predicted[0];
        assert_eq!(response.best, Some(p), "{policy}: best");
        assert_eq!(
            response.score.to_bits(),
            outcome.similarity[(p, 0)].to_bits(),
            "{policy}: score bits"
        );
        assert_eq!(
            response.margin.to_bits(),
            outcome.match_margins()[0].to_bits(),
            "{policy}: margin bits"
        );
        assert_eq!(
            response.decision, outcome.decisions[0],
            "{policy}: decision"
        );
    }
}

/// Property 5a: tiny queue + blocking submits = backpressure without loss.
#[test]
fn backpressure_accepts_everything_within_deadline() {
    let cohort = cohort(8, 0x5e45);
    let known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
    let anon = cohort.group_matrix(Task::Rest, Session::Two).unwrap();
    let cfg = config(DegradedInput::Reject, None);
    let queries: Vec<Query> = payloads(&anon)
        .into_iter()
        .cycle()
        .take(200)
        .enumerate()
        .map(|(i, values)| Query::new(i as u64, format!("anon-{i}"), values))
        .collect();
    let plan = AttackPlan::prepare(known, cfg).unwrap();
    let serve_cfg = ServeConfig {
        workers: 2,
        queue_capacity: 4,
        batch_max: 4,
        submit_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let (results, report) = run_server(plan, serve_cfg, &queries);
    assert!(
        results.iter().all(|r| r.is_ok()),
        "all clean queries answer Ok"
    );
    assert!(report.clean_drain(), "{report:?}");
    assert_eq!(report.submitted, 200);
    assert_eq!(report.answered, 200);
    assert_eq!(report.shed, 0);
}

/// Property 5b: a worker that exhausts its respawn budget parks without
/// losing queries — everything accepted is still answered (typed `Closed`
/// at worst), and later submits fail typed instead of hanging.
#[test]
fn worker_death_parks_without_losing_queries() {
    let cohort = cohort(8, 0x5e46);
    let known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
    let anon = cohort.group_matrix(Task::Rest, Session::Two).unwrap();
    let cfg = config(DegradedInput::Reject, None);
    let payload_set = payloads(&anon);
    let server = MatchServer::start(
        AttackPlan::prepare(known, cfg).unwrap(),
        ServeConfig {
            workers: 1,
            batch_max: 8,
            max_respawns: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut poison = Query::new(0, "poison", payload_set[0].clone());
    poison.injected = Some(ServiceFaultKind::WorkerPanic);
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    match server.submit(poison) {
        Ok(rx) => accepted.push(rx),
        Err(_) => rejected += 1,
    }
    for i in 1..7u64 {
        let q = Query::new(i, format!("anon-{i}"), payload_set[i as usize % 8].clone());
        // Once the lone worker dies the queue closes; submissions then fail
        // typed rather than queueing into the void.
        match server.submit(q) {
            Ok(rx) => accepted.push(rx),
            Err((_, e)) => {
                assert!(
                    matches!(e, SubmitError::Closed),
                    "late submit must fail Closed, got {e:?}"
                );
                rejected += 1;
            }
        }
    }
    // Shut down first: with the lone worker dead, the queued remainder is
    // only answered (typed `Closed`) by the shutdown drain.
    let report = server.shutdown();
    for rx in &accepted {
        let result: QueryResult = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("accepted query must be answered even across worker death");
        drop(result);
    }
    assert!(report.clean_drain(), "{report:?}");
    assert_eq!(report.submitted as usize + rejected, 7);
    assert!(report.respawns >= 1, "{report:?}");
}
