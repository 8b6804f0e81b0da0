//! `serve-paper`: open-loop Poisson arrivals of full 64,620-feature payloads
//! against a `MatchServer` at `ServeConfig::default()` over the 100-subject
//! gallery, at 1,000 and 1,500 q/s.
//!
//! Each run also measures the saturation throughput through the blocking
//! `submit`; traced runs search for the knee under a 20 ms p99 limit and
//! end with a short fault probe (a `ChaosSpec` pass: truncated payloads,
//! NaN payloads, worker panics), which feeds the quarantine and respawn
//! counters.
//!
//! The load comes from this process with two generator threads (one
//! sender, one receiver). Latency runs from each query's *due* time on the
//! schedule to the moment its reply is received, so generator lateness and
//! stalls are charged to the measurement rather than hidden. Every reply is
//! checked: clean queries bitwise against a batch-1 reference server,
//! injected faults against their expected error taxonomy.

use crate::host::Host;
use crate::layers;
use crate::report::Report;
use crate::stats::{cpu, cpu_time, evict, mean, median, percentile, samples_for_tail, wall, Timed};
use crate::{Args, Size, WorkDir};
use neurodeanon_connectome::{io, GroupMatrix};
use neurodeanon_core::attack::{subject_key, AttackConfig, AttackPlan};
use neurodeanon_core::serve::{
    MatchResponse, MatchServer, Query, QueryResult, ServeConfig, SubmitError,
};
use neurodeanon_datasets::{
    ChaosSpec, HcpCohort, HcpCohortConfig, ServiceFaultKind, Session, Task,
};
use neurodeanon_obs as obs;
use std::collections::VecDeque;
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// Longest the receiver blocks on the oldest pending reply before sweeping
/// the others again; part of the stated receive-error bound.
const RECV_TICK: Duration = Duration::from_micros(100);
/// Generator threads: one sender, one receiver.
const GEN_THREADS: usize = 2;
/// Knee-search probes after the two fixed rates.
const KNEE_PROBES: usize = 6;
/// Growth factor of the knee search while every probe passes.
const KNEE_STEP: f64 = 1.5;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Seed of the fault probe's `ChaosSpec`. Fixed, as in the repository's
/// serve bench: which query ids carry which fault is part of the probe's
/// definition; `--seed` varies the cohort, the payload choice and the
/// arrival times.
const CHAOS_SEED: u64 = 0xc4a05;
/// Generator lateness (p99, ms) beyond which a pass is void and re-run.
const LATE_VOID_MS: f64 = 1.0;
/// Attempts at a fixed-rate pass whose generator keeps running late; when
/// every attempt is void, the one whose generator ran least late is kept.
const PASS_ATTEMPTS: usize = 3;
/// Offered rate and fault rate of the traced clean workloads' fault probe:
/// about 2.5 panics a second, each stalling a worker for two plan clones,
/// well within what the default queue absorbs at this rate.
const FAULT_PROBE_QPS: f64 = 100.0;
const FAULT_PROBE_CHAOS_RATE: f64 = 0.1;
/// Interleaved rounds of the timed legs; each runs one sub-pass of each
/// fixed rate and one saturation pass.
const ROUNDS: usize = 4;
/// Cold starts per round, each on a server of its own.
const COLD_PER_ROUND: usize = 2;
/// Window over which saturation throughput is counted; `capacity_qps` is
/// the median window of all saturation passes, so a host stall costs the
/// windows it falls in, not the whole figure.
const THROUGHPUT_WINDOW: Duration = Duration::from_millis(100);
/// Queries in flight during a saturation pass: enough to keep both workers
/// busy with full batches (2 × 16), and below the default queue's shed
/// watermark (¾ of 64), past which workers halve their batches and the
/// pass would measure the overload mode instead.
const SATURATION_WINDOW: usize = 40;
/// Tail percentile of every serve latency figure.
const Q_TAIL: f64 = 0.99;

/// The workload's shape, rates and limit.
struct Spec {
    cohort: HcpCohortConfig,
    low_qps: f64,
    high_qps: f64,
    p99_limit_ms: f64,
}

fn spec(args: &Args) -> Spec {
    let cohort = match args.size {
        Size::Paper => HcpCohortConfig {
            seed: args.seed,
            ..HcpCohortConfig::default()
        },
        Size::Tiny => HcpCohortConfig::small(12, args.seed),
    };
    let (low_qps, high_qps) = match args.size {
        Size::Paper => (1_000.0, 1_500.0),
        Size::Tiny => (500.0, 1_000.0),
    };
    Spec {
        cohort,
        low_qps,
        high_qps,
        p99_limit_ms: 20.0,
    }
}

/// Gallery (session 1) and query payload pool (session 2 records).
struct Inputs {
    known: GroupMatrix,
    probes: GroupMatrix,
    pool: Vec<Vec<f64>>,
}

fn set_up(spec: &Spec) -> Result<Inputs, String> {
    let cohort = HcpCohort::generate(spec.cohort.clone()).map_err(|e| e.to_string())?;
    let known = cohort
        .group_matrix(Task::Rest, Session::One)
        .map_err(|e| e.to_string())?;
    let probes = cohort
        .group_matrix(Task::Rest, Session::Two)
        .map_err(|e| e.to_string())?;
    let pool = (0..probes.n_subjects())
        .map(|s| probes.subject_features(s))
        .collect();
    Ok(Inputs {
        known,
        probes,
        pool,
    })
}

/// What a reply must be.
#[derive(Clone, Copy)]
enum Expect {
    /// The reference response of this pool payload.
    Answer(usize),
    /// A typed error with this taxonomy.
    Error(&'static str),
}

struct Pending {
    id: u64,
    due: Instant,
    expect: Expect,
    rx: mpsc::Receiver<QueryResult>,
}

/// One open-loop pass at a fixed offered rate.
#[derive(Default)]
struct Pass {
    offered_qps: f64,
    sent: u64,
    refused: u64,
    wrong: u64,
    wrong_examples: Vec<String>,
    panics: u64,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    depth: Vec<f64>,
    /// Last due time to last reply.
    drain_ms: f64,
    /// Longest receiver loop iteration: a reply is timestamped at most this
    /// long after it arrived.
    recv_err_bound_us: f64,
    /// Replies per second from the first due time to the last reply.
    answered_qps: f64,
    /// Replies per second in each whole [`THROUGHPUT_WINDOW`] of the pass.
    window_qps: Vec<f64>,
}

impl Pass {
    fn p50(&self) -> f64 {
        median(&self.latency_ms)
    }
    /// Generator lateness p99 (ms).
    fn late_p99(&self) -> f64 {
        percentile(&self.late_ms, Q_TAIL)
    }
    /// Meets the limit: no wrong reply, p99 within the limit with every
    /// refused query counted as a miss, and the last reply within the limit
    /// of the last due time (a growing backlog fails that).
    fn meets(&self, limit_ms: f64) -> bool {
        let mut all = self.latency_ms.clone();
        all.extend((0..self.refused).map(|_| f64::INFINITY));
        self.wrong == 0
            && !all.is_empty()
            && percentile(&all, Q_TAIL) <= limit_ms
            && self.drain_ms <= limit_ms
    }
}

/// The latencies of `passes`, pooled.
fn latencies(passes: &[Pass]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.latency_ms.iter().copied())
        .collect()
}

/// SplitMix64: the benchmark's own input stream, independent of the
/// program's generators.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
    /// Exponential inter-arrival gap of a Poisson process at `rate`/s.
    fn gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-self.unit().ln() / rate)
    }
}

/// The schedule of one pass: `(due offset, pool index)` per query.
fn schedule(seed: u64, rate: f64, duration: Duration, pool: usize) -> Vec<(Duration, usize)> {
    let mut rng = SplitMix(seed);
    let mut at = Duration::ZERO;
    let mut out = Vec::new();
    loop {
        at += rng.gap(rate);
        if at > duration {
            return out;
        }
        out.push((at, (rng.next() % pool as u64) as usize));
    }
}

struct Load<'a> {
    server: &'a MatchServer,
    inputs: &'a Inputs,
    reference: &'a [MatchResponse],
    chaos: Option<ChaosSpec>,
}

/// How queries arrive during a pass.
#[derive(Debug, Clone, Copy)]
enum Arrivals {
    /// Poisson arrivals at this rate (q/s), submitted with `try_submit`;
    /// each query is due at its scheduled time.
    Open(f64),
    /// Closed loop with [`SATURATION_WINDOW`] queries in flight, through
    /// the blocking `submit` (retried on backpressure timeout); each query
    /// is due when it is submitted.
    Saturate,
}

impl Load<'_> {
    /// Runs one pass of `duration`; query ids start at `id_base` (chaos
    /// faults are a pure function of the id).
    fn pass(&self, seed: u64, arrivals: Arrivals, duration: Duration, id_base: u64) -> Pass {
        let pool = self.inputs.pool.len();
        let plan = match arrivals {
            Arrivals::Open(rate) => schedule(seed, rate, duration, pool),
            Arrivals::Saturate => Vec::new(),
        };
        let mut pick = SplitMix(seed);
        let (to_recv, from_send) = mpsc::channel::<Pending>();
        // The in-flight window of a closed-loop pass: the sender puts a
        // token in before each submit and blocks while the window is full;
        // the receiver takes one out per recorded reply.
        let (window_in, window_out) = match arrivals {
            Arrivals::Open(_) => (None, None),
            Arrivals::Saturate => {
                let (tx, rx) = mpsc::sync_channel::<()>(SATURATION_WINDOW);
                (Some(tx), Some(rx))
            }
        };
        let mut pass = Pass {
            offered_qps: match arrivals {
                Arrivals::Open(rate) => rate,
                Arrivals::Saturate => 0.0,
            },
            ..Pass::default()
        };
        let t0 = Instant::now() + Duration::from_millis(1);
        let mut last_due = t0;
        let received = std::thread::scope(|scope| {
            let receiver =
                scope.spawn(|| receive(from_send, window_out, self.reference, &self.inputs.probes));
            for i in 0.. {
                let (due, idx) = match arrivals {
                    Arrivals::Open(_) => {
                        let Some(&(offset, idx)) = plan.get(i) else {
                            break;
                        };
                        let due = t0 + offset;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        (due, idx)
                    }
                    Arrivals::Saturate => {
                        if t0.elapsed() >= duration {
                            break;
                        }
                        if let Some(w) = &window_in {
                            if w.send(()).is_err() {
                                break;
                            }
                        }
                        (Instant::now(), (pick.next() % pool as u64) as usize)
                    }
                };
                last_due = due;
                let id = id_base + i as u64;
                let mut values = self.inputs.pool[idx].clone();
                let mut injected = None;
                let expect = match self.chaos.and_then(|c| c.apply(id, &mut values)) {
                    None | Some(ServiceFaultKind::StallProducer) => Expect::Answer(idx),
                    Some(ServiceFaultKind::TruncatePayload) => Expect::Error("wrong_dimension"),
                    Some(ServiceFaultKind::NanPayload) => Expect::Error("non_finite"),
                    Some(ServiceFaultKind::WorkerPanic) => {
                        injected = Some(ServiceFaultKind::WorkerPanic);
                        pass.panics += 1;
                        Expect::Error("panic")
                    }
                };
                let mut query =
                    Query::new(id, self.inputs.probes.subject_ids()[idx].clone(), values);
                query.injected = injected;
                let start = Instant::now();
                pass.late_ms.push((start - due).as_secs_f64() * 1e3);
                let submitted = match arrivals {
                    Arrivals::Open(_) => self.server.try_submit(query),
                    Arrivals::Saturate => loop {
                        match self.server.submit(query) {
                            Err((q, SubmitError::Timeout { .. })) => query = q,
                            other => break other,
                        }
                    },
                };
                pass.submit_us.push(start.elapsed().as_secs_f64() * 1e6);
                pass.depth.push(self.server.queue_depth() as f64);
                pass.sent += 1;
                match submitted {
                    Ok(rx) => {
                        let p = Pending {
                            id,
                            due,
                            expect,
                            rx,
                        };
                        if to_recv.send(p).is_err() {
                            break;
                        }
                    }
                    Err((_, SubmitError::QueueFull { .. })) => pass.refused += 1,
                    Err((q, e)) => {
                        pass.wrong += 1;
                        pass.wrong_examples
                            .push(format!("query {}: submit failed: {e}", q.id));
                        // Its window token is never returned: stop before
                        // the window closes.
                        if window_in.is_some() {
                            break;
                        }
                    }
                }
            }
            drop(to_recv);
            receiver.join().expect("receiver thread panicked")
        });
        pass.latency_ms = received.latency_ms;
        pass.wrong += received.wrong;
        pass.wrong_examples.extend(received.wrong_examples);
        let last_reply = received.reply_at.last();
        pass.drain_ms = last_reply.map_or(0.0, |t| {
            t.saturating_duration_since(last_due).as_secs_f64() * 1e3
        });
        pass.answered_qps = last_reply.map_or(0.0, |t| {
            pass.latency_ms.len() as f64 / t.saturating_duration_since(t0).as_secs_f64()
        });
        pass.window_qps = window_rates(&received.reply_at, t0, duration);
        pass.recv_err_bound_us = received.max_iteration.as_secs_f64() * 1e6;
        pass
    }
}

#[derive(Default)]
struct Received {
    latency_ms: Vec<f64>,
    wrong: u64,
    wrong_examples: Vec<String>,
    /// When each reply was recorded, in recording order.
    reply_at: Vec<Instant>,
    max_iteration: Duration,
}

/// Reply rate (1/s) in each whole [`THROUGHPUT_WINDOW`] from `t0` to
/// `t0 + span`.
fn window_rates(reply_at: &[Instant], t0: Instant, span: Duration) -> Vec<f64> {
    let w = THROUGHPUT_WINDOW.as_nanos();
    let mut counts = vec![0u64; (span.as_nanos() / w) as usize];
    for at in reply_at {
        let i = (at.saturating_duration_since(t0).as_nanos() / w) as usize;
        if let Some(c) = counts.get_mut(i) {
            *c += 1;
        }
    }
    let secs = THROUGHPUT_WINDOW.as_secs_f64();
    counts.into_iter().map(|c| c as f64 / secs).collect()
}

/// The receiver: sweeps every pending reply channel, then blocks on the
/// oldest for at most [`RECV_TICK`]. A reply is therefore timestamped no
/// later than one loop iteration after it arrived; the longest iteration is
/// reported as the bound on that error. Each recorded reply frees one slot
/// of the closed-loop window, if there is one.
fn receive(
    from_send: mpsc::Receiver<Pending>,
    window: Option<mpsc::Receiver<()>>,
    reference: &[MatchResponse],
    probes: &GroupMatrix,
) -> Received {
    let mut out = Received::default();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut open = true;
    let record = |p: &Pending, result: Option<QueryResult>, at: Instant, out: &mut Received| {
        out.latency_ms
            .push(at.saturating_duration_since(p.due).as_secs_f64() * 1e3);
        out.reply_at.push(at);
        if let Some(w) = &window {
            let _ = w.try_recv();
        }
        let problem = match (result, p.expect) {
            (None, _) => Some("reply channel closed without a reply".to_string()),
            (Some(Ok(r)), Expect::Answer(idx)) => {
                (!same_response(&r, &reference[idx], p.id, &probes.subject_ids()[idx]))
                    .then(|| format!("response differs from the batch-1 reference: {r:?}"))
            }
            (Some(Err(e)), Expect::Error(tax)) => {
                (e.taxonomy() != tax).then(|| format!("expected {tax}, got {}", e.taxonomy()))
            }
            (Some(Ok(_)), Expect::Error(tax)) => Some(format!("expected {tax}, got an answer")),
            (Some(Err(e)), Expect::Answer(_)) => Some(format!("clean query failed: {e}")),
        };
        if let Some(problem) = problem {
            out.wrong += 1;
            if out.wrong_examples.len() < 5 {
                out.wrong_examples
                    .push(format!("query {}: {problem}", p.id));
            }
        }
    };
    while open || !pending.is_empty() {
        let iteration = Instant::now();
        loop {
            match from_send.try_recv() {
                Ok(p) => pending.push_back(p),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        if pending.is_empty() {
            if open {
                match from_send.recv_timeout(RECV_TICK) {
                    Ok(p) => pending.push_back(p),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => open = false,
                }
            }
            continue;
        }
        let before = pending.len();
        pending.retain(|p| match p.rx.try_recv() {
            Ok(r) => {
                record(p, Some(r), Instant::now(), &mut out);
                false
            }
            Err(TryRecvError::Empty) => true,
            Err(TryRecvError::Disconnected) => {
                record(p, None, Instant::now(), &mut out);
                false
            }
        });
        if pending.len() == before {
            if let Some(head) = pending.front() {
                match head.rx.recv_timeout(RECV_TICK) {
                    Ok(r) => {
                        record(head, Some(r), Instant::now(), &mut out);
                        pending.pop_front();
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        record(head, None, Instant::now(), &mut out);
                        pending.pop_front();
                    }
                }
            }
        }
        out.max_iteration = out.max_iteration.max(iteration.elapsed());
    }
    out
}

/// Bitwise response identity with the reference, plus the echoed ids.
fn same_response(got: &MatchResponse, want: &MatchResponse, id: u64, subject: &str) -> bool {
    got.query_id == id
        && got.subject_id == subject
        && got.best == want.best
        && got.best_id == want.best_id
        && got.score.to_bits() == want.score.to_bits()
        && got.margin.to_bits() == want.margin.to_bits()
        && got.decision == want.decision
}

/// One cold start: `prepare` -> `MatchServer::start` -> the first reply
/// (pool payload 0). Returns the server, the time to start and the time
/// to the first reply, and the reply.
fn cold_start(
    inputs: &Inputs,
    attack_cfg: &AttackConfig,
    serve_cfg: &ServeConfig,
) -> Result<(MatchServer, Timed, Timed, QueryResult), String> {
    let (t0, c0) = (Instant::now(), cpu_time());
    let since = || Timed {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        cpu_ms: cpu_time().saturating_sub(c0).as_secs_f64() * 1e3,
    };
    let plan =
        AttackPlan::prepare(inputs.known.clone(), attack_cfg.clone()).map_err(|e| e.to_string())?;
    let server = MatchServer::start(plan, serve_cfg.clone()).map_err(|e| e.to_string())?;
    let started = since();
    let q = Query::new(
        u64::MAX,
        inputs.probes.subject_ids()[0].clone(),
        inputs.pool[0].clone(),
    );
    let reply = server
        .submit(q)
        .map_err(|(_, e)| format!("cold submit: {e}"))?
        .recv()
        .map_err(|e| format!("cold reply: {e}"))?;
    Ok((server, started, since(), reply))
}

/// Per-payload reference responses from a 1-worker, batch-1 server.
fn reference(
    known: &GroupMatrix,
    cfg: &AttackConfig,
    inputs: &Inputs,
) -> Result<Vec<MatchResponse>, String> {
    let plan = AttackPlan::prepare(known.clone(), cfg.clone()).map_err(|e| e.to_string())?;
    let server = MatchServer::start(
        plan,
        ServeConfig {
            workers: 1,
            batch_max: 1,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(inputs.pool.len());
    for (i, values) in inputs.pool.iter().enumerate() {
        let q = Query::new(
            i as u64,
            inputs.probes.subject_ids()[i].clone(),
            values.clone(),
        );
        let rx = server
            .submit(q)
            .map_err(|(_, e)| format!("reference submit: {e}"))?;
        let r = rx
            .recv()
            .map_err(|e| format!("reference reply: {e}"))?
            .map_err(|e| format!("reference query {i}: {e}"))?;
        out.push(r);
    }
    let report = server.shutdown();
    if !report.clean_drain() {
        return Err(format!("reference server did not drain clean: {report:?}"));
    }
    Ok(out)
}

pub fn run(args: &Args, host: &Host, report: &mut Report) -> Result<(), String> {
    let spec = spec(args);
    let setup_reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::new();
    let mut inputs = None;
    for _ in 0..setup_reps {
        drop(inputs.take());
        let (made, t) = Timed::call(|| set_up(&spec));
        inputs = Some(made?);
        setup_times.push(t);
    }
    let inputs = inputs.expect("at least one setup");
    let attack_cfg = AttackConfig::default();
    let serve_cfg = ServeConfig::default();
    let reference = reference(&inputs.known, &attack_cfg, &inputs)?;
    report.attempt(1);
    let truth_hits = reference
        .iter()
        .zip(inputs.probes.subject_ids())
        .filter(|(r, id)| {
            r.best_id
                .as_deref()
                .is_some_and(|b| subject_key(b) == subject_key(id))
        })
        .count();
    report.extra(
        "serve.reference_accuracy",
        truth_hits as f64 / reference.len() as f64,
        "ratio",
        reference.len(),
        "share of pool payloads the batch-1 reference identifies correctly",
    );
    report.line(format!(
        "open loop, Poisson arrivals; gallery {} subjects x {} features; payload {} KB; pool {} payloads",
        inputs.known.n_subjects(),
        inputs.known.n_features(),
        inputs.known.n_features() * 8 / 1000,
        inputs.pool.len()
    ));
    report.line(format!(
        "server workers {}, batch_max {}, queue {}; generator threads {}; par threads {}; total {}",
        serve_cfg.workers,
        serve_cfg.batch_max,
        serve_cfg.queue_capacity,
        GEN_THREADS,
        host.threads_label(host.par_threads),
        host.threads_label(serve_cfg.workers + GEN_THREADS)
    ));
    report.line(format!(
        "rates: low {} q/s, high {} q/s; p99 limit {} ms",
        spec.low_qps, spec.high_qps, spec.p99_limit_ms
    ));
    report.timing(
        "setup_s",
        &cpu(&setup_times),
        0.5,
        "median setup, on-CPU: synthesis of gallery and query pool",
    );
    report.extra(
        "serve.setup_wall_s",
        median(&wall(&setup_times)) / 1e3,
        "s",
        setup_times.len(),
        "same, wall time",
    );

    // The load server's own cold start is the first cold-start sample; each
    // round adds one more on a server of its own.
    let mut prepares = Vec::new();
    let mut colds = Vec::new();
    let mut cold_sample = |report: &mut Report| -> Result<MatchServer, String> {
        // The gallery starts out of cache, as on attack-paper.
        evict(inputs.known.as_matrix().as_slice());
        let (server, started_ms, cold_ms, reply) = cold_start(&inputs, &attack_cfg, &serve_cfg)?;
        prepares.push(started_ms);
        colds.push(cold_ms);
        report.attempt(1);
        match reply {
            Ok(r)
                if same_response(&r, &reference[0], u64::MAX, &inputs.probes.subject_ids()[0]) => {}
            other => report.fail(format!(
                "cold first reply differs from the reference: {other:?}"
            )),
        }
        Ok(server)
    };
    let server = cold_sample(report)?;

    let load = Load {
        server: &server,
        inputs: &inputs,
        reference: &reference,
        chaos: None,
    };
    let mut pass_index = 0u64;
    let mut pass_seed = SplitMix(args.seed ^ 0x5e7e_5eed);
    let mut voided: Vec<Pass> = Vec::new();
    let mut run_pass = |arrivals: Arrivals, duration: Duration| {
        // Open passes last long enough for the p99 to keep ten samples
        // beyond it, saturation passes for several throughput windows.
        let duration = match arrivals {
            Arrivals::Open(rate) => duration.max(Duration::from_secs_f64(
                samples_for_tail(Q_TAIL) as f64 * 1.2 / rate,
            )),
            Arrivals::Saturate => duration.max(THROUGHPUT_WINDOW * 5),
        };
        let id_base = pass_index << 32;
        pass_index += 1;
        let seed = pass_seed.next();
        let mut p = load.pass(seed, arrivals, duration, id_base);
        // A generator that fell behind its schedule did not offer the
        // intended load: the pass is void and runs again on the same
        // schedule. On a shared 2-vCPU virtual machine an idle thread's
        // 1 ms sleep already overshoots by about 1 ms at p99, so many
        // passes need a second attempt; stalls long enough to fill the
        // queue are much rarer, and the least-late attempt avoids them.
        if matches!(arrivals, Arrivals::Open(_)) {
            for _ in 1..PASS_ATTEMPTS {
                if p.late_p99() <= LATE_VOID_MS {
                    break;
                }
                let again = load.pass(seed, arrivals, duration, id_base);
                if again.late_p99() < p.late_p99() {
                    voided.push(std::mem::replace(&mut p, again));
                } else {
                    voided.push(again);
                }
            }
        }
        p
    };

    // Warm-up at the low rate (checked, not timed).
    let mut passes: Vec<(&'static str, Pass)> = vec![(
        "warm-up",
        run_pass(Arrivals::Open(spec.low_qps), args.budget(0.03)),
    )];
    let stats_before = server.stats();
    if args.trace {
        obs::reset();
        let untraced = run_pass(Arrivals::Open(spec.low_qps), args.budget(0.08));
        obs::enable();
        let traced = run_pass(Arrivals::Open(spec.low_qps), args.budget(0.08));
        report.metric(
            "trace.overhead_pct",
            100.0 * (traced.p50() - untraced.p50()) / untraced.p50(),
            traced.latency_ms.len(),
            "p50 at the low rate, traced vs untraced",
        );
        obs::reset();
        passes.push(("untraced", untraced));
        passes.push(("traced", traced));
    }
    // The legs run in ROUNDS interleaved rounds — cold starts, a sub-pass
    // at each fixed rate, a saturation pass — so every metric's samples
    // spread over the whole run instead of one stretch of it.
    let leg_time = args.budget(0.28 / ROUNDS as f64);
    let saturation_time = args.budget(0.36 / ROUNDS as f64);
    let (mut low, mut high, mut saturated) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        for _ in 0..COLD_PER_ROUND {
            let r = cold_sample(report)?.shutdown();
            report.attempt(1);
            if !r.clean_drain() {
                report.fail(format!("cold-start server did not drain clean: {r:?}"));
            }
        }
        low.push(run_pass(Arrivals::Open(spec.low_qps), leg_time));
        high.push(run_pass(Arrivals::Open(spec.high_qps), leg_time));
        saturated.push(run_pass(Arrivals::Saturate, saturation_time));
    }
    // On-CPU medians, as on attack-paper: the wall time of a cold start
    // follows whichever co-tenant holds a core while it runs.
    report.timing(
        "prepare_s",
        &cpu(&prepares),
        0.5,
        "median AttackPlan::prepare + MatchServer::start, on-CPU",
    );
    report.timing(
        "cold_s",
        &cpu(&colds),
        0.5,
        "median prepare + start + first reply, on-CPU",
    );
    report.extra(
        "serve.cold_wall_s",
        median(&wall(&colds)) / 1e3,
        "s",
        colds.len(),
        "same, wall time",
    );
    report.timing(
        "p50_ms",
        &latencies(&low),
        0.5,
        &format!("latency p50 at {} q/s (serve.p50_ms.low)", spec.low_qps),
    );
    report.timing(
        "high_p50_ms",
        &latencies(&high),
        0.5,
        &format!("latency p50 at {} q/s (serve.p50_ms.high)", spec.high_qps),
    );
    report.tail(
        "serve.p99_ms.low",
        &latencies(&low),
        Q_TAIL,
        &format!("latency p99 at {} q/s", spec.low_qps),
    );
    report.tail(
        "serve.p99_ms.high",
        &latencies(&high),
        Q_TAIL,
        &format!("latency p99 at {} q/s", spec.high_qps),
    );
    let windows: Vec<f64> = saturated
        .iter()
        .flat_map(|p| p.window_qps.iter().copied())
        .collect();
    report.metric(
        "capacity_qps",
        median(&windows),
        windows.len(),
        format!(
            "saturation throughput: median replies/s over {} ms windows of {ROUNDS} \
             closed-loop passes with {SATURATION_WINDOW} in flight",
            THROUGHPUT_WINDOW.as_millis()
        ),
    );
    passes.extend(low.into_iter().map(|p| ("low", p)));
    passes.extend(high.into_iter().map(|p| ("high", p)));
    passes.extend(saturated.into_iter().map(|p| ("saturate", p)));

    // The knee (traced runs): grow by KNEE_STEP while
    // probes pass, then bisect geometrically; the knee is the highest
    // passing offered rate.
    let limit = spec.p99_limit_ms;
    if args.trace {
        let probe_time = args.budget(0.3 / KNEE_PROBES as f64);
        let pass = |label| {
            &passes
                .iter()
                .find(|(l, _)| *l == label)
                .expect("fixed-rate pass")
                .1
        };
        let (low, high) = (pass("low"), pass("high"));
        let (mut lo, mut hi) = if high.meets(limit) {
            (spec.high_qps, None)
        } else if low.meets(limit) {
            (spec.low_qps, Some(spec.high_qps))
        } else {
            (spec.low_qps / 4.0, Some(spec.low_qps))
        };
        for _ in 0..KNEE_PROBES {
            let rate = hi.map_or(lo * KNEE_STEP, |h| (lo * h).sqrt());
            let p = run_pass(Arrivals::Open(rate), probe_time);
            if p.meets(limit) {
                lo = rate;
            } else {
                hi = Some(rate);
            }
            passes.push(("knee probe", p));
        }
        report.extra(
            "serve.knee_qps",
            lo,
            "1/s",
            KNEE_PROBES,
            &format!("highest offered rate with p99 <= {limit} ms (refusals count as misses) and no backlog"),
        );
        // The fault path as a layer: a short pass with the fault mix (stall
        // faults are sent clean: the schedule already fixes timing), so the
        // quarantine and respawn counters are measured. Slow and
        // fault-dense, so respawn stalls never overflow the default queue.
        let faulty = Load {
            chaos: Some(ChaosSpec {
                seed: CHAOS_SEED,
                rate: FAULT_PROBE_CHAOS_RATE,
            }),
            ..load
        };
        let p = faulty.pass(
            args.seed,
            Arrivals::Open(FAULT_PROBE_QPS),
            args.budget(0.1).max(Duration::from_secs(1)),
            u64::MAX << 32,
        );
        passes.push(("fault probe", p));
    }
    let stats_after = server.stats();
    passes.extend(voided.into_iter().map(|p| ("voided", p)));

    // Every pass is checked. Refusals fail at the fixed rates; beyond the
    // knee they are what the search measures.
    for (label, p) in &passes {
        report.attempt(p.sent);
        for e in &p.wrong_examples {
            report.fail(e.clone());
        }
        for _ in p.wrong_examples.len() as u64..p.wrong {
            report.fail("wrong reply");
        }
        // Refusals fail a fixed-rate pass. Beyond the knee they are what the
        // search measures, in a void pass they follow the burst of a
        // generator catching up with its schedule, and the fault probe
        // measures the fault path, not capacity.
        if !matches!(*label, "knee probe" | "voided" | "fault probe") {
            for _ in 0..p.refused {
                report.fail(format!("refused during the {label} pass"));
            }
        }
        let late_p99 = p.late_p99();
        let q = |x: f64| {
            if p.latency_ms.is_empty() {
                f64::NAN
            } else {
                percentile(&p.latency_ms, x)
            }
        };
        report.line(format!(
            "{label:>10} {:>9.1} q/s: sent {:>6} refused {:>4} wrong {} | p50 {:.3} p90 {:.3} p99 {:.3} p99.9 {:.3} ms | \
             drain {:.3} ms late p99 {:.3} ms{} | {:.0} answered/s -> {}",
            p.offered_qps,
            p.sent,
            p.refused,
            p.wrong,
            q(0.5),
            q(0.9),
            q(0.99),
            q(0.999),
            p.drain_ms,
            late_p99,
            if late_p99 > LATE_VOID_MS { " (generator late: pass void)" } else { "" },
            p.answered_qps,
            if p.meets(limit) { "meets limit" } else { "misses limit" }
        ));
    }

    if args.trace {
        let measured: Vec<&Pass> = passes.iter().skip(1).map(|(_, p)| p).collect();
        serve_layer(report, &serve_cfg, stats_before, stats_after, &measured);
    }
    let final_report = server.shutdown();
    report.attempt(1);
    if !final_report.clean_drain() {
        report.fail(format!("server did not drain clean: {final_report:?}"));
    }
    report.line(format!(
        "server totals: submitted {} answered {} failed {} quarantined {} respawns {} batches {}",
        final_report.submitted,
        final_report.answered,
        final_report.failed,
        final_report.quarantined,
        final_report.respawns,
        final_report.batches
    ));

    if args.trace {
        let dir = WorkDir::create(&args.workload)?;
        let known_csv = dir.path().join("known.csv");
        io::write_group_csv(&inputs.known, &known_csv).map_err(|e| e.to_string())?;
        layers::probe(
            &layers::Operands {
                known: &inputs.known,
                anon: &inputs.probes,
                config: &attack_cfg,
                known_csv: &known_csv,
            },
            host,
            report,
        )?;
        layers::print_snapshot(report);
    }
    Ok(())
}

/// Serve-layer and generator metrics over the measured passes.
fn serve_layer(
    report: &mut Report,
    cfg: &ServeConfig,
    before: neurodeanon_core::serve::ServeReport,
    after: neurodeanon_core::serve::ServeReport,
    passes: &[&Pass],
) {
    let batches = (after.batches - before.batches).max(1);
    let processed = (after.answered + after.failed) - (before.answered + before.failed);
    let batch_mean = processed as f64 / batches as f64;
    let all = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let depth = all(|p| &p.depth);
    let submit = all(|p| &p.submit_us);
    let late = all(|p| &p.late_ms);
    let refused: u64 = passes.iter().map(|p| p.refused).sum();
    let panics: u64 = passes.iter().map(|p| p.panics).sum();
    let respawns = after.respawns - before.respawns;
    let n = submit.len();
    report.metric(
        "serve.batch_size_mean",
        batch_mean,
        batches as usize,
        "queries processed / batches",
    );
    report.metric(
        "serve.batch_fill",
        batch_mean / cfg.batch_max as f64,
        batches as usize,
        "serve.batch_size_mean / batch_max",
    );
    report.metric(
        "serve.queue_depth_mean",
        mean(&depth),
        n,
        "queue_depth() sampled after each submit",
    );
    report.metric(
        "serve.queue_depth_max",
        depth.iter().copied().fold(0.0, f64::max),
        n,
        "same, maximum",
    );
    report.metric(
        "serve.submit_us_p99",
        percentile(&submit, Q_TAIL),
        n,
        "try_submit call time p99",
    );
    report.metric(
        "serve.refused",
        refused as f64,
        n,
        "QueueFull refusals, fixed rates and knee probes",
    );
    report.metric(
        "serve.shed",
        (after.shed - before.shed) as f64,
        1,
        "deadline sheds (queries carry no deadline)",
    );
    report.metric(
        "serve.quarantined",
        (after.quarantined - before.quarantined) as f64,
        1,
        "queries quarantined after a contained panic",
    );
    report.metric("serve.respawns", respawns as f64, 1, "worker plan respawns");
    report.metric(
        "serve.respawns_per_panic",
        if panics > 0 {
            respawns as f64 / panics as f64
        } else {
            0.0
        },
        panics as usize,
        "respawns / injected panics (0 when none injected)",
    );
    report.metric(
        "gen.late_ms_p99",
        percentile(&late, Q_TAIL),
        n,
        "submit time minus due time, p99",
    );
    report.metric(
        "gen.late_ms_max",
        late.iter().copied().fold(0.0, f64::max),
        n,
        "same, maximum",
    );
    report.metric(
        "gen.recv_err_bound_us",
        passes
            .iter()
            .map(|p| p.recv_err_bound_us)
            .fold(0.0, f64::max),
        passes.len(),
        "longest receiver iteration: bound on reply timestamp error",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_poisson_rate() {
        let a = schedule(7, 1000.0, Duration::from_secs(20), 10);
        let b = schedule(7, 1000.0, Duration::from_secs(20), 10);
        assert_eq!(a, b);
        assert_ne!(a, schedule(8, 1000.0, Duration::from_secs(20), 10));
        let n = a.len() as f64;
        assert!(
            (n - 20_000.0).abs() < 5.0 * 20_000f64.sqrt(),
            "{n} arrivals"
        );
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a.iter().all(|&(_, i)| i < 10));
    }

    #[test]
    fn window_rates_count_whole_windows_only() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let replies = [at(10), at(20), at(150), at(250), at(260), at(270), at(305)];
        let rates = window_rates(&replies, t0, Duration::from_millis(300));
        assert_eq!(rates, vec![20.0, 10.0, 30.0]);
    }

    #[test]
    fn pass_meets_counts_refusals_as_misses() {
        let mut p = Pass {
            latency_ms: vec![1.0; 1000],
            ..Pass::default()
        };
        assert!(p.meets(2.0));
        p.latency_ms[999] = 5.0;
        assert!(p.meets(2.0), "one slow reply is beyond the p99");
        p.latency_ms[..20].fill(5.0);
        assert!(!p.meets(2.0));
        p.latency_ms.fill(1.0);
        p.refused = 10;
        assert!(p.meets(2.0), "ten refusals of 1010 stay beyond the p99");
        p.refused = 11;
        assert!(!p.meets(2.0));
        p.refused = 0;
        p.drain_ms = 3.0;
        assert!(!p.meets(2.0), "a backlog at the end of the pass misses");
    }
}
