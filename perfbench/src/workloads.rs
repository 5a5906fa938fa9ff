//! The four workloads: what one pass runs, how its output is checked, and
//! how a traced pass attributes its time to layers.
//!
//! Every pass goes through the library's public entry points. The traced
//! passes rebuild the same jobs around the wrappers of [`crate::layers`]
//! and must reproduce the untraced reference exactly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use ba_bench::check::{check_point, CheckLabel, CheckSweepPoint};
use ba_bench::dist::{input_bits, registry_check, scenario_campaign_report};
use ba_bench::search::{replay_report, run_adversary_search, SearchSpec};
use ba_core::lowerbound::{falsify, FalsifierConfig, Verdict};
use ba_crypto::Keybook;
use ba_dist::{
    merge_campaign_report, plan_shards, point_seed, CoordEvent, Coordinator, Decode, Encode,
    ShardReport, SweepSpec, WorkerCommand,
};
use ba_protocols::broken::{LeaderEcho, OneRoundAllToAll};
use ba_protocols::{DolevStrong, FloodSet, PhaseKing};
use ba_sim::{
    AdaptiveWorstCase, Adversary, Bit, Campaign, CampaignPoint, CampaignReport, CrashPlan,
    IsolationPlan, MobileOmission, NoFaults, Payload, PlannedFaults, ProcessId, Protocol,
    RandomOmissionPlan, Round, Scenario, ScenarioStats, SchedulerOmission, SimError, StatsSink,
};

use crate::layers::{traced, Counters, TracedFault, TracedSink, TracedTransport};
use crate::stats::nanos;
use crate::trace::Trace;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &[
    "sweep-broadcast",
    "sweep-adversarial",
    "judge",
    "dist-fabric",
];

/// One workload, set up and ready to run passes.
pub trait Workload {
    /// Points one pass completes: grid points for the sweeps and the
    /// fabric, engine jobs for `judge`.
    fn points(&self) -> usize;

    /// Runs one pass and checks its output. Returns the wall time of the
    /// work (checking excluded) and the number of points that failed.
    fn pass(&self) -> (Duration, usize);

    /// Runs one traced pass, adding its layer attribution into `trace`.
    /// Returns the wall time and the number of points whose traced result
    /// differs from the untraced reference or fails its check.
    fn traced_pass(&self, trace: &mut Trace) -> (Duration, usize);
}

/// Builds workload `name`: its inputs from `seed`, and the reference pass
/// every later pass is checked against.
///
/// # Errors
///
/// Unknown names, and references that fail their own checks.
pub fn setup(name: &str, seed: u64, threads: usize) -> Result<Box<dyn Workload>, String> {
    match name {
        "sweep-broadcast" => {
            let adversaries = ["none", "isolation", "crash"];
            let inputs = ["ones", "random"];
            let parts = vec![
                ("phase-king", grid([64, 96, 128], &adversaries, &inputs)),
                ("dolev-strong", grid([32, 48, 64], &adversaries, &inputs)),
            ];
            Ok(Box::new(Sweep::new(parts, seed, threads)?))
        }
        "sweep-adversarial" => {
            let adversaries = [
                "adaptive-worst-case",
                "mobile",
                "scheduler",
                "random-omission",
            ];
            let inputs = ["random", "one-hot"];
            let parts = vec![
                ("flood-set", grid(6..=40, &adversaries, &inputs)),
                ("dolev-strong", grid(6..=40, &adversaries, &inputs)),
            ];
            Ok(Box::new(Sweep::new(parts, seed, threads)?))
        }
        "judge" => Ok(Box::new(Judge::new(seed, threads)?)),
        "dist-fabric" => Ok(Box::new(Fabric::new(seed)?)),
        other => Err(format!("unknown workload {other:?} (known: {NAMES:?})")),
    }
}

/// Every `(n, n/4)` crossed with `adversaries` and `inputs`.
fn grid(
    ns: impl IntoIterator<Item = usize>,
    adversaries: &[&str],
    inputs: &[&str],
) -> Vec<CampaignPoint> {
    Campaign::grid(ns.into_iter().map(|n| (n, n / 4)), adversaries, inputs)
        .points()
        .to_vec()
}

// ---------------------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------------------

struct SweepPart {
    protocol: &'static str,
    points: Vec<CampaignPoint>,
    reference: CampaignReport<Bit>,
}

/// A stats-mode campaign sweep over one grid per protocol.
struct Sweep {
    parts: Vec<SweepPart>,
    seed: u64,
    threads: usize,
}

impl Sweep {
    fn new(
        grids: Vec<(&'static str, Vec<CampaignPoint>)>,
        seed: u64,
        threads: usize,
    ) -> Result<Self, String> {
        let mut parts = Vec::new();
        for (protocol, points) in grids {
            let reference = scenario_campaign_report(&points, protocol, seed, threads)?;
            if !reference.all_clean() {
                return Err(format!(
                    "{protocol}: the reference sweep is not clean: {}",
                    reference.summary()
                ));
            }
            parts.push(SweepPart {
                protocol,
                points,
                reference,
            });
        }
        Ok(Sweep {
            parts,
            seed,
            threads,
        })
    }
}

/// Points whose outcome differs from the reference or is not clean.
fn sweep_failures(got: &CampaignReport<Bit>, want: &CampaignReport<Bit>) -> usize {
    if got.outcomes.len() != want.outcomes.len() {
        return want.outcomes.len();
    }
    got.outcomes
        .iter()
        .zip(&want.outcomes)
        .filter(|(g, w)| g != w || !clean(&g.result))
        .count()
}

fn clean(result: &Result<ScenarioStats<Bit>, SimError>) -> bool {
    matches!(result, Ok(stats) if stats.violations.is_empty())
}

impl Workload for Sweep {
    fn points(&self) -> usize {
        self.parts.iter().map(|p| p.points.len()).sum()
    }

    fn pass(&self) -> (Duration, usize) {
        let start = Instant::now();
        let reports: Vec<_> = self
            .parts
            .iter()
            .map(|p| scenario_campaign_report(&p.points, p.protocol, self.seed, self.threads))
            .collect();
        let elapsed = start.elapsed();
        let failed = reports
            .iter()
            .zip(&self.parts)
            .map(|(report, part)| match report {
                Ok(r) => sweep_failures(r, &part.reference),
                Err(_) => part.points.len(),
            })
            .sum();
        (elapsed, failed)
    }

    fn traced_pass(&self, trace: &mut Trace) -> (Duration, usize) {
        crate::alloc::set_counting(true);
        let start = Instant::now();
        let mut failed = 0;
        let mut campaigns = Vec::with_capacity(self.parts.len());
        for part in &self.parts {
            let seed = self.seed;
            let campaign_start = Instant::now();
            let results = Campaign::over(part.points.clone())
                .threads(self.threads)
                .map(|point| traced_point(part.protocol, point, point_seed(seed, point)));
            let campaign_end = Instant::now();
            let mut points = Vec::with_capacity(results.len());
            for ((_, (result, point)), want) in results.into_iter().zip(&part.reference.outcomes) {
                if result != want.result || !clean(&result) {
                    failed += 1;
                }
                let messages = result.as_ref().map_or(0, |s| s.total_messages);
                points.push((point, messages));
            }
            campaigns.push((campaign_start, campaign_end, points));
        }
        let elapsed = start.elapsed();
        crate::alloc::set_counting(false);
        for (campaign_start, campaign_end, points) in &campaigns {
            trace.campaign(*campaign_start, *campaign_end, self.threads, points);
        }
        (elapsed, failed)
    }
}

/// What the traced run saw of one sweep point.
pub struct PointSpan {
    /// When the point started building its scenario.
    pub start: Instant,
    /// When the scenario was built (protocol factory, keys, adversary).
    pub built: Instant,
    /// When the execution finished.
    pub end: Instant,
    /// The pool thread that ran the point.
    pub thread: ThreadId,
    /// The point's layer counters.
    pub layers: crate::layers::Layers,
}

/// Runs one sweep point with every layer wrapped: the same protocol,
/// inputs and adversary the registry builds for the point's labels.
fn traced_point(
    protocol: &str,
    point: &CampaignPoint,
    seed: u64,
) -> (Result<ScenarioStats<Bit>, SimError>, PointSpan) {
    match protocol {
        "phase-king" => run_traced(point, seed, |p| {
            let (n, t) = (p.n, p.t);
            move |_: ProcessId| PhaseKing::new(n, t)
        }),
        "dolev-strong" => run_traced(point, seed, |p| {
            DolevStrong::factory(Keybook::new(p.n), ProcessId(0), Bit::Zero)
        }),
        "flood-set" => run_traced(point, seed, |_| |_: ProcessId| FloodSet::new()),
        "leader-echo" => run_traced(point, seed, |_| {
            |_: ProcessId| LeaderEcho::new(ProcessId(0))
        }),
        other => unreachable!("no sweep runs protocol {other:?}"),
    }
}

fn run_traced<P, F>(
    point: &CampaignPoint,
    seed: u64,
    make: impl FnOnce(&CampaignPoint) -> F,
) -> (Result<ScenarioStats<Bit>, SimError>, PointSpan)
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let counters = Counters::new();
    let start = Instant::now();
    let factory = make(point);
    let scenario = Scenario::new(point.n, point.t)
        .protocol(traced(factory, &counters))
        .inputs(input_bits(&point.inputs, point.n, seed))
        .adversary(traced_adversary(point, seed, &counters));
    let built = Instant::now();
    let result = scenario.run_with_sink(TracedSink::new(StatsSink::new(), &counters));
    let end = Instant::now();
    let span = PointSpan {
        start,
        built,
        end,
        thread: std::thread::current().id(),
        layers: counters.snapshot(),
    };
    (result, span)
}

/// The adversary a registry label names, built from the public fault
/// models and wrapped in [`TracedFault`]. Drift from the registry's own
/// mapping shows as a traced result that differs from the reference.
fn traced_adversary<M: Payload>(
    point: &CampaignPoint,
    seed: u64,
    counters: &Arc<Counters>,
) -> Adversary<'static, Bit, M> {
    let (n, t) = (point.n, point.t);
    let last = ProcessId(n.saturating_sub(1));
    match point.adversary.as_str() {
        "none" => Adversary::model(TracedFault::new(
            PlannedFaults::<NoFaults>::none(),
            counters,
        )),
        "isolation" => Adversary::model(TracedFault::new(
            PlannedFaults::new([last], IsolationPlan::new([last], Round(2))),
            counters,
        )),
        "crash" => Adversary::model(TracedFault::new(
            PlannedFaults::new([last], CrashPlan::new([(last, Round(2))])),
            counters,
        )),
        "random-omission" => Adversary::model(TracedFault::new(
            PlannedFaults::new(
                [last],
                RandomOmissionPlan::new([last], 0.25, 0.25, seed ^ 0x2),
            ),
            counters,
        )),
        "adaptive-worst-case" => {
            Adversary::model(TracedFault::new(AdaptiveWorstCase::new(t), counters))
        }
        "mobile" => Adversary::model(TracedFault::new(
            MobileOmission::new((n.saturating_sub(t)..n).map(ProcessId), 2),
            counters,
        )),
        "scheduler" => Adversary::model(TracedFault::new(
            SchedulerOmission::new(last, n.saturating_sub(1) / 2, seed ^ 0x3),
            counters,
        )),
        other => unreachable!("no sweep uses adversary {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Judge
// ---------------------------------------------------------------------------

/// One engine job of the judge pass, with the verdict it must reach.
#[derive(Clone, Copy)]
enum Job {
    /// The Theorem 2 falsifier at `(n, t)`.
    Falsify {
        protocol: &'static str,
        n: usize,
        t: usize,
        refuted: bool,
    },
    /// `ba-check` over every adversary of `rounds` rounds at `(n, t)`.
    Check {
        protocol: &'static str,
        n: usize,
        t: usize,
        rounds: u64,
        refuted: bool,
    },
    /// `ba-search` hunting disagreement at `(n, t)` within `evals`
    /// evaluations. A search that must come back empty spends exactly its
    /// budget, which keeps the pass's work the same for every seed.
    Search {
        protocol: &'static str,
        n: usize,
        t: usize,
        evals: usize,
        violation: bool,
    },
}

const JUDGE_JOBS: [Job; 7] = [
    Job::Falsify {
        protocol: "dolev-strong",
        n: 40,
        t: 10,
        refuted: false,
    },
    Job::Falsify {
        protocol: "phase-king",
        n: 25,
        t: 6,
        refuted: false,
    },
    Job::Falsify {
        protocol: "leader-echo",
        n: 32,
        t: 8,
        refuted: true,
    },
    Job::Check {
        protocol: "flood-set",
        n: 5,
        t: 1,
        rounds: 1,
        refuted: false,
    },
    Job::Check {
        protocol: "one-round-all-to-all",
        n: 5,
        t: 1,
        rounds: 1,
        refuted: true,
    },
    Job::Search {
        protocol: "flood-set",
        n: 12,
        t: 3,
        evals: 600,
        violation: false,
    },
    Job::Search {
        protocol: "one-round-all-to-all",
        n: 5,
        t: 1,
        evals: 400,
        violation: true,
    },
];

/// Which engine a job exercises.
#[derive(Clone, Copy, Debug)]
pub enum Engine {
    /// `ba-core::lowerbound`.
    Falsifier,
    /// `ba-check`.
    Check,
    /// `ba-search`.
    Search,
}

/// What the traced run saw of one judge job.
pub struct JobSpan {
    /// The engine.
    pub engine: Engine,
    /// Job wall time.
    pub wall: Duration,
    /// Layer counters of the job's protocol instances.
    pub layers: crate::layers::Layers,
    /// Processes per execution (to turn `propose` calls into executions).
    pub n: usize,
    /// Distinct states (check jobs).
    pub states: u64,
    /// Executions explored (check jobs).
    pub executions: u64,
    /// Genomes evaluated (search jobs).
    pub evals: u64,
}

/// A job's result: a signature that must repeat exactly, whether the
/// expected verdict held, and the engine's own work counts.
#[derive(Default)]
struct Verdicted {
    signature: String,
    ok: bool,
    states: u64,
    executions: u64,
    evals: u64,
}

impl Verdicted {
    fn error(signature: String) -> Self {
        Verdicted {
            signature,
            ..Verdicted::default()
        }
    }
}

/// Binds `$factory` to the per-process factory of registry label
/// `$protocol` at `($n, $t)` and evaluates `$body` with it.
macro_rules! with_protocol {
    ($protocol:expr, $n:expr, $t:expr, $factory:ident => $body:expr) => {
        match $protocol {
            "dolev-strong" => {
                let $factory = DolevStrong::factory(Keybook::new($n), ProcessId(0), Bit::Zero);
                $body
            }
            "phase-king" => {
                let (n, t) = ($n, $t);
                let $factory = move |_: ProcessId| PhaseKing::new(n, t);
                $body
            }
            "leader-echo" => {
                let $factory = |_: ProcessId| LeaderEcho::new(ProcessId(0));
                $body
            }
            "flood-set" => {
                let $factory = |_: ProcessId| FloodSet::new();
                $body
            }
            "one-round-all-to-all" => {
                let $factory = |_: ProcessId| OneRoundAllToAll::new();
                $body
            }
            other => unreachable!("no judge job runs protocol {other:?}"),
        }
    };
}

struct Judge {
    seed: u64,
    threads: usize,
    reference: Vec<String>,
}

impl Judge {
    fn new(seed: u64, threads: usize) -> Result<Self, String> {
        let mut judge = Judge {
            seed,
            threads,
            reference: Vec::new(),
        };
        let mut reference = Vec::new();
        for job in JUDGE_JOBS {
            let out = judge.run(job, None);
            if !out.ok {
                return Err(format!("judge reference failed: {}", out.signature));
            }
            reference.push(out.signature);
        }
        judge.reference = reference;
        Ok(judge)
    }

    fn falsifier_config(&self, n: usize, t: usize) -> FalsifierConfig {
        // Orientations run on two threads; the inner E_B(k) scan stays
        // sequential so the nested pools never exceed the machine.
        FalsifierConfig::new(n, t)
            .with_parallel_orientations(self.threads >= 2)
            .with_parallel_scan(false)
    }

    /// Runs `job`; with `counters`, its protocol instances are traced.
    fn run(&self, job: Job, counters: Option<&Arc<Counters>>) -> Verdicted {
        match job {
            Job::Falsify {
                protocol,
                n,
                t,
                refuted,
            } => {
                let cfg = self.falsifier_config(n, t);
                with_protocol!(protocol, n, t, factory => match counters {
                    Some(c) => judge_falsify(&cfg, traced(factory, c), refuted),
                    None => judge_falsify(&cfg, factory, refuted),
                })
            }
            Job::Check {
                protocol,
                n,
                t,
                rounds,
                refuted,
            } => {
                let point = CampaignPoint::new(n, t)
                    .with_adversary(CheckLabel::new(rounds).render())
                    .with_inputs("zeros");
                let result = match counters {
                    None => registry_check(&point, protocol, self.seed, self.threads, None),
                    Some(c) => {
                        let proposals = input_bits("zeros", n, 0);
                        with_protocol!(protocol, n, t, factory => {
                            traced_check(&point, traced(factory, c), &proposals, self.threads)
                        })
                    }
                };
                match result {
                    Ok(sweep) => Verdicted {
                        ok: sweep.refuted == refuted && (refuted || sweep.complete),
                        signature: check_signature(&sweep),
                        states: sweep.states(),
                        executions: sweep.executions,
                        evals: 0,
                    },
                    Err(e) => Verdicted::error(format!("check error: {e}")),
                }
            }
            Job::Search {
                protocol,
                n,
                t,
                evals,
                violation,
            } => {
                let mut spec = SearchSpec::new(protocol, n, t);
                spec.config.seed = self.seed;
                // A batch of genomes takes well under a millisecond, too
                // little to amortise spawning a pool for it: on a shared
                // host the spawns, not the search, would set the pass time.
                spec.config.threads = 1;
                spec.config.max_evals = evals;
                judge_search(&spec, violation)
            }
        }
    }
}

fn judge_falsify<P, F>(cfg: &FalsifierConfig, factory: F, refuted: bool) -> Verdicted
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    match falsify(cfg, factory) {
        Ok(Verdict::Violation(cert)) => Verdicted {
            ok: refuted && cert.verify().is_ok(),
            signature: format!(
                "refuted {} messages={}",
                cert.kind,
                cert.execution.message_complexity()
            ),
            ..Verdicted::default()
        },
        Ok(Verdict::Survived(report)) => Verdicted {
            ok: !refuted && report.max_message_complexity >= cfg.paper_bound(),
            signature: format!(
                "survived max={} explored={}",
                report.max_message_complexity, report.executions_explored
            ),
            ..Verdicted::default()
        },
        Err(e) => Verdicted::error(format!("falsifier error: {e}")),
    }
}

/// [`registry_check`] with a caller-supplied (traced) factory: explores,
/// then re-verifies and replays a violation the same way.
fn traced_check<P, F>(
    point: &CampaignPoint,
    factory: F,
    proposals: &[Bit],
    threads: usize,
) -> Result<CheckSweepPoint, String>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
{
    let (sweep, outcome) = check_point(point, &factory, proposals, threads, None)?;
    if let Some(found) = outcome.violation() {
        found
            .certificate
            .verify()
            .map_err(|e| format!("certificate failed to re-verify: {e}"))?;
        let spec = CheckLabel::parse(&point.adversary)?.to_spec(point.n, point.t);
        let replay = ba_check::replay(&spec, &factory, proposals, &found.choices)
            .map_err(|e| format!("tape failed to replay: {e}"))?;
        if replay.choices != found.choices || replay.execution != found.certificate.execution {
            return Err(format!("replayed tape diverges at {point}"));
        }
    }
    Ok(sweep)
}

fn check_signature(sweep: &CheckSweepPoint) -> String {
    let digest = sweep
        .fingerprints
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, f| {
            (h ^ f).wrapping_mul(0x0100_0000_01b3)
        });
    format!(
        "{} states={} executions={} depth={} choices={:?} digest={digest:x}",
        sweep.verdict,
        sweep.states(),
        sweep.executions,
        sweep.max_depth,
        sweep.choices
    )
}

fn judge_search(spec: &SearchSpec, violation: bool) -> Verdicted {
    let run = match run_adversary_search(spec) {
        Ok(run) => run,
        Err(e) => return Verdicted::error(format!("search error: {e}")),
    };
    let evals = run.outcome.evals;
    let Some(report) = run.report else {
        return Verdicted {
            signature: format!("no violation evals={evals}"),
            ok: !violation && evals == spec.config.max_evals,
            evals: evals as u64,
            ..Verdicted::default()
        };
    };
    let replays = replay_report(&report)
        .is_ok_and(|stats| !stats.violations.is_empty() && stats.violations == report.violations);
    Verdicted {
        ok: violation && run.outcome.violation && replays,
        signature: format!(
            "violation evals={evals} genome={:?} violations={:?}",
            report.genome, report.violations
        ),
        evals: evals as u64,
        ..Verdicted::default()
    }
}

impl Workload for Judge {
    fn points(&self) -> usize {
        JUDGE_JOBS.len()
    }

    fn pass(&self) -> (Duration, usize) {
        let start = Instant::now();
        let outs: Vec<Verdicted> = JUDGE_JOBS.iter().map(|&j| self.run(j, None)).collect();
        let elapsed = start.elapsed();
        let failed = outs
            .iter()
            .zip(&self.reference)
            .filter(|(out, want)| !out.ok || out.signature != **want)
            .count();
        (elapsed, failed)
    }

    fn traced_pass(&self, trace: &mut Trace) -> (Duration, usize) {
        crate::alloc::set_counting(true);
        let start = Instant::now();
        let mut failed = 0;
        let mut jobs = Vec::new();
        for (&job, want) in JUDGE_JOBS.iter().zip(&self.reference) {
            let counters = Counters::new();
            let job_start = Instant::now();
            let out = self.run(job, Some(&counters));
            let wall = job_start.elapsed();
            if !out.ok || out.signature != *want {
                failed += 1;
            }
            let (engine, n) = match job {
                Job::Falsify { n, .. } => (Engine::Falsifier, n),
                Job::Check { n, .. } => (Engine::Check, n),
                Job::Search { n, .. } => (Engine::Search, n),
            };
            jobs.push(JobSpan {
                engine,
                wall,
                layers: counters.snapshot(),
                n,
                states: out.states,
                executions: out.executions,
                evals: out.evals,
            });
        }
        let elapsed = start.elapsed();
        crate::alloc::set_counting(false);
        trace.judge(start, elapsed, &jobs);
        (elapsed, failed)
    }
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

/// Worker processes of the fabric, each with one thread.
const FABRIC_SHARDS: usize = 2;

struct Fabric {
    spec: SweepSpec,
    reference: CampaignReport<Bit>,
    worker: WorkerCommand,
}

impl Fabric {
    fn new(seed: u64) -> Result<Self, String> {
        let nts: Vec<(usize, usize)> = (4..40)
            .flat_map(|n| (1..=(n - 1) / 3).map(move |t| (n, t)))
            .collect();
        let points = Campaign::grid(
            nts,
            ba_bench::dist::ADVERSARIES,
            &["zeros", "ones", "random"],
        )
        .points()
        .to_vec();
        let reference = scenario_campaign_report(&points, "leader-echo", seed, FABRIC_SHARDS)?;
        if reference.errors().count() > 0 {
            return Err(format!(
                "leader-echo: the reference sweep has errors: {}",
                reference.summary()
            ));
        }
        let exe = std::env::current_exe().map_err(|e| format!("locating the worker: {e}"))?;
        let worker = WorkerCommand::new(exe).arg("--worker").with_stream(true);
        let spec = SweepSpec::scenarios(points, "leader-echo")
            .base_seed(seed)
            .worker_threads(1);
        Ok(Fabric {
            spec,
            reference,
            worker,
        })
    }

    /// One coordinator run over `transport`; returns the failed points.
    fn run<T: ba_dist::ShardTransport>(&self, transport: T, retries: &Arc<AtomicUsize>) -> usize {
        let counter = retries.clone();
        let coordinator = Coordinator::new(transport, FABRIC_SHARDS).on_event(move |e| {
            if matches!(e, CoordEvent::Retry { .. }) {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        });
        match coordinator.run_campaign(&self.spec) {
            Ok(report) => sweep_failures(&report, &self.reference),
            Err(e) => {
                eprintln!("perfbench: fabric pass failed: {e}");
                self.spec.points.len()
            }
        }
    }
}

impl Workload for Fabric {
    fn points(&self) -> usize {
        self.spec.points.len()
    }

    fn pass(&self) -> (Duration, usize) {
        let retries = Arc::new(AtomicUsize::new(0));
        let start = Instant::now();
        let failed = self.run(self.worker.clone(), &retries);
        let elapsed = start.elapsed();
        // A retried shard is a failure even when its points recovered.
        let retried = retries.load(Ordering::Relaxed).min(self.points());
        (elapsed, failed.max(retried))
    }

    fn traced_pass(&self, trace: &mut Trace) -> (Duration, usize) {
        let retries = Arc::new(AtomicUsize::new(0));
        let log = Arc::new(Mutex::new(Vec::new()));
        crate::alloc::set_counting(true);
        let start = Instant::now();
        let mut failed = self.run(
            TracedTransport::new(self.worker.clone(), log.clone()),
            &retries,
        );
        let dist_wall = start.elapsed();
        crate::alloc::set_counting(false);

        // The same grid in process, for the fabric's overhead ratio.
        let local_start = Instant::now();
        let local = scenario_campaign_report(
            &self.spec.points,
            "leader-echo",
            self.spec.base_seed,
            FABRIC_SHARDS,
        );
        let local_wall = local_start.elapsed();
        failed += match &local {
            Ok(r) => sweep_failures(r, &self.reference),
            Err(_) => self.points(),
        };

        // Wire and merge, timed on the reference split the way the
        // coordinator splits it.
        let (wire, wire_failed) = self.time_wire();
        failed += wire_failed;

        let retried = retries.load(Ordering::Relaxed);
        let attempts = log.lock().map(|l| l.clone()).unwrap_or_default();
        trace.fabric(
            start,
            dist_wall,
            local_wall,
            &attempts,
            retried as u64,
            wire,
        );
        (dist_wall, failed.max(retried.min(self.points())))
    }
}

/// Encode, decode and merge times of one pass's shard reports.
#[derive(Clone, Copy, Default)]
pub struct WireTimes {
    /// Time to encode every shard report.
    pub encode_ns: u64,
    /// Time to decode them.
    pub decode_ns: u64,
    /// Time to merge the decoded reports.
    pub merge_ns: u64,
    /// Points carried.
    pub points: u64,
}

impl Fabric {
    fn time_wire(&self) -> (WireTimes, usize) {
        let manifests = plan_shards(&self.spec, FABRIC_SHARDS);
        let reports: Vec<ShardReport<ScenarioStats<Bit>>> = manifests
            .iter()
            .map(|m| ShardReport {
                shard: m.shard,
                outcomes: m
                    .entries
                    .iter()
                    .map(|e| (e.index, self.reference.outcomes[e.index].result.clone()))
                    .collect(),
            })
            .collect();
        let start = Instant::now();
        let wires: Vec<String> = reports.iter().map(|r| r.to_wire()).collect();
        let encoded = Instant::now();
        let decoded: Result<Vec<ShardReport<ScenarioStats<Bit>>>, _> =
            wires.iter().map(|w| ShardReport::from_wire(w)).collect();
        let decoded_at = Instant::now();
        let merged = decoded
            .map_err(|e| e.to_string())
            .and_then(|d| merge_campaign_report(&self.spec.points, d).map_err(|e| e.to_string()));
        let end = Instant::now();
        let failed = match merged {
            Ok(report) => sweep_failures(&report, &self.reference),
            Err(_) => self.points(),
        };
        let times = WireTimes {
            encode_ns: nanos(encoded - start),
            decode_ns: nanos(decoded_at - encoded),
            merge_ns: nanos(end - decoded_at),
            points: self.spec.points.len() as u64,
        };
        (times, failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_points_reproduce_the_registry_for_every_adversary() {
        let points = Campaign::grid(
            [(7, 2), (10, 3)],
            ba_bench::dist::ADVERSARIES,
            &["zeros", "random", "one-hot"],
        )
        .points()
        .to_vec();
        for protocol in ["phase-king", "dolev-strong", "flood-set", "leader-echo"] {
            let reference = scenario_campaign_report(&points, protocol, 42, 1).unwrap();
            for (point, want) in points.iter().zip(&reference.outcomes) {
                let (got, span) = traced_point(protocol, point, point_seed(42, point));
                assert_eq!(got, want.result, "{protocol} at {point}");
                assert!(span.layers.steps > 0, "{protocol} at {point}");
            }
        }
    }
}
