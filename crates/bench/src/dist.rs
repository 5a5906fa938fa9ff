//! The worker side of distributed campaign sharding, plus the
//! coordinator-facing sweep entry points.
//!
//! `ba-dist` is deliberately protocol-agnostic: manifests name protocols by
//! **label**, and this module owns the registry that resolves labels into
//! concrete `ba-protocols` factories. Both halves of a distributed sweep run
//! through the *same* functions here — the worker executes
//! [`run_manifest`] on its shard, and the in-process reference paths
//! ([`scenario_campaign_report`], [`ba_bench::falsifier_sweep`](crate::falsifier_sweep))
//! execute the identical per-point computation — which is what makes
//! `coordinator(k shards) == run(1 process)` an equality of values, not an
//! approximation.
//!
//! ## Registry labels
//!
//! Scenario + falsifier protocols: `flood-set`, `dolev-strong`,
//! `leader-echo`, `own-proposal`, `one-round-all-to-all`, `paranoid-echo`,
//! `silent-constant-1`, `phase-king`, and `phase-king-weak` (Phase King cut
//! to `max(t, 1)` phases — deliberately unsafe prey for the adversary
//! search); the phase-king variants require `n > 3t` grids.
//!
//! Adversary labels (scenario mode): `none`, `isolation` (last process
//! isolated from round 2), `crash` (last process crash-stops at round 2),
//! `random-omission` (last process, seeded per-point drop coin-flips),
//! and the adaptive fault-model family — `adaptive-worst-case` (corrupts
//! and mutes the `t` chattiest processes after observing round 1),
//! `mobile` (corruption moves through the last `t` processes, two rounds
//! each), `scheduler` (seeded per-point delivery reordering against a
//! capacity-limited last process).
//! Input labels: `default`/`zeros`, `ones`, `alternating`, `one-hot`,
//! `majority-one` (all `1` except the last process), `random` (seeded
//! per-point).
//!
//! Search-mode manifests ([`ba_dist::ShardMode::Search`]) carry an encoded
//! `ba-search` strategy genome as each point's adversary label
//! (`genome:…`); the worker interprets it with
//! [`ba_search::GenomeModel`] and reports plain `ScenarioStats`, so a
//! coordinator can fan a search population out across shards.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ba_check::{CheckError, CheckProgress, CheckSpec};
use ba_crypto::Keybook;
use ba_dist::{
    CoordEvent, Coordinator, Decode, DistError, Encode, ProgressEvent, ShardManifest, ShardMode,
    ShardReport, SweepSpec, WireError, WireReader, WorkerCommand,
};
use ba_obs::Recorder;
use ba_protocols::broken::{
    LeaderEcho, OneRoundAllToAll, OwnProposal, ParanoidEcho, SilentConstant,
};
use ba_protocols::{DolevStrong, FloodSet, PhaseKing};
use ba_search::{genome_from_label, GenomeModel};
use ba_sim::{
    Adversary, Bit, Campaign, CampaignPoint, CampaignReport, ProcessId, Protocol,
    RandomOmissionPlan, Round, Scenario, ScenarioStats, SimRng, TraceMode,
};

use crate::check::{check_point, CheckLabel, CheckSweepPoint};
use crate::{falsify_point_recorded, FalsifierSweepPoint};

/// Labels resolvable by [`run_manifest`] (scenario and falsifier modes
/// alike). `phase-king` additionally requires `n > 3t` at every grid point.
pub const REGISTRY: &[&str] = &[
    "flood-set",
    "dolev-strong",
    "leader-echo",
    "own-proposal",
    "one-round-all-to-all",
    "paranoid-echo",
    "silent-constant-1",
    "phase-king",
    "phase-king-weak",
];

/// Adversary labels interpreted by scenario-mode workers.
pub const ADVERSARIES: &[&str] = &[
    "none",
    "isolation",
    "crash",
    "random-omission",
    "adaptive-worst-case",
    "mobile",
    "scheduler",
];

/// Input-profile labels interpreted by scenario-mode workers.
pub const INPUTS: &[&str] = &[
    "default",
    "zeros",
    "ones",
    "alternating",
    "one-hot",
    "majority-one",
    "random",
];

/// Resolves an input label into the `n` proposals scenario-mode and
/// search-mode workers hand to the processes, using the point seed for the
/// `random` label. Unknown labels fall back to all-zeros, matching
/// [`run_manifest`]'s behavior after validation.
pub fn input_bits(label: &str, n: usize, seed: u64) -> Vec<Bit> {
    match label {
        "ones" => vec![Bit::One; n],
        "alternating" => (0..n).map(|i| Bit::from(i % 2 == 1)).collect(),
        "one-hot" => (0..n).map(|i| Bit::from(i == 0)).collect(),
        "majority-one" => (0..n).map(|i| Bit::from(i + 1 != n)).collect(),
        "random" => {
            let mut rng = SimRng::seed_from_u64(seed ^ 0x1);
            (0..n).map(|_| Bit::from(rng.gen_bool(0.5))).collect()
        }
        // "default" / "zeros".
        _ => vec![Bit::Zero; n],
    }
}

/// Executes one shard manifest and returns the encoded [`ShardReport`]:
/// the trailing report of [`run_manifest_streaming`], without the
/// per-point lines.
///
/// # Errors
///
/// Returns a human-readable message for unknown protocol / adversary /
/// input labels (the worker prints it to stderr and exits non-zero).
pub fn run_manifest(manifest: &ShardManifest) -> Result<String, String> {
    run_manifest_recorded(manifest, None)
}

/// [`run_manifest`] with an arbitrary telemetry [`Recorder`] observing the
/// shard (e.g. a [`ba_obs::Aggregator`] for end-of-shard summaries, or a
/// [`ba_obs::JsonlRecorder`] for full event streams). The recorder is
/// threaded into every scenario and falsifier run, and each finished point
/// is recorded as a `Campaign` sweep records it
/// ([`ba_sim::record_point`] for scenario points,
/// [`ba_sim::record_point_done`] otherwise). Observation-only: the report
/// is byte-identical to [`run_manifest`]'s.
///
/// # Errors
///
/// As [`run_manifest`].
pub fn run_manifest_recorded(
    manifest: &ShardManifest,
    recorder: Option<Arc<dyn Recorder>>,
) -> Result<String, String> {
    run_shard(manifest, false, recorder, &|_| {})
}

/// Executes one shard manifest, **streaming**: one checksummed `outcome`
/// wire line per completed point is handed to `emit` *as the point
/// finishes* (from the worker threads), followed by the complete
/// [`ShardReport`]. With `progress`, a JSONL [`ProgressEvent`] line follows
/// each outcome, and check-mode shards interleave live
/// [`CoordEvent::Check`] exploration snapshots. This is the body of
/// `campaign_worker` and of its TCP shard server.
///
/// The trailing report is the text [`run_manifest`] returns, and every
/// streamed outcome byte-matches the corresponding report item — streaming
/// is pure redundancy, which is exactly what point-level recovery needs: a
/// worker that dies after k points has already delivered those k outcomes,
/// and the coordinator's dedup-on-merge discards the duplication when the
/// report does arrive.
///
/// Every `emit` chunk is one or more complete `\n`-terminated lines;
/// callers only need to forward chunks verbatim (per-chunk locking makes
/// the interleaving from concurrent worker threads line-atomic).
///
/// # Errors
///
/// As [`run_manifest`]; label validation happens before anything is
/// emitted.
pub fn run_manifest_streaming(
    manifest: &ShardManifest,
    progress: bool,
    emit: &(dyn Fn(&str) + Sync),
) -> Result<(), String> {
    emit(&run_shard(manifest, progress, None, emit)?);
    Ok(())
}

/// The one worker body: validates the manifest's labels, runs every entry
/// through a [`StreamSink`] (which emits its outcome and progress lines),
/// and returns the encoded [`ShardReport`].
fn run_shard(
    manifest: &ShardManifest,
    progress: bool,
    recorder: Option<Arc<dyn Recorder>>,
    emit: &(dyn Fn(&str) + Sync),
) -> Result<String, String> {
    let sink = StreamSink {
        emit,
        recorder,
        shard: manifest.shard,
        shards: manifest.shards,
        total: manifest.entries.len(),
        progress,
        done: AtomicUsize::new(0),
        started: Instant::now(),
    };
    let points = manifest.entries.iter().map(|e| &e.point);
    let protocol = manifest.protocol.as_str();
    match manifest.mode {
        ShardMode::Scenarios => {
            validate_labels(points)?;
            with_registry_factory!(protocol, factory => {
                shard_wire(manifest, scenario_entries(manifest, factory, scenario_for, &sink))
            })
        }
        ShardMode::Search => {
            validate_search_labels(points)?;
            with_registry_factory!(protocol, factory => {
                shard_wire(manifest, scenario_entries(manifest, factory, search_scenario_for, &sink))
            })
        }
        ShardMode::Falsifier => with_registry_factory!(protocol, factory => {
            shard_wire(manifest, falsifier_entries(manifest, factory, &sink))
        }),
        ShardMode::Check => {
            validate_check_labels(points)?;
            with_registry_factory!(protocol, factory => {
                shard_wire(manifest, check_entries(manifest, factory, &sink)?)
            })
        }
    }
}

type Outcomes<T> = Vec<(usize, Result<T, ba_sim::SimError>)>;

fn shard_wire<T: Encode>(manifest: &ShardManifest, outcomes: Outcomes<T>) -> String {
    ShardReport {
        shard: manifest.shard,
        outcomes,
    }
    .to_wire()
}

/// Rejects malformed `check:` adversary labels and check spaces whose
/// corruption enumeration is refused as too large — *before* any work
/// runs, so a worker never half-explores a misconfigured sweep.
fn validate_check_labels<'a>(
    points: impl IntoIterator<Item = &'a CampaignPoint>,
) -> Result<(), String> {
    for point in points {
        let label = CheckLabel::parse(&point.adversary)?;
        let spec: CheckSpec<Bit> = label.to_spec(point.n, point.t);
        spec.corruption_subsets()
            .map_err(|e| format!("check at {point}: {e}"))?;
    }
    Ok(())
}

/// Runs a check-mode shard's entries **sequentially**: each entry is one
/// slice of an exhaustive model-check space (the slice assignment lives in
/// the point's `check:` label), and the explorer parallelizes internally
/// over the shard's thread budget — per-point parallelism on top would
/// oversubscribe without changing any outcome (the explorer is
/// thread-count invariant). Simulator failures surface as that point's
/// `Err` outcome. With progress on, live [`CoordEvent::Check`] snapshots
/// (batched inside the explorer, so the stream stays cheap) flow to the
/// sink's emitter while a slice explores — the states/s + frontier-depth
/// feed `campaign_watch` renders live.
fn check_entries<P, F, G>(
    manifest: &ShardManifest,
    factory: G,
    sink: &StreamSink<'_>,
) -> Result<Outcomes<CheckSweepPoint>, String>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
    G: Fn(&CampaignPoint) -> F + Sync,
{
    let snapshot = |p: CheckProgress| {
        let event = CoordEvent::Check {
            shard: sink.shard,
            shards: sink.shards,
            states: p.states,
            executions: p.executions,
            depth: p.depth,
            elapsed_nanos: sink.elapsed_nanos(),
        };
        (sink.emit)(&format!("{}\n", event.to_json_line()));
    };
    let hook = sink
        .progress
        .then_some(&snapshot as &(dyn Fn(CheckProgress) + Sync));
    let mut outcomes = Vec::with_capacity(manifest.entries.len());
    for (local, entry) in manifest.entries.iter().enumerate() {
        let label = CheckLabel::parse(&entry.point.adversary)?;
        let spec: CheckSpec<P::Msg> = label.to_spec(entry.point.n, entry.point.t);
        let proposals = input_bits(&entry.point.inputs, entry.point.n, entry.seed);
        let outcome = ba_check::check_with_progress(
            &spec,
            factory(&entry.point),
            &proposals,
            manifest.threads,
            hook,
        );
        let result = match outcome {
            Ok(outcome) => Ok(CheckSweepPoint::from_outcome(entry.point.clone(), &outcome)),
            Err(CheckError::Sim(e)) => Err(e),
            // Caught by eager validation; a late surprise is still fatal.
            Err(refused @ CheckError::SpaceTooLarge { .. }) => {
                return Err(format!("check at {}: {refused}", entry.point))
            }
        };
        outcomes.push((entry.index, sink.point(local, entry.index, result)));
    }
    Ok(outcomes)
}

/// Runs a scenario- or search-mode shard's entries on the shard's thread
/// pool, each point's scenario built by `build` (label → adversary).
fn scenario_entries<P, F, G, B>(
    manifest: &ShardManifest,
    factory: G,
    build: B,
    sink: &StreamSink<'_>,
) -> Outcomes<ScenarioStats<Bit>>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
    G: Fn(&CampaignPoint) -> F + Sync,
    B: Fn(&CampaignPoint, u64, F) -> ba_sim::ProtocolScenario<'static, P, F> + Sync,
{
    ba_sim::par_map(
        manifest.entries.clone(),
        manifest.threads,
        |local, entry| {
            let mut scenario =
                build(&entry.point, entry.seed, factory(&entry.point)).trace_mode(TraceMode::Stats);
            if let Some(r) = &sink.recorder {
                scenario = scenario.recorder(r.clone());
            }
            let result = scenario.run_report();
            (entry.index, sink.point(local, entry.index, result))
        },
    )
}

/// Runs a falsifier-mode shard's entries on the shard's thread pool.
fn falsifier_entries<P, F, G>(
    manifest: &ShardManifest,
    factory: G,
    sink: &StreamSink<'_>,
) -> Outcomes<FalsifierSweepPoint>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
    G: Fn(&CampaignPoint) -> F + Sync,
{
    ba_sim::par_map(
        manifest.entries.clone(),
        manifest.threads,
        |local, entry| {
            let fp =
                falsify_point_recorded(&entry.point, factory(&entry.point), sink.recorder.clone());
            (entry.index, sink.point(local, entry.index, Ok(fp)))
        },
    )
}

/// What a shard point's result reports to progress and telemetry.
trait ShardPoint: Encode + Sized {
    /// `(messages, rounds)` for the point's progress line.
    fn summary(&self) -> (u64, u64);

    /// Records the finished point on a telemetry recorder, as a `Campaign`
    /// sweep would.
    fn record(result: &Result<Self, ba_sim::SimError>, recorder: &dyn Recorder, local: usize) {
        let (messages, rounds, ok) = summarize(result);
        ba_sim::record_point_done(recorder, local, messages, rounds, ok);
    }
}

fn summarize<T: ShardPoint>(result: &Result<T, ba_sim::SimError>) -> (u64, u64, bool) {
    match result {
        Ok(value) => {
            let (messages, rounds) = value.summary();
            (messages, rounds, true)
        }
        Err(_) => (0, 0, false),
    }
}

impl ShardPoint for ScenarioStats<Bit> {
    fn summary(&self) -> (u64, u64) {
        (self.total_messages, self.rounds)
    }

    fn record(result: &Result<Self, ba_sim::SimError>, recorder: &dyn Recorder, local: usize) {
        ba_sim::record_point(recorder, local, result);
    }
}

impl ShardPoint for FalsifierSweepPoint {
    fn summary(&self) -> (u64, u64) {
        (self.max_message_complexity, 0)
    }
}

impl ShardPoint for CheckSweepPoint {
    fn summary(&self) -> (u64, u64) {
        (self.executions, self.max_depth)
    }
}

/// The per-point observation state of [`run_shard`]: encodes one
/// [`ba_dist::PointOutcome`] line (plus, with progress on, a
/// [`ProgressEvent`] line derived from the same outcome) per finished
/// point, counting completions monotonically, and records the point on the
/// optional telemetry recorder.
struct StreamSink<'a> {
    emit: &'a (dyn Fn(&str) + Sync),
    recorder: Option<Arc<dyn Recorder>>,
    shard: usize,
    shards: usize,
    total: usize,
    progress: bool,
    done: AtomicUsize,
    started: Instant,
}

impl StreamSink<'_> {
    /// Emits the point's outcome (and progress) lines and hands the result
    /// back for the trailing report. `local` is the point's position in
    /// the shard, `index` its global grid index.
    fn point<T: ShardPoint>(
        &self,
        local: usize,
        index: usize,
        result: Result<T, ba_sim::SimError>,
    ) -> Result<T, ba_sim::SimError> {
        if let Some(r) = &self.recorder {
            T::record(&result, r.as_ref(), local);
        }
        let outcome = ba_dist::PointOutcome { index, result };
        let mut chunk = String::new();
        outcome.encode(&mut chunk);
        if self.progress {
            let (messages, rounds, ok) = summarize(&outcome.result);
            let event = ProgressEvent {
                shard: self.shard,
                shards: self.shards,
                done: self.done.fetch_add(1, Ordering::SeqCst) + 1,
                total: self.total,
                index,
                messages,
                rounds,
                ok,
                elapsed_nanos: self.elapsed_nanos(),
            };
            chunk.push_str(&event.to_json_line());
            chunk.push('\n');
        }
        (self.emit)(&chunk);
        outcome.result
    }

    fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Runs one in-process exhaustive check for a named [`REGISTRY`] protocol
/// — the `model_check` binary's engine. The point's `check:` adversary
/// label carries the space, its input label resolves through
/// [`input_bits`] (seeded by [`ba_dist::point_seed`] for `random`). A
/// violation is end-to-end validated before it is reported: its
/// certificate must re-verify, and its shrunk choice tape must replay —
/// by direct fault-model interpretation — to the same corruption set,
/// canonical tape, and violating execution.
///
/// # Errors
///
/// Returns a message for unknown protocol labels, malformed check labels,
/// refused spaces, simulator failures, and violations that fail
/// revalidation (an explorer bug).
pub fn registry_check(
    point: &CampaignPoint,
    protocol: &str,
    base_seed: u64,
    threads: usize,
    hook: Option<&(dyn Fn(CheckProgress) + Sync)>,
) -> Result<CheckSweepPoint, String> {
    let proposals = input_bits(
        &point.inputs,
        point.n,
        ba_dist::point_seed(base_seed, point),
    );
    with_registry_factory!(protocol, factory => {
        let (sweep, outcome) = check_point(point, factory(point), &proposals, threads, hook)?;
        if let Some(found) = outcome.violation() {
            found
                .certificate
                .verify()
                .map_err(|e| format!("violation certificate failed to re-verify: {e}"))?;
            let label = CheckLabel::parse(&point.adversary)?;
            let spec = label.to_spec(point.n, point.t);
            let replay = ba_check::replay(&spec, factory(point), &proposals, &found.choices)
                .map_err(|e| format!("violation tape failed to replay: {e}"))?;
            if replay.corrupted != found.corrupted
                || replay.choices != found.choices
                || replay.violation.is_none()
                || replay.execution != found.certificate.execution
            {
                return Err(format!(
                    "replayed tape diverges from the reported violation at {point}"
                ));
            }
        }
        sweep
    })
}

/// The in-process reference for a scenario sweep: runs the exact per-point
/// computation distributed workers run, on one local `Campaign` pool —
/// stats-only ([`TraceMode::Stats`]), like the workers.
///
/// `coordinator.run_campaign(spec) == scenario_campaign_report(…)` for the
/// same grid, protocol, and base seed — the shard-invariance property.
///
/// # Errors
///
/// As [`run_manifest`], for unknown labels.
pub fn scenario_campaign_report(
    points: &[CampaignPoint],
    protocol: &str,
    base_seed: u64,
    threads: usize,
) -> Result<CampaignReport<Bit>, String> {
    scenario_campaign_report_mode(points, protocol, base_seed, threads, TraceMode::Stats)
}

/// [`scenario_campaign_report`] with a telemetry recorder attached: the
/// Campaign records per-point metrics and threads the recorder into every
/// scenario, whose [`RecordingSink`](ba_sim::RecordingSink) mirrors the
/// engine's routing stream. Observation-only — the returned report is
/// bit-identical to the recorder-less sweep (the
/// `telemetry-overhead/dolev-strong` bench line asserts this at bench
/// scale, and gates the wall-clock cost).
///
/// # Errors
///
/// As [`run_manifest`], for unknown labels.
pub fn scenario_campaign_report_recorded(
    points: &[CampaignPoint],
    protocol: &str,
    base_seed: u64,
    threads: usize,
    recorder: Arc<dyn Recorder>,
) -> Result<CampaignReport<Bit>, String> {
    scenario_report_with(
        points,
        |point| ba_dist::point_seed(base_seed, point),
        threads,
        protocol,
        TraceMode::Stats,
        Some(recorder),
    )
}

/// [`scenario_campaign_report`] with an explicit [`TraceMode`].
///
/// [`TraceMode::Full`] materializes (and validates) every execution before
/// deriving its stats; the sink-equivalence guarantee makes the report
/// value-identical to the stats-only sweep, which the cross-mode tests
/// assert end to end.
///
/// # Errors
///
/// As [`run_manifest`], for unknown labels.
pub fn scenario_campaign_report_mode(
    points: &[CampaignPoint],
    protocol: &str,
    base_seed: u64,
    threads: usize,
    mode: TraceMode,
) -> Result<CampaignReport<Bit>, String> {
    scenario_report_with(
        points,
        |point| ba_dist::point_seed(base_seed, point),
        threads,
        protocol,
        mode,
        None,
    )
}

/// The single label → factory table behind [`REGISTRY`]: binds `$factory`
/// to the label's per-point protocol factory and evaluates `$body` with it
/// (once, in the matching arm — each arm monomorphizes `$body` for its
/// protocol type). Adding a protocol means one new arm here plus its label
/// in [`REGISTRY`]; scenario and falsifier modes pick it up together.
macro_rules! with_registry_factory {
    ($label:expr, $factory:ident => $body:expr) => {
        match $label {
            "flood-set" => {
                let $factory = |_: &CampaignPoint| |_: ProcessId| FloodSet::new();
                Ok($body)
            }
            "dolev-strong" => {
                let $factory = |point: &CampaignPoint| {
                    DolevStrong::factory(Keybook::new(point.n), ProcessId(0), Bit::Zero)
                };
                Ok($body)
            }
            "leader-echo" => {
                let $factory = |_: &CampaignPoint| |_: ProcessId| LeaderEcho::new(ProcessId(0));
                Ok($body)
            }
            "own-proposal" => {
                let $factory = |_: &CampaignPoint| |_: ProcessId| OwnProposal::new();
                Ok($body)
            }
            "one-round-all-to-all" => {
                let $factory = |_: &CampaignPoint| |_: ProcessId| OneRoundAllToAll::new();
                Ok($body)
            }
            "paranoid-echo" => {
                let $factory = |_: &CampaignPoint| |_: ProcessId| ParanoidEcho::new();
                Ok($body)
            }
            "silent-constant-1" => {
                let $factory = |_: &CampaignPoint| |_: ProcessId| SilentConstant::new(Bit::One);
                Ok($body)
            }
            "phase-king" => {
                let $factory = |point: &CampaignPoint| {
                    let (n, t) = (point.n, point.t);
                    move |_: ProcessId| PhaseKing::new(n, t)
                };
                Ok($body)
            }
            "phase-king-weak" => {
                let $factory = |point: &CampaignPoint| {
                    let (n, t) = (point.n, point.t);
                    move |_: ProcessId| PhaseKing::with_phases(n, t, (t as u64).max(1))
                };
                Ok($body)
            }
            other => Err(format!(
                "unknown protocol label {other:?} (known: {REGISTRY:?})"
            )),
        }
    };
}
pub(crate) use with_registry_factory;

fn scenario_report_with<S>(
    points: &[CampaignPoint],
    seed_of: S,
    threads: usize,
    protocol: &str,
    mode: TraceMode,
    recorder: Option<Arc<dyn Recorder>>,
) -> Result<CampaignReport<Bit>, String>
where
    S: Fn(&CampaignPoint) -> u64 + Sync,
{
    validate_labels(points)?;
    with_registry_factory!(protocol, factory => run_points(points, &seed_of, threads, factory, mode, recorder))
}

/// The in-process reference for a search-mode population evaluation: each
/// point's adversary label must be an encoded genome ([`genome_label`](ba_search::genome_label)),
/// interpreted by [`GenomeModel`] against the registry protocol.
///
/// `coordinator(k shards) == search_campaign_report(…)` for the same grid,
/// protocol, and base seed, exactly as in scenario mode.
///
/// # Errors
///
/// As [`run_manifest`]: unknown protocol / input labels, or a point whose
/// adversary label is not a decodable `genome:` token.
pub fn search_campaign_report(
    points: &[CampaignPoint],
    protocol: &str,
    base_seed: u64,
    threads: usize,
) -> Result<CampaignReport<Bit>, String> {
    search_report_with(
        points,
        |point| ba_dist::point_seed(base_seed, point),
        threads,
        protocol,
    )
}

fn search_report_with<S>(
    points: &[CampaignPoint],
    seed_of: S,
    threads: usize,
    protocol: &str,
) -> Result<CampaignReport<Bit>, String>
where
    S: Fn(&CampaignPoint) -> u64 + Sync,
{
    validate_search_labels(points)?;
    with_registry_factory!(protocol, factory => run_search_points(points, &seed_of, threads, factory))
}

fn run_search_points<P, F, G, S>(
    points: &[CampaignPoint],
    seed_of: S,
    threads: usize,
    factory: G,
) -> CampaignReport<Bit>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
    G: Fn(&CampaignPoint) -> F + Sync,
    S: Fn(&CampaignPoint) -> u64 + Sync,
{
    let mut campaign = Campaign::over(points.to_vec()).trace_mode(TraceMode::Stats);
    if threads > 0 {
        campaign = campaign.threads(threads);
    }
    campaign.run_scenarios(|point| search_scenario_for(point, seed_of(point), factory(point)))
}

/// [`scenario_for`]'s search-mode twin: the adversary label is an encoded
/// genome, interpreted by [`GenomeModel`]. Labels must be validated first.
fn search_scenario_for<P, F>(
    point: &CampaignPoint,
    seed: u64,
    protocol: F,
) -> ba_sim::ProtocolScenario<'static, P, F>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let genome = genome_from_label(&point.adversary)
        .expect("labels validated up front")
        .expect("labels validated up front");
    Scenario::new(point.n, point.t)
        .protocol(protocol)
        .inputs(input_bits(&point.inputs, point.n, seed))
        .adversary(Adversary::model(GenomeModel::new(genome)))
}

fn validate_search_labels<'a>(
    points: impl IntoIterator<Item = &'a CampaignPoint>,
) -> Result<(), String> {
    for point in points {
        match genome_from_label(&point.adversary) {
            Ok(Some(_)) => {}
            Ok(None) => {
                return Err(format!(
                    "search-mode point {point} needs a {:?}-prefixed adversary label",
                    ba_search::GENOME_LABEL_PREFIX
                ))
            }
            Err(err) => {
                return Err(format!("undecodable genome label at {point}: {err}"));
            }
        }
        if !INPUTS.contains(&point.inputs.as_str()) {
            return Err(format!(
                "unknown input label {:?} at {point} (known: {INPUTS:?})",
                point.inputs
            ));
        }
    }
    Ok(())
}

fn validate_labels<'a>(points: impl IntoIterator<Item = &'a CampaignPoint>) -> Result<(), String> {
    for point in points {
        if !ADVERSARIES.contains(&point.adversary.as_str()) {
            return Err(format!(
                "unknown adversary label {:?} at {point} (known: {ADVERSARIES:?})",
                point.adversary
            ));
        }
        if !INPUTS.contains(&point.inputs.as_str()) {
            return Err(format!(
                "unknown input label {:?} at {point} (known: {INPUTS:?})",
                point.inputs
            ));
        }
    }
    Ok(())
}

fn run_points<P, F, G, S>(
    points: &[CampaignPoint],
    seed_of: S,
    threads: usize,
    factory: G,
    mode: TraceMode,
    recorder: Option<Arc<dyn Recorder>>,
) -> CampaignReport<Bit>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P + Sync,
    G: Fn(&CampaignPoint) -> F + Sync,
    S: Fn(&CampaignPoint) -> u64 + Sync,
{
    let mut campaign = Campaign::over(points.to_vec()).trace_mode(mode);
    if threads > 0 {
        campaign = campaign.threads(threads);
    }
    if let Some(r) = recorder {
        campaign = campaign.recorder(r);
    }
    campaign.run_scenarios(|point| scenario_for(point, seed_of(point), factory(point)))
}

/// Builds the exact scenario a grid point denotes: protocol instance,
/// resolved inputs, and the adversary its label names. The in-process
/// reference ([`run_points`]) and the shard worker ([`run_manifest`]) both
/// build through here, which is what keeps `merge(k shards) == run(1)`.
fn scenario_for<P, F>(
    point: &CampaignPoint,
    seed: u64,
    protocol: F,
) -> ba_sim::ProtocolScenario<'static, P, F>
where
    P: Protocol<Input = Bit, Output = Bit>,
    F: Fn(ProcessId) -> P,
{
    let n = point.n;
    let t = point.t;
    let last = ProcessId(n.saturating_sub(1));
    let scenario =
        Scenario::new(n, t)
            .protocol(protocol)
            .inputs(input_bits(&point.inputs, n, seed));
    match point.adversary.as_str() {
        "isolation" => scenario.adversary(Adversary::isolation([last], Round(2))),
        "crash" => scenario.adversary(Adversary::crash([(last, Round(2))])),
        "random-omission" => scenario.adversary(Adversary::omission(
            [last],
            RandomOmissionPlan::new([last], 0.25, 0.25, seed ^ 0x2),
        )),
        // The adaptive fault-model family: execution-observing
        // adversaries the closed enum could not express.
        "adaptive-worst-case" => scenario.adversary(Adversary::adaptive_worst_case(t)),
        "mobile" => scenario.adversary(Adversary::mobile(
            (n.saturating_sub(t)..n).map(ProcessId),
            2,
        )),
        "scheduler" => scenario.adversary(Adversary::scheduler(
            last,
            (n.saturating_sub(1)) / 2,
            seed ^ 0x3,
        )),
        // "none" (validated up front).
        _ => scenario,
    }
}

/// Runs a scenario sweep distributed over `shards` worker processes and
/// reassembles the exact single-process [`CampaignReport`].
///
/// # Errors
///
/// Any [`DistError`] from spawning, transport, decoding, or merging.
pub fn distributed_scenario_sweep(
    points: &[CampaignPoint],
    protocol: &str,
    base_seed: u64,
    shards: usize,
    worker: WorkerCommand,
) -> Result<CampaignReport<Bit>, DistError> {
    let spec = SweepSpec::scenarios(points.to_vec(), protocol).base_seed(base_seed);
    Coordinator::new(worker, shards).run_campaign(&spec)
}

/// Runs the Theorem 2 falsifier sweep distributed over `shards` worker
/// processes; reproduces [`falsifier_sweep`](crate::falsifier_sweep) over
/// the same `(n, t)` grid exactly.
///
/// # Errors
///
/// Any [`DistError`] from spawning, transport, decoding, or merging.
///
/// # Panics
///
/// Panics if a worker reports a simulator error for a point — mirroring the
/// in-process sweep, which panics on simulator errors (protocol bugs).
pub fn distributed_falsifier_sweep(
    nts: &[(usize, usize)],
    protocol: &str,
    shards: usize,
    worker: WorkerCommand,
) -> Result<Vec<FalsifierSweepPoint>, DistError> {
    let points = crate::falsifier_points(nts);
    let spec = SweepSpec::falsifier(points, protocol);
    let merged = Coordinator::new(worker, shards).run::<FalsifierSweepPoint>(&spec)?;
    Ok(merged
        .into_iter()
        .map(|outcome| outcome.expect("falsifier run"))
        .collect())
}

impl Encode for FalsifierSweepPoint {
    fn encode(&self, out: &mut String) {
        out.push_str(&format!(
            "fpoint refuted={} verdict={} max={} bound={}\n",
            self.refuted,
            ba_dist::wire::escape(&self.verdict),
            self.max_message_complexity,
            self.paper_bound,
        ));
        self.point.encode(out);
    }
}

impl Decode for FalsifierSweepPoint {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rec = reader.record("fpoint")?;
        let refuted = rec.parse_field("refuted")?;
        let verdict = rec.text("verdict")?;
        let max_message_complexity = rec.parse_field("max")?;
        let paper_bound = rec.parse_field("bound")?;
        let point = CampaignPoint::decode(reader)?;
        Ok(FalsifierSweepPoint {
            point,
            refuted,
            verdict,
            max_message_complexity,
            paper_bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_dist::plan_shards;

    fn mixed_grid() -> Vec<CampaignPoint> {
        Campaign::grid(
            [(4, 1), (5, 1), (6, 2)],
            ADVERSARIES,
            &["zeros", "ones", "random"],
        )
        .points()
        .to_vec()
    }

    #[test]
    fn falsifier_sweep_points_round_trip_on_the_wire() {
        let fp = FalsifierSweepPoint {
            point: CampaignPoint::new(8, 2).with_adversary("theorem-2-families"),
            refuted: true,
            verdict: "REFUTED (agreement violation)".into(),
            max_message_complexity: 14,
            paper_bound: 0,
        };
        let decoded = FalsifierSweepPoint::from_wire(&fp.to_wire()).unwrap();
        assert_eq!(decoded, fp);
    }

    #[test]
    fn manifest_execution_matches_the_in_process_reference() {
        let points = mixed_grid();
        let spec = SweepSpec::scenarios(points.clone(), "flood-set").base_seed(0xD15C);
        let reference = scenario_campaign_report(&points, "flood-set", 0xD15C, 1).unwrap();
        // Execute every shard of a 3-way split in this process and merge.
        let reports: Vec<ShardReport<ba_sim::ScenarioStats<Bit>>> = plan_shards(&spec, 3)
            .iter()
            .map(|m| {
                let wire = run_manifest(m).unwrap();
                ShardReport::from_wire(&wire).unwrap()
            })
            .collect();
        let merged = ba_dist::merge_campaign_report(&points, reports).unwrap();
        assert_eq!(merged, reference);
    }

    /// A small genome population over two grid shapes, each point carrying
    /// its genome as the adversary label.
    fn genome_points() -> Vec<CampaignPoint> {
        use ba_search::{genome_label, GenomeSpace};
        let mut rng = SimRng::seed_from_u64(0x5EA7C4);
        (0..12)
            .map(|i| {
                let (n, t) = if i % 2 == 0 { (5, 1) } else { (7, 2) };
                let genome = GenomeSpace::new(n, t, 6).random_genome(&mut rng);
                CampaignPoint::new(n, t)
                    .with_adversary(genome_label(&genome))
                    .with_inputs(if i % 3 == 0 { "majority-one" } else { "zeros" })
            })
            .collect()
    }

    /// Captures `run_manifest_streaming(manifest, true, …)` and checks it
    /// against `run_manifest(manifest)`: the trailing report is the same
    /// bytes; there is one outcome line per entry, each equal to that
    /// index's report item; one progress line per entry, with `done` a
    /// permutation of `1..=total`. Returns the remaining (snapshot) lines.
    fn assert_stream_matches_report<T>(manifest: &ShardManifest) -> Vec<String>
    where
        T: Decode + PartialEq + std::fmt::Debug,
    {
        use std::sync::Mutex;
        let captured = Mutex::new(String::new());
        run_manifest_streaming(manifest, true, &|chunk: &str| {
            captured.lock().unwrap().push_str(chunk);
        })
        .unwrap();
        let captured = captured.into_inner().unwrap();
        let plain = run_manifest(manifest).unwrap();
        assert!(
            captured.ends_with(&plain),
            "{}: the stream must end with the report bytes",
            manifest.mode
        );
        let report: ShardReport<T> = ShardReport::from_wire(&plain).unwrap();
        let total = manifest.entries.len();
        assert_eq!(report.outcomes.len(), total);

        let mut outcome_indices = Vec::new();
        let mut progress = Vec::new();
        let mut others = Vec::new();
        for line in captured[..captured.len() - plain.len()].lines() {
            if line.starts_with("outcome ") {
                let outcome: ba_dist::PointOutcome<T> =
                    ba_dist::PointOutcome::from_wire(&format!("{line}\n")).unwrap();
                let (_, expected) = report
                    .outcomes
                    .iter()
                    .find(|(index, _)| *index == outcome.index)
                    .expect("streamed index is in the report");
                assert_eq!(&outcome.result, expected, "{}", manifest.mode);
                outcome_indices.push(outcome.index);
            } else if let Some(event) = ProgressEvent::parse(line) {
                assert_eq!(
                    (event.shard, event.shards),
                    (manifest.shard, manifest.shards)
                );
                assert_eq!(event.total, total);
                progress.push(event);
            } else {
                others.push(line.to_string());
            }
        }
        let mut expected: Vec<usize> = manifest.entries.iter().map(|e| e.index).collect();
        expected.sort_unstable();
        outcome_indices.sort_unstable();
        assert_eq!(
            outcome_indices, expected,
            "{}: one outcome per entry",
            manifest.mode
        );
        let mut progress_indices: Vec<usize> = progress.iter().map(|e| e.index).collect();
        progress_indices.sort_unstable();
        assert_eq!(
            progress_indices, expected,
            "{}: one progress line per entry",
            manifest.mode
        );
        let mut dones: Vec<usize> = progress.iter().map(|e| e.done).collect();
        dones.sort_unstable();
        assert_eq!(dones, (1..=total).collect::<Vec<_>>(), "{}", manifest.mode);
        others
    }

    #[test]
    fn stream_matches_the_report_in_every_mode() {
        use crate::check::CheckLabel;
        use ba_sim::ScenarioStats;

        let scenarios = SweepSpec::scenarios(mixed_grid(), "flood-set").base_seed(0xD15C);
        let manifest = plan_shards(&scenarios, 2).remove(1);
        let rest = assert_stream_matches_report::<ScenarioStats<Bit>>(&manifest);
        assert!(rest.is_empty(), "{rest:?}");

        let falsifier =
            SweepSpec::falsifier(crate::falsifier_points(&[(8, 2), (10, 2)]), "leader-echo");
        let manifest = plan_shards(&falsifier, 1).remove(0);
        let rest = assert_stream_matches_report::<FalsifierSweepPoint>(&manifest);
        assert!(rest.is_empty(), "{rest:?}");

        let search = SweepSpec::search(genome_points(), "phase-king-weak").base_seed(0xF00D);
        let manifest = plan_shards(&search, 3).remove(0);
        let rest = assert_stream_matches_report::<ScenarioStats<Bit>>(&manifest);
        assert!(rest.is_empty(), "{rest:?}");

        let label = CheckLabel::new(1).send_only();
        let slices = label.slices(3).into_iter().map(|slice| {
            CampaignPoint::new(4, 1)
                .with_adversary(slice.render())
                .with_inputs("zeros")
        });
        let check = SweepSpec::check(slices, "one-round-all-to-all").worker_threads(2);
        let manifest = plan_shards(&check, 1).remove(0);
        let snapshots = assert_stream_matches_report::<CheckSweepPoint>(&manifest);
        assert!(
            !snapshots.is_empty(),
            "check mode streams exploration snapshots"
        );
        for line in &snapshots {
            assert!(
                matches!(
                    CoordEvent::parse(line),
                    Some(CoordEvent::Check { shard: 0, .. })
                ),
                "{line}"
            );
        }
    }

    #[test]
    fn recorded_shard_telemetry_matches_the_recorded_campaign() {
        // The worker records each point as a `Campaign` sweep does, so one
        // recorded shard and the recorded in-process sweep of the same grid
        // fill the deterministic channel identically.
        use ba_obs::Aggregator;
        let points = mixed_grid();
        let spec = SweepSpec::scenarios(points.clone(), "flood-set").base_seed(0xD15C);
        let shard = Arc::new(Aggregator::new());
        run_manifest_recorded(&plan_shards(&spec, 1)[0], Some(shard.clone())).unwrap();
        let campaign = Arc::new(Aggregator::new());
        scenario_campaign_report_recorded(&points, "flood-set", 0xD15C, 1, campaign.clone())
            .unwrap();
        let shard = shard.snapshot().deterministic();
        assert_eq!(shard, campaign.snapshot().deterministic());
        assert_eq!(
            shard.counters.get("campaign.points").copied(),
            Some(points.len() as u64)
        );
    }

    #[test]
    fn search_manifest_execution_matches_the_in_process_reference() {
        let points = genome_points();
        let reference = search_campaign_report(&points, "phase-king-weak", 0xF00D, 1).unwrap();
        let spec = SweepSpec::search(points.clone(), "phase-king-weak").base_seed(0xF00D);
        let reports: Vec<ShardReport<ba_sim::ScenarioStats<Bit>>> = plan_shards(&spec, 3)
            .iter()
            .map(|m| {
                let wire = run_manifest(m).unwrap();
                ShardReport::from_wire(&wire).unwrap()
            })
            .collect();
        let merged = ba_dist::merge_campaign_report(&points, reports).unwrap();
        assert_eq!(merged, reference);
    }

    #[test]
    fn search_mode_rejects_non_genome_adversary_labels() {
        let points = vec![CampaignPoint::new(4, 1).with_adversary("crash")];
        let err = search_campaign_report(&points, "flood-set", 0, 1).unwrap_err();
        assert!(err.contains("genome:"), "{err}");
        let garbage = vec![CampaignPoint::new(4, 1).with_adversary("genome:nonsense")];
        let err = search_campaign_report(&garbage, "flood-set", 0, 1).unwrap_err();
        assert!(err.contains("undecodable"), "{err}");
    }

    #[test]
    fn unknown_labels_are_rejected_with_helpful_messages() {
        let bad_protocol = run_manifest(
            &plan_shards(
                &SweepSpec::scenarios(vec![CampaignPoint::new(4, 1)], "no-such-protocol"),
                1,
            )[0],
        );
        assert!(bad_protocol.unwrap_err().contains("no-such-protocol"));

        let bad_adversary = scenario_campaign_report(
            &[CampaignPoint::new(4, 1).with_adversary("meteor-strike")],
            "flood-set",
            0,
            1,
        );
        assert!(bad_adversary.unwrap_err().contains("meteor-strike"));

        let bad_inputs = scenario_campaign_report(
            &[CampaignPoint::new(4, 1).with_inputs("seventeen")],
            "flood-set",
            0,
            1,
        );
        assert!(bad_inputs.unwrap_err().contains("seventeen"));
    }

    #[test]
    fn every_registry_protocol_resolves_in_both_modes() {
        // n = 13, t = 2 satisfies every registry constraint (incl. n > 3t)
        // and t ≥ 2 keeps the falsifier's family construction non-trivial.
        let points = vec![CampaignPoint::new(13, 2)
            .with_adversary("none")
            .with_inputs("ones")];
        for label in REGISTRY {
            let report = scenario_campaign_report(&points, label, 1, 1)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(report.outcomes.len(), 1, "{label}");
            let falsifier = SweepSpec::falsifier(points.clone(), label);
            let wire = run_manifest(&plan_shards(&falsifier, 1)[0])
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let sweep: ShardReport<FalsifierSweepPoint> = ShardReport::from_wire(&wire).unwrap();
            assert_eq!(sweep.outcomes.len(), 1, "{label}");
        }
    }

    #[test]
    fn every_adversary_label_resolves_and_respects_the_model() {
        // One point per adversary label, all protocols stats-swept: the
        // adaptive family must execute without model violations (the
        // adaptive/mobile/scheduler adversaries may slow decisions but
        // never break the engine's execution guarantees).
        let points: Vec<CampaignPoint> = ADVERSARIES
            .iter()
            .map(|adv| {
                CampaignPoint::new(7, 2)
                    .with_adversary(*adv)
                    .with_inputs("ones")
            })
            .collect();
        let report = scenario_campaign_report(&points, "dolev-strong", 5, 1).unwrap();
        assert_eq!(report.outcomes.len(), ADVERSARIES.len());
        assert_eq!(report.errors().count(), 0, "{}", report.summary());
        // The adaptive worst case mutes the chattiest processes, so its
        // correct-sender complexity must differ from the fault-free point.
        let complexity = |label: &str| {
            report
                .stats()
                .find(|(p, _)| p.adversary == label)
                .map(|(_, s)| s.message_complexity)
                .unwrap()
        };
        assert!(complexity("adaptive-worst-case") < complexity("none"));
    }

    #[test]
    fn seeded_labels_are_deterministic_and_seed_sensitive() {
        let points: Vec<CampaignPoint> = (6..12)
            .map(|n| {
                CampaignPoint::new(n, 1)
                    .with_adversary("random-omission")
                    .with_inputs("random")
            })
            .collect();
        let a = scenario_campaign_report(&points, "flood-set", 7, 1).unwrap();
        let b = scenario_campaign_report(&points, "flood-set", 7, 1).unwrap();
        assert_eq!(a, b, "same base seed must reproduce exactly");
        // Different base seed → different per-point seeds, hence different
        // coin flips; across six points the aggregate stats diverge.
        for (p, q) in points.iter().zip(&points) {
            assert_eq!(ba_dist::point_seed(7, p), ba_dist::point_seed(7, q));
        }
        assert_ne!(
            ba_dist::point_seed(7, &points[0]),
            ba_dist::point_seed(8, &points[0])
        );
        let c = scenario_campaign_report(&points, "flood-set", 8, 1).unwrap();
        assert_ne!(a, c, "different base seeds should diverge");
    }
}
