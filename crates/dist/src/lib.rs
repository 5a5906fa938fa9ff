//! # ba-dist — distributed campaign sharding
//!
//! `ba_sim::Campaign` parallelizes a sweep across grid points *within one
//! process*. This crate is the next scale step toward the large `(n, t)`
//! sweeps the paper's Θ(nt) bound demands (and the King–Saia sub-quadratic
//! regimes beyond them): it shards a campaign across *processes* — and,
//! because the transport is plain stdin/stdout over a spawned command,
//! eventually across machines.
//!
//! Three pieces, all dependency-free:
//!
//! * [`wire`] — a hand-rolled line-oriented codec ([`Encode`] / [`Decode`])
//!   for campaign points, shard manifests, scenario stats, simulator
//!   errors, and whole campaign reports. Round-trip (`decode(encode(x)) ==
//!   x`) is property-tested for every wire type.
//! * [`shard`] — a deterministic planner ([`plan_shards`]) whose per-point
//!   seeds are a pure function of the base seed and the point
//!   ([`point_seed`]), so they are identical regardless of the shard
//!   count, and an ordering-stable merger ([`merge_reports`],
//!   BTreeMap-keyed) so `merge(k shards) == run(1 process)` bit-for-bit.
//! * [`transport`] — the [`ShardTransport`] abstraction over how a shard
//!   manifest reaches a worker and its output streams back: spawned
//!   processes ([`WorkerCommand`]), hand-rolled TCP ([`TcpTransport`] /
//!   [`serve_shards`]), in-process closures (tests), and a deterministic
//!   chaos wrapper ([`ChaosTransport`]) injecting seeded crashes, stalls,
//!   truncations, corrupted lines, and connection drops.
//! * [`coordinator`] — a [`Coordinator`] that dispatches shards
//!   concurrently over a [`ShardTransport`] and recovers failures at
//!   *point* granularity: streamed outcomes are banked as they arrive, a
//!   no-progress watchdog kills stalled attempts, a seeded exponential
//!   [`Backoff`] paces re-plans, and unfinished points are work-stolen by
//!   idle fabric threads (retries stay visible: logged and surfaced as
//!   [`CoordEvent`]s). On budget exhaustion the partial entry points
//!   degrade to typed [`PartialSweep`] / [`PartialReport`] values.
//! * [`progress`] — streaming per-point progress: the JSONL records
//!   workers add after each outcome line with `--progress`
//!   ([`ProgressEvent`]), the coordinator's observer stream
//!   ([`CoordEvent`]), and the rolling per-shard aggregates
//!   ([`LiveAggregates`]: points/sec, ETA, straggler flagging,
//!   malformed-line gauge, partial coverage) behind the `campaign_watch`
//!   dashboard.
//!
//! The worker side lives in `ba-bench` (`campaign_worker` binary + protocol
//! registry), because resolving protocol labels needs the protocol crates.
//!
//! ## Example
//!
//! ```no_run
//! use ba_dist::{Coordinator, SweepSpec, WorkerCommand};
//! use ba_sim::Campaign;
//!
//! let grid = Campaign::grid([(8, 2), (16, 4)], &["none", "isolation"], &["ones"]);
//! let spec = SweepSpec::scenarios(grid.points().to_vec(), "flood-set").base_seed(7);
//! let worker = WorkerCommand::locate().expect("campaign_worker binary built");
//! let report = Coordinator::new(worker, 4).run_campaign(&spec).unwrap();
//! println!("{}", report.summary());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod progress;
pub mod shard;
pub mod transport;
pub mod wire;

pub use coordinator::{Backoff, Coordinator, DistError};
pub use progress::{CoordEvent, LiveAggregates, ProgressEvent, ShardProgress, STRAGGLER_FACTOR};
pub use shard::{
    assemble_campaign_report, merge_campaign_report, merge_reports, plan_resume, plan_shards,
    point_seed, PartialReport, PartialSweep, PointOutcome, ShardEntry, ShardFailure, ShardManifest,
    ShardMode, ShardReport, SweepSpec,
};
pub use transport::{
    serve_connection, serve_shards, AbortHandle, BufferedLink, ChaosFault, ChaosFaultKind,
    ChaosPlan, ChaosTransport, ShardTransport, TcpTransport, WorkerCommand, WorkerLink,
    ALL_CHAOS_KINDS,
};
pub use wire::{fnv64, Decode, Encode, WireError, WireReader};
