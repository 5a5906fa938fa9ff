//! Deterministic shard planning and ordering-stable report merging.
//!
//! A campaign grid of [`CampaignPoint`]s is split into `k` **shards**, each
//! a [`ShardManifest`] naming the points (with their global grid indices),
//! the protocol/adversary labels, and one [`SimRng`] seed per point. Two
//! invariants make distributed sweeps reproduce single-process sweeps
//! bit-for-bit:
//!
//! * **seed invariance** — a point's seed is a pure function of the base
//!   seed and the point itself ([`point_seed`]), so the seeds are identical
//!   no matter how many shards the grid is cut into (and identical for
//!   duplicate points, which makes per-point seed lookup unambiguous);
//! * **merge stability** — [`merge_reports`] reassembles shard outcomes
//!   into global grid order through a `BTreeMap` keyed by global index, so
//!   `merge(k shards) == run(1 process)` regardless of worker completion
//!   order.

use std::collections::BTreeMap;
use std::fmt;

use ba_sim::{CampaignPoint, CampaignReport, ScenarioOutcome, SimError, SimRng};

use crate::coordinator::DistError;

/// How a worker interprets a shard's points.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShardMode {
    /// Each point builds and runs one scenario; outcomes are
    /// `ScenarioStats`.
    Scenarios,
    /// Each point runs the Theorem 2 falsifier; outcomes are falsifier
    /// sweep points.
    Falsifier,
    /// Each point evaluates one adversary-search genome (carried in the
    /// point's adversary label); outcomes are `ScenarioStats`, exactly as
    /// in [`ShardMode::Scenarios`].
    Search,
    /// Each point runs one slice of an exhaustive model check (the check
    /// spec and slice are encoded in the point's adversary label);
    /// outcomes are check sweep points whose merge reproduces the
    /// unsharded check exactly.
    Check,
}

impl fmt::Display for ShardMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardMode::Scenarios => write!(f, "scenarios"),
            ShardMode::Falsifier => write!(f, "falsifier"),
            ShardMode::Search => write!(f, "search"),
            ShardMode::Check => write!(f, "check"),
        }
    }
}

/// One grid point inside a shard: its global index, its deterministic seed,
/// and the point itself.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardEntry {
    /// The point's index in the full (unsharded) grid.
    pub index: usize,
    /// The point's seed, per [`point_seed`].
    pub seed: u64,
    /// The grid point.
    pub point: CampaignPoint,
}

/// The unit of work handed to one worker process.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardManifest {
    /// This shard's index in `0..shards`.
    pub shard: usize,
    /// Total number of shards the grid was split into.
    pub shards: usize,
    /// How the worker interprets the points.
    pub mode: ShardMode,
    /// Protocol label, resolved by the worker's registry.
    pub protocol: String,
    /// Worker thread-pool width (`0` = the worker machine's parallelism).
    pub threads: usize,
    /// The shard's points, in ascending global-index order.
    pub entries: Vec<ShardEntry>,
}

/// A worker's results for one shard: per-point outcomes keyed by global
/// grid index.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardReport<T> {
    /// The shard these outcomes belong to.
    pub shard: usize,
    /// `(global index, outcome)` per entry of the shard's manifest.
    pub outcomes: Vec<(usize, Result<T, SimError>)>,
}

/// One finished grid point streamed back mid-shard, before the final
/// [`ShardReport`].
///
/// Workers emit one of these per completed point, which
/// is what makes point-level recovery possible: the coordinator harvests
/// them as they arrive, so a worker that crashes after k points only
/// forfeits the points it had not yet finished. The global grid `index`
/// (whose seed is the pure function [`point_seed`]) is the idempotency key:
/// re-running a point on another worker reproduces the identical result, so
/// duplicates arriving from work-stealing are deduplicated on merge.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PointOutcome<T> {
    /// The point's index in the full (unsharded) grid.
    pub index: usize,
    /// The point's outcome.
    pub result: Result<T, SimError>,
}

/// One shard that exhausted its retry budget, recorded in a
/// [`PartialSweep`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardFailure {
    /// The shard (in the original plan) that failed.
    pub shard: usize,
    /// How many attempts were made before giving up.
    pub attempts: usize,
    /// The last attempt's error, as text.
    pub last: String,
}

/// The graceful-degradation result of a sweep that exhausted its retry
/// budget: everything that finished, plus a coverage map of what did not.
///
/// The invariant (property-tested): `outcomes` indices and `missing`
/// together exactly partition `0..grid_len`. A complete sweep is the
/// special case `missing.is_empty()`, in which case the outcomes are
/// bit-identical to a fully successful run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PartialSweep<T> {
    /// The full grid's length.
    pub grid_len: usize,
    /// `(global index, outcome)` for every point that finished, in
    /// ascending index order.
    pub outcomes: Vec<(usize, Result<T, SimError>)>,
    /// Global indices of points that never finished, in ascending order.
    pub missing: Vec<usize>,
    /// The shards that exhausted their retry budget.
    pub failures: Vec<ShardFailure>,
}

impl<T> PartialSweep<T> {
    /// Whether every grid point finished (no degradation happened).
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }

    /// `(finished, planned)` point counts.
    pub fn coverage(&self) -> (usize, usize) {
        (self.outcomes.len(), self.grid_len)
    }

    /// Extracts the merged in-order outcomes if the sweep is complete;
    /// otherwise hands the partial sweep back.
    ///
    /// # Errors
    ///
    /// Returns `self` unchanged when points are missing.
    pub fn into_complete(self) -> Result<Vec<Result<T, SimError>>, Box<PartialSweep<T>>> {
        if self.is_complete() {
            Ok(self.outcomes.into_iter().map(|(_, r)| r).collect())
        } else {
            Err(Box::new(self))
        }
    }
}

impl<O> PartialSweep<ba_sim::ScenarioStats<O>> {
    /// Zips a partial scenario sweep back with its grid into a
    /// [`PartialReport`].
    pub fn into_campaign(self, points: &[CampaignPoint]) -> PartialReport<O> {
        let covered = CampaignReport {
            outcomes: self
                .outcomes
                .into_iter()
                .map(|(index, result)| ScenarioOutcome {
                    point: points[index].clone(),
                    result,
                })
                .collect(),
        };
        PartialReport {
            grid_len: self.grid_len,
            covered,
            missing: self
                .missing
                .into_iter()
                .map(|index| (index, points[index].clone()))
                .collect(),
            failures: self.failures,
        }
    }
}

/// A campaign-level [`PartialSweep`]: the covered points assembled into a
/// [`CampaignReport`], plus the coverage map of missing points.
#[derive(Clone, PartialEq, Debug)]
pub struct PartialReport<O> {
    /// The planned grid's length.
    pub grid_len: usize,
    /// The outcomes that finished, zipped with their points — a valid
    /// [`CampaignReport`] over the covered subset of the grid.
    pub covered: CampaignReport<O>,
    /// The points that never finished, with their global grid indices.
    pub missing: Vec<(usize, CampaignPoint)>,
    /// The shards that exhausted their retry budget.
    pub failures: Vec<ShardFailure>,
}

impl<O> PartialReport<O> {
    /// Whether every grid point finished.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }

    /// One-line human summary of the coverage.
    pub fn coverage_summary(&self) -> String {
        format!(
            "{}/{} points covered, {} missing, {} shard(s) exhausted",
            self.covered.outcomes.len(),
            self.grid_len,
            self.missing.len(),
            self.failures.len()
        )
    }

    /// Renders the report's coverage map as a JSON object (for artifacts
    /// and dashboards): grid size, covered/missing indices, and per-shard
    /// failure diagnostics.
    pub fn coverage_json(&self) -> String {
        let missing: Vec<String> = self.missing.iter().map(|(i, _)| i.to_string()).collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| {
                format!(
                    "{{\"shard\":{},\"attempts\":{},\"last\":\"{}\"}}",
                    f.shard,
                    f.attempts,
                    ba_obs::json_escape(&f.last)
                )
            })
            .collect();
        format!(
            "{{\"type\":\"partial_report\",\"grid\":{},\"covered\":{},\"missing\":[{}],\"failures\":[{}]}}",
            self.grid_len,
            self.covered.outcomes.len(),
            missing.join(","),
            failures.join(",")
        )
    }
}

/// A full sweep, ready to be sharded: the grid plus everything a worker
/// needs to reproduce each point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SweepSpec {
    /// The full campaign grid, in sweep order.
    pub points: Vec<CampaignPoint>,
    /// How workers interpret the points.
    pub mode: ShardMode,
    /// Protocol label, resolved by the worker's registry.
    pub protocol: String,
    /// Base seed mixed into every per-point seed.
    pub base_seed: u64,
    /// Worker thread-pool width (`0` = auto).
    pub worker_threads: usize,
}

impl SweepSpec {
    /// A scenario sweep over `points` with the given protocol label.
    pub fn scenarios(points: impl IntoIterator<Item = CampaignPoint>, protocol: &str) -> Self {
        SweepSpec {
            points: points.into_iter().collect(),
            mode: ShardMode::Scenarios,
            protocol: protocol.to_string(),
            base_seed: 0,
            worker_threads: 0,
        }
    }

    /// A falsifier sweep over `points` with the given protocol label.
    pub fn falsifier(points: impl IntoIterator<Item = CampaignPoint>, protocol: &str) -> Self {
        SweepSpec {
            mode: ShardMode::Falsifier,
            ..SweepSpec::scenarios(points, protocol)
        }
    }

    /// An adversary-search population evaluation over `points` (each
    /// carrying an encoded genome as its adversary label).
    pub fn search(points: impl IntoIterator<Item = CampaignPoint>, protocol: &str) -> Self {
        SweepSpec {
            mode: ShardMode::Search,
            ..SweepSpec::scenarios(points, protocol)
        }
    }

    /// An exhaustive model-check sweep over `points` (each carrying an
    /// encoded check spec and slice assignment as its adversary label).
    pub fn check(points: impl IntoIterator<Item = CampaignPoint>, protocol: &str) -> Self {
        SweepSpec {
            mode: ShardMode::Check,
            ..SweepSpec::scenarios(points, protocol)
        }
    }

    /// Sets the base seed.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets the worker thread-pool width.
    pub fn worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads;
        self
    }
}

/// The deterministic seed of one grid point.
///
/// A pure function of `(base_seed, point)` — **not** of the point's position
/// or the shard count — so re-sharding a grid never changes any point's
/// seed. The point is folded FNV-1a-style into the base seed, then whitened
/// through one [`SimRng`] step.
pub fn point_seed(base_seed: u64, point: &CampaignPoint) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        // Field separator, so ("ab", "c") and ("a", "bc") differ.
        hash = (hash ^ 0xFF).wrapping_mul(FNV_PRIME);
    };
    fold(&(point.n as u64).to_le_bytes());
    fold(&(point.t as u64).to_le_bytes());
    fold(point.adversary.as_bytes());
    fold(point.inputs.as_bytes());
    SimRng::seed_from_u64(base_seed ^ hash).next_u64()
}

/// Splits a sweep into `shards` manifests of near-equal size (contiguous
/// chunks; the first `len % shards` chunks get one extra point). Empty
/// shards are not emitted, so the result has `min(shards, len)` manifests
/// (none for an empty grid).
pub fn plan_shards(spec: &SweepSpec, shards: usize) -> Vec<ShardManifest> {
    let len = spec.points.len();
    let shards = shards.clamp(1, len.max(1));
    let base = len / shards;
    let extra = len % shards;
    let mut manifests = Vec::with_capacity(shards);
    let mut next = 0usize;
    for shard in 0..shards {
        let size = base + usize::from(shard < extra);
        let entries: Vec<ShardEntry> = (next..next + size)
            .map(|index| ShardEntry {
                index,
                seed: point_seed(spec.base_seed, &spec.points[index]),
                point: spec.points[index].clone(),
            })
            .collect();
        next += size;
        if entries.is_empty() {
            continue;
        }
        manifests.push(ShardManifest {
            shard,
            shards,
            mode: spec.mode,
            protocol: spec.protocol.clone(),
            threads: spec.worker_threads,
            entries,
        });
    }
    manifests
}

/// Plans manifests covering only the given grid indices — the resume step
/// after a [`PartialSweep`]: feed it the sweep's `missing` list and the
/// resulting manifests re-run exactly the unfinished points, with the same
/// per-point seeds ([`point_seed`] is position-independent), so
/// `merge(partial ∪ resume) == run(1 process)` bit-for-bit.
///
/// Indices outside the grid are ignored; duplicates are collapsed. Shard
/// ids restart at 0 over `min(shards, missing points)` manifests.
pub fn plan_resume(spec: &SweepSpec, missing: &[usize], shards: usize) -> Vec<ShardManifest> {
    let picked: Vec<usize> = {
        let uniq: BTreeMap<usize, ()> = missing
            .iter()
            .copied()
            .filter(|&i| i < spec.points.len())
            .map(|i| (i, ()))
            .collect();
        uniq.into_keys().collect()
    };
    let len = picked.len();
    let shards = shards.clamp(1, len.max(1));
    let base = len / shards;
    let extra = len % shards;
    let mut manifests = Vec::with_capacity(shards);
    let mut next = 0usize;
    for shard in 0..shards {
        let size = base + usize::from(shard < extra);
        let entries: Vec<ShardEntry> = picked[next..next + size]
            .iter()
            .map(|&index| ShardEntry {
                index,
                seed: point_seed(spec.base_seed, &spec.points[index]),
                point: spec.points[index].clone(),
            })
            .collect();
        next += size;
        if entries.is_empty() {
            continue;
        }
        manifests.push(ShardManifest {
            shard,
            shards,
            mode: spec.mode,
            protocol: spec.protocol.clone(),
            threads: spec.worker_threads,
            entries,
        });
    }
    manifests
}

/// Merges shard reports back into global grid order.
///
/// Keyed by a `BTreeMap` over global indices, so the result is independent
/// of shard completion order; every grid index must be covered exactly once.
///
/// # Errors
///
/// Returns [`DistError::MissingPoint`] / [`DistError::DuplicatePoint`] /
/// [`DistError::StrayPoint`] if the reports do not cover `grid_len` indices
/// exactly.
pub fn merge_reports<T>(
    grid_len: usize,
    reports: Vec<ShardReport<T>>,
) -> Result<Vec<Result<T, SimError>>, DistError> {
    let mut by_index: BTreeMap<usize, Result<T, SimError>> = BTreeMap::new();
    for report in reports {
        for (index, outcome) in report.outcomes {
            if index >= grid_len {
                return Err(DistError::StrayPoint { index });
            }
            if by_index.insert(index, outcome).is_some() {
                return Err(DistError::DuplicatePoint { index });
            }
        }
    }
    if by_index.len() != grid_len {
        let missing = (0..grid_len)
            .find(|i| !by_index.contains_key(i))
            .unwrap_or(grid_len);
        return Err(DistError::MissingPoint { index: missing });
    }
    Ok(by_index.into_values().collect())
}

/// Reassembles a merged scenario sweep into the exact [`CampaignReport`] a
/// single-process [`ba_sim::Campaign::run_scenarios`] over the same grid
/// produces.
///
/// # Errors
///
/// As [`merge_reports`].
pub fn merge_campaign_report<O>(
    points: &[CampaignPoint],
    reports: Vec<ShardReport<ba_sim::ScenarioStats<O>>>,
) -> Result<CampaignReport<O>, DistError> {
    let merged = merge_reports(points.len(), reports)?;
    Ok(assemble_campaign_report(points, merged))
}

/// Zips already-merged per-point results (in grid order) back with their
/// points into a [`CampaignReport`].
pub fn assemble_campaign_report<O>(
    points: &[CampaignPoint],
    merged: Vec<Result<ba_sim::ScenarioStats<O>, SimError>>,
) -> CampaignReport<O> {
    CampaignReport {
        outcomes: points
            .iter()
            .zip(merged)
            .map(|(point, result)| ScenarioOutcome {
                point: point.clone(),
                result,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::Campaign;

    fn grid() -> Vec<CampaignPoint> {
        Campaign::grid(
            [(4, 1), (5, 1), (6, 2), (7, 2), (8, 2)],
            &["none", "isolation"],
            &["zeros", "ones"],
        )
        .points()
        .to_vec()
    }

    #[test]
    fn seeds_are_invariant_under_shard_count() {
        let spec = SweepSpec::scenarios(grid(), "flood-set").base_seed(0xBA5E);
        let seeds_of = |k: usize| -> BTreeMap<usize, u64> {
            plan_shards(&spec, k)
                .into_iter()
                .flat_map(|m| m.entries.into_iter().map(|e| (e.index, e.seed)))
                .collect()
        };
        let one = seeds_of(1);
        assert_eq!(one.len(), spec.points.len());
        for k in [2usize, 3, 4, 7, 100] {
            assert_eq!(seeds_of(k), one, "seeds changed at k = {k}");
        }
    }

    #[test]
    fn seeds_depend_on_base_seed_and_point() {
        let p = CampaignPoint::new(8, 2);
        let q = CampaignPoint::new(8, 2).with_adversary("isolation");
        assert_ne!(point_seed(1, &p), point_seed(2, &p));
        assert_ne!(point_seed(1, &p), point_seed(1, &q));
        // Pure function: duplicates of a point agree.
        assert_eq!(point_seed(7, &p), point_seed(7, &p.clone()));
    }

    #[test]
    fn shards_partition_the_grid_in_order() {
        let spec = SweepSpec::scenarios(grid(), "flood-set");
        for k in 1..=spec.points.len() + 3 {
            let manifests = plan_shards(&spec, k);
            assert_eq!(manifests.len(), k.min(spec.points.len()));
            let covered: Vec<usize> = manifests
                .iter()
                .flat_map(|m| m.entries.iter().map(|e| e.index))
                .collect();
            assert_eq!(covered, (0..spec.points.len()).collect::<Vec<_>>());
            // Near-equal sizes: max - min ≤ 1.
            let sizes: Vec<usize> = manifests.iter().map(|m| m.entries.len()).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "unbalanced shards at k = {k}: {sizes:?}");
            for m in &manifests {
                assert_eq!(m.shards, k.clamp(1, spec.points.len()));
                for e in &m.entries {
                    assert_eq!(e.point, spec.points[e.index]);
                }
            }
        }
    }

    #[test]
    fn empty_grid_plans_no_shards() {
        let spec = SweepSpec::scenarios([], "flood-set");
        assert!(plan_shards(&spec, 4).is_empty());
        let merged: Vec<Result<u32, SimError>> = merge_reports(0, Vec::new()).unwrap();
        assert!(merged.is_empty());
    }

    #[test]
    fn merge_is_independent_of_shard_arrival_order() {
        let reports = vec![
            ShardReport {
                shard: 1,
                outcomes: vec![(2usize, Ok(20u32)), (3, Ok(30))],
            },
            ShardReport {
                shard: 0,
                outcomes: vec![
                    (0, Ok(0)),
                    (1, Err(SimError::TooManyFaulty { got: 2, t: 1 })),
                ],
            },
        ];
        let mut reversed = reports.clone();
        reversed.reverse();
        let a = merge_reports(4, reports).unwrap();
        let b = merge_reports(4, reversed).unwrap();
        assert_eq!(a, b);
        assert_eq!(a[2], Ok(20));
        assert_eq!(a[1], Err(SimError::TooManyFaulty { got: 2, t: 1 }));
    }

    #[test]
    fn merge_rejects_gaps_and_duplicates() {
        let gap: Result<Vec<Result<u32, _>>, _> = merge_reports(
            3,
            vec![ShardReport {
                shard: 0,
                outcomes: vec![(0, Ok(1u32)), (2, Ok(2))],
            }],
        );
        assert_eq!(gap.unwrap_err(), DistError::MissingPoint { index: 1 });
        let dup: Result<Vec<Result<u32, _>>, _> = merge_reports(
            2,
            vec![
                ShardReport {
                    shard: 0,
                    outcomes: vec![(0, Ok(1u32)), (1, Ok(2))],
                },
                ShardReport {
                    shard: 1,
                    outcomes: vec![(1, Ok(3))],
                },
            ],
        );
        assert_eq!(dup.unwrap_err(), DistError::DuplicatePoint { index: 1 });
    }
}
