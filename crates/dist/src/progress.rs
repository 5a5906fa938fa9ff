//! Streaming per-point campaign progress.
//!
//! Workers run with `--progress` follow each streamed outcome line with one
//! JSONL record for the completed point, ahead of their wire-format report
//! on stdout. JSON lines start with `{`, wire records never do, so the
//! coordinator can split the stream line-by-line without framing. This
//! module defines the record
//! ([`ProgressEvent`]), the coordinator-side observer stream
//! ([`CoordEvent`]), and the rolling per-shard aggregates a dashboard
//! renders ([`LiveAggregates`]): points/sec per shard, ETA, and straggler
//! flagging for shards running more than 2× slower than the median.
//!
//! Rates are derived from worker-reported wall-clock (`elapsed_nanos`), so
//! everything here lives in the **wall-clock channel** — it is never
//! compared across runs and never influences execution.

use std::collections::BTreeMap;
use std::fmt;

use ba_obs::{json_escape, parse_json_line};

/// One per-point progress record, as emitted by a worker run with
/// `--progress`: `{"type":"point","shard":0,"shards":2,"done":3,"total":9,...}`.
#[derive(Clone, PartialEq, Debug)]
pub struct ProgressEvent {
    /// The shard that completed the point.
    pub shard: usize,
    /// Total shards in the sweep (so a dashboard knows the full row set).
    pub shards: usize,
    /// Points this shard has completed so far (including this one).
    pub done: usize,
    /// Total points assigned to this shard.
    pub total: usize,
    /// The completed point's global grid index.
    pub index: usize,
    /// The point's message complexity (0 if the point errored).
    pub messages: u64,
    /// Rounds the point executed (0 if the point errored).
    pub rounds: u64,
    /// Whether the point ran without a simulator error.
    pub ok: bool,
    /// Worker wall-clock since shard start, in nanoseconds (wall-clock
    /// channel: never compared across runs).
    pub elapsed_nanos: u64,
}

impl ProgressEvent {
    /// Renders the event as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"type\":\"point\",\"shard\":{},\"shards\":{},\"done\":{},\"total\":{},\
             \"index\":{},\"messages\":{},\"rounds\":{},\"ok\":{},\"elapsed_nanos\":{}}}",
            self.shard,
            self.shards,
            self.done,
            self.total,
            self.index,
            self.messages,
            self.rounds,
            self.ok,
            self.elapsed_nanos
        )
    }

    /// Parses a `{"type":"point",...}` JSONL line. Returns `None` for
    /// non-JSON lines (wire records), JSON of a different `type`, or
    /// records missing required fields — callers route those elsewhere.
    pub fn parse(line: &str) -> Option<Self> {
        let json = parse_json_line(line)?;
        if json.get("type")?.as_str()? != "point" {
            return None;
        }
        let usize_field = |key: &str| json.get(key)?.as_u64().map(|v| v as usize);
        Some(ProgressEvent {
            shard: usize_field("shard")?,
            shards: usize_field("shards")?,
            done: usize_field("done")?,
            total: usize_field("total")?,
            index: usize_field("index")?,
            messages: json.get("messages")?.as_u64()?,
            rounds: json.get("rounds")?.as_u64()?,
            ok: json.get("ok")?.as_bool()?,
            elapsed_nanos: json.get("elapsed_nanos")?.as_u64()?,
        })
    }
}

/// What the coordinator reports to its observer while a sweep runs.
#[derive(Clone, PartialEq, Debug)]
pub enum CoordEvent {
    /// A worker completed one grid point.
    Point(ProgressEvent),
    /// A shard attempt failed and is being re-dispatched.
    Retry {
        /// The failing shard.
        shard: usize,
        /// The attempt that failed (1-based).
        attempt: usize,
        /// Total attempts the coordinator will make.
        attempts: usize,
        /// The failure, rendered.
        cause: String,
    },
    /// A shard's report was received and decoded.
    ShardDone {
        /// The finished shard.
        shard: usize,
    },
    /// A model-check shard reported a cumulative exploration snapshot
    /// (streamed once per state batch, so a dashboard can show live
    /// states/s and frontier depth while the check runs).
    Check {
        /// The shard running the check slice.
        shard: usize,
        /// Total shards in the sweep.
        shards: usize,
        /// Distinct states (canonical fingerprints) seen so far.
        states: u64,
        /// Executions explored so far (≥ `states`; the gap is dedup).
        executions: u64,
        /// Deepest decision-tape explored so far.
        depth: usize,
        /// Worker wall-clock since shard start, in nanoseconds
        /// (wall-clock channel: never compared across runs).
        elapsed_nanos: u64,
    },
    /// The sweep degraded to partial coverage: some points never finished
    /// within the retry budget.
    Partial {
        /// Points that did finish.
        covered: usize,
        /// Points forfeited.
        missing: usize,
        /// The planned grid size (`covered + missing`).
        grid: usize,
    },
}

impl CoordEvent {
    /// Renders the event as one JSONL line (no trailing newline), the same
    /// framing workers use, so coordinator streams can be piped into
    /// `campaign_watch` too.
    pub fn to_json_line(&self) -> String {
        match self {
            CoordEvent::Point(event) => event.to_json_line(),
            CoordEvent::Retry {
                shard,
                attempt,
                attempts,
                cause,
            } => format!(
                "{{\"type\":\"retry\",\"shard\":{shard},\"attempt\":{attempt},\
                 \"attempts\":{attempts},\"cause\":\"{}\"}}",
                json_escape(cause)
            ),
            CoordEvent::ShardDone { shard } => {
                format!("{{\"type\":\"shard_done\",\"shard\":{shard}}}")
            }
            CoordEvent::Check {
                shard,
                shards,
                states,
                executions,
                depth,
                elapsed_nanos,
            } => format!(
                "{{\"type\":\"check\",\"shard\":{shard},\"shards\":{shards},\
                 \"states\":{states},\"executions\":{executions},\"depth\":{depth},\
                 \"elapsed_nanos\":{elapsed_nanos}}}"
            ),
            CoordEvent::Partial {
                covered,
                missing,
                grid,
            } => format!(
                "{{\"type\":\"partial\",\"covered\":{covered},\"missing\":{missing},\
                 \"grid\":{grid}}}"
            ),
        }
    }
}

impl CoordEvent {
    /// Parses any coordinator-stream JSONL line (`point`, `retry`,
    /// `shard_done`). Returns `None` for non-JSON lines or foreign types.
    pub fn parse(line: &str) -> Option<Self> {
        let json = parse_json_line(line)?;
        match json.get("type")?.as_str()? {
            "point" => ProgressEvent::parse(line).map(CoordEvent::Point),
            "retry" => Some(CoordEvent::Retry {
                shard: json.get("shard")?.as_u64()? as usize,
                attempt: json.get("attempt")?.as_u64()? as usize,
                attempts: json.get("attempts")?.as_u64()? as usize,
                cause: json.get("cause")?.as_str()?.to_string(),
            }),
            "shard_done" => Some(CoordEvent::ShardDone {
                shard: json.get("shard")?.as_u64()? as usize,
            }),
            "check" => Some(CoordEvent::Check {
                shard: json.get("shard")?.as_u64()? as usize,
                shards: json.get("shards")?.as_u64()? as usize,
                states: json.get("states")?.as_u64()?,
                executions: json.get("executions")?.as_u64()?,
                depth: json.get("depth")?.as_u64()? as usize,
                elapsed_nanos: json.get("elapsed_nanos")?.as_u64()?,
            }),
            "partial" => Some(CoordEvent::Partial {
                covered: json.get("covered")?.as_u64()? as usize,
                missing: json.get("missing")?.as_u64()? as usize,
                grid: json.get("grid")?.as_u64()? as usize,
            }),
            _ => None,
        }
    }
}

impl fmt::Display for CoordEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordEvent::Point(e) => write!(
                f,
                "shard {}: point {} done ({}/{})",
                e.shard, e.index, e.done, e.total
            ),
            CoordEvent::Retry {
                shard,
                attempt,
                attempts,
                cause,
            } => write!(
                f,
                "shard {shard}: attempt {attempt}/{attempts} failed, retrying: {cause}"
            ),
            CoordEvent::ShardDone { shard } => write!(f, "shard {shard}: report merged"),
            CoordEvent::Check {
                shard,
                states,
                executions,
                depth,
                ..
            } => write!(
                f,
                "shard {shard}: {states} states / {executions} executions, frontier depth {depth}"
            ),
            CoordEvent::Partial {
                covered,
                missing,
                grid,
            } => write!(
                f,
                "partial coverage: {covered}/{grid} points merged, {missing} missing"
            ),
        }
    }
}

/// A shard's rolling progress, as seen by [`LiveAggregates`].
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ShardProgress {
    /// Points completed.
    pub done: usize,
    /// Points assigned.
    pub total: usize,
    /// Worker wall-clock at the latest event, nanoseconds.
    pub elapsed_nanos: u64,
    /// Total messages across completed points.
    pub messages: u64,
    /// Points that ended in a simulator error.
    pub errors: usize,
    /// Retry attempts observed for this shard.
    pub retries: usize,
    /// Model-check states seen (distinct fingerprints), if the shard runs
    /// a check slice.
    pub check_states: u64,
    /// Model-check executions explored, if the shard runs a check slice.
    pub check_executions: u64,
    /// Deepest model-check decision tape explored.
    pub check_depth: usize,
}

impl ShardProgress {
    /// Completed points per second of worker wall-clock, if measurable.
    pub fn points_per_sec(&self) -> Option<f64> {
        if self.done == 0 || self.elapsed_nanos == 0 {
            return None;
        }
        Some(self.done as f64 * 1e9 / self.elapsed_nanos as f64)
    }

    /// Distinct model-check states per second of worker wall-clock, if the
    /// shard has reported check snapshots.
    pub fn states_per_sec(&self) -> Option<f64> {
        if self.check_states == 0 || self.elapsed_nanos == 0 {
            return None;
        }
        Some(self.check_states as f64 * 1e9 / self.elapsed_nanos as f64)
    }
}

/// Rolling aggregates over a stream of progress events: per-shard rates,
/// sweep ETA, and straggler flagging. This is the model behind the
/// `campaign_watch` dashboard and the coordinator's end-of-run summary.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct LiveAggregates {
    shards: BTreeMap<usize, ShardProgress>,
    expected_shards: usize,
    malformed_lines: u64,
    partial: Option<(usize, usize, usize)>,
}

/// A shard is a straggler when its observed rate is more than `2×` slower
/// than the median shard rate.
pub const STRAGGLER_FACTOR: f64 = 2.0;

impl LiveAggregates {
    /// An empty aggregate; shards appear as their events arrive.
    pub fn new() -> Self {
        LiveAggregates::default()
    }

    /// Folds one per-point event into the aggregates.
    pub fn ingest(&mut self, event: &ProgressEvent) {
        self.expected_shards = self.expected_shards.max(event.shards);
        let shard = self.shards.entry(event.shard).or_default();
        shard.done = shard.done.max(event.done);
        shard.total = event.total;
        shard.elapsed_nanos = shard.elapsed_nanos.max(event.elapsed_nanos);
        shard.messages += event.messages;
        if !event.ok {
            shard.errors += 1;
        }
    }

    /// Folds a coordinator event: points are ingested, retries counted.
    pub fn ingest_coord(&mut self, event: &CoordEvent) {
        match event {
            CoordEvent::Point(e) => self.ingest(e),
            CoordEvent::Retry { shard, .. } => {
                self.shards.entry(*shard).or_default().retries += 1;
            }
            CoordEvent::ShardDone { .. } => {}
            CoordEvent::Check {
                shard,
                shards,
                states,
                executions,
                depth,
                elapsed_nanos,
            } => {
                self.expected_shards = self.expected_shards.max(*shards);
                let entry = self.shards.entry(*shard).or_default();
                // Snapshots are cumulative per shard; folding by max keeps
                // ingestion idempotent under replayed lines.
                entry.check_states = entry.check_states.max(*states);
                entry.check_executions = entry.check_executions.max(*executions);
                entry.check_depth = entry.check_depth.max(*depth);
                entry.elapsed_nanos = entry.elapsed_nanos.max(*elapsed_nanos);
            }
            CoordEvent::Partial {
                covered,
                missing,
                grid,
            } => self.partial = Some((*covered, *missing, *grid)),
        }
    }

    /// Notes one malformed (non-UTF8, garbled, or unparseable) stream line.
    /// Dashboards pass such lines through opaquely; this gauge keeps the
    /// corruption visible.
    pub fn note_malformed(&mut self) {
        self.malformed_lines += 1;
    }

    /// Malformed stream lines observed so far.
    pub fn malformed_lines(&self) -> u64 {
        self.malformed_lines
    }

    /// The partial-coverage outcome, if the coordinator degraded:
    /// `(covered, missing, grid)`.
    pub fn partial_coverage(&self) -> Option<(usize, usize, usize)> {
        self.partial
    }

    /// Per-shard progress, keyed by shard index.
    pub fn shards(&self) -> &BTreeMap<usize, ShardProgress> {
        &self.shards
    }

    /// Points completed across all shards.
    pub fn total_done(&self) -> usize {
        self.shards.values().map(|s| s.done).sum()
    }

    /// Points assigned across all shards seen so far.
    pub fn total_points(&self) -> usize {
        self.shards.values().map(|s| s.total).sum()
    }

    /// Every shard seen has completed its assignment (and at least one
    /// shard was seen).
    pub fn is_complete(&self) -> bool {
        !self.shards.is_empty() && self.shards.values().all(|s| s.done >= s.total)
    }

    /// Aggregate completion rate: the sum of per-shard rates, if any shard
    /// has a measurable rate.
    pub fn points_per_sec(&self) -> Option<f64> {
        let rates: Vec<f64> = self
            .shards
            .values()
            .filter_map(ShardProgress::points_per_sec)
            .collect();
        if rates.is_empty() {
            None
        } else {
            Some(rates.iter().sum())
        }
    }

    /// Estimated seconds until all seen shards finish, from the aggregate
    /// rate over the remaining points.
    pub fn eta_secs(&self) -> Option<f64> {
        let remaining = self.total_points().saturating_sub(self.total_done());
        if remaining == 0 {
            return Some(0.0);
        }
        Some(remaining as f64 / self.points_per_sec()?)
    }

    /// The median of the measurable per-shard rates.
    pub fn median_rate(&self) -> Option<f64> {
        let mut rates: Vec<f64> = self
            .shards
            .values()
            .filter_map(ShardProgress::points_per_sec)
            .collect();
        if rates.is_empty() {
            return None;
        }
        rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
        let mid = rates.len() / 2;
        Some(if rates.len() % 2 == 1 {
            rates[mid]
        } else {
            (rates[mid - 1] + rates[mid]) / 2.0
        })
    }

    /// Shards running more than [`STRAGGLER_FACTOR`]× slower than the
    /// median rate, in shard order — live, the shards holding the sweep
    /// back; at end of run, the shards that were its bottleneck. Needs at
    /// least two measurable shards to be meaningful.
    pub fn stragglers(&self) -> Vec<usize> {
        let Some(median) = self.median_rate() else {
            return Vec::new();
        };
        let measurable = self
            .shards
            .values()
            .filter(|s| s.points_per_sec().is_some())
            .count();
        if measurable < 2 {
            return Vec::new();
        }
        self.shards
            .iter()
            .filter(|(_, s)| {
                s.points_per_sec()
                    .is_some_and(|rate| rate * STRAGGLER_FACTOR < median)
            })
            .map(|(&shard, _)| shard)
            .collect()
    }

    /// Renders the dashboard: one row per shard (points, rate, errors,
    /// retries, straggler flag) and a totals line with ETA.
    pub fn render(&self) -> String {
        let stragglers = self.stragglers();
        let mut out = String::from("shard    done/total      pts/s   errors  retries\n");
        for (&shard, s) in &self.shards {
            let rate = s
                .points_per_sec()
                .map_or_else(|| "      -".into(), |r| format!("{r:>7.1}"));
            let flag = if stragglers.contains(&shard) {
                "  STRAGGLER"
            } else {
                ""
            };
            out.push_str(&format!(
                "{shard:>5}  {:>5}/{:<5}  {rate}  {:>6}  {:>7}{flag}\n",
                s.done, s.total, s.errors, s.retries
            ));
        }
        for shard in 0..self.expected_shards {
            if !self.shards.contains_key(&shard) {
                out.push_str(&format!(
                    "{shard:>5}      -/-            -       -        -\n"
                ));
            }
        }
        let rate = self
            .points_per_sec()
            .map_or_else(|| "-".into(), |r| format!("{r:.1}"));
        let eta = self
            .eta_secs()
            .map_or_else(|| "-".into(), |e| format!("{e:.1}s"));
        out.push_str(&format!(
            "total  {:>5}/{:<5}  rate {rate} pts/s  eta {eta}\n",
            self.total_done(),
            self.total_points()
        ));
        let check_states: u64 = self.shards.values().map(|s| s.check_states).sum();
        if check_states > 0 {
            let executions: u64 = self.shards.values().map(|s| s.check_executions).sum();
            let depth = self
                .shards
                .values()
                .map(|s| s.check_depth)
                .max()
                .unwrap_or(0);
            let rate: f64 = self
                .shards
                .values()
                .filter_map(ShardProgress::states_per_sec)
                .sum();
            out.push_str(&format!(
                "check  {check_states} states / {executions} executions  \
                 {rate:.1} states/s  frontier depth {depth}\n"
            ));
        }
        if self.malformed_lines > 0 {
            out.push_str(&format!("malformed lines: {}\n", self.malformed_lines));
        }
        if let Some((covered, missing, grid)) = self.partial {
            out.push_str(&format!(
                "PARTIAL: {covered}/{grid} points covered, {missing} missing\n"
            ));
        }
        out
    }

    /// Renders an end-of-run summary as one JSON object (for artifacts and
    /// machine consumers).
    pub fn summary_json(&self) -> String {
        let mut out = String::from("{\"type\":\"summary\",\"shards\":[");
        for (i, (&shard, s)) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"shard\":{shard},\"done\":{},\"total\":{},\"errors\":{},\"retries\":{},\
                 \"elapsed_nanos\":{},\"straggler\":{}",
                s.done,
                s.total,
                s.errors,
                s.retries,
                s.elapsed_nanos,
                self.stragglers().contains(&shard)
            ));
            if s.check_executions > 0 {
                out.push_str(&format!(
                    ",\"check\":{{\"states\":{},\"executions\":{},\"depth\":{}}}",
                    s.check_states, s.check_executions, s.check_depth
                ));
            }
            out.push('}');
        }
        out.push_str(&format!(
            "],\"done\":{},\"points\":{},\"complete\":{},\"malformed_lines\":{}",
            self.total_done(),
            self.total_points(),
            self.is_complete(),
            self.malformed_lines
        ));
        if let Some((covered, missing, grid)) = self.partial {
            out.push_str(&format!(
                ",\"partial\":{{\"covered\":{covered},\"missing\":{missing},\"grid\":{grid}}}"
            ));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(shard: usize, done: usize, total: usize, elapsed_nanos: u64) -> ProgressEvent {
        ProgressEvent {
            shard,
            shards: 2,
            done,
            total,
            index: done.saturating_sub(1),
            messages: 10,
            rounds: 3,
            ok: true,
            elapsed_nanos,
        }
    }

    #[test]
    fn progress_event_round_trips_through_jsonl() {
        let e = event(1, 4, 9, 2_000_000_000);
        let line = e.to_json_line();
        assert!(line.starts_with('{'));
        assert_eq!(ProgressEvent::parse(&line), Some(e));
    }

    #[test]
    fn wire_lines_and_foreign_json_are_rejected() {
        assert_eq!(ProgressEvent::parse("shard-report shard=0 count=2"), None);
        assert_eq!(ProgressEvent::parse("{\"type\":\"summary\"}"), None);
        assert_eq!(ProgressEvent::parse("{\"type\":\"point\"}"), None);
    }

    #[test]
    fn aggregates_track_rates_eta_and_completion() {
        let mut live = LiveAggregates::new();
        // Shard 0: 4 of 8 points in 2s → 2 pts/s. Shard 1: 4 of 8 in 2s.
        for d in 1..=4 {
            live.ingest(&event(0, d, 8, d as u64 * 500_000_000));
            live.ingest(&event(1, d, 8, d as u64 * 500_000_000));
        }
        assert_eq!(live.total_done(), 8);
        assert_eq!(live.total_points(), 16);
        assert!(!live.is_complete());
        let rate = live.points_per_sec().unwrap();
        assert!((rate - 4.0).abs() < 1e-9, "{rate}");
        let eta = live.eta_secs().unwrap();
        assert!((eta - 2.0).abs() < 1e-9, "{eta}");
        assert!(live.stragglers().is_empty());

        for d in 5..=8 {
            live.ingest(&event(0, d, 8, d as u64 * 500_000_000));
            live.ingest(&event(1, d, 8, d as u64 * 500_000_000));
        }
        assert!(live.is_complete());
        assert_eq!(live.eta_secs(), Some(0.0));
    }

    #[test]
    fn slow_shards_are_flagged_as_stragglers() {
        let mut live = LiveAggregates::new();
        // Shard 0 runs 2 pts/s; shard 1 has managed the same points in 10×
        // the time → 0.2 pts/s, more than 2× behind the median.
        live.ingest(&event(0, 4, 8, 2_000_000_000));
        live.ingest(&event(1, 4, 8, 20_000_000_000));
        assert_eq!(live.stragglers(), vec![1]);
        // Still flagged at end of run: it was the sweep's bottleneck.
        live.ingest(&event(1, 8, 8, 80_000_000_000));
        assert_eq!(live.stragglers(), vec![1]);
        let rendered = live.render();
        assert!(rendered.contains("STRAGGLER"), "{rendered}");
        assert!(rendered.contains("total"), "{rendered}");
    }

    #[test]
    fn single_shard_is_never_a_straggler() {
        let mut live = LiveAggregates::new();
        live.ingest(&event(0, 1, 8, 4_000_000_000));
        assert!(live.stragglers().is_empty());
    }

    #[test]
    fn retries_are_counted_per_shard() {
        let mut live = LiveAggregates::new();
        live.ingest_coord(&CoordEvent::Retry {
            shard: 3,
            attempt: 1,
            attempts: 2,
            cause: "spawn failed".into(),
        });
        assert_eq!(live.shards()[&3].retries, 1);
        let line = CoordEvent::Retry {
            shard: 3,
            attempt: 1,
            attempts: 2,
            cause: "spawn \"failed\"".into(),
        }
        .to_json_line();
        assert!(parse_json_line(&line).is_some(), "{line}");
    }

    #[test]
    fn partial_events_round_trip_and_surface_in_aggregates() {
        let e = CoordEvent::Partial {
            covered: 7,
            missing: 2,
            grid: 9,
        };
        let line = e.to_json_line();
        assert_eq!(CoordEvent::parse(&line), Some(e.clone()));
        assert!(e.to_string().contains("7/9"), "{e}");

        let mut live = LiveAggregates::new();
        live.ingest_coord(&e);
        assert_eq!(live.partial_coverage(), Some((7, 2, 9)));
        assert!(live.render().contains("PARTIAL: 7/9"), "{}", live.render());
        let json = live.summary_json();
        let parsed = parse_json_line(&json).expect("summary parses");
        assert!(parsed.get("partial").is_some(), "{json}");
    }

    #[test]
    fn malformed_lines_gauge_shows_in_render_and_summary() {
        let mut live = LiveAggregates::new();
        assert_eq!(live.malformed_lines(), 0);
        assert!(!live.render().contains("malformed"));
        live.note_malformed();
        live.note_malformed();
        assert_eq!(live.malformed_lines(), 2);
        assert!(live.render().contains("malformed lines: 2"));
        let parsed = parse_json_line(&live.summary_json()).expect("summary parses");
        assert_eq!(parsed.get("malformed_lines").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn check_events_round_trip_and_drive_the_dashboard() {
        let e = CoordEvent::Check {
            shard: 1,
            shards: 3,
            states: 120,
            executions: 200,
            depth: 5,
            elapsed_nanos: 2_000_000_000,
        };
        let line = e.to_json_line();
        assert!(line.starts_with("{\"type\":\"check\""), "{line}");
        assert_eq!(CoordEvent::parse(&line), Some(e.clone()));
        assert!(e.to_string().contains("frontier depth 5"), "{e}");

        let mut live = LiveAggregates::new();
        live.ingest_coord(&e);
        // Replaying the same snapshot is idempotent (cumulative folding).
        live.ingest_coord(&e);
        let shard = &live.shards()[&1];
        assert_eq!(shard.check_states, 120);
        assert_eq!(shard.check_executions, 200);
        assert_eq!(shard.check_depth, 5);
        let rate = shard.states_per_sec().unwrap();
        assert!((rate - 60.0).abs() < 1e-9, "{rate}");

        let rendered = live.render();
        assert!(
            rendered.contains("120 states / 200 executions"),
            "{rendered}"
        );
        assert!(rendered.contains("frontier depth 5"), "{rendered}");
        let json = live.summary_json();
        let parsed = parse_json_line(&json).expect("summary parses");
        assert!(parsed.get("shards").is_some(), "{json}");
        assert!(json.contains("\"check\":{\"states\":120"), "{json}");
    }

    #[test]
    fn summary_json_is_parseable_and_flags_stragglers() {
        let mut live = LiveAggregates::new();
        live.ingest(&event(0, 4, 8, 2_000_000_000));
        live.ingest(&event(1, 4, 8, 20_000_000_000));
        let json = live.summary_json();
        let parsed = parse_json_line(&json).expect("summary parses");
        assert_eq!(parsed.get("done").unwrap().as_u64(), Some(8));
        assert!(json.contains("\"straggler\":true"), "{json}");
    }
}
