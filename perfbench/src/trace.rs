//! The traced run's record: spans kept in memory and written out at the
//! end, and the per-layer metrics derived from them.

use std::collections::HashMap;
use std::io::Write;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use crate::layers::{Attempt, Layers};
use crate::stats::{median, nanos, percentile, Metric};
use crate::workloads::{Engine, JobSpan, PointSpan, WireTimes};

/// One recorded span: a named interval, the pass it belongs to, and the
/// point or job that caused it (`None` for pass-level spans).
pub struct Span {
    /// Layer boundary name.
    pub name: &'static str,
    /// Traced pass number.
    pub pass: u64,
    /// Point (sweeps), job (judge) or shard attempt (fabric) index.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the run began.
    pub start_ns: u64,
    /// End, in nanoseconds since the run began.
    pub end_ns: u64,
}

/// Everything the traced passes observed.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    /// Traced passes completed.
    pub passes: u64,
    points: u64,
    point_wall_ns: u64,
    build_ns: u64,
    layers: Layers,
    messages: u64,
    point_ns: Vec<u64>,
    pool_busy_ns: u64,
    pool_capacity_ns: u64,
    pool_tail_idle_ns: u64,
    judge_wall_ns: u64,
    engine_ns: [u64; 3],
    falsifier_executions: u64,
    check_states: u64,
    check_executions: u64,
    search_evals: u64,
    attempts: Vec<Attempt>,
    dist_ns: Vec<u64>,
    local_ns: Vec<u64>,
    retries: u64,
    wire: WireTimes,
    alloc_points: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Trace {
    /// An empty record whose span clock starts now.
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            passes: 0,
            points: 0,
            point_wall_ns: 0,
            build_ns: 0,
            layers: Layers::default(),
            messages: 0,
            point_ns: Vec::new(),
            pool_busy_ns: 0,
            pool_capacity_ns: 0,
            pool_tail_idle_ns: 0,
            judge_wall_ns: 0,
            engine_ns: [0; 3],
            falsifier_executions: 0,
            check_states: 0,
            check_executions: 0,
            search_evals: 0,
            attempts: Vec::new(),
            dist_ns: Vec::new(),
            local_ns: Vec::new(),
            retries: 0,
            wire: WireTimes::default(),
            alloc_points: 0,
        }
    }

    fn at(&self, t: Instant) -> u64 {
        nanos(t.saturating_duration_since(self.epoch))
    }

    fn span(&mut self, name: &'static str, parent: Option<usize>, start: Instant, end: Instant) {
        let span = Span {
            name,
            pass: self.passes,
            parent,
            start_ns: self.at(start),
            end_ns: self.at(end),
        };
        self.spans.push(span);
    }

    /// Marks the end of one traced pass that counted allocations over
    /// `points` points.
    pub fn end_pass(&mut self, points: usize) {
        self.passes += 1;
        self.alloc_points += points as u64;
    }

    /// Records one campaign of a sweep pass: its pool window and each
    /// point's spans, layer counters and message count.
    pub fn campaign(
        &mut self,
        start: Instant,
        end: Instant,
        threads: usize,
        points: &[(PointSpan, u64)],
    ) {
        self.span("campaign", None, start, end);
        let wall = nanos(end - start);
        let mut last_end: HashMap<ThreadId, Instant> = HashMap::new();
        for (i, (p, messages)) in points.iter().enumerate() {
            let point_ns = nanos(p.end - p.start);
            self.span("point", Some(i), p.start, p.end);
            self.span("scenario.build", Some(i), p.start, p.built);
            self.span("executor.run", Some(i), p.built, p.end);
            self.points += 1;
            self.point_wall_ns += point_ns;
            self.build_ns += nanos(p.built - p.start);
            self.layers.add(&p.layers);
            self.messages += messages;
            self.point_ns.push(point_ns);
            self.pool_busy_ns += point_ns;
            let slot = last_end.entry(p.thread).or_insert(p.end);
            *slot = (*slot).max(p.end);
        }
        self.pool_capacity_ns += threads as u64 * wall;
        // Idle time at the end of the campaign: threads that ran out of
        // points wait for the slowest one; threads that got none idle
        // throughout.
        let idle_threads = threads.saturating_sub(last_end.len()) as u64;
        self.pool_tail_idle_ns += idle_threads * wall
            + last_end
                .values()
                .map(|&t| nanos(end.saturating_duration_since(t)))
                .sum::<u64>();
    }

    /// Records one judge pass.
    pub fn judge(&mut self, start: Instant, wall: Duration, jobs: &[JobSpan]) {
        self.span("judge.pass", None, start, start + wall);
        self.judge_wall_ns += nanos(wall);
        let mut at = start;
        for (i, job) in jobs.iter().enumerate() {
            let name = match job.engine {
                Engine::Falsifier => "falsifier.job",
                Engine::Check => "check.job",
                Engine::Search => "search.job",
            };
            self.span(name, Some(i), at, at + job.wall);
            at += job.wall;
            self.engine_ns[job.engine as usize] += nanos(job.wall);
            self.layers.add(&job.layers);
            match job.engine {
                Engine::Falsifier => {
                    self.falsifier_executions += job.layers.proposes / job.n.max(1) as u64;
                }
                Engine::Check => {
                    self.check_states += job.states;
                    self.check_executions += job.executions;
                }
                Engine::Search => self.search_evals += job.evals,
            }
        }
    }

    /// Records one fabric pass: the coordinator's run over the traced
    /// transport, the in-process run of the same grid, and wire timings.
    pub fn fabric(
        &mut self,
        start: Instant,
        dist: Duration,
        local: Duration,
        attempts: &[Attempt],
        retries: u64,
        wire: WireTimes,
    ) {
        self.span("dist.pass", None, start, start + dist);
        for (i, a) in attempts.iter().enumerate() {
            self.span("dist.attempt", Some(i), a.opened, a.closed);
            let spawned = a.opened + Duration::from_nanos(a.spawn_ns);
            self.span("dist.spawn", Some(i), a.opened, spawned);
            if let Some(first) = a.first_line {
                self.span("dist.first_line", Some(i), a.opened, first);
            }
        }
        self.attempts.extend_from_slice(attempts);
        self.dist_ns.push(nanos(dist));
        self.local_ns.push(nanos(local));
        self.retries += retries;
        self.wire.encode_ns += wire.encode_ns;
        self.wire.decode_ns += wire.decode_ns;
        self.wire.merge_ns += wire.merge_ns;
        self.wire.points += wire.points;
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// I/O errors from `out`.
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"pass\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.pass, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// The per-layer metrics, in the order `BENCHMARK.json` lists them.
    /// Layers a workload does not exercise read 0. `overhead` is the
    /// median traced pass over the median untraced pass; `alloc` is the
    /// allocator's `(calls, bytes)` over the traced passes.
    pub fn metrics(&self, overhead: f64, alloc: (u64, u64)) -> Vec<Metric> {
        let passes = self.passes.max(1) as f64;
        let per_pass = |v: u64| v as f64 / passes;
        let l = &self.layers;
        // Shares are of the summed point wall time on the sweeps and of
        // the pass wall time on the judge.
        let sweep = self.point_wall_ns > 0;
        let denom = if sweep {
            self.point_wall_ns
        } else {
            self.judge_wall_ns
        };
        let share = |ns: u64| ratio(ns, denom);
        let self_share = if sweep {
            1.0 - share(self.build_ns + l.protocol_ns + l.fault_ns + l.sink_ns)
        } else {
            0.0
        };
        let mut point_ns = self.point_ns.clone();
        let engine_share = |e: Engine| ratio(self.engine_ns[e as usize], self.judge_wall_ns);
        let per_sec = |count: u64, ns: u64| ratio(count, ns) * 1e9;

        let attempt_sum = |f: &dyn Fn(&Attempt) -> u64| self.attempts.iter().map(f).sum::<u64>();
        let lifetime = attempt_sum(&|a| nanos(a.closed - a.opened));
        let wait = attempt_sum(&|a| a.wait_ns);
        let spawn = attempt_sum(&|a| a.spawn_ns);
        let finish = attempt_sum(&|a| a.finish_ns);
        let mut spawn_ns: Vec<u64> = self.attempts.iter().map(|a| a.spawn_ns).collect();
        let mut first_line_ns: Vec<u64> = self
            .attempts
            .iter()
            .filter_map(|a| a.first_line.map(|f| nanos(f - a.opened)))
            .collect();
        let dist_overhead =
            median(&mut self.dist_ns.clone()) / median(&mut self.local_ns.clone()).max(1.0);
        let wire_us = |ns: u64| ratio(ns, self.wire.points) / 1e3;

        vec![
            Metric::new(
                "scenario.build_us_per_point",
                ratio(self.build_ns, self.points) / 1e3,
                "us",
            ),
            Metric::new(
                "scenario.build_share",
                if sweep { share(self.build_ns) } else { 0.0 },
                "ratio",
            ),
            Metric::new("protocols.step_share", share(l.protocol_ns), "ratio"),
            Metric::new("protocols.step_calls", per_pass(l.steps), "count"),
            Metric::new(
                "protocols.messages_per_point",
                ratio(self.messages, self.points),
                "count",
            ),
            Metric::new("fault.share", share(l.fault_ns), "ratio"),
            Metric::new("fault.route_calls", per_pass(l.route_calls), "count"),
            Metric::new(
                "fault.broadcast_calls",
                per_pass(l.broadcast_calls),
                "count",
            ),
            Metric::new("fault.schedule_calls", per_pass(l.schedule_calls), "count"),
            Metric::new(
                "fault.broadcast_edge_ratio",
                ratio(l.broadcast_edges, l.broadcast_edges + l.route_calls),
                "ratio",
            ),
            Metric::new("sink.share", share(l.sink_ns), "ratio"),
            Metric::new("sink.calls", per_pass(l.sink_calls), "count"),
            Metric::new("executor.self_share", self_share, "ratio"),
            Metric::new(
                "campaign.pool_efficiency",
                ratio(self.pool_busy_ns, self.pool_capacity_ns),
                "ratio",
            ),
            Metric::new("campaign.point_us_p50", median(&mut point_ns) / 1e3, "us"),
            Metric::new(
                "campaign.point_us_p90",
                percentile(&mut point_ns, 0.9) / 1e3,
                "us",
            ),
            Metric::new(
                "campaign.straggler_ratio",
                ratio(self.pool_tail_idle_ns, self.pool_capacity_ns),
                "ratio",
            ),
            Metric::new(
                "alloc.calls_per_point",
                ratio(alloc.0, self.alloc_points),
                "count",
            ),
            Metric::new(
                "alloc.bytes_per_point",
                ratio(alloc.1, self.alloc_points),
                "bytes",
            ),
            Metric::new("falsifier.share", engine_share(Engine::Falsifier), "ratio"),
            Metric::new(
                "falsifier.executions",
                per_pass(self.falsifier_executions),
                "count",
            ),
            Metric::new(
                "falsifier.us_per_execution",
                ratio(
                    self.engine_ns[Engine::Falsifier as usize],
                    self.falsifier_executions,
                ) / 1e3,
                "us",
            ),
            Metric::new("check.share", engine_share(Engine::Check), "ratio"),
            Metric::new("check.states", per_pass(self.check_states), "count"),
            Metric::new("check.executions", per_pass(self.check_executions), "count"),
            Metric::new(
                "check.dedup_ratio",
                ratio(self.check_states, self.check_executions),
                "ratio",
            ),
            Metric::new(
                "check.states_per_s",
                per_sec(self.check_states, self.engine_ns[Engine::Check as usize]),
                "1/s",
            ),
            Metric::new("search.share", engine_share(Engine::Search), "ratio"),
            Metric::new("search.evals", per_pass(self.search_evals), "count"),
            Metric::new(
                "search.evals_per_s",
                per_sec(self.search_evals, self.engine_ns[Engine::Search as usize]),
                "1/s",
            ),
            Metric::new("dist.spawn_ms", median(&mut spawn_ns) / 1e6, "ms"),
            Metric::new("dist.first_line_ms", median(&mut first_line_ns) / 1e6, "ms"),
            Metric::new("dist.stream_wait_share", ratio(wait, lifetime), "ratio"),
            Metric::new(
                "dist.coord_self_share",
                ratio(lifetime.saturating_sub(wait + spawn + finish), lifetime),
                "ratio",
            ),
            Metric::new("dist.lines", per_pass(attempt_sum(&|a| a.lines)), "count"),
            Metric::new("dist.bytes", per_pass(attempt_sum(&|a| a.bytes)), "bytes"),
            Metric::new("dist.retries", per_pass(self.retries), "count"),
            Metric::new("dist.overhead_ratio", dist_overhead, "ratio"),
            Metric::new(
                "wire.encode_us_per_point",
                wire_us(self.wire.encode_ns),
                "us",
            ),
            Metric::new(
                "wire.decode_us_per_point",
                wire_us(self.wire.decode_ns),
                "us",
            ),
            Metric::new("merge.us_per_point", wire_us(self.wire.merge_ns), "us"),
            Metric::new("trace.overhead_ratio", overhead, "ratio"),
        ]
    }
}
