//! Outside-in layer tracing: wrappers around the library's public traits
//! that time and count the calls crossing each layer boundary.
//!
//! * [`Traced`] wraps a [`Protocol`] (layer `ba-protocols`);
//! * [`TracedFault`] wraps a [`FaultModel`] (layer `ba-sim::fault`);
//! * [`TracedSink`] wraps a [`TraceSink`] (layer `ba-sim::sink`);
//! * [`TracedTransport`] wraps a [`ShardTransport`] and its
//!   [`WorkerLink`]s (layer `ba-dist::transport`).
//!
//! Each traced job gets its own [`Counters`], which its protocol
//! instances, fault model and sink add into; engines that fan one job out
//! over several threads share one set. Per-message sink callbacks are only
//! counted: timing them would cost more than the callbacks themselves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ba_dist::{AbortHandle, DistError, ShardManifest, ShardTransport, WorkerLink};
use ba_sim::{
    Envelope, ExecutionView, FaultBudget, FaultDirective, FaultMode, FaultModel, Inbox, Outbox,
    ProcessCtx, ProcessId, Protocol, ReceiverMask, Round, Routing, RunSummary, TraceSink,
};

/// Layer counters of one traced job (times in nanoseconds).
#[derive(Clone, Copy, Default, Debug)]
pub struct Layers {
    /// Time inside `propose` and `round`.
    pub protocol_ns: u64,
    /// `propose` plus `round` calls.
    pub steps: u64,
    /// `propose` calls (one per process per execution).
    pub proposes: u64,
    /// Time inside the fault model.
    pub fault_ns: u64,
    /// Per-edge `route` calls.
    pub route_calls: u64,
    /// `route_broadcast` calls.
    pub broadcast_calls: u64,
    /// Edges decided inside `route_broadcast` calls.
    pub broadcast_edges: u64,
    /// `schedule` calls (envelope-queue rounds).
    pub schedule_calls: u64,
    /// Time inside the per-round and per-receiver sink callbacks.
    pub sink_ns: u64,
    /// Every sink callback, per-message ones included.
    pub sink_calls: u64,
}

impl Layers {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Layers) {
        self.protocol_ns += other.protocol_ns;
        self.steps += other.steps;
        self.proposes += other.proposes;
        self.fault_ns += other.fault_ns;
        self.route_calls += other.route_calls;
        self.broadcast_calls += other.broadcast_calls;
        self.broadcast_edges += other.broadcast_edges;
        self.schedule_calls += other.schedule_calls;
        self.sink_ns += other.sink_ns;
        self.sink_calls += other.sink_calls;
    }
}

/// The shared, thread-safe total of one traced job's [`Layers`]. Each
/// wrapper counts into a private [`Layers`] and adds it here once, when
/// it is dropped (or, for a sink, finished), so the hot path touches no
/// shared memory. Relaxed atomics suffice: the totals are statistics read
/// after the job's threads have joined.
#[derive(Default, Debug)]
pub struct Counters {
    fields: [AtomicU64; 10],
}

impl Counters {
    /// A fresh, zeroed set.
    pub fn new() -> Arc<Self> {
        Arc::new(Counters::default())
    }

    fn absorb(&self, l: &Layers) {
        for (field, value) in self.fields.iter().zip(l.to_array()) {
            if value != 0 {
                field.fetch_add(value, Ordering::Relaxed);
            }
        }
    }

    /// The totals absorbed so far.
    pub fn snapshot(&self) -> Layers {
        Layers::from_array(self.fields.each_ref().map(|a| a.load(Ordering::Relaxed)))
    }
}

impl Layers {
    fn to_array(self) -> [u64; 10] {
        [
            self.protocol_ns,
            self.steps,
            self.proposes,
            self.fault_ns,
            self.route_calls,
            self.broadcast_calls,
            self.broadcast_edges,
            self.schedule_calls,
            self.sink_ns,
            self.sink_calls,
        ]
    }

    fn from_array(a: [u64; 10]) -> Self {
        Layers {
            protocol_ns: a[0],
            steps: a[1],
            proposes: a[2],
            fault_ns: a[3],
            route_calls: a[4],
            broadcast_calls: a[5],
            broadcast_edges: a[6],
            schedule_calls: a[7],
            sink_ns: a[8],
            sink_calls: a[9],
        }
    }
}

#[inline]
fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A protocol instance whose `propose` and `round` calls are timed.
pub struct Traced<P> {
    inner: P,
    counters: Arc<Counters>,
    local: Layers,
}

/// A clone counts from zero, so no call is absorbed twice.
impl<P: Clone> Clone for Traced<P> {
    fn clone(&self) -> Self {
        Traced {
            inner: self.inner.clone(),
            counters: self.counters.clone(),
            local: Layers::default(),
        }
    }
}

impl<P> Drop for Traced<P> {
    fn drop(&mut self) {
        self.counters.absorb(&self.local);
    }
}

/// Wraps a per-process protocol factory so every instance is [`Traced`]
/// into `counters`.
pub fn traced<P, F: Fn(ProcessId) -> P>(
    factory: F,
    counters: &Arc<Counters>,
) -> impl Fn(ProcessId) -> Traced<P> {
    let counters = counters.clone();
    move |pid| Traced {
        inner: factory(pid),
        counters: counters.clone(),
        local: Layers::default(),
    }
}

impl<P: Protocol> Protocol for Traced<P> {
    type Input = P::Input;
    type Output = P::Output;
    type Msg = P::Msg;

    fn propose(&mut self, ctx: &ProcessCtx, proposal: Self::Input) -> Outbox<Self::Msg> {
        let start = Instant::now();
        let out = self.inner.propose(ctx, proposal);
        self.local.protocol_ns += nanos_since(start);
        self.local.steps += 1;
        self.local.proposes += 1;
        out
    }

    fn round(
        &mut self,
        ctx: &ProcessCtx,
        round: Round,
        inbox: &Inbox<Self::Msg>,
    ) -> Outbox<Self::Msg> {
        let start = Instant::now();
        let out = self.inner.round(ctx, round, inbox);
        self.local.protocol_ns += nanos_since(start);
        self.local.steps += 1;
        out
    }

    /// Delegated untimed: the engine polls this accessor once per process
    /// per round, and two clock reads would cost more than the call.
    fn decision(&self) -> Option<Self::Output> {
        self.inner.decision()
    }
}

/// A fault model whose calls are timed. All seven trait methods delegate,
/// so the broadcast fast path and the envelope queue stay as the wrapped
/// model chose them.
pub struct TracedFault<F> {
    inner: F,
    counters: Arc<Counters>,
    local: Layers,
}

impl<F> TracedFault<F> {
    /// Wraps `inner`, counting into `counters`.
    pub fn new(inner: F, counters: &Arc<Counters>) -> Self {
        TracedFault {
            inner,
            counters: counters.clone(),
            local: Layers::default(),
        }
    }
}

impl<F> Drop for TracedFault<F> {
    fn drop(&mut self) {
        self.counters.absorb(&self.local);
    }
}

impl<M, F: FaultModel<M>> FaultModel<M> for TracedFault<F> {
    fn budget(&self) -> FaultBudget {
        self.inner.budget()
    }

    fn mode(&self) -> FaultMode {
        self.inner.mode()
    }

    fn begin_round(&mut self, view: ExecutionView<'_>) -> Vec<FaultDirective> {
        let start = Instant::now();
        let out = self.inner.begin_round(view);
        self.local.fault_ns += nanos_since(start);
        out
    }

    fn reorders(&self) -> bool {
        self.inner.reorders()
    }

    fn schedule(&mut self, view: ExecutionView<'_>, queue: &mut [Envelope]) {
        let start = Instant::now();
        self.inner.schedule(view, queue);
        self.local.fault_ns += nanos_since(start);
        self.local.schedule_calls += 1;
    }

    fn route(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        payload: &M,
    ) -> Routing<M> {
        let start = Instant::now();
        let out = self.inner.route(view, sender, receiver, payload);
        self.local.fault_ns += nanos_since(start);
        self.local.route_calls += 1;
        out
    }

    fn route_broadcast(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        mask: &ReceiverMask,
        payload: &M,
        out: &mut Vec<Routing<M>>,
    ) {
        let start = Instant::now();
        self.inner.route_broadcast(view, sender, mask, payload, out);
        self.local.fault_ns += nanos_since(start);
        self.local.broadcast_calls += 1;
        self.local.broadcast_edges += mask.len() as u64;
    }
}

/// A trace sink whose per-round and per-receiver callbacks are timed and
/// whose per-message callbacks are counted.
pub struct TracedSink<S> {
    inner: S,
    counters: Arc<Counters>,
    local: Layers,
}

impl<S> TracedSink<S> {
    /// Wraps `inner`, counting into `counters`.
    pub fn new(inner: S, counters: &Arc<Counters>) -> Self {
        TracedSink {
            inner,
            counters: counters.clone(),
            local: Layers::default(),
        }
    }

    #[inline]
    fn timed<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.local.sink_ns += nanos_since(start);
        self.local.sink_calls += 1;
        out
    }
}

impl<P: Protocol, S: TraceSink<P>> TraceSink<P> for TracedSink<S> {
    type Output = S::Output;

    fn init(&mut self, n: usize, proposals: &[P::Input]) {
        self.timed(|s| s.init(n, proposals));
    }

    fn begin_round(&mut self, round: Round) {
        self.timed(|s| s.begin_round(round));
    }

    fn sent(&mut self, round: Round, sender: ProcessId, receiver: ProcessId, payload: &P::Msg) {
        self.local.sink_calls += 1;
        self.inner.sent(round, sender, receiver, payload);
    }

    fn send_omitted(
        &mut self,
        round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        payload: P::Msg,
    ) {
        self.local.sink_calls += 1;
        self.inner.send_omitted(round, sender, receiver, payload);
    }

    fn receive_omitted(
        &mut self,
        round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        payload: P::Msg,
    ) {
        self.local.sink_calls += 1;
        self.inner.receive_omitted(round, sender, receiver, payload);
    }

    fn absorb_inbox(&mut self, round: Round, receiver: ProcessId, inbox: &mut Inbox<P::Msg>) {
        self.timed(|s| s.absorb_inbox(round, receiver, inbox));
    }

    fn corrupted(&mut self, round: Round, process: ProcessId) {
        self.local.sink_calls += 1;
        self.inner.corrupted(round, process);
    }

    fn released(&mut self, round: Round, process: ProcessId) {
        self.local.sink_calls += 1;
        self.inner.released(round, process);
    }

    fn finish(mut self, summary: RunSummary<P>) -> Self::Output {
        let start = Instant::now();
        let out = self.inner.finish(summary);
        self.local.sink_ns += nanos_since(start);
        self.local.sink_calls += 1;
        self.counters.absorb(&self.local);
        out
    }
}

/// One worker attempt as seen from the coordinator's side of the link.
#[derive(Clone, Copy, Debug)]
pub struct Attempt {
    /// When the transport was asked to open the attempt.
    pub opened: Instant,
    /// Time inside `open` (process spawn and manifest write).
    pub spawn_ns: u64,
    /// When the first output line arrived.
    pub first_line: Option<Instant>,
    /// Time blocked in `next_line`.
    pub wait_ns: u64,
    /// Time inside `finish` (reaping the worker).
    pub finish_ns: u64,
    /// Output lines read.
    pub lines: u64,
    /// Output bytes read, newlines included.
    pub bytes: u64,
    /// When the link was dropped.
    pub closed: Instant,
}

/// A shard transport whose attempts are timed; finished attempts collect
/// in a shared log.
pub struct TracedTransport<T> {
    inner: T,
    log: Arc<Mutex<Vec<Attempt>>>,
}

impl<T> TracedTransport<T> {
    /// Wraps `inner`, logging into `log`.
    pub fn new(inner: T, log: Arc<Mutex<Vec<Attempt>>>) -> Self {
        TracedTransport { inner, log }
    }
}

impl<T: ShardTransport> ShardTransport for TracedTransport<T> {
    fn open(&self, manifest: &ShardManifest) -> Result<Box<dyn WorkerLink>, DistError> {
        let opened = Instant::now();
        let inner = self.inner.open(manifest)?;
        let spawn_ns = nanos_since(opened);
        Ok(Box::new(TracedLink {
            inner,
            log: self.log.clone(),
            attempt: Attempt {
                opened,
                spawn_ns,
                first_line: None,
                wait_ns: 0,
                finish_ns: 0,
                lines: 0,
                bytes: 0,
                closed: opened,
            },
        }))
    }
}

struct TracedLink {
    inner: Box<dyn WorkerLink>,
    log: Arc<Mutex<Vec<Attempt>>>,
    attempt: Attempt,
}

impl WorkerLink for TracedLink {
    fn next_line(&mut self) -> Result<Option<Vec<u8>>, DistError> {
        let start = Instant::now();
        let line = self.inner.next_line();
        self.attempt.wait_ns += nanos_since(start);
        if let Ok(Some(bytes)) = &line {
            self.attempt.first_line.get_or_insert_with(Instant::now);
            self.attempt.lines += 1;
            self.attempt.bytes += bytes.len() as u64 + 1;
        }
        line
    }

    fn finish(&mut self) -> Result<(), DistError> {
        let start = Instant::now();
        let out = self.inner.finish();
        self.attempt.finish_ns += nanos_since(start);
        out
    }

    fn abort_handle(&self) -> AbortHandle {
        self.inner.abort_handle()
    }
}

impl Drop for TracedLink {
    fn drop(&mut self) {
        self.attempt.closed = Instant::now();
        if let Ok(mut log) = self.log.lock() {
            log.push(self.attempt);
        }
    }
}
