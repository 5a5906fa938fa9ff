//! The static omission adversaries, as [`FaultModel`]s.
//!
//! The omission failure model (paper §3) lets the static adversary corrupt up
//! to `t` processes that may *send-omit* or *receive-omit* messages while
//! otherwise following their state machine. Each plan here is a
//! [`FaultModel`] whose [`budget`](FaultModel::budget) is the static set of
//! processes it can blame and whose [`route`](FaultModel::route) decides a
//! message's fate from `(round, sender, receiver, payload)` alone. The
//! executor enforces *omission-validity*: a decision other than
//! [`Routing::Deliver`] is only legal if the blamed process is in the
//! execution's fault set.

use std::collections::{BTreeMap, BTreeSet};

use crate::fault::{ExecutionView, FaultBudget, FaultModel, Routing};
use crate::ids::{ProcessId, Round};
use crate::mailbox::ReceiverMask;
use crate::rng::SimRng;

/// What happens to one message in transit: the omission-only subset of
/// [`Routing`], as written in [`TableOmissionPlan`] entries and returned by
/// [`FnPlan`] closures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fate {
    /// The message is sent and received normally.
    Deliver,
    /// The (faulty) sender omits sending: the message appears in the
    /// sender's `send_omitted` set and the receiver never sees it.
    SendOmit,
    /// The message is sent, but the (faulty) receiver omits receiving it: it
    /// appears in the sender's `sent` set and the receiver's
    /// `receive_omitted` set.
    ReceiveOmit,
}

impl<M> From<Fate> for Routing<M> {
    fn from(fate: Fate) -> Self {
        match fate {
            Fate::Deliver => Routing::Deliver,
            Fate::SendOmit => Routing::SendOmit,
            Fate::ReceiveOmit => Routing::ReceiveOmit,
        }
    }
}

/// The fault-free plan: every message is delivered.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NoFaults;

impl<M> FaultModel<M> for NoFaults {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Static(BTreeSet::new())
    }

    fn route(&mut self, _: ExecutionView<'_>, _: ProcessId, _: ProcessId, _: &M) -> Routing<M> {
        Routing::Deliver
    }

    fn route_broadcast(
        &mut self,
        _: ExecutionView<'_>,
        _: ProcessId,
        mask: &ReceiverMask,
        _: &M,
        out: &mut Vec<Routing<M>>,
    ) {
        out.resize_with(out.len() + mask.len(), || Routing::Deliver);
    }
}

/// Group isolation, Definition 1 of the paper.
///
/// A group `G ⊊ Π` is *isolated from round k* iff every `p ∈ G` is faulty,
/// never send-omits, and receive-omits exactly the messages sent to it by
/// processes outside `G` in rounds `≥ k`.
///
/// ```
/// use std::collections::BTreeSet;
/// use ba_sim::{ExecutionView, FaultModel, IsolationPlan, ProcessId, Round, Routing};
/// let mut plan = IsolationPlan::new([ProcessId(2), ProcessId(3)], Round(2));
/// let nobody = BTreeSet::new();
/// let at = |round| ExecutionView {
///     round: Round(round), n: 4, t: 2,
///     corrupted: &nobody, charged: &nobody, sent: &[], delivered: &[],
/// };
/// // Round 1: everything delivered.
/// assert_eq!(plan.route(at(1), ProcessId(0), ProcessId(2), &()), Routing::Deliver);
/// // Round 2 onward: messages from outside the group are receive-omitted…
/// assert_eq!(plan.route(at(2), ProcessId(0), ProcessId(2), &()), Routing::ReceiveOmit);
/// // …but intra-group traffic and traffic to the outside still flow.
/// assert_eq!(plan.route(at(5), ProcessId(3), ProcessId(2), &()), Routing::Deliver);
/// assert_eq!(plan.route(at(5), ProcessId(2), ProcessId(0), &()), Routing::Deliver);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IsolationPlan {
    group: BTreeSet<ProcessId>,
    from: Round,
}

impl IsolationPlan {
    /// Isolates `group` from round `from` (inclusive).
    pub fn new<I: IntoIterator<Item = ProcessId>>(group: I, from: Round) -> Self {
        IsolationPlan {
            group: group.into_iter().collect(),
            from,
        }
    }
}

impl<M> FaultModel<M> for IsolationPlan {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Static(self.group.clone())
    }

    fn route(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        _: &M,
    ) -> Routing<M> {
        if view.round >= self.from
            && self.group.contains(&receiver)
            && !self.group.contains(&sender)
        {
            Routing::ReceiveOmit
        } else {
            Routing::Deliver
        }
    }

    fn route_broadcast(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        mask: &ReceiverMask,
        _: &M,
        out: &mut Vec<Routing<M>>,
    ) {
        // Pre-fill Deliver, then patch the (few) isolated receivers by rank:
        // O(fan-out + |group|) instead of a set lookup per receiver.
        let base = out.len();
        out.resize_with(base + mask.len(), || Routing::Deliver);
        if view.round < self.from || self.group.contains(&sender) {
            return;
        }
        for &p in &self.group {
            if let Some(rank) = mask.rank(p) {
                out[base + rank] = Routing::ReceiveOmit;
            }
        }
    }
}

/// An explicit table of exceptions over a default of [`Fate::Deliver`].
///
/// Useful for hand-crafted counterexample executions in tests. Its budget is
/// the set of processes its entries blame.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TableOmissionPlan {
    entries: BTreeMap<(Round, ProcessId, ProcessId), Fate>,
}

impl TableOmissionPlan {
    /// Creates an empty table (all messages delivered).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the fate of the message from `sender` to `receiver` in `round`.
    pub fn set(
        &mut self,
        round: Round,
        sender: ProcessId,
        receiver: ProcessId,
        fate: Fate,
    ) -> &mut Self {
        self.entries.insert((round, sender, receiver), fate);
        self
    }

    /// The number of explicit entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff the table has no exceptions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<M> FaultModel<M> for TableOmissionPlan {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Static(
            self.entries
                .iter()
                .filter_map(|(&(_, sender, receiver), &fate)| {
                    Routing::<M>::from(fate).blamed(sender, receiver)
                })
                .collect(),
        )
    }

    fn route(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        _: &M,
    ) -> Routing<M> {
        self.entries
            .get(&(view.round, sender, receiver))
            .map_or(Routing::Deliver, |&fate| fate.into())
    }
}

/// A seeded random omission adversary: every message touching a faulty
/// process is dropped with the configured probabilities.
///
/// Deterministic for a fixed seed because the executor consults models in a
/// deterministic message order. Used for failure-injection testing.
#[derive(Clone, Debug)]
pub struct RandomOmissionPlan {
    faulty: BTreeSet<ProcessId>,
    p_send_omit: f64,
    p_receive_omit: f64,
    rng: SimRng,
}

impl RandomOmissionPlan {
    /// Creates a plan in which each message from a faulty sender is
    /// send-omitted with probability `p_send_omit`, and (otherwise) each
    /// message to a faulty receiver is receive-omitted with probability
    /// `p_receive_omit`.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`.
    pub fn new<I: IntoIterator<Item = ProcessId>>(
        faulty: I,
        p_send_omit: f64,
        p_receive_omit: f64,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_send_omit),
            "p_send_omit out of range"
        );
        assert!(
            (0.0..=1.0).contains(&p_receive_omit),
            "p_receive_omit out of range"
        );
        RandomOmissionPlan {
            faulty: faulty.into_iter().collect(),
            p_send_omit,
            p_receive_omit,
            rng: SimRng::seed_from_u64(seed),
        }
    }
}

impl<M> FaultModel<M> for RandomOmissionPlan {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Static(self.faulty.clone())
    }

    fn route(
        &mut self,
        _: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        _: &M,
    ) -> Routing<M> {
        if self.faulty.contains(&sender) && self.rng.gen_bool(self.p_send_omit) {
            Routing::SendOmit
        } else if self.faulty.contains(&receiver) && self.rng.gen_bool(self.p_receive_omit) {
            Routing::ReceiveOmit
        } else {
            Routing::Deliver
        }
    }
}

/// The crash adversary, expressed in the omission model: each listed
/// process send-omits (and receive-omits) everything from its crash round
/// onward — the classic crash-stop failure, strictly weaker than general
/// omission.
///
/// Useful for protocols like FloodSet that tolerate crashes but *not*
/// general omission: the distinction is exactly the adversarial power the
/// paper's lower-bound proof draws on.
///
/// ```
/// use std::collections::BTreeSet;
/// use ba_sim::{CrashPlan, ExecutionView, FaultModel, ProcessId, Round, Routing};
/// let mut plan = CrashPlan::new([(ProcessId(1), Round(2))]);
/// let nobody = BTreeSet::new();
/// let at = |round| ExecutionView {
///     round: Round(round), n: 3, t: 1,
///     corrupted: &nobody, charged: &nobody, sent: &[], delivered: &[],
/// };
/// assert_eq!(plan.route(at(1), ProcessId(1), ProcessId(0), &()), Routing::Deliver);
/// assert_eq!(plan.route(at(2), ProcessId(1), ProcessId(0), &()), Routing::SendOmit);
/// assert_eq!(plan.route(at(3), ProcessId(0), ProcessId(1), &()), Routing::ReceiveOmit);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CrashPlan {
    crashes: BTreeMap<ProcessId, Round>,
}

impl CrashPlan {
    /// Creates a plan crashing each listed process at the start of its
    /// round (inclusive).
    pub fn new<I: IntoIterator<Item = (ProcessId, Round)>>(crashes: I) -> Self {
        CrashPlan {
            crashes: crashes.into_iter().collect(),
        }
    }

    /// `true` iff `p` has crashed by `round`.
    fn crashed(&self, round: Round, p: ProcessId) -> bool {
        self.crashes.get(&p).is_some_and(|from| round >= *from)
    }
}

impl<M> FaultModel<M> for CrashPlan {
    fn budget(&self) -> FaultBudget {
        FaultBudget::Static(self.crashes.keys().copied().collect())
    }

    fn route(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        _: &M,
    ) -> Routing<M> {
        if self.crashed(view.round, sender) {
            Routing::SendOmit
        } else if self.crashed(view.round, receiver) {
            Routing::ReceiveOmit
        } else {
            Routing::Deliver
        }
    }

    fn route_broadcast(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        mask: &ReceiverMask,
        _: &M,
        out: &mut Vec<Routing<M>>,
    ) {
        // One sender decision for the fan-out; a live sender's edges are
        // pre-filled Deliver and patched by rank at each crashed receiver.
        let base = out.len();
        if self.crashed(view.round, sender) {
            out.resize_with(base + mask.len(), || Routing::SendOmit);
            return;
        }
        out.resize_with(base + mask.len(), || Routing::Deliver);
        for (&p, &from) in &self.crashes {
            if view.round >= from {
                if let Some(rank) = mask.rank(p) {
                    out[base + rank] = Routing::ReceiveOmit;
                }
            }
        }
    }
}

/// Adapts a closure over `(round, sender, receiver, payload)` into a
/// [`FaultModel`]. Its budget is empty: wrap it in
/// [`PlannedFaults`](crate::PlannedFaults) (as
/// [`Adversary::omission`](crate::Adversary::omission) does) to declare the
/// processes it blames.
///
/// ```
/// use std::collections::BTreeSet;
/// use ba_sim::{ExecutionView, Fate, FaultModel, FnPlan, ProcessId, Round, Routing};
/// let mut drop_all_to_p0 = FnPlan(|_round, _s, r: ProcessId, _m: &u8| {
///     if r == ProcessId(0) { Fate::ReceiveOmit } else { Fate::Deliver }
/// });
/// let nobody = BTreeSet::new();
/// let view = ExecutionView {
///     round: Round(1), n: 2, t: 1,
///     corrupted: &nobody, charged: &nobody, sent: &[], delivered: &[],
/// };
/// assert_eq!(drop_all_to_p0.route(view, ProcessId(1), ProcessId(0), &3), Routing::ReceiveOmit);
/// ```
#[derive(Clone, Debug)]
pub struct FnPlan<F>(pub F);

impl<M, F> FaultModel<M> for FnPlan<F>
where
    F: FnMut(Round, ProcessId, ProcessId, &M) -> Fate,
{
    fn budget(&self) -> FaultBudget {
        FaultBudget::Static(BTreeSet::new())
    }

    fn route(
        &mut self,
        view: ExecutionView<'_>,
        sender: ProcessId,
        receiver: ProcessId,
        payload: &M,
    ) -> Routing<M> {
        (self.0)(view.round, sender, receiver, payload).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static NOBODY: BTreeSet<ProcessId> = BTreeSet::new();

    /// The disclosure a static plan sees in `round` (it reads nothing else).
    fn at(round: u64) -> ExecutionView<'static> {
        ExecutionView {
            round: Round(round),
            n: 3,
            t: 1,
            corrupted: &NOBODY,
            charged: &NOBODY,
            sent: &[],
            delivered: &[],
        }
    }

    #[test]
    fn fate_blames_the_right_process() {
        let (s, r) = (ProcessId(1), ProcessId(2));
        let blamed = |fate| Routing::<u8>::from(fate).blamed(s, r);
        assert_eq!(blamed(Fate::Deliver), None);
        assert_eq!(blamed(Fate::SendOmit), Some(s));
        assert_eq!(blamed(Fate::ReceiveOmit), Some(r));
    }

    #[test]
    fn isolation_blocks_only_inbound_cross_group_after_start() {
        let mut plan = IsolationPlan::new([ProcessId(1)], Round(3));
        // Before the start round everything is delivered.
        assert_eq!(
            plan.route(at(2), ProcessId(0), ProcessId(1), &()),
            Routing::Deliver
        );
        // From the start round, inbound cross-group messages are dropped.
        assert_eq!(
            plan.route(at(3), ProcessId(0), ProcessId(1), &()),
            Routing::ReceiveOmit
        );
        assert_eq!(
            plan.route(at(9), ProcessId(2), ProcessId(1), &()),
            Routing::ReceiveOmit
        );
        // The isolated group never send-omits.
        assert_eq!(
            plan.route(at(9), ProcessId(1), ProcessId(0), &()),
            Routing::Deliver
        );
    }

    #[test]
    fn table_plan_defaults_to_deliver() {
        let mut plan = TableOmissionPlan::new();
        plan.set(Round(1), ProcessId(0), ProcessId(1), Fate::SendOmit);
        assert_eq!(
            plan.route(at(1), ProcessId(0), ProcessId(1), &0u8),
            Routing::SendOmit
        );
        assert_eq!(
            plan.route(at(2), ProcessId(0), ProcessId(1), &0u8),
            Routing::Deliver
        );
        assert_eq!(plan.len(), 1);
        assert_eq!(
            FaultModel::<u8>::budget(&plan),
            FaultBudget::Static([ProcessId(0)].into_iter().collect())
        );
    }

    #[test]
    fn random_plan_is_deterministic_per_seed() {
        let observe = |seed: u64| -> Vec<Routing<u8>> {
            let mut plan = RandomOmissionPlan::new([ProcessId(0)], 0.5, 0.5, seed);
            (0..32)
                .map(|i| plan.route(at(1), ProcessId(i % 3), ProcessId((i + 1) % 3), &0))
                .collect()
        };
        assert_eq!(observe(7), observe(7));
        assert_ne!(
            observe(7),
            observe(8),
            "different seeds should differ (w.h.p.)"
        );
    }

    #[test]
    fn random_plan_never_blames_correct_processes() {
        let mut plan = RandomOmissionPlan::new([ProcessId(2)], 1.0, 1.0, 3);
        // Message between two correct processes is always delivered.
        assert_eq!(
            plan.route(at(1), ProcessId(0), ProcessId(1), &0u8),
            Routing::Deliver
        );
        // Faulty sender always send-omits at p = 1.
        assert_eq!(
            plan.route(at(1), ProcessId(2), ProcessId(1), &0u8),
            Routing::SendOmit
        );
    }
}
