//! Property tests of the static plans and the adversary hierarchy:
//! crash ⊊ omission, isolation per Definition 1, routing determinism, and
//! the batched-broadcast contract of every plan.
//!
//! Cases are generated by the in-tree seeded [`SimRng`] (the workspace
//! builds without external crates, so there is no proptest); every run
//! explores the same deterministic case set.

use std::collections::BTreeSet;

use ba_sim::{
    AdaptiveWorstCase, CrashPlan, ExecutionView, Fate, FaultModel, FnPlan, IsolationPlan,
    MobileOmission, NoFaults, PlannedFaults, ProcessId, RandomOmissionPlan, ReceiverMask, Round,
    Routing, SimRng, TableOmissionPlan,
};

static NOBODY: BTreeSet<ProcessId> = BTreeSet::new();

/// The disclosure for `round` of an `n`-process run. Static plans read only
/// the round, so the corruption sets and traffic counters stay empty.
fn view(round: u64, n: usize) -> ExecutionView<'static> {
    ExecutionView {
        round: Round(round),
        n,
        t: n.saturating_sub(1) / 3,
        corrupted: &NOBODY,
        charged: &NOBODY,
        sent: &[],
        delivered: &[],
    }
}

/// Deterministic sample of `(round, sender, receiver)` triples over a
/// 6-process system with `sender != receiver`.
fn triples(seed: u64, cases: usize) -> Vec<(u64, usize, usize)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(cases);
    while out.len() < cases {
        let round = rng.gen_range(1, 8);
        let s = rng.gen_index(0, 6);
        let r = rng.gen_index(0, 6);
        if s != r {
            out.push((round, s, r));
        }
    }
    out
}

/// A crash plan's routings are exactly those of an omission adversary that
/// send-omits everything from the crash round: crash is expressible in
/// (hence weaker than) the omission model.
#[test]
fn crash_is_an_omission_special_case() {
    let mut rng = SimRng::seed_from_u64(0xC4A5);
    for (round, s, r) in triples(1, 256) {
        let crash_round = rng.gen_range(1, 6);
        let crashed = ProcessId(0);
        let mut plan = CrashPlan::new([(crashed, Round(crash_round))]);
        let routing = plan.route(view(round, 6), ProcessId(s), ProcessId(r), &());
        let expected = if s == 0 && round >= crash_round {
            Routing::SendOmit
        } else if r == 0 && round >= crash_round {
            Routing::ReceiveOmit
        } else {
            Routing::Deliver
        };
        assert_eq!(
            routing, expected,
            "round {round}, {s} → {r}, crash at {crash_round}"
        );
        // Blame always lands on the crashed process.
        if let Some(blamed) = routing.blamed(ProcessId(s), ProcessId(r)) {
            assert_eq!(blamed, crashed);
        }
    }
}

/// Isolation plans are stateless and deterministic: the same query always
/// yields the same routing, and the routing matches Definition 1.
#[test]
fn isolation_fate_matches_definition() {
    let mut rng = SimRng::seed_from_u64(0x150);
    for (round, s, r) in triples(2, 256) {
        let from = rng.gen_range(1, 6);
        let group = [ProcessId(4), ProcessId(5)];
        let mut plan = IsolationPlan::new(group, Round(from));
        let r1 = plan.route(view(round, 6), ProcessId(s), ProcessId(r), &());
        let r2 = plan.route(view(round, 6), ProcessId(s), ProcessId(r), &());
        assert_eq!(r1, r2, "stateless determinism");
        let in_group = |i: usize| i >= 4;
        let expected = if round >= from && in_group(r) && !in_group(s) {
            Routing::ReceiveOmit
        } else {
            Routing::Deliver
        };
        assert_eq!(
            r1, expected,
            "round {round}, {s} → {r}, isolated from {from}"
        );
    }
}

/// A [`Fate`] blames, through its [`Routing`], the right process.
#[test]
fn blame_assignment() {
    for (_, s, r) in triples(4, 64) {
        let (s, r) = (ProcessId(s), ProcessId(r));
        let blamed = |fate| Routing::<()>::from(fate).blamed(s, r);
        assert_eq!(blamed(Fate::Deliver), None);
        assert_eq!(blamed(Fate::SendOmit), Some(s));
        assert_eq!(blamed(Fate::ReceiveOmit), Some(r));
    }
}

/// One broadcast fan-out to decide.
struct FanOut {
    n: usize,
    round: u64,
    sender: ProcessId,
    mask: ReceiverMask,
    /// Processes the plans of this case may blame (the sender sometimes
    /// among them).
    victims: Vec<ProcessId>,
}

/// Deterministic fan-outs over small systems and systems above 256
/// processes, whose masks spill past the inline words.
fn fan_outs(seed: u64, cases: usize) -> Vec<FanOut> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..cases)
        .map(|i| {
            let n = if i % 2 == 0 {
                rng.gen_index(2, 16)
            } else {
                rng.gen_index(257, 400)
            };
            let sender = ProcessId(rng.gen_index(0, n));
            let density = [0.1, 0.5, 0.9, 1.0][rng.gen_index(0, 4)];
            let mask: ReceiverMask = ProcessId::all(n)
                .filter(|p| *p != sender && rng.gen_bool(density))
                .collect();
            let mut victims: Vec<ProcessId> = (0..rng.gen_index(1, 5))
                .map(|_| ProcessId(rng.gen_index(0, n)))
                .collect();
            if rng.gen_bool(0.25) {
                victims.push(sender);
            }
            FanOut {
                n,
                round: rng.gen_range(1, 6),
                sender,
                mask,
                victims,
            }
        })
        .collect()
}

/// `route_broadcast` of a fresh `make()` appends to `out` exactly the
/// per-edge `route` sequence of another fresh `make()` over the mask — for
/// the model itself and for `PlannedFaults` wrapping it.
fn assert_broadcast_is_per_edge<F: FaultModel<u8>>(
    what: &str,
    case: &FanOut,
    make: impl Fn() -> F,
) {
    fn check<F: FaultModel<u8>>(what: &str, case: &FanOut, mut batched: F, mut per_edge: F) {
        let (view, payload) = (view(case.round, case.n), 7u8);
        // A non-empty `out` checks that decisions are appended, not written
        // from index 0.
        let mut out = vec![Routing::Forge(0xAB)];
        batched.route_broadcast(view, case.sender, &case.mask, &payload, &mut out);
        let expected: Vec<Routing<u8>> = std::iter::once(Routing::Forge(0xAB))
            .chain(
                case.mask
                    .iter()
                    .map(|receiver| per_edge.route(view, case.sender, receiver, &payload)),
            )
            .collect();
        assert_eq!(
            out,
            expected,
            "{what}: n = {}, round {}, sender {}, {} receivers",
            case.n,
            case.round,
            case.sender,
            case.mask.len()
        );
    }
    check(what, case, make(), make());
    let planned = || PlannedFaults::new(case.victims.iter().copied(), make());
    check(&format!("planned {what}"), case, planned(), planned());
}

/// `model` after its `begin_round` for `case`, given per-process traffic
/// `sent`: the corruption state every instance of an adaptive model in one
/// comparison starts from.
fn begun<F: FaultModel<u8>>(mut model: F, case: &FanOut, sent: &[u64]) -> F {
    let view = ExecutionView {
        sent,
        delivered: sent,
        ..view(case.round, case.n)
    };
    let _ = model.begin_round(view);
    model
}

/// Every model's batched fan-out equals its per-edge routing, with or
/// without a declared fault set around it.
#[test]
fn broadcast_routing_matches_per_edge_route() {
    let mut rng = SimRng::seed_from_u64(0xB0AD);
    let cases = fan_outs(5, 96);
    assert!(cases.iter().any(|c| c.mask.len() > 256));
    let (mut crashed_senders, mut crashed_receivers) = (0, 0);
    let (mut adaptive_mutes, mut mobile_mutes) = (0, 0);
    for case in &cases {
        let victims = || case.victims.iter().copied();
        let from = Round(rng.gen_range(1, 6));
        // Staggered crash rounds, one per victim, around the case's round.
        let crashes: Vec<(ProcessId, Round)> =
            victims().map(|p| (p, Round(rng.gen_range(1, 6)))).collect();
        let crashed = |p: ProcessId| crashes.iter().rev().find(|(q, _)| *q == p);
        let crashed_by = |p| crashed(p).is_some_and(|(_, r)| r.0 <= case.round);
        if crashed_by(case.sender) {
            crashed_senders += 1;
        } else if case.mask.iter().any(crashed_by) {
            crashed_receivers += 1;
        }
        // Observed traffic for the adaptive models' `begin_round`; the
        // sender is sometimes the loudest process.
        let mut sent: Vec<u64> = (0..case.n).map(|_| rng.gen_range(0, 50)).collect();
        if rng.gen_bool(0.5) {
            sent[case.sender.index()] = 100;
        }
        let budget = case.victims.len();
        let dwell = rng.gen_range(1, 4);
        let adaptive = || {
            begun(
                AdaptiveWorstCase::striking_at(budget, Round(case.round)),
                case,
                &sent,
            )
        };
        let mobile = || begun(MobileOmission::new(victims(), dwell), case, &sent);
        adaptive_mutes += usize::from(adaptive().victims().contains(&case.sender));
        mobile_mutes += usize::from(mobile().active() == Some(case.sender));
        let seed = rng.next_u64();
        let (p_send, p_receive) = (rng.gen_f64(0.0, 1.0), rng.gen_f64(0.0, 1.0));
        let mut table = TableOmissionPlan::new();
        for receiver in case.mask.iter() {
            let fate = [Fate::Deliver, Fate::SendOmit, Fate::ReceiveOmit][rng.gen_index(0, 3)];
            let round = Round(case.round + rng.gen_range(0, 2));
            table.set(round, case.sender, receiver, fate);
        }

        assert_broadcast_is_per_edge("none", case, || NoFaults);
        assert_broadcast_is_per_edge("isolation", case, || IsolationPlan::new(victims(), from));
        assert_broadcast_is_per_edge("crash", case, || CrashPlan::new(crashes.iter().copied()));
        assert_broadcast_is_per_edge("adaptive-worst-case", case, adaptive);
        assert_broadcast_is_per_edge("mobile", case, mobile);
        assert_broadcast_is_per_edge("random-omission", case, || {
            RandomOmissionPlan::new(victims(), p_send, p_receive, seed)
        });
        assert_broadcast_is_per_edge("table", case, || table.clone());
        assert_broadcast_is_per_edge("fn", case, || {
            FnPlan(|round: Round, s: ProcessId, r: ProcessId, m: &u8| {
                match (round.0 as usize + s.index() + r.index() + usize::from(*m)) % 3 {
                    0 => Fate::Deliver,
                    1 => Fate::SendOmit,
                    _ => Fate::ReceiveOmit,
                }
            })
        });
    }
    // Each sender-decided branch of the overrides ran.
    assert!(crashed_senders > 0 && crashed_receivers > 0);
    assert!(adaptive_mutes > 0 && mobile_mutes > 0);
}
