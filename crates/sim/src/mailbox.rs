//! Per-round message containers: the [`Outbox`] a process fills when sending
//! and the [`Inbox`] it drains when receiving.
//!
//! The computational model (paper §A.1) allows each process to send *at most
//! one* message to any specific process in a single round and forbids
//! self-sends. [`Outbox`] enforces the former structurally (it is keyed by
//! receiver) and the executor rejects the latter.
//!
//! Both containers are backed by **dense slabs**: a `Vec<Option<M>>` indexed
//! by the counterparty's [`ProcessId`]. This keeps the executor's hot path
//! free of per-message tree allocations while preserving the deterministic
//! ascending-id iteration order the proof machinery relies on (identical to
//! the old `BTreeMap` order).
//!
//! Broadcast — the dominant traffic shape of every implemented protocol — is
//! a first-class primitive: [`Outbox::broadcast`] stores *one* payload plus a
//! dense [`ReceiverMask`] instead of `n - 1` clones, and the executor fans it
//! out by reference, cloning only at final delivery into an [`Inbox`] slot.
//! All observable behavior (iteration order, equality, drain semantics) is
//! identical to the equivalent per-receiver sends.

use std::collections::BTreeMap;

use crate::ids::ProcessId;
use crate::value::Payload;

/// Number of inline 64-bit words in a [`ReceiverMask`] — 256 receivers
/// without touching the heap, which covers every bench grid up to
/// `stats-sweep-huge-n`.
const MASK_INLINE_WORDS: usize = 4;

/// A dense set of receiver ids backed by a fixed inline bitset (256 bits)
/// with a heap spill for larger systems. Ascending-id iteration matches the
/// slab/`BTreeMap` order the proof machinery relies on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReceiverMask {
    lo: [u64; MASK_INLINE_WORDS],
    hi: Vec<u64>,
    count: usize,
}

impl ReceiverMask {
    /// An empty mask. No heap allocation until a bit ≥ 256 is set.
    pub fn new() -> Self {
        ReceiverMask::default()
    }

    fn word(&self, w: usize) -> u64 {
        if w < MASK_INLINE_WORDS {
            self.lo[w]
        } else {
            self.hi.get(w - MASK_INLINE_WORDS).copied().unwrap_or(0)
        }
    }

    fn word_mut(&mut self, w: usize) -> &mut u64 {
        if w < MASK_INLINE_WORDS {
            &mut self.lo[w]
        } else {
            let i = w - MASK_INLINE_WORDS;
            if i >= self.hi.len() {
                self.hi.resize(i + 1, 0);
            }
            &mut self.hi[i]
        }
    }

    fn words(&self) -> usize {
        MASK_INLINE_WORDS + self.hi.len()
    }

    /// Inserts `id`, returning `true` iff it was not already present.
    pub fn insert(&mut self, id: ProcessId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        let word = self.word_mut(w);
        let fresh = *word & (1 << b) == 0;
        *word |= 1 << b;
        self.count += fresh as usize;
        fresh
    }

    /// Removes `id`, returning `true` iff it was present.
    pub fn remove(&mut self, id: ProcessId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        if w >= self.words() {
            return false;
        }
        let word = self.word_mut(w);
        let present = *word & (1 << b) != 0;
        *word &= !(1 << b);
        self.count -= present as usize;
        present
    }

    /// `true` iff `id` is in the mask.
    pub fn contains(&self, id: ProcessId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        self.word(w) & (1 << b) != 0
    }

    /// Number of ids in the mask.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` iff no id is set.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The highest id in the mask, if any — the executor's O(1) receiver
    /// range check.
    pub fn max_id(&self) -> Option<ProcessId> {
        for w in (0..self.words()).rev() {
            let word = self.word(w);
            if word != 0 {
                return Some(ProcessId(w * 64 + 63 - word.leading_zeros() as usize));
            }
        }
        None
    }

    /// The position of `id` in ascending iteration order, if present —
    /// the count of set bits below it. Lets fan-out deciders patch a
    /// pre-filled decision vector instead of testing every receiver.
    pub fn rank(&self, id: ProcessId) -> Option<usize> {
        if !self.contains(id) {
            return None;
        }
        let (w, b) = (id.index() / 64, id.index() % 64);
        let mut rank = 0usize;
        for prior in 0..w {
            rank += self.word(prior).count_ones() as usize;
        }
        rank += (self.word(w) & ((1u64 << b) - 1)).count_ones() as usize;
        Some(rank)
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> ReceiverMaskIter<'_> {
        ReceiverMaskIter {
            mask: self,
            word: 0,
            bits: self.word(0),
        }
    }
}

impl FromIterator<ProcessId> for ReceiverMask {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut mask = ReceiverMask::new();
        for id in iter {
            mask.insert(id);
        }
        mask
    }
}

/// Ascending iterator over the ids of a [`ReceiverMask`].
pub struct ReceiverMaskIter<'a> {
    mask: &'a ReceiverMask,
    word: usize,
    bits: u64,
}

impl Iterator for ReceiverMaskIter<'_> {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(ProcessId(self.word * 64 + b));
            }
            self.word += 1;
            if self.word >= self.mask.words() {
                return None;
            }
            self.bits = self.mask.word(self.word);
        }
    }
}

/// A dense slab of at-most-one message per counterparty, indexed by
/// [`ProcessId`]. Shared backing store of [`Outbox`] and [`Inbox`].
#[derive(Clone, Debug)]
struct Slab<M> {
    slots: Vec<Option<M>>,
    len: usize,
}

impl<M: Payload> Slab<M> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            len: 0,
        }
    }

    fn with_capacity(n: usize) -> Self {
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        Slab { slots, len: 0 }
    }

    /// Inserts, returning the previous occupant of the slot.
    fn insert(&mut self, id: ProcessId, msg: M) -> Option<M> {
        let idx = id.index();
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let prev = self.slots[idx].replace(msg);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    fn get(&self, id: ProcessId) -> Option<&M> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    fn remove(&mut self, id: ProcessId) -> Option<M> {
        let taken = self.slots.get_mut(id.index()).and_then(Option::take);
        if taken.is_some() {
            self.len -= 1;
        }
        taken
    }

    /// Iterates occupied slots in ascending-id order. An empty slab skips
    /// the slot scan entirely (quiescent tail rounds hit this constantly).
    fn iter(&self) -> impl Iterator<Item = (ProcessId, &M)> {
        let slots: &[Option<M>] = if self.len == 0 { &[] } else { &self.slots };
        slots
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|m| (ProcessId(i), m)))
    }

    /// Removes and yields every message in ascending-id order, leaving the
    /// slab empty (capacity intact) when run to completion. `len` is
    /// decremented per yielded item, so dropping the iterator early leaves
    /// the slab consistent (remaining messages still counted and iterable).
    fn drain(&mut self) -> impl Iterator<Item = (ProcessId, M)> + '_ {
        let Slab { slots, len } = self;
        slots.iter_mut().enumerate().filter_map(move |(i, m)| {
            m.take().map(|m| {
                *len -= 1;
                (ProcessId(i), m)
            })
        })
    }

    fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        for slot in &mut self.slots {
            *slot = None;
        }
        self.len = 0;
    }

    fn to_map(&self) -> BTreeMap<ProcessId, M> {
        self.iter().map(|(p, m)| (p, m.clone())).collect()
    }

    fn into_map(mut self) -> BTreeMap<ProcessId, M> {
        self.drain().collect()
    }

    fn semantic_eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<M: Payload> FromIterator<(ProcessId, M)> for Slab<M> {
    fn from_iter<I: IntoIterator<Item = (ProcessId, M)>>(iter: I) -> Self {
        let mut slab = Slab::new();
        for (id, msg) in iter {
            slab.insert(id, msg);
        }
        slab
    }
}

/// One broadcast: a single payload plus the dense set of its receivers.
#[derive(Clone, Debug)]
struct Broadcast<M> {
    msg: M,
    mask: ReceiverMask,
}

/// The set of messages a process emits for one round, keyed by receiver.
///
/// A broadcast ([`Outbox::broadcast`]) is stored as *one* payload plus a
/// receiver bitmask; per-receiver sends live in a dense slab. The two parts
/// are kept disjoint and every observable view (iteration, drain, equality,
/// length) presents their merged contents in ascending receiver order, so a
/// broadcast outbox is indistinguishable from the equivalent per-receiver
/// one.
///
/// ```
/// use ba_sim::{Outbox, ProcessId};
/// let mut out = Outbox::new();
/// out.send(ProcessId(1), "hello");
/// out.send(ProcessId(2), "world");
/// assert_eq!(out.len(), 2);
///
/// let mut bcast = Outbox::new();
/// bcast.broadcast([ProcessId(1), ProcessId(2)], "hello");
/// assert_eq!(bcast.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Outbox<M> {
    msgs: Slab<M>,
    bcast: Option<Broadcast<M>>,
}

impl<M: Payload> Outbox<M> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox {
            msgs: Slab::new(),
            bcast: None,
        }
    }

    /// Creates an empty outbox pre-sized for an `n`-process system, so no
    /// slot growth happens while sending.
    pub fn with_capacity(n: usize) -> Self {
        Outbox {
            msgs: Slab::with_capacity(n),
            bcast: None,
        }
    }

    /// Queues `msg` for delivery to `to` in this round.
    ///
    /// # Panics
    ///
    /// Panics if a message for `to` was already queued (by [`send`] or by a
    /// [`broadcast`] covering `to`): the model allows at most one message per
    /// (sender, receiver, round), so a duplicate send is a protocol bug.
    ///
    /// [`send`]: Outbox::send
    /// [`broadcast`]: Outbox::broadcast
    pub fn send(&mut self, to: ProcessId, msg: M) -> &mut Self {
        let covered = self.bcast.as_ref().is_some_and(|b| b.mask.contains(to));
        assert!(!covered, "duplicate message to {to} in one round");
        let prev = self.msgs.insert(to, msg);
        assert!(prev.is_none(), "duplicate message to {to} in one round");
        self
    }

    /// Queues **one** copy of `msg` for every process in `peers`, stored as a
    /// single payload plus a receiver bitmask — the zero-clone broadcast
    /// primitive. The executor fans it out by reference; payload clones
    /// happen only at final inbox delivery.
    ///
    /// A second broadcast in the same round falls back to per-receiver
    /// clones, preserving the one-message-per-receiver rule.
    ///
    /// # Panics
    ///
    /// Panics if any peer already has a queued message.
    pub fn broadcast<I>(&mut self, peers: I, msg: M) -> &mut Self
    where
        I: IntoIterator<Item = ProcessId>,
    {
        if self.bcast.is_some() {
            // Rare: a protocol broadcasting twice in one round (disjoint
            // groups). Keep the legacy per-receiver representation.
            for peer in peers {
                self.send(peer, msg.clone());
            }
            return self;
        }
        let mut mask = ReceiverMask::new();
        if self.msgs.len == 0 {
            // Common case (pure broadcast round): no queued unicasts to
            // collide with, so only the mask needs checking.
            for peer in peers {
                assert!(
                    mask.insert(peer),
                    "duplicate message to {peer} in one round"
                );
            }
        } else {
            for peer in peers {
                assert!(
                    self.msgs.get(peer).is_none() && mask.insert(peer),
                    "duplicate message to {peer} in one round"
                );
            }
        }
        if !mask.is_empty() {
            self.bcast = Some(Broadcast { msg, mask });
        }
        self
    }

    /// Queues `msg` for every process in `peers`. Alias of
    /// [`broadcast`](Outbox::broadcast) kept for source compatibility.
    pub fn send_to_all<I>(&mut self, peers: I, msg: M) -> &mut Self
    where
        I: IntoIterator<Item = ProcessId>,
    {
        self.broadcast(peers, msg)
    }

    /// The number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.len + self.bcast.as_ref().map_or(0, |b| b.mask.len())
    }

    /// `true` iff no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the highest receiver index that could be occupied.
    fn upper(&self) -> usize {
        let slab = self.msgs.slots.len();
        let mask = self
            .bcast
            .as_ref()
            .and_then(|b| b.mask.max_id())
            .map_or(0, |p| p.index() + 1);
        slab.max(mask)
    }

    /// Iterates over `(receiver, payload)` pairs in receiver order, merging
    /// the broadcast (if any) with per-receiver sends.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &M)> {
        let bcast = self.bcast.as_ref();
        (0..self.upper()).filter_map(move |i| {
            if let Some(m) = self.msgs.slots.get(i).and_then(Option::as_ref) {
                return Some((ProcessId(i), m));
            }
            bcast
                .filter(|b| b.mask.contains(ProcessId(i)))
                .map(|b| (ProcessId(i), &b.msg))
        })
    }

    /// Removes and yields every queued message in receiver order, leaving
    /// the outbox empty (capacity intact). Broadcast payloads are cloned per
    /// receiver (the last one is moved) — the executor's routing loop avoids
    /// this entirely via `Outbox::take_broadcast`.
    pub fn drain(&mut self) -> OutboxDrain<'_, M> {
        let upper = self.upper();
        OutboxDrain {
            out: self,
            idx: 0,
            upper,
        }
    }

    /// Removes the message queued for `to`, if any. The executor's
    /// scheduling path uses this to route messages in an adversary-chosen
    /// order while the payloads stay in their dense slabs.
    pub(crate) fn take(&mut self, to: ProcessId) -> Option<M> {
        if let Some(m) = self.msgs.remove(to) {
            return Some(m);
        }
        if self.bcast.as_mut().is_some_and(|b| b.mask.remove(to)) {
            let empty = self.bcast.as_ref().is_some_and(|b| b.mask.is_empty());
            return Some(if empty {
                self.bcast.take().expect("checked above").msg
            } else {
                self.bcast.as_ref().expect("checked above").msg.clone()
            });
        }
        None
    }

    /// Detaches the broadcast part, if any, leaving only per-receiver sends
    /// behind. The executor's fast path fans the returned payload out by
    /// reference instead of draining clones.
    pub(crate) fn take_broadcast(&mut self) -> Option<(M, ReceiverMask)> {
        self.bcast.take().map(|b| (b.msg, b.mask))
    }

    /// The broadcast payload and receiver mask, if a broadcast is queued.
    pub fn broadcast_part(&self) -> Option<(&M, &ReceiverMask)> {
        self.bcast.as_ref().map(|b| (&b.msg, &b.mask))
    }

    /// Number of messages queued via per-receiver [`send`](Outbox::send)
    /// (excluding the broadcast part).
    pub(crate) fn unicast_len(&self) -> usize {
        self.msgs.len
    }

    /// Iterates the per-receiver sends only (excluding the broadcast part),
    /// in receiver order.
    pub(crate) fn unicast_iter(&self) -> impl Iterator<Item = (ProcessId, &M)> {
        self.msgs.iter()
    }

    /// Rewrites the broadcast (if any) as per-receiver clones — the
    /// representation the pre-broadcast engine used. Observable behavior is
    /// unchanged; the equivalence suite uses this to pin the broadcast path
    /// against the cloning path bit-for-bit.
    pub fn materialize_broadcast(&mut self) {
        if let Some(b) = self.bcast.take() {
            for to in b.mask.iter() {
                let prev = self.msgs.insert(to, b.msg.clone());
                debug_assert!(prev.is_none(), "mask and slab must stay disjoint");
            }
        }
    }

    /// Consumes the outbox, yielding its receiver → payload map.
    pub fn into_inner(mut self) -> BTreeMap<ProcessId, M> {
        self.drain().collect()
    }

    /// Merges another outbox into this one using `combine` to resolve
    /// receivers addressed by both.
    ///
    /// Used by parallel-composition combinators that must fold the outboxes
    /// of several sub-protocol instances into one physical message per
    /// receiver.
    pub fn merge_with<F>(&mut self, mut other: Outbox<M>, mut combine: F)
    where
        F: FnMut(M, M) -> M,
    {
        for (to, msg) in other.drain() {
            match self.take(to) {
                None => {
                    self.msgs.insert(to, msg);
                }
                Some(existing) => {
                    self.msgs.insert(to, combine(existing, msg));
                }
            }
        }
    }
}

impl<M: Payload> Default for Outbox<M> {
    fn default() -> Self {
        Outbox::new()
    }
}

impl<M: Payload> PartialEq for Outbox<M> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<M: Payload> Eq for Outbox<M> {}

impl<M: Payload> FromIterator<(ProcessId, M)> for Outbox<M> {
    fn from_iter<I: IntoIterator<Item = (ProcessId, M)>>(iter: I) -> Self {
        let mut out = Outbox::new();
        for (to, msg) in iter {
            out.send(to, msg);
        }
        out
    }
}

/// Draining iterator over an [`Outbox`], in receiver order (see
/// [`Outbox::drain`]).
pub struct OutboxDrain<'a, M: Payload> {
    out: &'a mut Outbox<M>,
    idx: usize,
    upper: usize,
}

impl<M: Payload> Iterator for OutboxDrain<'_, M> {
    type Item = (ProcessId, M);

    fn next(&mut self) -> Option<Self::Item> {
        while self.idx < self.upper {
            let to = ProcessId(self.idx);
            self.idx += 1;
            if let Some(m) = self.out.msgs.remove(to) {
                return Some((to, m));
            }
            if self.out.bcast.as_mut().is_some_and(|b| b.mask.remove(to)) {
                let empty = self.out.bcast.as_ref().is_some_and(|b| b.mask.is_empty());
                let msg = if empty {
                    self.out.bcast.take().expect("checked above").msg
                } else {
                    self.out.bcast.as_ref().expect("checked above").msg.clone()
                };
                return Some((to, msg));
            }
        }
        None
    }
}

/// Owning iterator over an [`Outbox`], in receiver order.
pub struct OutboxIntoIter<M> {
    inner: std::vec::IntoIter<(ProcessId, M)>,
}

impl<M> Iterator for OutboxIntoIter<M> {
    type Item = (ProcessId, M);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }
}

impl<M: Payload> IntoIterator for Outbox<M> {
    type Item = (ProcessId, M);
    type IntoIter = OutboxIntoIter<M>;

    fn into_iter(mut self) -> Self::IntoIter {
        OutboxIntoIter {
            inner: self.drain().collect::<Vec<_>>().into_iter(),
        }
    }
}

/// The set of messages a process receives in one round, keyed by sender.
///
/// Receive-omitted messages never appear here: an inbox holds exactly the
/// messages the process's state machine observes, which is what the paper's
/// indistinguishability relation compares.
#[derive(Clone, Debug)]
pub struct Inbox<M> {
    msgs: Slab<M>,
}

impl<M: Payload> Inbox<M> {
    /// Creates an empty inbox.
    pub fn new() -> Self {
        Inbox { msgs: Slab::new() }
    }

    /// Creates an empty inbox pre-sized for an `n`-process system. The
    /// executor allocates one per process per *run* and reuses it across
    /// rounds.
    pub fn with_capacity(n: usize) -> Self {
        Inbox {
            msgs: Slab::with_capacity(n),
        }
    }

    /// Builds an inbox from a sender → payload map.
    pub fn from_map(msgs: BTreeMap<ProcessId, M>) -> Self {
        Inbox {
            msgs: msgs.into_iter().collect(),
        }
    }

    /// Delivers `msg` from `sender` into this inbox, replacing any earlier
    /// delivery from the same sender (the executor routes at most one).
    pub fn deliver(&mut self, sender: ProcessId, msg: M) {
        self.msgs.insert(sender, msg);
    }

    /// The message received from `sender` in this round, if any.
    pub fn from_sender(&self, sender: ProcessId) -> Option<&M> {
        self.msgs.get(sender)
    }

    /// The number of received messages.
    pub fn len(&self) -> usize {
        self.msgs.len
    }

    /// `true` iff nothing was received.
    pub fn is_empty(&self) -> bool {
        self.msgs.len == 0
    }

    /// Iterates over `(sender, payload)` pairs in sender order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &M)> {
        self.msgs.iter()
    }

    /// Iterates over the senders heard from this round.
    pub fn senders(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.msgs.iter().map(|(p, _)| p)
    }

    /// Clones the contents into a sender → payload map.
    pub fn to_map(&self) -> BTreeMap<ProcessId, M> {
        self.msgs.to_map()
    }

    /// Removes and yields every received message in sender order, leaving
    /// the inbox empty (capacity intact). [`TraceSink`](crate::TraceSink)
    /// implementations use this to take ownership of a round's payloads
    /// without cloning.
    pub fn drain(&mut self) -> impl Iterator<Item = (ProcessId, M)> + '_ {
        self.msgs.drain()
    }

    /// Empties the inbox, dropping all payloads (capacity intact).
    pub fn clear(&mut self) {
        self.msgs.clear();
    }

    /// Consumes the inbox, yielding its sender → payload map.
    pub fn into_inner(self) -> BTreeMap<ProcessId, M> {
        self.msgs.into_map()
    }
}

impl<M: Payload> Default for Inbox<M> {
    fn default() -> Self {
        Inbox::new()
    }
}

impl<M: Payload> PartialEq for Inbox<M> {
    fn eq(&self, other: &Self) -> bool {
        self.msgs.semantic_eq(&other.msgs)
    }
}

impl<M: Payload> Eq for Inbox<M> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_records_messages_by_receiver() {
        let mut out = Outbox::new();
        out.send(ProcessId(2), 7u32).send(ProcessId(0), 9u32);
        let pairs: Vec<_> = out.iter().map(|(p, m)| (p, *m)).collect();
        assert_eq!(pairs, vec![(ProcessId(0), 9), (ProcessId(2), 7)]);
    }

    #[test]
    #[should_panic(expected = "duplicate message")]
    fn outbox_rejects_duplicate_receiver() {
        let mut out = Outbox::new();
        out.send(ProcessId(1), 1u32);
        out.send(ProcessId(1), 2u32);
    }

    #[test]
    fn send_to_all_clones_payload() {
        let mut out = Outbox::new();
        out.send_to_all(ProcessId::all(3), "x");
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn broadcast_stores_one_payload_with_mask() {
        let mut out = Outbox::new();
        out.broadcast([ProcessId(0), ProcessId(2), ProcessId(5)], "b");
        assert_eq!(out.len(), 3);
        let (msg, mask) = out.broadcast_part().expect("broadcast queued");
        assert_eq!(*msg, "b");
        assert_eq!(mask.len(), 3);
        assert_eq!(
            out.iter().map(|(p, m)| (p, *m)).collect::<Vec<_>>(),
            vec![
                (ProcessId(0), "b"),
                (ProcessId(2), "b"),
                (ProcessId(5), "b")
            ]
        );
    }

    #[test]
    fn broadcast_equals_per_receiver_sends() {
        let mut bcast: Outbox<u8> = Outbox::new();
        bcast.broadcast([ProcessId(1), ProcessId(3)], 9);
        let mut unicast: Outbox<u8> = Outbox::new();
        unicast.send(ProcessId(1), 9).send(ProcessId(3), 9);
        assert_eq!(bcast, unicast);
        assert_eq!(unicast, bcast);

        // Materializing the broadcast changes nothing observable.
        let mut materialized = bcast.clone();
        materialized.materialize_broadcast();
        assert!(materialized.broadcast_part().is_none());
        assert_eq!(materialized, bcast);
    }

    #[test]
    fn broadcast_and_unicast_merge_in_ascending_order() {
        let mut out: Outbox<&str> = Outbox::new();
        out.send(ProcessId(2), "uni");
        out.broadcast([ProcessId(0), ProcessId(4)], "bc");
        assert_eq!(out.len(), 3);
        let view: Vec<_> = out.iter().map(|(p, m)| (p, *m)).collect();
        assert_eq!(
            view,
            vec![
                (ProcessId(0), "bc"),
                (ProcessId(2), "uni"),
                (ProcessId(4), "bc")
            ]
        );
        let drained: Vec<_> = out.drain().collect();
        assert_eq!(
            drained,
            vec![
                (ProcessId(0), "bc"),
                (ProcessId(2), "uni"),
                (ProcessId(4), "bc")
            ]
        );
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate message")]
    fn broadcast_rejects_receiver_with_queued_send() {
        let mut out = Outbox::new();
        out.send(ProcessId(1), 1u32);
        out.broadcast([ProcessId(0), ProcessId(1)], 2u32);
    }

    #[test]
    #[should_panic(expected = "duplicate message")]
    fn send_rejects_receiver_covered_by_broadcast() {
        let mut out = Outbox::new();
        out.broadcast([ProcessId(0), ProcessId(1)], 2u32);
        out.send(ProcessId(1), 1u32);
    }

    #[test]
    fn second_broadcast_falls_back_to_clones() {
        let mut out = Outbox::new();
        out.broadcast([ProcessId(0)], "a");
        out.broadcast([ProcessId(1), ProcessId(2)], "b");
        assert_eq!(out.len(), 3);
        let view: Vec<_> = out.iter().map(|(p, m)| (p, *m)).collect();
        assert_eq!(
            view,
            vec![
                (ProcessId(0), "a"),
                (ProcessId(1), "b"),
                (ProcessId(2), "b")
            ]
        );
    }

    #[test]
    fn take_clears_mask_bits_and_moves_last_payload() {
        let mut out = Outbox::new();
        out.broadcast([ProcessId(0), ProcessId(2)], "b");
        assert_eq!(out.take(ProcessId(1)), None);
        assert_eq!(out.take(ProcessId(0)), Some("b"));
        assert_eq!(out.len(), 1);
        assert_eq!(out.take(ProcessId(2)), Some("b"));
        assert!(out.is_empty());
        assert!(out.broadcast_part().is_none());
    }

    #[test]
    fn receiver_mask_tracks_membership_and_order() {
        let mut mask = ReceiverMask::new();
        assert!(mask.is_empty());
        assert!(mask.insert(ProcessId(300)));
        assert!(mask.insert(ProcessId(3)));
        assert!(!mask.insert(ProcessId(3)));
        assert_eq!(mask.len(), 2);
        assert!(mask.contains(ProcessId(300)));
        assert!(!mask.contains(ProcessId(299)));
        assert_eq!(mask.max_id(), Some(ProcessId(300)));
        assert_eq!(
            mask.iter().collect::<Vec<_>>(),
            vec![ProcessId(3), ProcessId(300)]
        );
        assert!(mask.remove(ProcessId(300)));
        assert!(!mask.remove(ProcessId(300)));
        assert_eq!(mask.max_id(), Some(ProcessId(3)));
        assert_eq!(mask.len(), 1);
    }

    #[test]
    fn huge_n_broadcast_round_trips_through_spill_words() {
        let n = 700;
        let mut out: Outbox<u16> = Outbox::new();
        out.broadcast((0..n).map(ProcessId), 1);
        assert_eq!(out.len(), n);
        let drained: Vec<_> = out.drain().collect();
        assert_eq!(drained.len(), n);
        assert!(drained
            .iter()
            .enumerate()
            .all(|(i, (p, m))| p.index() == i && *m == 1));
    }

    #[test]
    fn merge_with_combines_collisions() {
        let mut a: Outbox<u32> = [(ProcessId(0), 1), (ProcessId(1), 2)].into_iter().collect();
        let b: Outbox<u32> = [(ProcessId(1), 10), (ProcessId(2), 20)]
            .into_iter()
            .collect();
        a.merge_with(b, |x, y| x + y);
        let pairs: Vec<_> = a.iter().map(|(p, m)| (p, *m)).collect();
        assert_eq!(
            pairs,
            vec![(ProcessId(0), 1), (ProcessId(1), 12), (ProcessId(2), 20)]
        );
    }

    #[test]
    fn inbox_lookup_by_sender() {
        let inbox = Inbox::from_map([(ProcessId(3), "m")].into_iter().collect());
        assert_eq!(inbox.from_sender(ProcessId(3)), Some(&"m"));
        assert_eq!(inbox.from_sender(ProcessId(1)), None);
        assert_eq!(inbox.senders().collect::<Vec<_>>(), vec![ProcessId(3)]);
    }

    #[test]
    fn empty_boxes_report_empty() {
        assert!(Outbox::<u8>::new().is_empty());
        assert!(Inbox::<u8>::new().is_empty());
    }

    #[test]
    fn equality_ignores_slab_capacity() {
        // The same semantic content must compare equal regardless of how the
        // backing slab grew (trailing empty slots are invisible).
        let mut grown: Outbox<u8> = Outbox::with_capacity(64);
        grown.send(ProcessId(1), 5);
        let mut tight: Outbox<u8> = Outbox::new();
        tight.send(ProcessId(1), 5);
        assert_eq!(grown, tight);

        let mut big = Inbox::with_capacity(32);
        big.deliver(ProcessId(2), 9u8);
        let mut small = Inbox::new();
        small.deliver(ProcessId(2), 9u8);
        assert_eq!(big, small);
        big.clear();
        assert_ne!(big, small);
        assert_eq!(big, Inbox::new());
    }

    #[test]
    fn drain_empties_and_preserves_order() {
        let mut out: Outbox<u8> = [(ProcessId(3), 3), (ProcessId(0), 0), (ProcessId(5), 5)]
            .into_iter()
            .collect();
        let drained: Vec<_> = out.drain().collect();
        assert_eq!(
            drained,
            vec![(ProcessId(0), 0), (ProcessId(3), 3), (ProcessId(5), 5)]
        );
        assert!(out.is_empty());
        // The outbox is reusable after draining.
        out.send(ProcessId(1), 7);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn inbox_drain_and_reuse_round_trip() {
        let mut inbox = Inbox::with_capacity(4);
        inbox.deliver(ProcessId(2), "b");
        inbox.deliver(ProcessId(0), "a");
        assert_eq!(inbox.len(), 2);
        let drained: Vec<_> = inbox.drain().collect();
        assert_eq!(drained, vec![(ProcessId(0), "a"), (ProcessId(2), "b")]);
        assert!(inbox.is_empty());
        inbox.deliver(ProcessId(3), "c");
        assert_eq!(inbox.to_map().len(), 1);
        assert_eq!(inbox.into_inner().len(), 1);
    }

    #[test]
    fn partially_consumed_drain_leaves_the_slab_consistent() {
        // A custom TraceSink may drop a drain iterator early; the remaining
        // messages must stay counted, iterable, and clearable.
        let mut inbox: Inbox<u8> = Inbox::with_capacity(4);
        inbox.deliver(ProcessId(0), 10);
        inbox.deliver(ProcessId(2), 12);
        inbox.deliver(ProcessId(3), 13);
        let first = inbox.drain().next();
        assert_eq!(first, Some((ProcessId(0), 10)));
        assert_eq!(inbox.len(), 2);
        assert!(!inbox.is_empty());
        let remaining: Vec<_> = inbox.iter().map(|(p, m)| (p, *m)).collect();
        assert_eq!(remaining, vec![(ProcessId(2), 12), (ProcessId(3), 13)]);
        inbox.clear();
        assert!(inbox.is_empty());
        assert_eq!(inbox.iter().count(), 0);
    }

    #[test]
    fn into_iterator_moves_payloads_in_receiver_order() {
        let out: Outbox<u8> = [(ProcessId(4), 4), (ProcessId(1), 1)].into_iter().collect();
        let moved: Vec<_> = out.into_iter().collect();
        assert_eq!(moved, vec![(ProcessId(1), 1), (ProcessId(4), 4)]);
    }
}
