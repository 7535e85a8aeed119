//! Internal event representation and optional tracing.

use crate::SimTime;
use bft_types::{Envelope, NodeId};
use std::collections::{BTreeMap, VecDeque};

/// What happens at a scheduled instant.
#[derive(Clone, Debug)]
pub(crate) enum EventKind<M> {
    /// A process takes its initial step.
    Start(NodeId),
    /// A message is delivered.
    Deliver(Envelope<M>),
    /// A process crashes: its state is dropped and deliveries to it are
    /// discarded until (unless) a restart is scheduled.
    Crash(NodeId),
    /// A crashed process is replaced by a fresh instance (from the
    /// factory registered with `World::schedule_restart`) and started.
    Restart(NodeId),
}

/// The pending events, one FIFO bucket per tick: they pop in time order,
/// and the events of one tick in the order they were pushed. That is the
/// `(time, enqueue order)` order a run is a deterministic function of,
/// kept with no per-event comparison: a push appends to its tick's bucket
/// and a pop takes the front of the earliest one.
pub(crate) struct EventQueue<M> {
    buckets: BTreeMap<SimTime, VecDeque<EventKind<M>>>,
    len: usize,
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue { buckets: BTreeMap::new(), len: 0 }
    }

    /// Schedules `kind` at `time`, after every event already at `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        self.buckets.entry(time).or_default().push_back(kind);
        self.len += 1;
    }

    /// When the next event fires.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.buckets.first_key_value().map(|(&time, _)| time)
    }

    /// Takes the next event: the first pushed of the earliest tick.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind<M>)> {
        let mut bucket = self.buckets.first_entry()?;
        let time = *bucket.key();
        let kind = bucket.get_mut().pop_front();
        if bucket.get().is_empty() {
            bucket.remove();
        }
        self.len -= usize::from(kind.is_some());
        Some((time, kind?))
    }

    /// Events pending.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Every pending event, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &EventKind<M>> {
        self.buckets.values().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn start(node: usize) -> EventKind<()> {
        EventKind::Start(NodeId::new(node))
    }

    fn node_of(kind: &EventKind<()>) -> usize {
        match kind {
            EventKind::Start(id) | EventKind::Crash(id) | EventKind::Restart(id) => id.index(),
            EventKind::Deliver(envelope) => envelope.to.index(),
        }
    }

    #[test]
    fn queue_pops_earliest_first_in_push_order() {
        let mut queue = EventQueue::new();
        for (time, node) in [(5, 0), (1, 2), (1, 1), (3, 3)] {
            queue.push(SimTime::from_ticks(time), start(node));
        }
        assert_eq!(queue.len(), 4);
        assert_eq!(queue.peek_time(), Some(SimTime::from_ticks(1)));
        let order: Vec<(u64, usize)> =
            std::iter::from_fn(|| queue.pop()).map(|(t, e)| (t.ticks(), node_of(&e))).collect();
        assert_eq!(order, vec![(1, 2), (1, 1), (3, 3), (5, 0)]);
        assert_eq!((queue.len(), queue.peek_time()), (0, None));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Pushes and pops interleaved at random, over a few near ticks
        /// (so many events share one) and ticks at the far end of time:
        /// every pop is the `(time, push index)` minimum of a reference
        /// that keeps the pending events sorted.
        #[test]
        fn queue_pops_in_time_then_push_order(
            ops in proptest::collection::vec((0u8..4, 0u64..4, proptest::bool::ANY), 0..300),
        ) {
            let mut queue = EventQueue::new();
            let mut reference: Vec<(u64, usize)> = Vec::new();
            for (pushed, (op, tick, far)) in ops.into_iter().enumerate() {
                if op < 3 {
                    let time = if far { u64::MAX - tick } else { tick };
                    queue.push(SimTime::from_ticks(time), start(pushed));
                    reference.push((time, pushed));
                    reference.sort_unstable();
                } else {
                    let want = (!reference.is_empty()).then(|| reference.remove(0));
                    prop_assert_eq!(queue.peek_time().map(SimTime::ticks), want.map(|(t, _)| t));
                    let got = queue.pop().map(|(t, e)| (t.ticks(), node_of(&e)));
                    prop_assert_eq!(got, want);
                }
                prop_assert_eq!(queue.len(), reference.len());
                prop_assert_eq!(queue.iter().count(), reference.len());
            }
            let rest: Vec<(u64, usize)> =
                std::iter::from_fn(|| queue.pop()).map(|(t, e)| (t.ticks(), node_of(&e))).collect();
            prop_assert_eq!(rest, reference);
        }
    }
}
