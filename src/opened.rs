//! Reading [`OpenCounts`] out of a cluster whose runtime owns the
//! processes: "why is the pipeline this deep" answered from the running
//! system.
//!
//! A substrate takes its processes boxed and returns only their outputs,
//! so `OrderProcess::opened()` is out of reach once the run starts.
//! [`OpenTally`] is the way around: every node is wrapped in a
//! [`Watched`] that adds what its process opened, under which trigger, to
//! one shared cluster-wide sum the harness keeps a handle to.

use crate::order::OpenCounts;
use crate::types::{Effect, NodeId, Process};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cluster-wide sum of the epochs every watched node opened, by trigger.
#[derive(Clone, Debug, Default)]
pub struct OpenTally(Arc<[AtomicU64; 3]>);

impl OpenTally {
    /// An empty tally.
    pub fn new() -> Self {
        OpenTally::default()
    }

    /// Wraps `inner` so that its counts (`read`, e.g.
    /// `OrderProcess::opened`) flow into this tally as it runs.
    pub fn watch<P: Process>(&self, inner: P, read: fn(&P) -> OpenCounts) -> Watched<P> {
        Watched { inner, read, seen: OpenCounts::default(), tally: self.clone() }
    }

    /// The sum so far over every watched node.
    pub fn total(&self) -> OpenCounts {
        // Statistics published for a reader that joins the cluster first.
        let [idle, full, joined] = &*self.0;
        OpenCounts {
            idle: idle.load(Ordering::Relaxed),
            full: full.load(Ordering::Relaxed),
            joined: joined.load(Ordering::Relaxed),
        }
    }
}

/// A process whose [`OpenCounts`] are published to an [`OpenTally`] after
/// every step that moved them; otherwise `inner`, untouched.
#[derive(Debug)]
pub struct Watched<P> {
    inner: P,
    read: fn(&P) -> OpenCounts,
    /// What the tally already holds of this node.
    seen: OpenCounts,
    tally: OpenTally,
}

impl<P: Process> Watched<P> {
    fn publish(&mut self) {
        let now = (self.read)(&self.inner);
        if now != self.seen {
            let [idle, full, joined] = &*self.tally.0;
            idle.fetch_add(now.idle - self.seen.idle, Ordering::Relaxed);
            full.fetch_add(now.full - self.seen.full, Ordering::Relaxed);
            joined.fetch_add(now.joined - self.seen.joined, Ordering::Relaxed);
            self.seen = now;
        }
    }
}

impl<P: Process> Process for Watched<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_start(&mut self) -> Vec<Effect<P::Msg, P::Output>> {
        let effects = self.inner.on_start();
        self.publish();
        effects
    }

    fn on_message(&mut self, from: NodeId, msg: &P::Msg) -> Vec<Effect<P::Msg, P::Output>> {
        let effects = self.inner.on_message(from, msg);
        self.publish();
        effects
    }

    fn on_tick(&mut self) -> Vec<Effect<P::Msg, P::Output>> {
        let effects = self.inner.on_tick();
        self.publish();
        effects
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }

    fn is_halted(&self) -> bool {
        self.inner.is_halted()
    }

    fn round(&self) -> u64 {
        self.inner.round()
    }
}
