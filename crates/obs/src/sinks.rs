//! Basic sinks: in-memory recording and composition.

use crate::{Event, Sink};
use bft_types::NodeId;

/// Records every event, in emission order, with its timestamp and
/// observing node. The workhorse of tests and ad-hoc debugging.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    events: Vec<(u64, NodeId, Event)>,
}

impl VecSink {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events so far.
    pub fn events(&self) -> &[(u64, NodeId, Event)] {
        &self.events
    }

    /// Takes the recorded events, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<(u64, NodeId, Event)> {
        std::mem::take(&mut self.events)
    }
}

impl Sink for VecSink {
    fn on_event(&mut self, at: u64, node: NodeId, event: &Event) {
        self.events.push((at, node, event.clone()));
    }
}

/// Feeds every event to two sinks in order. Nest for more:
/// `Tee(a, Tee(b, c))`.
#[derive(Clone, Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Sink, B: Sink> Sink for Tee<A, B> {
    fn on_event(&mut self, at: u64, node: NodeId, event: &Event) {
        self.0.on_event(at, node, event);
        self.1.on_event(at, node, event);
    }
}

/// `Some` forwards, `None` discards — lets a composed sink switch one
/// branch on or off at runtime without changing the overall sink type
/// (e.g. `Tee(metrics, jsonl_or_none)` in the CLI harness).
impl<S: Sink> Sink for Option<S> {
    fn on_event(&mut self, at: u64, node: NodeId, event: &Event) {
        if let Some(sink) = self {
            sink.on_event(at, node, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tee_duplicates_events() {
        let mut tee = Tee(VecSink::new(), VecSink::new());
        tee.on_event(1, NodeId::new(0), &Event::NodeHalted);
        assert_eq!(tee.0.events().len(), 1);
        assert_eq!(tee.1.events().len(), 1);
        assert_eq!(tee.0.events(), tee.1.events());
    }

    #[test]
    fn optional_sink_forwards_only_when_some() {
        let mut off: Option<VecSink> = None;
        off.on_event(1, NodeId::new(0), &Event::NodeHalted);
        assert!(off.is_none());

        let mut on = Some(VecSink::new());
        on.on_event(2, NodeId::new(1), &Event::NodeHalted);
        assert_eq!(on.as_ref().map(|s| s.events().len()), Some(1));
    }
}
