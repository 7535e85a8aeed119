//! Run metrics collected by the simulator.

use std::collections::BTreeMap;

/// Classification of a message for accounting purposes: a protocol-level
/// kind label plus an approximate wire size in bytes.
///
/// The simulator is transport-agnostic, so byte counts are whatever the
/// classifier reports — the experiments use a per-protocol estimate of the
/// serialized size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgClass {
    /// Protocol-level message kind (e.g. `"echo"`).
    pub kind: &'static str,
    /// Approximate serialized size in bytes.
    pub bytes: usize,
}

/// Counters accumulated during a simulation run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Total messages enqueued for delivery.
    pub sent: u64,
    /// Total messages actually delivered to a process.
    pub delivered: u64,
    /// Messages dropped because the destination had halted.
    pub dropped_to_halted: u64,
    /// Approximate bytes enqueued (only if a classifier is installed).
    pub bytes_sent: u64,
    /// Per message-kind counts and bytes (only if a classifier is
    /// installed). Keyed by the classifier's kind label.
    pub by_kind: BTreeMap<&'static str, (u64, u64)>,
    /// Number of events processed (starts + deliveries).
    pub events: u64,
    /// Messages still queued for delivery when the run stopped.
    pub in_flight_at_stop: u64,
}

impl Metrics {
    /// Records a message enqueue, optionally classified.
    pub(crate) fn record_send(&mut self, class: Option<MsgClass>) {
        self.sent += 1;
        if let Some(c) = class {
            self.bytes_sent += c.bytes as u64;
            let slot = self.by_kind.entry(c.kind).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += c.bytes as u64;
        }
    }

    /// Records a message handed to its destination process.
    pub(crate) fn record_delivery(&mut self) {
        self.delivered += 1;
    }

    /// Records a message dropped because its destination had halted.
    pub(crate) fn record_drop(&mut self) {
        self.dropped_to_halted += 1;
    }

    /// Message conservation: every message enqueued was either delivered,
    /// dropped at a halted destination, or still in flight when the run
    /// stopped. The simulator's accounting guarantees this identity; a
    /// failure means a bookkeeping bug, not a protocol bug.
    pub fn conserves(&self) -> bool {
        self.sent == self.delivered + self.dropped_to_halted + self.in_flight_at_stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_send_accumulates_per_node_and_kind() {
        let mut m = Metrics::default();
        m.record_send(Some(MsgClass { kind: "echo", bytes: 10 }));
        m.record_send(Some(MsgClass { kind: "echo", bytes: 10 }));
        m.record_send(Some(MsgClass { kind: "ready", bytes: 4 }));
        m.record_send(None);

        assert_eq!(m.sent, 4);
        assert_eq!(m.bytes_sent, 24);
        assert_eq!(m.by_kind["echo"], (2, 20));
        assert_eq!(m.by_kind["ready"], (1, 4));
    }

    #[test]
    fn conservation_accounts_for_every_send() {
        let mut m = Metrics::default();
        for _ in 0..5 {
            m.record_send(None);
        }
        m.record_delivery();
        m.record_delivery();
        m.record_drop();
        assert!(!m.conserves(), "two sends unaccounted for");
        m.in_flight_at_stop = 2;
        assert!(m.conserves());
    }
}
