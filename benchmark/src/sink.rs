//! The benchmark's observer sink for the traced run: the gateway stamps
//! of sampled requests (on the generator's clock, so they join the
//! generator's own stamps into one request span tree) and the counts
//! `MetricsSink` does not keep.

use crate::loadgen::Clock;
use async_bft::obs::{Event, Sink};
use async_bft::types::NodeId;
use std::collections::HashMap;

/// One request in this many is traced end to end.
pub const REQUEST_SAMPLE_EVERY: u64 = 16;

pub fn sampled(seq: u64) -> bool {
    seq.is_multiple_of(REQUEST_SAMPLE_EVERY)
}

#[derive(Clone, Copy, Debug)]
pub struct CommitStamp {
    pub at_us: u64,
    pub epoch: u64,
    pub node: NodeId,
}

pub struct BenchSink {
    clock: Clock,
    /// `(client, seq)` → when the gateway admitted it to the mempool.
    pub accepted: HashMap<(u64, u64), u64>,
    /// `(client, seq)` → when the gateway saw it in the log.
    pub committed: HashMap<(u64, u64), CommitStamp>,
    /// Epochs node 0 committed, and how many of them carried no tx.
    pub epochs_committed: u64,
    pub empty_epochs: u64,
}

impl BenchSink {
    pub fn new(clock: Clock) -> Self {
        BenchSink {
            clock,
            accepted: HashMap::new(),
            committed: HashMap::new(),
            epochs_committed: 0,
            empty_epochs: 0,
        }
    }
}

impl Sink for BenchSink {
    fn on_event(&mut self, _at: u64, node: NodeId, event: &Event) {
        match event {
            Event::GatewayAccepted { client, seq } if sampled(*seq) => {
                self.accepted.entry((*client, *seq)).or_insert_with(|| self.clock.now_us());
            }
            Event::GatewayCommitted { client, seq, epoch } if sampled(*seq) => {
                let stamp = CommitStamp { at_us: self.clock.now_us(), epoch: *epoch, node };
                self.committed.entry((*client, *seq)).or_insert(stamp);
            }
            Event::EpochCommitted { txs, .. } if node.index() == 0 => {
                self.epochs_committed += 1;
                if *txs == 0 {
                    self.empty_epochs += 1;
                }
            }
            _ => {}
        }
    }
}
