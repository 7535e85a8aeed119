//! The result of a simulation run.

use crate::{Metrics, SimTime};
use bft_types::{verdict, NodeId};
use std::collections::BTreeMap;

/// Why the simulation stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The stop policy was satisfied (all correct nodes produced an output /
    /// halted, depending on configuration).
    Completed,
    /// The event queue drained before the stop policy was satisfied — the
    /// protocol is stuck (or the run genuinely finished with nothing left
    /// to do).
    QueueDrained,
    /// The configured budget of delivered messages was exhausted. For
    /// randomized protocols this usually means the adversary got
    /// astronomically lucky — or the protocol is not live.
    BudgetExhausted,
}

/// Everything observable about a finished run.
#[derive(Clone, Debug)]
pub struct Report<O> {
    /// Why the run stopped.
    pub stop: StopReason,
    /// Simulated time at which the run stopped.
    pub end_time: SimTime,
    /// First output of each node that produced one (correct and faulty).
    pub outputs: BTreeMap<NodeId, O>,
    /// Simulated time of each node's first output.
    pub output_times: BTreeMap<NodeId, SimTime>,
    /// Protocol round of each node at its first output.
    pub output_rounds: BTreeMap<NodeId, u64>,
    /// The highest protocol round any correct node reached.
    pub max_round: u64,
    /// Message/byte/event counters.
    pub metrics: Metrics,
    /// The correct (non-faulty) nodes of the run.
    pub correct: Vec<NodeId>,
}

impl<O: Clone + PartialEq> Report<O> {
    /// Whether every correct node produced an output.
    pub fn all_correct_decided(&self) -> bool {
        verdict::all_correct_decided(&self.correct, &self.outputs)
    }

    /// Whether all correct nodes that produced an output agree on it.
    ///
    /// Note this is *vacuously true* if at most one correct node decided;
    /// combine with [`Report::all_correct_decided`] for a full correctness
    /// check.
    pub fn agreement_holds(&self) -> bool {
        verdict::agreement_holds(&self.correct, &self.outputs)
    }

    /// The output of a specific node, if it produced one.
    pub fn output_of(&self, id: NodeId) -> Option<O> {
        self.outputs.get(&id).cloned()
    }

    /// The unanimous output of the correct nodes.
    ///
    /// Returns `None` unless **all** correct nodes decided and they agree.
    pub fn unanimous_output(&self) -> Option<O> {
        verdict::unanimous_output(&self.correct, &self.outputs)
    }

    /// The latest first-output time among correct nodes (decision latency),
    /// or `None` if some correct node never decided.
    pub fn decision_latency(&self) -> Option<SimTime> {
        self.correct
            .iter()
            .map(|id| self.output_times.get(id).copied())
            .collect::<Option<Vec<_>>>()
            .map(|ts| ts.into_iter().max().unwrap_or(SimTime::ZERO))
    }

    /// The largest decision round among correct nodes, or `None` if some
    /// correct node never decided.
    pub fn decision_round(&self) -> Option<u64> {
        self.correct
            .iter()
            .map(|id| self.output_rounds.get(id).copied())
            .collect::<Option<Vec<_>>>()
            .map(|rs| rs.into_iter().max().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(correct: &[usize], outputs: &[(usize, u8)]) -> Report<u8> {
        Report {
            stop: StopReason::Completed,
            end_time: SimTime::from_ticks(10),
            outputs: outputs.iter().map(|&(i, v)| (NodeId::new(i), v)).collect(),
            output_times: outputs
                .iter()
                .enumerate()
                .map(|(k, &(i, _))| (NodeId::new(i), SimTime::from_ticks(k as u64 + 1)))
                .collect(),
            output_rounds: outputs.iter().map(|&(i, _)| (NodeId::new(i), 2)).collect(),
            max_round: 2,
            metrics: Metrics::default(),
            correct: correct.iter().map(|&i| NodeId::new(i)).collect(),
        }
    }

    #[test]
    fn agreement_and_completion() {
        let r = report(&[0, 1, 2], &[(0, 1), (1, 1), (2, 1), (3, 0)]);
        assert!(r.all_correct_decided());
        assert!(r.agreement_holds()); // faulty node 3 disagreeing is fine
        assert_eq!(r.unanimous_output(), Some(1));
        assert_eq!(r.decision_round(), Some(2));
        assert_eq!(r.decision_latency(), Some(SimTime::from_ticks(3)));
    }

    #[test]
    fn detects_disagreement() {
        let r = report(&[0, 1], &[(0, 1), (1, 0)]);
        assert!(!r.agreement_holds());
        assert_eq!(r.unanimous_output(), None);
    }

    #[test]
    fn detects_missing_decision() {
        let r = report(&[0, 1, 2], &[(0, 1), (1, 1)]);
        assert!(!r.all_correct_decided());
        assert!(r.agreement_holds()); // vacuous over deciders
        assert_eq!(r.unanimous_output(), None);
        assert_eq!(r.decision_latency(), None);
        assert_eq!(r.decision_round(), None);
    }
}
