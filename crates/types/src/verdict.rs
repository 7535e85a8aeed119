//! The verdicts of a finished run, over the outputs the correct nodes
//! produced: the one definition the simulator's and the TCP runtime's
//! reports both answer with.

use crate::NodeId;
use std::collections::BTreeMap;

/// Whether every correct node produced an output.
pub fn all_correct_decided<O>(correct: &[NodeId], outputs: &BTreeMap<NodeId, O>) -> bool {
    correct.iter().all(|id| outputs.contains_key(id))
}

/// Whether all correct nodes that produced an output agree on it —
/// vacuously true if at most one did.
pub fn agreement_holds<O: PartialEq>(correct: &[NodeId], outputs: &BTreeMap<NodeId, O>) -> bool {
    let mut decided = correct.iter().filter_map(|id| outputs.get(id));
    let first = decided.next();
    decided.all(|o| Some(o) == first)
}

/// The output every correct node produced, if all of them did and they
/// agree.
pub fn unanimous_output<O: Clone + PartialEq>(
    correct: &[NodeId],
    outputs: &BTreeMap<NodeId, O>,
) -> Option<O> {
    if !all_correct_decided(correct, outputs) || !agreement_holds(correct, outputs) {
        return None;
    }
    correct.first().and_then(|id| outputs.get(id)).cloned()
}
