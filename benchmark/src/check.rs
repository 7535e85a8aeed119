//! Correctness checks on what a TCP run left behind. Each returns the
//! problems it found; an empty list is a pass.

use crate::cluster::ClusterEnd;
use crate::loadgen::{tx_body, Record};
use async_bft::order::gateway::parse_stamp;
use async_bft::order::OrderLog;
use std::collections::{BTreeMap, BTreeSet};

/// The runtime ended cleanly and the correct nodes' logs are prefixes
/// of one another (they were snapshotted at slightly different steps).
pub fn cluster_end(end: &ClusterEnd) -> Vec<String> {
    let mut problems = Vec::new();
    if end.timed_out {
        problems.push("cluster timed out before every correct node surfaced its log".into());
    }
    if end.poisoned {
        problems.push("a transport thread panicked (report.poisoned)".into());
    }
    for id in &end.correct {
        if !end.outputs.contains_key(id) {
            problems.push(format!("correct node {id} produced no log"));
        }
    }
    let longest = longest_log(end);
    for id in &end.correct {
        if let Some(log) = end.outputs.get(id) {
            if longest.get(..log.len()) != Some(log.as_slice()) {
                problems.push(format!("node {id}'s log is not a prefix of the longest log"));
            }
        }
    }
    problems
}

fn longest_log(end: &ClusterEnd) -> &[async_bft::order::LogEntry] {
    static EMPTY: OrderLog = Vec::new();
    end.correct
        .iter()
        .filter_map(|id| end.outputs.get(id))
        .max_by_key(|log| log.len())
        .unwrap_or(&EMPTY)
}

/// Every acknowledged `(client, seq)` is in the longest log exactly
/// once, each client's entries appear in ascending seq order,
/// and every gateway-stamped entry carries the bytes the generator
/// would have sent for it — nothing committed that was never submitted.
pub fn acked_in_log(
    end: &ClusterEnd,
    records: &[Record],
    seed: u64,
    tx_bytes: usize,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut last_seq: BTreeMap<u64, u64> = BTreeMap::new();
    let mut in_log: BTreeSet<(u64, u64)> = BTreeSet::new();
    let (mut out_of_order, mut foreign) = (0u64, 0u64);
    for entry in longest_log(end) {
        let Some((client, seq, body)) = parse_stamp(&entry.tx) else {
            foreign += 1;
            continue;
        };
        let last = last_seq.entry(client).or_insert(0);
        // A duplicate shows up here too: its seq is not above the last.
        // A gap does not: a seq the cluster dropped fails, it does not
        // make the log wrong.
        if seq <= *last {
            out_of_order += 1;
        }
        *last = (*last).max(seq);
        in_log.insert((client, seq));
        if body != tx_body(seed, client, seq, tx_bytes).as_slice() {
            foreign += 1;
        }
    }
    if out_of_order > 0 {
        problems.push(format!("{out_of_order} log entries duplicated or out of per-client order"));
    }
    if foreign > 0 {
        problems.push(format!("{foreign} log entries the generator never submitted"));
    }
    let missing = records.iter().filter(|r| !in_log.contains(&(r.client, r.seq))).count();
    if missing > 0 {
        problems.push(format!("{missing} acknowledged requests are not in the log"));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_bft::order::gateway::stamp_tx;
    use async_bft::order::LogEntry;
    use async_bft::types::NodeId;

    fn entry(client: u64, seq: u64) -> LogEntry {
        LogEntry {
            epoch: seq,
            proposer: NodeId::new(0),
            tx: stamp_tx(client, seq, &tx_body(1, client, seq, 32)),
        }
    }

    fn end_with(logs: Vec<OrderLog>) -> ClusterEnd {
        let correct: Vec<NodeId> = (0..logs.len()).map(NodeId::new).collect();
        let outputs = correct.iter().copied().zip(logs).collect();
        ClusterEnd { outputs, correct, timed_out: false, poisoned: false }
    }

    fn acked(client: u64, seq: u64) -> Record {
        Record { client, seq, due_us: 0, sent_us: 0, ack_us: 1 }
    }

    #[test]
    fn prefixes_pass_and_divergence_fails() {
        let full = vec![entry(1, 1), entry(2, 1), entry(1, 2)];
        assert!(
            cluster_end(&end_with(vec![full.clone(), full[..2].to_vec(), full.clone()])).is_empty()
        );
        let forked = vec![entry(1, 1), entry(1, 2)];
        assert_eq!(cluster_end(&end_with(vec![full, forked])).len(), 1);
    }

    #[test]
    fn acked_requests_must_be_in_the_log_once_and_in_order() {
        let log = vec![entry(1, 1), entry(2, 1), entry(1, 2)];
        let end = end_with(vec![log.clone()]);
        assert!(acked_in_log(&end, &[acked(1, 1), acked(1, 2), acked(2, 1)], 1, 32).is_empty());
        assert_eq!(acked_in_log(&end, &[acked(1, 3)], 1, 32).len(), 1, "acked but never logged");
        let dup = end_with(vec![vec![entry(1, 1), entry(1, 1)]]);
        assert_eq!(acked_in_log(&dup, &[], 1, 32).len(), 1, "duplicate");
        let swapped = end_with(vec![vec![entry(1, 2), entry(1, 1)]]);
        assert_eq!(acked_in_log(&swapped, &[], 1, 32).len(), 1, "out of order");
        assert_eq!(acked_in_log(&end, &[], 9, 32).len(), 1, "bodies from another seed are foreign");
    }
}
