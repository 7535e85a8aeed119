//! End-to-end tests for the ACS / multi-value consensus layer across
//! crates (rbc + core + coin + order + sim + adversary).
//!
//! The single-shot ACS is the ordering engine's epoch ACS run for one
//! epoch: each node's proposal is its one-payload workload, and the log
//! is the agreed set in proposer order. Multi-value consensus is that
//! log's first entry — the proposal of the smallest accepted proposer.

use async_bft::adversary::Silent;
use async_bft::coin::CommonCoin;
use async_bft::order::{OrderLog, OrderMessage, OrderOptions, OrderProcess};
use async_bft::sim::{Report, UniformDelay, World, WorldConfig};
use async_bft::types::{Config, NodeId};

/// One ACS among `n` nodes: node `i` proposes `proposal(i)`, the nodes in
/// `silent` are crashed from the start, message delays are uniform in
/// `1..=max_delay` ticks.
fn run_acs(
    n: usize,
    max_delay: u64,
    seed: u64,
    silent: &[usize],
    proposal: impl Fn(usize) -> Vec<u8>,
) -> Report<OrderLog> {
    let cfg = Config::max_resilience(n).unwrap();
    let opts = OrderOptions { epochs: 1, ..OrderOptions::default() };
    let mut world = World::new(WorldConfig::new(n), UniformDelay::new(1, max_delay, seed));
    for id in cfg.nodes() {
        if silent.contains(&id.index()) {
            world.add_faulty_process(Box::new(Silent::<OrderMessage, OrderLog>::new(id)));
        } else {
            world.add_process(Box::new(OrderProcess::new(
                cfg,
                id,
                opts,
                vec![proposal(id.index())],
                move |i| CommonCoin::new(seed, i),
            )));
        }
    }
    world.run()
}

/// The agreed set's proposers, in log order.
fn proposers(log: &OrderLog) -> Vec<usize> {
    log.iter().map(|e| e.proposer.index()).collect()
}

/// The multi-value decision: the log's first entry, which must be the
/// proposal of the smallest accepted proposer.
fn decided(log: &OrderLog) -> Vec<u8> {
    let set = proposers(log);
    assert!(set.windows(2).all(|w| w[0] < w[1]), "one slot per proposer, in proposer order");
    let first = log.first().expect("ACS output contains at least n − f entries");
    assert_eq!(Some(&first.proposer.index()), set.iter().min(), "smallest proposer wins");
    first.tx.clone()
}

#[test]
fn acs_core_set_is_identical_across_nodes_and_seeds() {
    for (n, max_delay, seeds) in [(4, 10, 3..4), (7, 12, 0..8)] {
        for seed in seeds {
            let batch = |i: usize| format!("batch-{i}-{seed}").into_bytes();
            let report = run_acs(n, max_delay, seed, &[], batch);
            assert!(report.all_correct_decided(), "n {n} seed {seed}");
            assert!(report.agreement_holds(), "n {n} seed {seed}");
            let set = report.output_of(NodeId::new(0)).unwrap();
            let quorum = Config::max_resilience(n).unwrap().quorum();
            assert!(set.len() >= quorum, "n {n} seed {seed}: set too small");
            // Every entry is authentic: proposer i's payload is what i sent.
            for entry in &set {
                assert_eq!(entry.tx, batch(entry.proposer.index()), "n {n} seed {seed}");
            }
        }
    }
}

#[test]
fn acs_with_two_silent_proposers_still_closes() {
    let report = run_acs(7, 12, 4, &[5, 6], |i| vec![i as u8; 32]);
    assert!(report.all_correct_decided());
    assert!(report.agreement_holds());
    let set = report.output_of(NodeId::new(0)).unwrap();
    assert!(set.len() >= 5, "five live proposals must make it");
    assert!(proposers(&set).iter().all(|&i| i < 5), "dead proposals cannot");
}

#[test]
fn a_silent_proposer_is_excluded_and_the_acs_still_closes() {
    for (n, seed) in [(4, 7), (7, 1)] {
        let report = run_acs(n, 10, seed, &[n - 1], |i| format!("proposal-{i}").into_bytes());
        assert!(report.all_correct_decided(), "n {n}");
        assert!(report.agreement_holds(), "n {n}");
        let set = report.output_of(NodeId::new(0)).unwrap();
        let quorum = Config::max_resilience(n).unwrap().quorum();
        assert!(set.len() >= quorum, "n {n}: set too small");
        assert!(
            proposers(&set).iter().all(|&i| i != n - 1),
            "n {n}: a silent node's proposal cannot be delivered, hence not included"
        );
    }
}

#[test]
fn first_entry_decides_one_proposed_string() {
    for seed in 0..8 {
        let report = run_acs(4, 10, seed, &[], |i| format!("candidate-{i}").into_bytes());
        assert!(report.all_correct_decided(), "seed {seed}");
        assert!(report.agreement_holds(), "seed {seed}");
        let v = decided(&report.output_of(NodeId::new(0)).unwrap());
        assert!(
            (0..4).any(|i| v == format!("candidate-{i}").into_bytes()),
            "seed {seed}: decided value was never proposed"
        );
    }
}

#[test]
fn first_entry_decides_with_node_0_crashed() {
    let report = run_acs(4, 10, 2, &[0], |i| format!("candidate-{i}").into_bytes());
    assert!(report.all_correct_decided());
    assert!(report.agreement_holds());
    // Node 0 never proposed, so the decision must come from 1..4.
    let v = decided(&report.output_of(NodeId::new(1)).unwrap());
    assert!((1..4).any(|i| v == format!("candidate-{i}").into_bytes()));
}
