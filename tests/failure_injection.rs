//! Failure-injection suite: crashes at every protocol stage, partitions,
//! starved nodes, and mixed adversary cocktails.

use async_bft::types::Value;
use async_bft::{Cluster, CoinChoice, FaultKind, Schedule};

/// Crashing at different points of the protocol (before start, during
/// round 1, after several rounds) never hurts the survivors.
#[test]
fn crashes_at_every_stage_are_tolerated() {
    for after in [0u64, 1, 5, 20, 100] {
        for seed in 0..5 {
            let report = Cluster::new(7)
                .unwrap()
                .seed(seed)
                .split_inputs(3)
                .faults(2, FaultKind::Crash { after })
                .run();
            assert!(
                report.all_correct_decided(),
                "crash after {after} events broke termination (seed {seed})"
            );
            assert!(report.agreement_holds(), "crash after {after} broke agreement");
        }
    }
}

/// A mixed cocktail: one crash + one liar, the worst of both worlds.
#[test]
fn mixed_adversaries_are_tolerated() {
    for seed in 0..10 {
        let report = Cluster::new(7)
            .unwrap()
            .seed(seed)
            .inputs(vec![Value::One; 7])
            .fault(0, FaultKind::Crash { after: 10 })
            .fault(1, FaultKind::FlipValue)
            .run();
        assert_eq!(
            report.unanimous_output(),
            Some(Value::One),
            "seed {seed}: mixed adversaries broke validity"
        );
    }
}

/// Network partitions delay but never derail consensus.
#[test]
fn partition_heals_and_consensus_completes() {
    for heal_at in [100u64, 500, 2000] {
        let report = Cluster::new(4)
            .unwrap()
            .seed(1)
            .split_inputs(2)
            .schedule(Schedule::Partition { near: 1, far: 150, heal_at })
            .run();
        assert!(report.all_correct_decided(), "heal_at {heal_at}");
        assert!(report.agreement_holds(), "heal_at {heal_at}");
        // Later healing must not make the decision earlier; it generally
        // makes it later (sanity check on the simulated clock).
        assert!(report.end_time.ticks() > 0);
    }
}

/// One starved node catches up and decides the same value (no stale
/// decision), even when it lags by two orders of magnitude.
#[test]
fn starved_node_catches_up_consistently() {
    for seed in 0..5 {
        let report = Cluster::new(4)
            .unwrap()
            .seed(seed)
            .split_inputs(2)
            .schedule(Schedule::Laggard { victim: 3, fast: 1, slow: 100 })
            .run();
        assert!(report.all_correct_decided(), "seed {seed}");
        assert!(report.agreement_holds(), "seed {seed}");
    }
}

/// Byzantine nodes beyond f are out of contract — but *fewer* than f
/// faults must of course also work (the bound is an upper bound).
#[test]
fn fewer_faults_than_f_work_too() {
    for actual in 0..=3usize {
        let report = Cluster::new(10)
            .unwrap() // f = 3
            .seed(7)
            .split_inputs(5)
            .faults(actual, FaultKind::RandomValue)
            .run();
        assert!(report.all_correct_decided(), "{actual} faults");
        assert!(report.agreement_holds(), "{actual} faults");
    }
}

/// The adversary owning both the faulty nodes AND the schedule.
#[test]
fn coordinated_liars_and_scheduler() {
    for seed in 0..5 {
        let report = Cluster::new(7)
            .unwrap()
            .seed(seed)
            .inputs(vec![Value::Zero; 7])
            .coin(CoinChoice::Local)
            .faults(2, FaultKind::FlipValue)
            .schedule(Schedule::FavorFaulty { favored: 2, fast: 1, slow: 12 })
            .run();
        assert_eq!(
            report.unanimous_output(),
            Some(Value::Zero),
            "seed {seed}: coordinated attack broke validity"
        );
    }
}

/// A proposer whose batch misses an epoch must not lose it. Node 3's
/// outbound links are slow for the first 200 ticks, so the other three
/// commit the early epochs with its slot decided 0; everything it
/// proposed there — its epoch-0 batch included — has to come back in a
/// later epoch, exactly once, in every log.
#[test]
fn a_lagging_proposers_batch_is_reproposed_not_lost() {
    use async_bft::coin::CommonCoin;
    use async_bft::order::{OrderLog, OrderMessage, OrderOptions, OrderProcess};
    use async_bft::sim::{FnScheduler, SimTime, World, WorldConfig};
    use async_bft::types::{Config, Envelope, NodeId};

    let n = 4;
    let slow = NodeId::new(3);
    let cfg = Config::new(n, 1).expect("4 >= 3f + 1");
    let opts =
        OrderOptions { batch_max: 2, pipeline_depth: 2, epochs: 40, ..OrderOptions::default() };
    let per_node = 6u8;
    let scheduler =
        FnScheduler::new(
            move |env: &Envelope<OrderMessage>, now: SimTime| {
                if env.from == slow && now.ticks() < 200 {
                    201 - now.ticks()
                } else {
                    1
                }
            },
        );
    let mut world: World<OrderMessage, OrderLog, _> = World::new(WorldConfig::new(n), scheduler);
    for id in cfg.nodes() {
        let workload = (0..per_node).map(|i| vec![id.index() as u8, i]).collect();
        world.add_process(Box::new(OrderProcess::new(cfg, id, opts, workload, |inst| {
            CommonCoin::new(21, inst)
        })));
    }
    let report = world.run();
    assert!(report.all_correct_decided());
    assert!(report.agreement_holds());
    let log = report.unanimous_output().expect("every node outputs the same log");

    // The scenario really excluded node 3 from epoch 0 …
    assert!(
        !log.iter().any(|entry| entry.epoch == 0 && entry.proposer == slow),
        "node 3 was meant to miss epoch 0"
    );
    // … and every payload of every node, node 3's first batch included,
    // is in the log exactly once.
    for id in cfg.nodes() {
        for i in 0..per_node {
            let tx = vec![id.index() as u8, i];
            let hits: Vec<u64> =
                log.iter().filter(|entry| entry.tx == tx).map(|entry| entry.epoch).collect();
            assert_eq!(hits.len(), 1, "payload {tx:?} ordered {} times: {hits:?}", hits.len());
            if id == slow && i < opts.batch_max as u8 {
                assert!(hits[0] > 0, "node 3's epoch-0 batch must land in a later epoch");
            }
        }
    }
}
