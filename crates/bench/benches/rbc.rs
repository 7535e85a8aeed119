//! Criterion bench backing experiments T3/T4: wall-clock cost of one
//! reliable-broadcast instance (state machine and full simulation).

use bft_rbc::{RbcAction, RbcInstance, RbcKind, RbcMessage, RbcProcess};
use bft_sim::{FixedDelay, World, WorldConfig};
use bft_types::{Config, NodeId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Raw state-machine throughput: drive one instance to delivery by hand.
fn bench_state_machine(c: &mut Criterion) {
    let mut group = c.benchmark_group("rbc_state_machine");
    for n in [4usize, 16, 64] {
        let cfg = Config::max_resilience(n).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut inst = RbcInstance::new(cfg, NodeId::new(1), NodeId::new(0));
                let _ = inst.on_message(NodeId::new(0), &RbcMessage::Send("m"));
                for i in 0..n {
                    let _ = inst.on_message(NodeId::new(i), &RbcMessage::Echo("m"));
                }
                let delivered = (0..n)
                    .flat_map(|i| inst.on_message(NodeId::new(i), &RbcMessage::Ready("m")))
                    .filter(|a| matches!(a, RbcAction::Deliver(_)))
                    .count();
                assert_eq!(delivered, 1);
            });
        });
    }
    group.finish();
}

/// Full simulated broadcast to delivery at all nodes (the T3 cost curve).
fn bench_full_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("rbc_full_broadcast");
    group.sample_size(20);
    for n in [4usize, 8, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let cfg = Config::max_resilience(n).unwrap();
                let sender = NodeId::new(0);
                let mut world = World::new(WorldConfig::new(n), FixedDelay::new(1));
                for id in cfg.nodes() {
                    let payload = (id == sender).then(|| "payload".to_string());
                    world.add_process(Box::new(RbcProcess::new(
                        cfg,
                        id,
                        sender,
                        RbcKind::Bracha,
                        payload,
                    )));
                }
                let report = world.run();
                assert!(report.all_correct_decided());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_state_machine, bench_full_broadcast);
criterion_main!(benches);
