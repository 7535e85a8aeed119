//! Criterion bench backing T8: throughput of the validation engine (the
//! per-message overhead Bracha's discipline adds).

use bft_types::{Config, NodeId, Round, Value};
use bracha::validation::Validator;
use bracha::StepPayload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Ingest a full round of messages from n nodes (initial + echo + ready),
/// with and without legality enforcement.
fn bench_ingest_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("validator_ingest_round");
    for (label, enforce) in [("validated", true), ("unchecked", false)] {
        for n in [4usize, 16, 64] {
            let cfg = Config::max_resilience(n).unwrap();
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, &n| {
                b.iter(|| {
                    let mut val = Validator::new(cfg, enforce);
                    for i in 0..n {
                        let _ = val.ingest(
                            Round::FIRST,
                            NodeId::new(i),
                            StepPayload::Initial(Value::One),
                        );
                    }
                    for i in 0..n {
                        let _ =
                            val.ingest(Round::FIRST, NodeId::new(i), StepPayload::Echo(Value::One));
                    }
                    for i in 0..n {
                        let _ = val.ingest(
                            Round::FIRST,
                            NodeId::new(i),
                            StepPayload::Ready { value: Value::One, flagged: true },
                        );
                    }
                });
            });
        }
    }
    group.finish();
}

/// Worst-case buffering: everything arrives in reverse step order, so
/// every message is pended and released by the cascade.
fn bench_ingest_reversed(c: &mut Criterion) {
    let mut group = c.benchmark_group("validator_ingest_reversed");
    for n in [4usize, 16, 64] {
        let cfg = Config::max_resilience(n).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut val = Validator::new(cfg, true);
                for i in 0..n {
                    let _ = val.ingest(
                        Round::FIRST,
                        NodeId::new(i),
                        StepPayload::Ready { value: Value::One, flagged: true },
                    );
                }
                for i in 0..n {
                    let _ = val.ingest(Round::FIRST, NodeId::new(i), StepPayload::Echo(Value::One));
                }
                for i in 0..n {
                    let _ =
                        val.ingest(Round::FIRST, NodeId::new(i), StepPayload::Initial(Value::One));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ingest_round, bench_ingest_reversed);
criterion_main!(benches);
