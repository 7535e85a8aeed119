//! Criterion bench backing T6: wall-clock cost of an asynchronous common
//! subset (the HoneyBadger-style batch-agreement core) — the ordering
//! engine's ACS, run for one epoch.

use bft_coin::CommonCoin;
use bft_order::{OrderOptions, OrderProcess};
use bft_sim::{UniformDelay, World, WorldConfig};
use bft_types::Config;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_acs(c: &mut Criterion) {
    let mut group = c.benchmark_group("acs_round");
    group.sample_size(10);
    let opts = OrderOptions { epochs: 1, ..OrderOptions::default() };
    for n in [4usize, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let cfg = Config::max_resilience(n).unwrap();
                let mut world = World::new(WorldConfig::new(n), UniformDelay::new(1, 10, seed));
                for id in cfg.nodes() {
                    let proposal = vec![id.index() as u8; 64];
                    world.add_process(Box::new(OrderProcess::new(
                        cfg,
                        id,
                        opts,
                        vec![proposal],
                        move |i| CommonCoin::new(seed, i),
                    )));
                }
                let report = world.run();
                assert!(report.all_correct_decided());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_acs);
criterion_main!(benches);
