//! Trace-conservation properties of the causal tracing layer.
//!
//! Three guarantees, checked over random seeds on the deterministic
//! simulator:
//!
//! 1. **Conservation** — every `SpanStart` is matched by exactly one
//!    `SpanEnd`: no duplicates, no orphans, no spans left open once the
//!    run reaches quiescence.
//! 2. **Completeness** — every committed transaction has a full
//!    submit → commit critical path whose per-phase attribution sums
//!    exactly to the measured end-to-end latency at the proposer.
//! 3. **Determinism** — two runs with the same seed produce
//!    byte-identical canonical trace trees, timestamps included.

use async_bft::coin::CommonCoin;
use async_bft::obs::{Obs, TraceAssembler, TraceSink};
use async_bft::order::{OrderOptions, OrderProcess};
use async_bft::rbc::RbcKind;
use async_bft::sim::{UniformDelay, World, WorldConfig};
use async_bft::types::Config;
use proptest::prelude::*;

const N: usize = 4;
const F: usize = 1;

/// Runs one traced ordering scenario on the simulator, its batches
/// disseminated by `rbc`, and returns the assembled trace trees plus the
/// unanimously ordered payload count.
fn traced_sim_run(
    seed: u64,
    rbc: RbcKind,
    epochs: u64,
    batch: usize,
    depth: usize,
) -> (TraceAssembler, usize) {
    let cfg = Config::new(N, F).unwrap();
    let opts = OrderOptions { batch_max: batch, pipeline_depth: depth, epochs, rbc };
    let (obs, shared) = Obs::new(TraceSink::new());
    let mut world = World::new(WorldConfig::new(N), UniformDelay::new(1, 7, seed));
    world.set_observer(obs.clone());
    for id in cfg.nodes() {
        let workload: Vec<Vec<u8>> = (0..epochs * batch as u64)
            .map(|i| format!("tx-{}-{i}", id.index()).into_bytes())
            .collect();
        world.add_process(Box::new(
            OrderProcess::new(cfg, id, opts, workload, move |inst| CommonCoin::new(seed, inst))
                .with_obs(obs.clone()),
        ));
    }
    let report = world.run();
    assert!(report.all_correct_decided(), "seed {seed}: ordering run must complete");
    let txs = report.unanimous_output().map_or(0, |log| log.len());
    drop(obs);
    (shared.try_into_inner().expect("sole owner").into_assembler(), txs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation and completeness across random seeds, shapes and RBC
    /// kinds: the coded kind adds the `rbc_reconstruct` span to the echo →
    /// ready handover both kinds share.
    #[test]
    fn spans_are_conserved_and_critical_paths_complete(
        seed in 0u64..500,
        epochs in 1u64..4,
        batch in 1usize..4,
        depth in 1usize..3,
    ) {
        for rbc in [RbcKind::Bracha, RbcKind::Coded] {
            let (asm, _) = traced_sim_run(seed, rbc, epochs, batch, depth);
            prop_assert_eq!(asm.duplicate_starts(), 0, "{}: re-opened span ids", rbc);
            prop_assert_eq!(asm.unmatched_ends(), 0, "{}: ends without a start", rbc);
            prop_assert_eq!(asm.open_spans(), 0, "{}: spans left open at quiescence", rbc);
            // One trace per (proposer, epoch), each with a complete
            // submit → commit critical path summing to the root duration.
            prop_assert_eq!(asm.trace_count() as u64, epochs * N as u64, "{}", rbc);
            for trace in asm.trace_ids() {
                let root = asm.root(trace).expect("submit root observed");
                let end = root.end.expect("root closed");
                let path = asm.critical_path(trace).expect("critical path complete");
                let total: u64 = path.iter().map(|&(_, ticks)| ticks).sum();
                prop_assert_eq!(
                    total,
                    end - root.start,
                    "{}: attribution must sum to the submit latency (trace {:016x}: {:?})",
                    rbc,
                    trace,
                    path
                );
            }
        }
    }

    /// Same seed, same trees — byte-identical canonical renderings.
    #[test]
    fn same_seed_runs_produce_identical_trees(seed in 0u64..500) {
        let (a, txs_a) = traced_sim_run(seed, RbcKind::Bracha, 2, 2, 2);
        let (b, txs_b) = traced_sim_run(seed, RbcKind::Bracha, 2, 2, 2);
        prop_assert_eq!(txs_a, txs_b);
        prop_assert_eq!(a.canonical_lines(), b.canonical_lines());
    }
}

/// Different seeds must still share the *identity* space: trace ids are
/// derived from (proposer, epoch, batch_seq), never from the seed, so
/// cross-run correlation by trace id is meaningful.
#[test]
fn trace_ids_are_seed_independent() {
    let (a, _) = traced_sim_run(1, RbcKind::Bracha, 2, 2, 2);
    let (b, _) = traced_sim_run(99, RbcKind::Bracha, 2, 2, 2);
    assert_eq!(a.trace_ids(), b.trace_ids());
    // But the timings differ, so the canonical trees do not collide.
    assert_ne!(a.canonical_lines(), b.canonical_lines());
}
