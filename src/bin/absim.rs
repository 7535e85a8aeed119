//! `absim` — run a simulated asynchronous Byzantine consensus cluster
//! from the command line.
//!
//! ```text
//! absim [--n N] [--seed S] [--ones K] [--coin local|common]
//!       [--schedule fixed|uniform|split|partition|favor]
//!       [--fault KIND]... [--runs R]
//!       [--epochs E] [--batch B] [--pipeline D] [--rbc bracha|coded]
//!       [--kv-workload] [--checkpoint-interval C] [--restart-node]
//!       [--trace-out FILE] [--metrics-out FILE]
//!
//! KIND ∈ crash, mute, flip-value, random-value, always-flag, seesaw
//!        (each --fault corrupts the next lowest-indexed node)
//! ```
//!
//! The flags, modes, export and summary are `async_bft::harness`'s, shared
//! with `abnet`; this binary holds the simulator's run loop and run line
//! for each mode.
//!
//! `--trace-out FILE` streams every observability event (including the
//! causal-trace spans of `--epochs` ordering mode) as JSONL, ready for
//! the `abtrace` analyzer. `--metrics-out FILE` writes a Prometheus
//! text-format snapshot of the aggregated metrics at exit.
//!
//! With `--epochs E` (E > 0) the binary switches from single-shot binary
//! consensus to the **atomic-broadcast** engine (`bft-order`): E epochs
//! of batched ACS with at most D epochs in flight (`--pipeline`; a node
//! opens one beside those in flight only for a full batch or after a
//! peer), batches of up to B payloads (`--batch`), over the uniform 1–20
//! tick schedule. The run line ends with the epochs opened, by trigger,
//! read from the run's metrics. `--fault`/`--ones`/`--schedule` apply to
//! the consensus mode only.
//!
//! With `--kv-workload` the ordered log feeds the **replicated key-value
//! state machine** (`bft-smr`): nodes apply a seeded put/cas/del
//! workload, consume the log as they apply it, and RBC-agree on
//! checkpoint hashes every `--checkpoint-interval` epochs.
//! `--restart-node` crashes the highest-indexed node early
//! and restarts it with empty state, exercising erasure-coded peer state
//! transfer.
//!
//! Examples:
//!
//! ```text
//! absim --n 7 --ones 3 --fault flip-value --fault seesaw --runs 10
//! absim --n 10 --coin common --schedule split
//! absim --n 4 --epochs 8 --batch 4 --pipeline 3
//! absim --kv-workload --checkpoint-interval 4 --restart-node
//! ```

use async_bft::harness::{self, Mode, Options, SmrNodes};
use async_bft::order::OpenCounts;
use async_bft::sim::{SimTime, StopReason, UniformDelay, World, WorldConfig};
use async_bft::Cluster;

/// The flags `absim` accepts.
const SYNOPSIS: &str = "[--n N] [--seed S] [--ones K] [--coin local|common] \
    [--schedule fixed|uniform|split|partition|favor] [--fault KIND]... [--runs R] [--epochs E] \
    [--batch B] [--pipeline D] [--rbc bracha|coded] [--kv-workload] [--checkpoint-interval C] \
    [--restart-node] [--trace-out FILE] [--metrics-out FILE]";

fn main() {
    let opts = Options { n: 7, ..Options::default() }.parse("absim", SYNOPSIS);
    match opts.mode() {
        Mode::Consensus => consensus(&opts),
        Mode::Ordering => ordering(&opts),
        Mode::Smr => smr(&opts),
        Mode::Gateway => unreachable!("absim takes no --clients"),
    }
}

/// Single-shot binary consensus through [`Cluster`].
fn consensus(opts: &Options) {
    let cfg = opts.consensus(&format!("coin = {:?}, schedule = {:?}", opts.coin, opts.schedule));
    let (mut rounds, mut msgs) = (0u64, 0u64);
    let tally = opts.runs(false, |run, seed, export| {
        let mut cluster = Cluster::with_config(cfg)
            .seed(seed)
            .split_inputs(opts.ones.unwrap_or(opts.n / 2))
            .coin(opts.coin)
            .schedule(opts.schedule)
            .observer(export.obs.clone());
        for (i, &kind) in opts.faults.iter().enumerate() {
            cluster = cluster.fault(i, kind);
        }
        let report = cluster.run();
        export.finish();
        let decided = report.all_correct_decided();
        if decided {
            rounds += report.decision_round().unwrap_or(0);
        }
        msgs += report.metrics.sent;
        println!(
            "run {run:>3} (seed {seed}): decision = {:?}, round = {:?}, msgs = {}, latency = {:?}",
            report.unanimous_output(),
            report.decision_round(),
            report.metrics.sent,
            report.decision_latency().map(|t| t.ticks()),
        );
        (decided, report.agreement_holds())
    });
    println!(
        "\n{}, mean rounds = {:.2}, mean msgs = {:.0}",
        tally.line("terminated"),
        rounds as f64 / tally.ok.max(1) as f64,
        msgs as f64 / opts.runs as f64,
    );
}

/// The atomic-broadcast mode: `--epochs E` epochs of batched ACS,
/// reporting ordered-log throughput.
fn ordering(opts: &Options) {
    let (cfg, order) = opts.ordering();
    let tally = opts.runs(true, |run, seed, export| {
        let mut world = World::new(WorldConfig::new(opts.n), UniformDelay::new(1, 20, seed));
        world.set_observer(export.obs.clone());
        for id in cfg.nodes() {
            let node = harness::order_node(cfg, id, order, opts.coin, seed, &export.obs);
            world.add_process(Box::new(node));
        }
        let report = world.run();
        let metrics = export.finish();
        let txs = report.unanimous_output().map_or(0, |log| log.len() as u64);
        let ticks = report.end_time.ticks().max(1);
        println!(
            "run {run:>3} (seed {seed}): txs ordered = {txs}, ticks = {ticks}, \
             tx/kilotick = {:.2}, msgs = {}, opened = {}",
            txs as f64 * 1000.0 / ticks as f64,
            report.metrics.sent,
            OpenCounts::from_triggers(|t| metrics.epochs_started_by(t)),
        );
        (
            report.stop == StopReason::Completed && report.all_correct_decided(),
            report.agreement_holds(),
        )
    });
    tally.exit("completed");
}

/// The replicated-service mode: `--kv-workload` runs the bft-smr state
/// machine over the ordering engine; `--restart-node` crashes the victim
/// early (before it can output) and restarts it much later with empty
/// state, so recovery must go through a certified checkpoint fetched
/// from the peers.
fn smr(opts: &Options) {
    let (cfg, smr) = opts.smr();
    let tally = opts.runs(false, |run, seed, export| {
        let nodes = SmrNodes::new(cfg, smr, opts.coin, seed);
        let mut world = World::new(WorldConfig::new(opts.n), UniformDelay::new(1, 20, seed));
        world.set_observer(export.obs.clone());
        for id in cfg.nodes() {
            world.add_process(Box::new(nodes.node(id, export.obs.clone())));
        }
        if opts.restart_node {
            let (victim, restart) = nodes.restart(export.obs.clone());
            world.schedule_crash(victim, SimTime::from_ticks(120));
            world.schedule_restart(
                victim,
                SimTime::from_ticks(2500),
                Box::new(move || Box::new(restart())),
            );
        }
        let report = world.run();
        export.finish();
        let ticks = report.end_time.ticks().max(1);
        match report.unanimous_output() {
            Some(out) => println!(
                "run {run:>3} (seed {seed}): state hash = {:016x}, epochs = {}, keys = {}, \
                 ticks = {ticks}, msgs = {}",
                out.state_hash, out.epochs, out.keys, report.metrics.sent,
            ),
            None => println!(
                "run {run:>3} (seed {seed}): NO unanimous state (stop = {:?}), ticks = {ticks}",
                report.stop,
            ),
        }
        (
            report.stop == StopReason::Completed && report.all_correct_decided(),
            report.agreement_holds(),
        )
    });
    tally.exit("completed");
}
