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
//! tick schedule. The run line ends with the epochs opened, by trigger.
//! `--fault`/`--ones`/`--schedule` apply to the consensus mode only.
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

use async_bft::obs::{JsonlSink, MetricsSink, Obs, SharedSink, Tee};
use async_bft::rbc::RbcKind;
use async_bft::{Cluster, CoinChoice, FaultKind, Schedule};
use std::io::Write;

struct Options {
    n: usize,
    seed: u64,
    ones: Option<usize>,
    coin: CoinChoice,
    schedule: Schedule,
    faults: Vec<FaultKind>,
    runs: u64,
    epochs: u64,
    batch: usize,
    pipeline: usize,
    rbc: RbcKind,
    kv_workload: bool,
    checkpoint_interval: u64,
    restart_node: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

/// The per-run export sink: metrics always, a JSONL event stream only
/// when `--trace-out` is given.
type ExportSink = Tee<MetricsSink, Option<JsonlSink<Box<dyn Write + Send>>>>;

/// Builds the observer for one run. Returns a disabled observer when
/// neither export flag is set, so the default path stays unobserved.
/// The trace file is truncated by the first run and appended by later
/// ones (single-run exports are what `abtrace` expects).
fn export_obs(opts: &Options, run: u64) -> (Obs, Option<SharedSink<ExportSink>>) {
    if opts.trace_out.is_none() && opts.metrics_out.is_none() {
        return (Obs::disabled(), None);
    }
    let jsonl = opts.trace_out.as_ref().map(|path| {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(run == 0)
            .append(run != 0)
            .open(path);
        match file {
            Ok(f) => {
                let out: Box<dyn Write + Send> = Box::new(std::io::BufWriter::new(f));
                JsonlSink::new(out)
            }
            Err(e) => {
                eprintln!("error: --trace-out {path}: {e}");
                std::process::exit(2);
            }
        }
    });
    let (obs, sink) = Obs::new(Tee(MetricsSink::new(), jsonl));
    (obs, Some(sink))
}

/// Folds one run's metrics into the exit total and flushes its JSONL
/// stream.
fn fold_export(total: &mut MetricsSink, sink: &Option<SharedSink<ExportSink>>) {
    if let Some(sink) = sink {
        let mut guard = sink.lock();
        total.merge(&guard.0);
        if let Some(jsonl) = guard.1.as_mut() {
            jsonl.flush();
        }
    }
}

/// Writes the Prometheus snapshot at exit when `--metrics-out` is set.
fn write_metrics_out(opts: &Options, total: &mut MetricsSink) {
    if let Some(path) = &opts.metrics_out {
        if let Err(e) = std::fs::write(path, total.render_prometheus()) {
            eprintln!("error: --metrics-out {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn parse_fault(s: &str) -> Result<FaultKind, String> {
    Ok(match s {
        "crash" => FaultKind::Crash { after: 40 },
        "mute" => FaultKind::Mute,
        "flip-value" => FaultKind::FlipValue,
        "random-value" => FaultKind::RandomValue,
        "always-flag" => FaultKind::AlwaysFlag,
        "seesaw" => FaultKind::Seesaw,
        other => return Err(format!("unknown fault kind: {other}")),
    })
}

fn parse_schedule(s: &str) -> Result<Schedule, String> {
    Ok(match s {
        "fixed" => Schedule::Fixed(1),
        "uniform" => Schedule::Uniform { min: 1, max: 20 },
        "split" => Schedule::Split { fast: 1, slow: 8 },
        "partition" => Schedule::Partition { near: 1, far: 100, heal_at: 300 },
        "favor" => Schedule::FavorFaulty { favored: 2, fast: 1, slow: 15 },
        other => return Err(format!("unknown schedule: {other}")),
    })
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        n: 7,
        seed: 0,
        ones: None,
        coin: CoinChoice::Local,
        schedule: Schedule::Uniform { min: 1, max: 20 },
        faults: Vec::new(),
        runs: 1,
        epochs: 0,
        batch: 4,
        pipeline: 2,
        rbc: RbcKind::Bracha,
        kv_workload: false,
        checkpoint_interval: 4,
        restart_node: false,
        trace_out: None,
        metrics_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--n" => opts.n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--ones" => {
                opts.ones = Some(value("--ones")?.parse().map_err(|e| format!("--ones: {e}"))?)
            }
            "--coin" => {
                opts.coin = match value("--coin")?.as_str() {
                    "local" => CoinChoice::Local,
                    "common" => CoinChoice::Common,
                    other => return Err(format!("unknown coin: {other}")),
                }
            }
            "--schedule" => opts.schedule = parse_schedule(&value("--schedule")?)?,
            "--fault" => opts.faults.push(parse_fault(&value("--fault")?)?),
            "--runs" => opts.runs = value("--runs")?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--epochs" => {
                opts.epochs = value("--epochs")?.parse().map_err(|e| format!("--epochs: {e}"))?
            }
            "--batch" => {
                opts.batch = value("--batch")?.parse().map_err(|e| format!("--batch: {e}"))?
            }
            "--pipeline" => {
                opts.pipeline =
                    value("--pipeline")?.parse().map_err(|e| format!("--pipeline: {e}"))?
            }
            "--rbc" => {
                let v = value("--rbc")?;
                opts.rbc = RbcKind::parse(&v)
                    .ok_or_else(|| format!("--rbc: expected bracha or coded, got {v}"))?;
            }
            "--kv-workload" => opts.kv_workload = true,
            "--checkpoint-interval" => {
                opts.checkpoint_interval = value("--checkpoint-interval")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-interval: {e}"))?
            }
            "--restart-node" => opts.restart_node = true,
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
            "--help" | "-h" => {
                println!(
                    "usage: absim [--n N] [--seed S] [--ones K] [--coin local|common] \
                     [--schedule fixed|uniform|split|partition|favor] [--fault KIND]... \
                     [--runs R] [--epochs E] [--batch B] [--pipeline D] \
                     [--rbc bracha|coded] [--kv-workload] [--checkpoint-interval C] \
                     [--restart-node] [--trace-out FILE] [--metrics-out FILE]\n\
                     --pipeline D is the maximum number of epochs in flight; beside those \
                     in flight a node opens another only for a full --batch or after a peer"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(opts)
}

/// The atomic-broadcast mode: `--epochs E` epochs of batched ACS over
/// the deterministic simulator, reporting ordered-log throughput.
fn run_ordering(opts: &Options) {
    use async_bft::coin::{CommonCoin, LocalCoin};
    use async_bft::order::{OrderOptions, OrderProcess};
    use async_bft::sim::{StopReason, UniformDelay, World, WorldConfig};
    use async_bft::types::Config;
    use async_bft::OpenTally;

    if !opts.faults.is_empty() || opts.ones.is_some() {
        eprintln!("error: --fault/--ones apply to consensus mode, not --epochs ordering mode");
        std::process::exit(2);
    }
    let f_max = (opts.n.saturating_sub(1)) / 3;
    let cfg = match Config::new(opts.n, f_max) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let order = OrderOptions {
        batch_max: opts.batch.max(1),
        pipeline_depth: opts.pipeline.max(1),
        epochs: opts.epochs,
        rbc: opts.rbc,
    };
    println!(
        "ordering mode: n = {}, f = {f_max}, epochs = {}, batch = {}, pipeline depth = {}, \
         rbc = {}",
        opts.n, order.epochs, order.batch_max, order.pipeline_depth, order.rbc
    );

    let mut completed = 0u64;
    let mut agreed = 0u64;
    let mut total = MetricsSink::new();
    for run in 0..opts.runs {
        let seed = opts.seed + run;
        let (obs, export) = export_obs(opts, run);
        let opened = OpenTally::new();
        let mut world = World::new(WorldConfig::new(opts.n), UniformDelay::new(1, 20, seed));
        world.set_observer(obs.clone());
        for id in cfg.nodes() {
            let workload: Vec<Vec<u8>> = (0..order.epochs * order.batch_max as u64)
                .map(|i| format!("tx-{}-{i}", id.index()).into_bytes())
                .collect();
            let common = matches!(opts.coin, CoinChoice::Common);
            let node = OrderProcess::new(
                cfg,
                id,
                order,
                workload,
                move |inst| -> Box<dyn async_bft::coin::CoinScheme + Send> {
                    if common {
                        Box::new(CommonCoin::new(seed, inst))
                    } else {
                        Box::new(LocalCoin::for_instance(seed, id, inst))
                    }
                },
            )
            .with_obs(obs.clone());
            world.add_process(Box::new(opened.watch(node, OrderProcess::opened)));
        }
        let report = world.run();
        fold_export(&mut total, &export);
        let txs = report.unanimous_output().map_or(0, |log| log.len() as u64);
        let ticks = report.end_time.ticks().max(1);
        if report.stop == StopReason::Completed && report.all_correct_decided() {
            completed += 1;
        }
        if report.agreement_holds() {
            agreed += 1;
        }
        println!(
            "run {run:>3} (seed {seed}): txs ordered = {txs}, ticks = {ticks}, \
             tx/kilotick = {:.2}, msgs = {}, opened = {}",
            txs as f64 * 1000.0 / ticks as f64,
            report.metrics.sent,
            opened.total(),
        );
    }
    write_metrics_out(opts, &mut total);
    println!("\nsummary: {}/{} completed, {}/{} agreed", completed, opts.runs, agreed, opts.runs);
    if completed < opts.runs || agreed < opts.runs {
        std::process::exit(1);
    }
}

/// The replicated-service mode: `--kv-workload` runs the bft-smr state
/// machine over the ordering engine, with RBC-agreed checkpoints every
/// `--checkpoint-interval` epochs; `--restart-node` crashes the
/// highest-indexed node mid-run and restarts it empty, forcing recovery
/// through peer state transfer.
fn run_smr(opts: &Options) {
    use async_bft::coin::{CommonCoin, LocalCoin};
    use async_bft::order::OrderOptions;
    use async_bft::sim::{SimTime, StopReason, UniformDelay, World, WorldConfig};
    use async_bft::smr::{seeded_workload, SmrOptions, SmrProcess};
    use async_bft::types::{Config, NodeId};

    if !opts.faults.is_empty() || opts.ones.is_some() {
        eprintln!("error: --fault/--ones apply to consensus mode, not --kv-workload mode");
        std::process::exit(2);
    }
    let f_max = (opts.n.saturating_sub(1)) / 3;
    let cfg = match Config::new(opts.n, f_max) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let epochs = if opts.epochs > 0 { opts.epochs } else { 8 };
    let smr = SmrOptions {
        order: OrderOptions {
            batch_max: opts.batch.max(1),
            pipeline_depth: opts.pipeline.max(1),
            epochs,
            rbc: opts.rbc,
        },
        checkpoint_interval: opts.checkpoint_interval.max(1),
    };
    println!(
        "state-machine mode: n = {}, f = {f_max}, epochs = {epochs}, checkpoint interval = {}, \
         rbc = {}, restart = {}",
        opts.n,
        smr.checkpoint_interval,
        smr.order.rbc,
        if opts.restart_node { "yes" } else { "no" },
    );

    // The victim crashes early (before it can output) and restarts much
    // later with empty state, so recovery must go through a certified
    // checkpoint fetched from the peers.
    let crash_tick = 120;
    let restart_tick = 2500;
    let mut completed = 0u64;
    let mut agreed = 0u64;
    let mut total = MetricsSink::new();
    for run in 0..opts.runs {
        let seed = opts.seed + run;
        let (obs, export) = export_obs(opts, run);
        let mut world = World::new(WorldConfig::new(opts.n), UniformDelay::new(1, 20, seed));
        world.set_observer(obs.clone());
        let common = matches!(opts.coin, CoinChoice::Common);
        let count = (epochs * smr.order.batch_max as u64) as usize;
        let make = move |id: NodeId, obs: Obs| {
            SmrProcess::new(
                cfg,
                id,
                smr,
                seeded_workload(seed, id, count),
                move |inst| -> Box<dyn async_bft::coin::CoinScheme + Send> {
                    if common {
                        Box::new(CommonCoin::new(seed, inst))
                    } else {
                        Box::new(LocalCoin::for_instance(seed, id, inst))
                    }
                },
            )
            .with_obs(obs)
        };
        for id in cfg.nodes() {
            world.add_process(Box::new(make(id, obs.clone())));
        }
        if opts.restart_node {
            let victim = NodeId::new(opts.n - 1);
            world.schedule_crash(victim, SimTime::from_ticks(crash_tick));
            let obs_replacement = obs.clone();
            world.schedule_restart(
                victim,
                SimTime::from_ticks(restart_tick),
                Box::new(move || Box::new(make(victim, obs_replacement).recovering(true))),
            );
        }
        let report = world.run();
        fold_export(&mut total, &export);
        let ticks = report.end_time.ticks().max(1);
        if report.stop == StopReason::Completed && report.all_correct_decided() {
            completed += 1;
        }
        if report.agreement_holds() {
            agreed += 1;
        }
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
    }
    write_metrics_out(opts, &mut total);
    println!("\nsummary: {}/{} completed, {}/{} agreed", completed, opts.runs, agreed, opts.runs);
    if completed < opts.runs || agreed < opts.runs {
        std::process::exit(1);
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if opts.kv_workload {
        run_smr(&opts);
        return;
    }
    if opts.epochs > 0 {
        run_ordering(&opts);
        return;
    }

    let f_max = (opts.n.saturating_sub(1)) / 3;
    if opts.faults.len() > f_max {
        eprintln!(
            "error: {} faults exceed the resilience bound f = {f_max} for n = {}",
            opts.faults.len(),
            opts.n
        );
        std::process::exit(2);
    }

    println!(
        "n = {}, f-bound = {f_max}, actual faults = {}, coin = {:?}, schedule = {:?}",
        opts.n,
        opts.faults.len(),
        opts.coin,
        opts.schedule
    );

    let mut decided = 0u64;
    let mut agreed = 0u64;
    let mut total_rounds = 0u64;
    let mut total_msgs = 0u64;
    let mut total = MetricsSink::new();
    for run in 0..opts.runs {
        let seed = opts.seed + run;
        let (obs, export) = export_obs(&opts, run);
        let mut cluster = match Cluster::new(opts.n) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        cluster = cluster
            .seed(seed)
            .split_inputs(opts.ones.unwrap_or(opts.n / 2))
            .coin(opts.coin)
            .schedule(opts.schedule)
            .observer(obs);
        for (i, &kind) in opts.faults.iter().enumerate() {
            cluster = cluster.fault(i, kind);
        }
        let report = cluster.run();
        fold_export(&mut total, &export);
        let ok = report.all_correct_decided();
        if ok {
            decided += 1;
            total_rounds += report.decision_round().unwrap_or(0);
        }
        if report.agreement_holds() {
            agreed += 1;
        }
        total_msgs += report.metrics.sent;
        println!(
            "run {run:>3} (seed {seed}): decision = {:?}, round = {:?}, msgs = {}, latency = {:?}",
            report.unanimous_output(),
            report.decision_round(),
            report.metrics.sent,
            report.decision_latency().map(|t| t.ticks()),
        );
    }

    write_metrics_out(&opts, &mut total);
    println!(
        "\nsummary: {}/{} terminated, {}/{} agreed, mean rounds = {:.2}, mean msgs = {:.0}",
        decided,
        opts.runs,
        agreed,
        opts.runs,
        total_rounds as f64 / decided.max(1) as f64,
        total_msgs as f64 / opts.runs as f64,
    );
}
