//! `abnet` — run an asynchronous Byzantine consensus cluster over real
//! loopback TCP sockets from the command line.
//!
//! The sibling of `absim`: same protocol processes, but instead of the
//! deterministic simulator they run on the `bft-net` transport — framed
//! wire codec, authenticated handshake, full-mesh peer manager with
//! reconnect/backoff, and optional link-level chaos.
//!
//! ```text
//! abnet [--n N] [--seed S] [--ones K] [--fault KIND]...
//!       [--drop PER_MILLE] [--dup PER_MILLE] [--delay PER_MILLE]
//!       [--max-delay-ms MS] [--timeout-secs T] [--runs R]
//!       [--epochs E] [--batch B] [--pipeline D] [--rbc bracha|coded]
//!       [--clients C] [--rate TX_PER_S] [--load-ms MS] [--tx-bytes B]
//!       [--trace-out FILE] [--metrics-out FILE]
//!
//! KIND ∈ crash, mute, flip-value, random-value, always-flag, seesaw
//!        (each --fault corrupts the next lowest-indexed node)
//! ```
//!
//! `--trace-out FILE` streams every observability event (including the
//! causal-trace spans of `--epochs` ordering mode) as JSONL for the
//! `abtrace` analyzer. `--metrics-out FILE` writes a Prometheus
//! text-format snapshot of the aggregated metrics at exit.
//!
//! With `--epochs E` (E > 0) the binary runs the **atomic-broadcast**
//! engine (`bft-order`) over TCP instead of single-shot consensus: E
//! epochs of batched ACS, at most D epochs in flight (`--pipeline`; a
//! node opens one beside those in flight only for a full batch or after
//! a peer), batches of up to B payloads (`--batch`). The run line
//! reports the epochs opened, by trigger. Chaos flags compose with it;
//! `--fault`/`--ones` apply to the consensus mode only.
//!
//! With `--kv-workload` the binary runs the **replicated KV state
//! machine** (`bft-smr`) over TCP: every node orders a seeded operation
//! stream, applies it deterministically (consuming the ordered log as it
//! goes), and certifies an RBC-agreed checkpoint every
//! `--checkpoint-interval` epochs. `--restart-node` additionally crashes the
//! highest-indexed node early in the run and restarts it once the
//! survivors are done, forcing recovery through erasure-coded peer
//! state transfer from the latest certified checkpoint.
//!
//! With `--clients C` (C > 0) the binary runs the **client gateway**
//! scenario: a TCP cluster of gateway-wrapped ordering
//! processes, each with a real client-facing listener, driven by the
//! open-loop load generator (C simulated clients at `--rate`
//! submissions/s aggregate for `--load-ms`). The final line is a JSON
//! summary (`committed`, `nacked`, latency percentiles, epochs `opened`
//! by trigger, `anomalies`) for the CI smoke job; the exit code is
//! nonzero when nothing committed or an anomaly surfaced.
//!
//! Examples:
//!
//! ```text
//! abnet --n 4 --fault flip-value
//! abnet --n 7 --ones 3 --drop 100 --dup 50 --runs 5
//! abnet --n 4 --epochs 5 --batch 4 --pipeline 3 --drop 50
//! abnet --n 4 --kv-workload --checkpoint-interval 4 --restart-node
//! abnet --n 16 --clients 200 --rate 2000 --load-ms 2000
//! ```

use async_bft::adversary::{make_bracha_adversary, FaultKind};
use async_bft::coin::LocalCoin;
use async_bft::consensus::{BrachaOptions, BrachaProcess, Wire};
use async_bft::net::{ChaosConfig, NetRuntime};
use async_bft::obs::{JsonlSink, MetricsSink, Obs, SharedSink, Tee};
use async_bft::rbc::RbcKind;
use async_bft::types::{Config, Value};
use std::io::Write;
use std::time::Duration;

struct Options {
    n: usize,
    seed: u64,
    ones: Option<usize>,
    faults: Vec<FaultKind>,
    drop_per_mille: u16,
    dup_per_mille: u16,
    delay_per_mille: u16,
    max_delay_ms: u64,
    timeout_secs: u64,
    runs: u64,
    epochs: u64,
    batch: usize,
    pipeline: usize,
    rbc: RbcKind,
    kv_workload: bool,
    checkpoint_interval: u64,
    restart_node: bool,
    clients: u64,
    rate: u64,
    load_ms: u64,
    tx_bytes: usize,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

/// The per-run sink: metrics always (they feed the per-run summary
/// line), a JSONL event stream only when `--trace-out` is given.
type ExportSink = Tee<MetricsSink, Option<JsonlSink<Box<dyn Write + Send>>>>;

/// Builds the observer for one run. The trace file is truncated by the
/// first run and appended by later ones (single-run exports are what
/// `abtrace` expects).
fn export_obs(opts: &Options, run: u64) -> (Obs, SharedSink<ExportSink>) {
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
    Obs::new(Tee(MetricsSink::new(), jsonl))
}

/// The reactors' layer-ledger rows for a run line: what a frame cost
/// below the protocol.
fn reactor_summary(m: &MetricsSink) -> String {
    let r = m.reactor();
    let blocked = if r.reads == 0 { 0.0 } else { 100.0 * r.reads_blocked as f64 / r.reads as f64 };
    format!(
        "frames_per_write = {:.2}, blocked reads = {blocked:.1}% \
         (polls {}, reads {}, writes {}, frames {} in / {} out)",
        r.frames_per_write(),
        r.polls,
        r.reads,
        r.writes,
        r.frames_in,
        r.frames_out,
    )
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

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        n: 4,
        seed: 0,
        ones: None,
        faults: Vec::new(),
        drop_per_mille: 0,
        dup_per_mille: 0,
        delay_per_mille: 0,
        max_delay_ms: 2,
        timeout_secs: 60,
        runs: 1,
        epochs: 0,
        batch: 4,
        pipeline: 2,
        rbc: RbcKind::Bracha,
        kv_workload: false,
        checkpoint_interval: 4,
        restart_node: false,
        clients: 0,
        rate: 2000,
        load_ms: 2000,
        tx_bytes: 32,
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
            "--fault" => opts.faults.push(parse_fault(&value("--fault")?)?),
            "--drop" => {
                opts.drop_per_mille =
                    value("--drop")?.parse().map_err(|e| format!("--drop: {e}"))?
            }
            "--dup" => {
                opts.dup_per_mille = value("--dup")?.parse().map_err(|e| format!("--dup: {e}"))?
            }
            "--delay" => {
                opts.delay_per_mille =
                    value("--delay")?.parse().map_err(|e| format!("--delay: {e}"))?
            }
            "--max-delay-ms" => {
                opts.max_delay_ms =
                    value("--max-delay-ms")?.parse().map_err(|e| format!("--max-delay-ms: {e}"))?
            }
            "--timeout-secs" => {
                opts.timeout_secs =
                    value("--timeout-secs")?.parse().map_err(|e| format!("--timeout-secs: {e}"))?
            }
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
            "--clients" => {
                opts.clients = value("--clients")?.parse().map_err(|e| format!("--clients: {e}"))?
            }
            "--rate" => opts.rate = value("--rate")?.parse().map_err(|e| format!("--rate: {e}"))?,
            "--load-ms" => {
                opts.load_ms = value("--load-ms")?.parse().map_err(|e| format!("--load-ms: {e}"))?
            }
            "--tx-bytes" => {
                opts.tx_bytes =
                    value("--tx-bytes")?.parse().map_err(|e| format!("--tx-bytes: {e}"))?
            }
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
            "--help" | "-h" => {
                println!(
                    "usage: abnet [--n N] [--seed S] [--ones K] [--fault KIND]... \
                     [--drop PER_MILLE] [--dup PER_MILLE] [--delay PER_MILLE] \
                     [--max-delay-ms MS] [--timeout-secs T] [--runs R] \
                     [--epochs E] [--batch B] [--pipeline D] [--rbc bracha|coded] \
                     [--kv-workload] [--checkpoint-interval C] [--restart-node] \
                     [--clients C] [--rate TX_PER_S] [--load-ms MS] [--tx-bytes B] \
                     [--trace-out FILE] [--metrics-out FILE]\n\
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

/// The client-gateway mode: `--clients C` simulated clients submit
/// through real gateway sockets into a reactor cluster of
/// gateway-wrapped ordering processes; prints a machine-readable JSON
/// summary line for the CI smoke job.
fn run_gateway(opts: &Options) {
    use async_bft::net::LoadGenConfig;
    use async_bft::order::OrderOptions;
    use async_bft::{run_gateway_load, GatewayLoadOptions};

    if !opts.faults.is_empty() || opts.ones.is_some() || opts.kv_workload {
        eprintln!("error: --clients gateway mode composes only with ordering flags");
        std::process::exit(2);
    }
    let epochs = if opts.epochs > 0 { opts.epochs } else { 24 };
    let gl = GatewayLoadOptions {
        n: opts.n,
        seed: opts.seed,
        order: OrderOptions {
            batch_max: opts.batch.max(1),
            pipeline_depth: opts.pipeline.max(1),
            epochs,
            rbc: opts.rbc,
        },
        load: LoadGenConfig {
            clients: opts.clients,
            rate_tx_per_s: opts.rate.max(1),
            tx_bytes: opts.tx_bytes,
            duration_ms: opts.load_ms,
            ..LoadGenConfig::default()
        },
        timeout: Duration::from_secs(opts.timeout_secs),
    };
    println!(
        "gateway mode: n = {}, clients = {}, rate = {}/s for {} ms, epochs = {epochs}, \
         batch = {}, pipeline depth = {}",
        gl.n,
        gl.load.clients,
        gl.load.rate_tx_per_s,
        gl.load.duration_ms,
        gl.order.batch_max,
        gl.order.pipeline_depth,
    );
    let (obs, metrics) = export_obs(opts, 0);
    let outcome = match run_gateway_load(&gl, obs.clone()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: gateway setup: {e}");
            std::process::exit(2);
        }
    };
    drop(obs);
    let mut m = metrics.lock();
    if let Some(jsonl) = m.1.as_mut() {
        jsonl.flush();
    }
    write_metrics_out(opts, &mut m.0);
    let anomalies = outcome.anomalies();
    println!("reactor: {}", reactor_summary(&m.0));
    println!(
        "{{\"mode\":\"gateway\",\"n\":{},\"clients\":{},\"submitted\":{},\"committed\":{},\
         \"nacked\":{},\"rejected\":{},\"throttled\":{},\"p50_us\":{},\"p99_us\":{},\
         \"ordered_txs\":{},\"epochs\":{epochs},\
         \"opened\":{{\"idle\":{},\"full\":{},\"joined\":{}}},\
         \"anomalies\":{anomalies},\"elapsed_ms\":{}}}",
        gl.n,
        gl.load.clients,
        outcome.load.submitted,
        outcome.load.committed,
        outcome.load.nacked,
        outcome.load.rejected,
        outcome.load.throttled,
        outcome.load.p50_us,
        outcome.load.p99_us,
        outcome.ordered_txs.map_or(-1i64, |t| t as i64),
        outcome.opened.idle,
        outcome.opened.full,
        outcome.opened.joined,
        outcome.report.elapsed.as_millis(),
    );
    if anomalies > 0 || outcome.load.committed == 0 {
        std::process::exit(1);
    }
}

/// The atomic-broadcast mode: `--epochs E` epochs of batched ACS over
/// real loopback TCP, reporting ordered-log length and wall latency.
fn run_ordering(opts: &Options, chaos: &ChaosConfig) {
    use async_bft::coin::CommonCoin;
    use async_bft::order::{OrderLog, OrderMessage, OrderOptions, OrderProcess};
    use async_bft::OpenTally;

    if !opts.faults.is_empty() || opts.ones.is_some() {
        eprintln!("error: --fault/--ones apply to consensus mode, not --epochs ordering mode");
        std::process::exit(2);
    }
    let f_max = opts.n.saturating_sub(1) / 3;
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
        let (obs, metrics) = export_obs(opts, run);
        let opened = OpenTally::new();
        let mut rt: NetRuntime<OrderMessage, OrderLog> = NetRuntime::new(opts.n)
            .timeout(Duration::from_secs(opts.timeout_secs))
            .observer(obs.clone())
            .chaos(chaos.clone());
        for id in cfg.nodes() {
            let workload: Vec<Vec<u8>> = (0..order.epochs * order.batch_max as u64)
                .map(|i| format!("tx-{}-{i}", id.index()).into_bytes())
                .collect();
            let node = OrderProcess::new(cfg, id, order, workload, move |inst| {
                CommonCoin::new(seed, inst)
            })
            .with_obs(obs.clone());
            rt.add_process(Box::new(opened.watch(node, OrderProcess::opened)));
        }
        let report = rt.run();
        drop(obs);
        if report.all_correct_decided() {
            completed += 1;
        }
        if report.agreement_holds() {
            agreed += 1;
        }
        let txs = report.unanimous_output().map_or(0, |log| log.len());
        let mut m = metrics.lock();
        total.merge(&m.0);
        if let Some(jsonl) = m.1.as_mut() {
            jsonl.flush();
        }
        println!(
            "run {run:>3} (seed {seed}): txs ordered = {txs}, elapsed = {:?}, connects = {}, \
             epochs committed = {}, max pipeline occupancy = {}, opened = {}, seq gaps = {}, {}",
            report.elapsed,
            m.0.peer_connects(),
            m.0.epochs_committed(),
            m.0.max_pipeline_occupancy(),
            opened.total(),
            m.0.frame_sequence_gaps(),
            reactor_summary(&m.0),
        );
    }
    write_metrics_out(opts, &mut total);
    println!("\nsummary: {}/{} completed, {}/{} agreed", completed, opts.runs, agreed, opts.runs);
    if completed < opts.runs || agreed < opts.runs {
        std::process::exit(1);
    }
}

/// The replicated-state-machine mode: `--kv-workload` runs the KV state
/// machine over the ordered log on real loopback TCP — deterministic
/// apply, RBC-agreed checkpoints with log truncation, and (with
/// `--restart-node`) a crash plus state-transfer recovery of the
/// highest-indexed node.
fn run_smr(opts: &Options, chaos: &ChaosConfig) {
    use async_bft::coin::CommonCoin;
    use async_bft::net::RestartFactory;
    use async_bft::order::OrderOptions;
    use async_bft::smr::{seeded_workload, SmrMessage, SmrOptions, SmrOutput, SmrProcess};
    use async_bft::types::NodeId;

    if !opts.faults.is_empty() || opts.ones.is_some() {
        eprintln!("error: --fault/--ones apply to consensus mode, not --kv-workload mode");
        std::process::exit(2);
    }
    let f_max = opts.n.saturating_sub(1) / 3;
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

    // The victim crashes almost immediately (long before it can output)
    // and restarts only after the survivors have had time to certify
    // the final checkpoint, so recovery must go through erasure-coded
    // peer state transfer rather than live replay.
    let crash_at_ms = 30;
    let restart_at_ms = 1500;
    let mut completed = 0u64;
    let mut agreed = 0u64;
    let mut total = MetricsSink::new();
    for run in 0..opts.runs {
        let seed = opts.seed + run;
        let (obs, metrics) = export_obs(opts, run);
        let mut rt: NetRuntime<SmrMessage, SmrOutput> = NetRuntime::new(opts.n)
            .timeout(Duration::from_secs(opts.timeout_secs))
            .observer(obs.clone())
            .chaos(chaos.clone());
        let count = (epochs * smr.order.batch_max as u64) as usize;
        let make = move |id: NodeId, obs: Obs| {
            SmrProcess::new(cfg, id, smr, seeded_workload(seed, id, count), move |inst| {
                CommonCoin::new(seed, inst)
            })
            .with_obs(obs)
        };
        if opts.restart_node {
            let victim = NodeId::new(opts.n - 1);
            let obs_replacement = obs.clone();
            let factory: RestartFactory<SmrMessage, SmrOutput> =
                Box::new(move || Box::new(make(victim, obs_replacement).recovering(true)));
            rt = rt.restart_node(victim, crash_at_ms, restart_at_ms, factory);
        }
        for id in cfg.nodes() {
            rt.add_process(Box::new(make(id, obs.clone())));
        }
        let report = rt.run();
        drop(obs);
        if report.all_correct_decided() {
            completed += 1;
        }
        if report.agreement_holds() {
            agreed += 1;
        }
        let mut m = metrics.lock();
        total.merge(&m.0);
        if let Some(jsonl) = m.1.as_mut() {
            jsonl.flush();
        }
        match report.unanimous_output() {
            Some(out) => println!(
                "run {run:>3} (seed {seed}): state hash = {:016x}, epochs = {}, keys = {}, \
                 elapsed = {:?}, connects = {}",
                out.state_hash,
                out.epochs,
                out.keys,
                report.elapsed,
                m.0.peer_connects(),
            ),
            None => println!(
                "run {run:>3} (seed {seed}): NO unanimous state, elapsed = {:?}",
                report.elapsed,
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

    if opts.clients > 0 {
        run_gateway(&opts);
        return;
    }
    if opts.kv_workload {
        let chaos = ChaosConfig {
            seed: opts.seed,
            drop_per_mille: opts.drop_per_mille,
            dup_per_mille: opts.dup_per_mille,
            delay_per_mille: opts.delay_per_mille,
            max_delay_ms: opts.max_delay_ms,
            ..ChaosConfig::default()
        };
        run_smr(&opts, &chaos);
        return;
    }
    if opts.epochs > 0 {
        let chaos = ChaosConfig {
            seed: opts.seed,
            drop_per_mille: opts.drop_per_mille,
            dup_per_mille: opts.dup_per_mille,
            delay_per_mille: opts.delay_per_mille,
            max_delay_ms: opts.max_delay_ms,
            ..ChaosConfig::default()
        };
        run_ordering(&opts, &chaos);
        return;
    }

    let f_max = opts.n.saturating_sub(1) / 3;
    if opts.faults.len() > f_max {
        eprintln!(
            "error: {} faults exceed the resilience bound f = {f_max} for n = {}",
            opts.faults.len(),
            opts.n
        );
        std::process::exit(2);
    }
    let cfg = match Config::new(opts.n, f_max) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let chaos = ChaosConfig {
        seed: opts.seed,
        drop_per_mille: opts.drop_per_mille,
        dup_per_mille: opts.dup_per_mille,
        delay_per_mille: opts.delay_per_mille,
        max_delay_ms: opts.max_delay_ms,
        ..ChaosConfig::default()
    };
    println!(
        "n = {}, f-bound = {f_max}, actual faults = {}, chaos = {}",
        opts.n,
        opts.faults.len(),
        if chaos.enabled() {
            format!(
                "drop {}‰, dup {}‰, delay {}‰ (≤{} ms)",
                chaos.drop_per_mille,
                chaos.dup_per_mille,
                chaos.delay_per_mille,
                chaos.max_delay_ms
            )
        } else {
            "off".to_string()
        }
    );

    let ones = opts.ones.unwrap_or(opts.n / 2);
    let mut decided = 0u64;
    let mut agreed = 0u64;
    let mut total = MetricsSink::new();
    for run in 0..opts.runs {
        let seed = opts.seed + run;
        let (obs, metrics) = export_obs(&opts, run);
        let mut rt: NetRuntime<Wire, Value> = NetRuntime::new(opts.n)
            .timeout(Duration::from_secs(opts.timeout_secs))
            .observer(obs.clone())
            .chaos(chaos.clone());
        // Faults corrupt the lowest-indexed nodes, matching absim.
        for id in cfg.nodes() {
            let input = Value::from_bool(id.index() < ones);
            match opts.faults.get(id.index()) {
                Some(&kind) => {
                    rt.add_faulty_process(make_bracha_adversary(kind, cfg, id, input, seed))
                }
                None => rt.add_process(Box::new(BrachaProcess::new(
                    cfg,
                    id,
                    input,
                    LocalCoin::new(seed, id),
                    BrachaOptions::default(),
                ))),
            }
        }
        let report = rt.run();
        drop(obs);
        if report.all_correct_decided() {
            decided += 1;
        }
        if report.agreement_holds() {
            agreed += 1;
        }
        let mut m = metrics.lock();
        total.merge(&m.0);
        if let Some(jsonl) = m.1.as_mut() {
            jsonl.flush();
        }
        println!(
            "run {run:>3} (seed {seed}): decision = {:?}, elapsed = {:?}, connects = {}, \
             reconnects = {}, backoff retries = {}, frames dropped = {}, decode errors = {}",
            report.unanimous_output(),
            report.elapsed,
            m.0.peer_connects(),
            m.0.peer_reconnects(),
            m.0.backoff_retries(),
            m.0.chaos_frames_dropped(),
            m.0.frame_decode_errors(),
        );
    }

    write_metrics_out(&opts, &mut total);
    println!("\nsummary: {}/{} terminated, {}/{} agreed", decided, opts.runs, agreed, opts.runs);
    if decided < opts.runs || agreed < opts.runs {
        std::process::exit(1);
    }
}
