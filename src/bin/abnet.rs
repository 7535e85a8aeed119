//! `abnet` — run an asynchronous Byzantine consensus cluster over real
//! loopback TCP sockets from the command line.
//!
//! The sibling of `absim`: same protocol processes, but instead of the
//! deterministic simulator they run on the `bft-net` transport — framed
//! wire codec, authenticated handshake, full-mesh peer manager with
//! reconnect/backoff, and an optional per-link chaos delay. The flags,
//! modes, export and summary are `async_bft::harness`'s, shared with
//! `absim`; this binary holds the TCP run loop and run line for each mode.
//!
//! ```text
//! abnet [--n N] [--seed S] [--ones K] [--fault KIND]...
//!       [--delay PER_MILLE] [--max-delay-ms MS] [--timeout-secs T] [--runs R]
//!       [--epochs E] [--batch B] [--pipeline D] [--rbc bracha|coded]
//!       [--kv-workload] [--checkpoint-interval C] [--restart-node]
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
//! reports the epochs opened, by trigger. The delay flags compose with it;
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
//! abnet --n 7 --ones 3 --delay 100 --max-delay-ms 5 --runs 5
//! abnet --n 4 --epochs 5 --batch 4 --pipeline 3 --delay 100 --max-delay-ms 5
//! abnet --n 4 --kv-workload --checkpoint-interval 4 --restart-node
//! abnet --n 16 --clients 200 --rate 2000 --load-ms 2000
//! ```

use async_bft::adversary::make_bracha_adversary;
use async_bft::coin::LocalCoin;
use async_bft::consensus::{BrachaOptions, BrachaProcess, Wire};
use async_bft::harness::{self, Export, Mode, Options, SmrNodes};
use async_bft::net::{
    run_load, ChaosConfig, GatewayPipe, LoadGenConfig, LoadGenReport, NetRuntime, RestartFactory,
};
use async_bft::obs::{MetricsSink, Obs};
use async_bft::order::gateway::GatewayProcess;
use async_bft::order::{OpenCounts, OrderLog, OrderMessage, OrderProcess};
use async_bft::smr::{SmrMessage, SmrOutput};
use async_bft::types::Value;
use async_bft::CoinChoice;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The flags `abnet` accepts.
const SYNOPSIS: &str = "[--n N] [--seed S] [--ones K] [--fault KIND]... [--delay PER_MILLE] \
    [--max-delay-ms MS] [--timeout-secs T] [--runs R] [--epochs E] [--batch B] [--pipeline D] \
    [--rbc bracha|coded] [--kv-workload] [--checkpoint-interval C] [--restart-node] \
    [--clients C] [--rate TX_PER_S] [--load-ms MS] [--tx-bytes B] [--trace-out FILE] \
    [--metrics-out FILE]";

fn main() {
    let opts = Options::default().parse("abnet", SYNOPSIS);
    let chaos = ChaosConfig {
        seed: opts.seed,
        delay_per_mille: opts.delay_per_mille,
        max_delay_ms: opts.max_delay_ms,
    };
    match opts.mode() {
        Mode::Consensus => consensus(&opts, &chaos),
        Mode::Ordering => ordering(&opts, &chaos),
        Mode::Smr => smr(&opts, &chaos),
        Mode::Gateway => gateway(&opts),
    }
}

/// One run's loopback cluster, observed by `obs` and delayed by `chaos`.
fn runtime<M, O>(opts: &Options, obs: &Obs, chaos: &ChaosConfig) -> NetRuntime<M, O>
where
    M: async_bft::types::wire::Codec + Clone + std::fmt::Debug + Send + Sync + 'static,
    O: Clone + std::fmt::Debug + PartialEq + Send + 'static,
{
    NetRuntime::new(opts.n)
        .timeout(Duration::from_secs(opts.timeout_secs))
        .observer(obs.clone())
        .chaos(chaos.clone())
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

/// Single-shot binary consensus; `--fault`s corrupt the lowest-indexed
/// nodes, matching absim.
fn consensus(opts: &Options, chaos: &ChaosConfig) {
    let chaos_line = if chaos.enabled() {
        format!("delay {}‰ (≤{} ms)", chaos.delay_per_mille, chaos.max_delay_ms)
    } else {
        "off".to_string()
    };
    let cfg = opts.consensus(&format!("chaos = {chaos_line}"));
    let ones = opts.ones.unwrap_or(opts.n / 2);
    let tally = opts.runs(true, |run, seed, export| {
        let mut rt: NetRuntime<Wire, Value> = runtime(opts, &export.obs, chaos);
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
        let m = export.finish();
        println!(
            "run {run:>3} (seed {seed}): decision = {:?}, elapsed = {:?}, connects = {}, \
             reconnects = {}, backoff retries = {}, decode errors = {}",
            report.unanimous_output(),
            report.elapsed,
            m.peer_connects(),
            m.peer_reconnects(),
            m.backoff_retries(),
            m.frame_decode_errors(),
        );
        (report.all_correct_decided(), report.agreement_holds())
    });
    tally.exit("terminated");
}

/// The atomic-broadcast mode: `--epochs E` epochs of batched ACS over
/// real loopback TCP, reporting ordered-log length and wall latency.
fn ordering(opts: &Options, chaos: &ChaosConfig) {
    let (cfg, order) = opts.ordering();
    let tally = opts.runs(true, |run, seed, export| {
        let mut rt: NetRuntime<OrderMessage, OrderLog> = runtime(opts, &export.obs, chaos);
        for id in cfg.nodes() {
            let node = harness::order_node(cfg, id, order, CoinChoice::Common, seed, &export.obs);
            rt.add_process(Box::new(node));
        }
        let report = rt.run();
        let m = export.finish();
        println!(
            "run {run:>3} (seed {seed}): txs ordered = {}, elapsed = {:?}, connects = {}, \
             epochs committed = {}, max pipeline occupancy = {}, opened = {}, seq gaps = {}, {}",
            report.unanimous_output().map_or(0, |log| log.len()),
            report.elapsed,
            m.peer_connects(),
            m.epochs_committed(),
            m.max_pipeline_occupancy(),
            OpenCounts::from_triggers(|t| m.epochs_started_by(t)),
            m.frame_sequence_gaps(),
            reactor_summary(&m),
        );
        (report.all_correct_decided(), report.agreement_holds())
    });
    tally.exit("completed");
}

/// The replicated-state-machine mode: `--kv-workload` runs the KV state
/// machine over the ordered log on real loopback TCP. With
/// `--restart-node` the victim crashes almost immediately (long before it
/// can output) and restarts only after the survivors have had time to
/// certify the final checkpoint, so recovery must go through
/// erasure-coded peer state transfer rather than live replay.
fn smr(opts: &Options, chaos: &ChaosConfig) {
    let (cfg, smr) = opts.smr();
    let tally = opts.runs(true, |run, seed, export| {
        let nodes = SmrNodes::new(cfg, smr, CoinChoice::Common, seed);
        let mut rt: NetRuntime<SmrMessage, SmrOutput> = runtime(opts, &export.obs, chaos);
        if opts.restart_node {
            let (victim, restart) = nodes.restart(export.obs.clone());
            let factory: RestartFactory<SmrMessage, SmrOutput> =
                Box::new(move || Box::new(restart()));
            rt = rt.restart_node(victim, 30, 1500, factory);
        }
        for id in cfg.nodes() {
            rt.add_process(Box::new(nodes.node(id, export.obs.clone())));
        }
        let report = rt.run();
        let m = export.finish();
        match report.unanimous_output() {
            Some(out) => println!(
                "run {run:>3} (seed {seed}): state hash = {:016x}, epochs = {}, keys = {}, \
                 elapsed = {:?}, connects = {}",
                out.state_hash,
                out.epochs,
                out.keys,
                report.elapsed,
                m.peer_connects(),
            ),
            None => println!(
                "run {run:>3} (seed {seed}): NO unanimous state, elapsed = {:?}",
                report.elapsed,
            ),
        }
        (report.all_correct_decided(), report.agreement_holds())
    });
    tally.exit("completed");
}

/// The client-gateway mode: `--clients C` simulated clients submit
/// through real gateway sockets into a cluster of gateway-wrapped
/// ordering processes (empty mempools, a fixed epoch horizon). The open-
/// loop generator runs on a side thread; the final line is a JSON
/// summary for the CI smoke job.
fn gateway(opts: &Options) {
    let cfg = opts.config();
    let epochs = if opts.epochs > 0 { opts.epochs } else { 24 };
    let order = opts.order(epochs);
    let offered = LoadGenConfig {
        clients: opts.clients,
        rate_tx_per_s: opts.rate.max(1),
        tx_bytes: opts.tx_bytes,
        duration_ms: opts.load_ms,
        ..LoadGenConfig::default()
    };
    println!(
        "gateway mode: n = {}, clients = {}, rate = {}/s for {} ms, epochs = {epochs}, \
         batch = {}, pipeline depth = {}",
        opts.n,
        offered.clients,
        offered.rate_tx_per_s,
        offered.duration_ms,
        order.batch_max,
        order.pipeline_depth,
    );
    let mut export = Export::new(opts, true);
    let run = export.run(0);
    let pipes: Vec<GatewayPipe> = (0..opts.n).map(|_| GatewayPipe::new()).collect();
    let mut rt: NetRuntime<OrderMessage, OrderLog> = NetRuntime::new(opts.n)
        .timeout(Duration::from_secs(opts.timeout_secs))
        .observer(run.obs.clone());
    for (id, pipe) in cfg.nodes().zip(&pipes) {
        rt = rt.gateway(id, pipe.clone());
        let coin = harness::coin_for(CoinChoice::Common, opts.seed, id);
        let inner = OrderProcess::new(cfg, id, order, Vec::new(), coin).with_obs(run.obs.clone());
        rt.add_process(Box::new(
            GatewayProcess::new(inner, pipe.clone()).with_obs(run.obs.clone()),
        ));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let generator = {
        let (pipes, stop) = (pipes.clone(), Arc::clone(&stop));
        std::thread::spawn(move || {
            // The runtime publishes each gateway's address once its
            // listener is bound; wait for all of them (bounded — on a
            // setup error the main thread flips `stop`).
            let mut addrs = Vec::with_capacity(pipes.len());
            for _ in 0..2000 {
                addrs = pipes.iter().filter_map(|p| p.addr()).collect();
                if addrs.len() == pipes.len() || stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            if addrs.len() != pipes.len() {
                return LoadGenReport::default();
            }
            run_load(&addrs, &offered, &stop)
        })
    };
    let ran = rt.try_run();
    stop.store(true, Ordering::Relaxed);
    let load = generator.join().unwrap_or_default();
    let report = ran.unwrap_or_else(|e| harness::fail(format!("gateway setup: {e}")));
    let m = run.finish();
    export.write();

    // Never in a healthy run: disagreeing logs, a timed-out cluster, a
    // panicked runtime thread, or non-retryable client rejections.
    let anomalies = load.rejected
        + u64::from(!report.agreement_holds())
        + u64::from(report.timed_out)
        + u64::from(report.poisoned);
    let opened = OpenCounts::from_triggers(|t| m.epochs_started_by(t));
    println!("reactor: {}", reactor_summary(&m));
    println!(
        "{{\"mode\":\"gateway\",\"n\":{},\"clients\":{},\"submitted\":{},\"committed\":{},\
         \"nacked\":{},\"rejected\":{},\"throttled\":{},\"p50_us\":{},\"p99_us\":{},\
         \"ordered_txs\":{},\"epochs\":{epochs},\
         \"opened\":{{\"idle\":{},\"full\":{},\"joined\":{}}},\
         \"anomalies\":{anomalies},\"elapsed_ms\":{}}}",
        opts.n,
        opts.clients,
        load.submitted,
        load.committed,
        load.nacked,
        load.rejected,
        load.throttled,
        load.p50_us,
        load.p99_us,
        report.unanimous_output().map_or(-1i64, |log| log.len() as i64),
        opened.idle,
        opened.full,
        opened.joined,
        report.elapsed.as_millis(),
    );
    if anomalies > 0 || load.committed == 0 {
        std::process::exit(1);
    }
}
