//! `sim7_bulk`: the replicated KV state machine over coded RBC on the
//! deterministic simulator. One thread, no sockets, fixed work per
//! instance; instances (same seed, so the same inputs and the same
//! message schedule) repeat until the measured time is used up. Every
//! instance does the same work in the same order, so each piece of it —
//! one replica's one epoch, one stretch between two epochs — is timed
//! once per instance, and the report is built from each piece's median
//! over the instances: a host stall lands in one piece of one instance
//! and is voted out, where a median of whole instances keeps it as soon
//! as half of them were hit anywhere.

use crate::procfs;
use crate::stats;
use crate::trace::{self, Phases};
use crate::wrap::{EpochStamps, ReplicaLog, StepClass, StepStats, Timed, TimedShared};
use crate::{rng::Rng, Outcome};
use async_bft::coin::CommonCoin;
use async_bft::net::{Codec, FRAME_OVERHEAD};
use async_bft::obs::{MetricsSink, Obs, Tee, TraceCtx, TraceSink};
use async_bft::order::{OrderMessage, OrderOptions};
use async_bft::rbc::RbcKind;
use async_bft::sim::{MsgClass, StopReason, UniformDelay, World, WorldConfig};
use async_bft::smr::{KvOp, SmrMessage, SmrOptions, SmrOutput, SmrProcess};
use async_bft::types::{Config, NodeId};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct SimWorkload {
    pub n: usize,
    pub f: usize,
    pub value_bytes: usize,
    pub key_space: u64,
    pub batch_max: usize,
    pub pipeline_depth: usize,
    pub checkpoint_interval: u64,
    /// Epochs per instance: the fixed work.
    pub epochs: u64,
}

impl SimWorkload {
    fn txs_offered(&self) -> u64 {
        self.epochs * self.n as u64 * self.batch_max as u64
    }
}

/// Byte-exact wire size of a message as `bft-net` would frame it.
fn classify(msg: &SmrMessage) -> MsgClass {
    #[allow(unreachable_patterns)]
    let kind = match msg {
        SmrMessage::Order(OrderMessage::Batch(_)) => "order/batch",
        SmrMessage::Order(OrderMessage::Aba { .. }) => "order/aba",
        SmrMessage::Order(_) => "order/other",
        _ => "smr",
    };
    MsgClass { kind, bytes: msg.to_bytes().len() + FRAME_OVERHEAD }
}

/// What one instance produced.
struct Instance {
    setup_s: f64,
    run_s: f64,
    /// Per (node, epoch): wall ms from the node proposing the epoch to
    /// appending it.
    latencies_ms: Vec<f64>,
    /// `World::run` cut into consecutive stretches, wall ms: up to every
    /// replica having appended epoch 0, from there to epoch 1, ..., and
    /// from the last epoch to the end of the run. They sum to `run_s`.
    stretches_ms: Vec<f64>,
    applied: u64,
    output: Option<SmrOutput>,
    completed: bool,
    sent: u64,
    bytes_sent: u64,
    events: u64,
    steps: StepStats,
}

impl Instance {
    fn tx_per_s(&self) -> f64 {
        self.applied as f64 / self.run_s
    }
}

/// Txs applied per wall second of `World::run`, the run time taken as
/// the sum of each stretch's median over the instances.
fn tx_per_s(instances: &[Instance]) -> f64 {
    let run_ms: f64 = stats::median_per_position(instances, |i| &i.stretches_ms).iter().sum();
    instances[0].applied as f64 / (run_ms / 1e3)
}

/// The `q` quantile over (replica, epoch) pairs of commit latency, each
/// pair's latency taken as its median over the instances.
fn latency_quantile(instances: &[Instance], q: f64) -> f64 {
    stats::quantile(&stats::median_per_position(instances, |i| &i.latencies_ms), q)
}

fn run_instance(w: &SimWorkload, seed: u64, obs: Option<&Obs>) -> Instance {
    let origin = Instant::now();
    let cfg = Config::new(w.n, w.f).expect("workload spec satisfies n >= 3f + 1");
    let opts = SmrOptions {
        order: OrderOptions {
            batch_max: w.batch_max,
            pipeline_depth: w.pipeline_depth,
            epochs: w.epochs,
            rbc: RbcKind::Coded,
        },
        checkpoint_interval: w.checkpoint_interval,
    };
    let sched_seed = Rng::fork(seed, "scheduler").next_u64();
    let coin_seed = Rng::fork(seed, "coin").next_u64();
    let config = WorldConfig::new(w.n).max_delivered(u64::MAX);
    let mut world = World::new(config, UniformDelay::new(1, 20, sched_seed));
    let mut replicas: Vec<Arc<Mutex<ReplicaLog>>> = Vec::new();
    let mut timed: Vec<TimedShared> = Vec::new();
    if let Some(obs) = obs {
        world.set_observer(obs.clone());
        world.set_classifier(classify);
    }
    for id in cfg.nodes() {
        let mut rng = Rng::fork(seed, &format!("kv/{}", id.index()));
        let workload: Vec<Vec<u8>> = (0..w.epochs as usize * w.batch_max)
            .map(|_| {
                let key = format!("k{:04}", rng.below(w.key_space)).into_bytes();
                let mut value = vec![0u8; w.value_bytes];
                rng.fill(&mut value);
                KvOp::Put { key, value }.encode()
            })
            .collect();
        let mut replica =
            SmrProcess::new(cfg, id, opts, workload, move |inst| CommonCoin::new(coin_seed, inst));
        if let Some(obs) = obs {
            replica = replica.with_obs(obs.clone());
        }
        let (stamped, log) = EpochStamps::new(replica, origin);
        replicas.push(log);
        if obs.is_some() {
            let (node, shared) = Timed::new(stamped, 1);
            timed.push(shared);
            world.add_process(Box::new(node));
        } else {
            world.add_process(Box::new(stamped));
        }
    }
    let setup_s = origin.elapsed().as_secs_f64();
    let started_ns = origin.elapsed().as_nanos() as u64;
    let report = world.run();
    let run_s = origin.elapsed().as_secs_f64() - setup_s;

    let depth = w.pipeline_depth;
    let mut latencies_ms = Vec::new();
    let mut applied = u64::MAX;
    // Per epoch: when the last replica appended it.
    let mut appended_by_all_ns = vec![started_ns; w.epochs as usize];
    for log in &replicas {
        let log = log.lock().unwrap_or_else(|p| p.into_inner());
        applied = applied.min(log.applied_slots);
        for (all, &at) in appended_by_all_ns.iter_mut().zip(&log.committed_at_ns) {
            *all = (*all).max(at);
        }
        for (e, &at) in log.committed_at_ns.iter().enumerate() {
            // A node proposes epoch e the moment e - depth is appended
            // (the first `depth` epochs at start).
            let proposed = if e >= depth { log.committed_at_ns[e - depth] } else { started_ns };
            latencies_ms.push((at - proposed) as f64 / 1e6);
        }
    }
    let ended_ns = ((setup_s + run_s) * 1e9) as u64;
    let marks = std::iter::once(started_ns).chain(appended_by_all_ns).chain([ended_ns]);
    let stretches_ms: Vec<f64> = marks
        .clone()
        .zip(marks.skip(1))
        .map(|(from, to)| to.saturating_sub(from) as f64 / 1e6)
        .collect();
    let mut steps = StepStats::default();
    for shared in &timed {
        steps.add(&shared.stats());
    }
    Instance {
        setup_s,
        run_s,
        latencies_ms,
        stretches_ms,
        applied,
        output: report.unanimous_output(),
        completed: report.stop == StopReason::Completed,
        sent: report.metrics.sent,
        bytes_sent: report.metrics.bytes_sent,
        events: report.metrics.events,
        steps,
    }
}

fn verdict(w: &SimWorkload, instances: &[Instance], out: &mut Outcome) {
    out.attempted = w.txs_offered() * instances.len() as u64;
    out.failed = instances.iter().map(|i| w.txs_offered().saturating_sub(i.applied)).sum();
    for (k, i) in instances.iter().enumerate() {
        if !i.completed {
            out.problems.push(format!("instance {k} did not run to completion"));
        }
        match i.output {
            Some(o) if o.epochs == w.epochs => {}
            Some(o) => out.problems.push(format!(
                "instance {k}: unanimous output covers {} epochs, not {}",
                o.epochs, w.epochs
            )),
            None => out.problems.push(format!("instance {k}: replicas' outputs disagree")),
        }
        if i.output != instances[0].output || i.sent != instances[0].sent {
            out.problems.push(format!("instance {k} diverged from instance 0 on the same seed"));
        }
    }
}

fn medians(instances: &[Instance], f: impl Fn(&Instance) -> f64) -> f64 {
    stats::median(&instances.iter().map(f).collect::<Vec<_>>())
}

pub fn run_untraced(w: &SimWorkload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut instances = Vec::new();
    while instances.is_empty() || started.elapsed().as_secs() < seconds {
        instances.push(run_instance(w, seed, None));
    }
    let mut out = Outcome::default();
    verdict(w, &instances, &mut out);
    out.set("setup_s", medians(&instances, |i| i.setup_s));
    out.set("commit_latency_p50_ms", latency_quantile(&instances, 0.50));
    out.set("commit_latency_p95_ms", latency_quantile(&instances, 0.95));
    out.set("committed_tx_per_s", tx_per_s(&instances));
    out.set("peak_rss_mib", procfs::peak_rss_mib());
    out.note(format!(
        "{} instances of {} epochs; {} latency samples each",
        instances.len(),
        w.epochs,
        instances[0].latencies_ms.len()
    ));
    Ok(out)
}

pub fn run_traced(name: &str, w: &SimWorkload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let started = Instant::now();
    // The untraced reference: the process's second instance, because
    // the first one pays for faulting in ~400 MiB of fresh pages.
    run_instance(w, seed, None);
    let reference = run_instance(w, seed, None);

    // One observer per traced instance; the last one's sinks are read
    // back (same seed: every instance's counts are identical).
    let mut instances = Vec::new();
    let mut last_sinks = None;
    while instances.is_empty() || started.elapsed().as_secs() < seconds {
        let (obs, shared) = Obs::new(Tee(MetricsSink::new(), TraceSink::new()));
        instances.push(run_instance(w, seed, Some(&obs)));
        drop(obs);
        last_sinks = shared.try_into_inner();
    }
    let Tee(metrics, spans) = last_sinks.ok_or("an observer handle outlived the world")?;
    let assembler = spans.into_assembler();
    let phases = Phases::of(&assembler);
    let last = instances.last().expect("at least one instance ran");

    let mut out = Outcome::default();
    verdict(w, &instances, &mut out);
    let applied = last.applied.max(1) as f64;
    let epochs = w.epochs as f64;
    let ticks = metrics.epoch_commit_latency().values().to_vec();
    out.set("order.commit_latency_p50_ticks", stats::median(&ticks));
    out.set("order.epochs_per_s", medians(&instances, |i| epochs / i.run_s));
    out.set(
        "order.batch_fill_share",
        metrics.txs_submitted() as f64
            / (metrics.batches_submitted() as f64 * w.batch_max as f64).max(1.0),
    );
    out.set("order.pipeline_occupancy_mean", metrics.pipeline_occupancy().mean());
    out.set("rbc.batch_msgs_per_epoch", last.steps.steps[StepClass::Rbc as usize] as f64 / epochs);
    out.set(
        "rbc.batch_step_us_per_msg",
        medians(&instances, |i| i.steps.us_per_step(StepClass::Rbc)),
    );
    out.set("rbc.batch_busy_share", medians(&instances, |i| i.steps.busy_share(StepClass::Rbc)));
    out.set("rbc.deliver_p50_ticks", phases.p50(&["rbc_echo", "rbc_ready", "rbc_reconstruct"]));
    out.set("core.aba_msgs_per_epoch", last.steps.steps[StepClass::Aba as usize] as f64 / epochs);
    out.set(
        "core.aba_step_us_per_msg",
        medians(&instances, |i| i.steps.us_per_step(StepClass::Aba)),
    );
    out.set("core.aba_busy_share", medians(&instances, |i| i.steps.busy_share(StepClass::Aba)));
    out.set("core.aba_rounds_mean", assembler.aba_round_counts().mean());
    out.set("core.aba_round_p50_ticks", phases.p50(&["aba_round"]));
    out.set("coin.flips_per_epoch", phases.count("coin_wait") / w.n as f64 / epochs);
    out.set("ec.reconstruct_bytes_per_tx", metrics.rbc_reconstruct_bytes() as f64 / applied);
    out.set("smr.checkpoints_certified", metrics.checkpoints_certified() as f64);
    out.set(
        "smr.checkpoint_latency_p50_ticks",
        stats::median(metrics.checkpoint_latency().values()),
    );
    out.set("smr.step_busy_share", medians(&instances, |i| i.steps.busy_share(StepClass::Smr)));
    out.set("sim.msgs_per_tx", last.sent as f64 / applied);
    out.set("sim.bytes_per_tx", last.bytes_sent as f64 / applied);
    out.set("sim.events_per_s", medians(&instances, |i| i.events as f64 / i.run_s));
    let (untraced, traced) = (reference.tx_per_s(), tx_per_s(&instances));
    out.set("obs.trace_overhead_share", (untraced - traced) / untraced.max(f64::MIN_POSITIVE));
    out.note(format!(
        "{} traced instances; tx/s untraced {untraced:.1} vs traced {traced:.1}",
        instances.len()
    ));

    // The first epochs' span trees, every proposer's slot.
    let traces: Vec<(u64, u64)> = (0..w.epochs.min(4))
        .flat_map(|e| (0..w.n).map(move |p| (TraceCtx::derive(NodeId::new(p), e, e).trace, e)))
        .collect();
    match trace::write(name, &[], &traces, &assembler) {
        Ok(path) => out.note(format!("trace written to {}", path.display())),
        Err(e) => out.note(format!("trace not written: {e}")),
    }
    Ok(out)
}
