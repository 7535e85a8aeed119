//! The three loopback-TCP workloads: cluster up, generator on, a
//! warm-up, a measured window fixed by the benchmark (not by an epoch
//! horizon), a drain, correctness checks.

use crate::check;
use crate::cluster::{Cluster, ClusterEnd, ClusterSpec};
use crate::loadgen::{Clock, Counters, Driver, LoadSpec, Record, Until};
use crate::procfs::{self, Cpu};
use crate::sink::BenchSink;
use crate::stats;
use crate::trace::{self, Phases};
use crate::wrap::{StepClass, StepStats};
use crate::Outcome;
use async_bft::obs::{MetricsSink, Obs, Tee, TraceSink};
use std::collections::BTreeMap;

/// Load runs this long before the window opens: connections are up,
/// the pipeline is full, allocator and caches are warm.
const WARMUP_US: u64 = 2_000_000;
/// After the window, how long outstanding requests may take to commit
/// before they count as failed.
const DRAIN_US: u64 = 5_000_000;
/// Longest a cluster may take from start to its first commit ack.
const SETUP_LIMIT_US: u64 = 30_000_000;
/// Throwaway clusters brought up before the measured one, so `setup_s`
/// is a median of this many + 1 set-ups rather than one draw.
const EXTRA_SETUPS: usize = 4;
/// The traced run first measures the heartbeat of an *untraced* cluster
/// for this long, to state its own overhead.
const REFERENCE_WINDOW_S: u64 = 4;
/// Width of the slices commit-latency quantiles are taken over.
const LATENCY_SLICE_US: u64 = 1_000_000;
/// On TCP one step in this many is timed (see [`crate::wrap::Timed`]).
const STEP_SAMPLE_EVERY: u64 = 64;

#[derive(Clone, Debug)]
pub struct TcpWorkload {
    pub cluster: ClusterSpec,
    pub load: LoadSpec,
}

/// Thread CPU over the window, split by who burned it.
#[derive(Clone, Copy, Debug, Default)]
struct CpuSplit {
    actor: Cpu,
    generator: Cpu,
    /// Every other thread: the per-node reactors (and the runtime's
    /// 1 ms completion monitor).
    reactor: Cpu,
    process: Cpu,
    threads: usize,
}

struct CpuProbe {
    threads: BTreeMap<u32, Cpu>,
    process: Cpu,
}

impl CpuProbe {
    fn take() -> Self {
        CpuProbe { threads: procfs::thread_cpu(), process: procfs::process_cpu() }
    }

    fn split_since(&self, start: &CpuProbe, actors: &[u32], generator: Option<u32>) -> CpuSplit {
        let mut split = CpuSplit {
            process: self.process.since(start.process),
            threads: start.threads.len(),
            ..CpuSplit::default()
        };
        for (tid, cpu) in &self.threads {
            let delta = cpu.since(start.threads.get(tid).copied().unwrap_or_default());
            let bucket = if actors.contains(tid) {
                &mut split.actor
            } else if Some(*tid) == generator {
                &mut split.generator
            } else {
                &mut split.reactor
            };
            bucket.user += delta.user;
            bucket.sys += delta.sys;
        }
        split
    }
}

/// Everything one cluster incarnation measured.
struct Measured {
    setup_s: f64,
    window_us: (u64, u64),
    records: Vec<Record>,
    late_us: Vec<u64>,
    counters: Counters,
    unacked: u64,
    epochs: u64,
    steps: StepStats,
    cpu: CpuSplit,
    end: ClusterEnd,
}

impl Measured {
    fn window_s(&self) -> f64 {
        (self.window_us.1 - self.window_us.0) as f64 / 1e6
    }

    fn epochs_per_s(&self) -> f64 {
        self.epochs as f64 / self.window_s()
    }
}

/// Brings a cluster up and times start → first commit ack.
fn set_up(
    w: &TcpWorkload,
    seed: u64,
    obs: Obs,
    sample_every: Option<u64>,
    clock: Clock,
) -> Result<(Cluster, Driver, f64), String> {
    let started = clock.now_us();
    let cluster = Cluster::start(&w.cluster, seed, obs, sample_every);
    let addrs = cluster.gateway_addrs()?;
    let mut driver =
        Driver::connect(w.load, &addrs, seed, clock).map_err(|e| format!("connect: {e}"))?;
    driver.run(started + SETUP_LIMIT_US, Until::FirstAck).map_err(|e| format!("generator: {e}"))?;
    if driver.gen.records.is_empty() {
        return Err("no commit ack within the set-up limit".into());
    }
    let setup_s = (clock.now_us() - started) as f64 / 1e6;
    Ok((cluster, driver, setup_s))
}

fn measure(
    w: &TcpWorkload,
    seed: u64,
    seconds: u64,
    obs: Obs,
    sample_every: Option<u64>,
    clock: Clock,
) -> Result<Measured, String> {
    let io = |e: std::io::Error| format!("generator: {e}");
    let (cluster, mut driver, setup_s) = set_up(w, seed, obs, sample_every, clock)?;

    driver.run(clock.now_us() + WARMUP_US, Until::Deadline).map_err(io)?;
    let generator_tid = procfs::current_tid();
    let cpu_start = sample_every.map(|_| CpuProbe::take());
    let (epochs_start, steps_start) = (cluster.epochs(), cluster.step_stats());
    let opened = clock.now_us();
    driver.run(opened + seconds * 1_000_000, Until::Deadline).map_err(io)?;
    let closed = clock.now_us();
    let epochs = cluster.epochs() - epochs_start;
    let steps = cluster.step_stats().since(&steps_start);
    let cpu = cpu_start
        .map(|start| CpuProbe::take().split_since(&start, &cluster.actor_tids(), generator_tid))
        .unwrap_or_default();

    driver.gen.stop_generating();
    driver.run(closed + DRAIN_US, Until::Idle).map_err(io)?;
    let unacked = driver.gen.outstanding() as u64;
    let end = cluster.stop()?;
    let gen = driver.gen;
    Ok(Measured {
        setup_s,
        window_us: (opened, closed),
        records: gen.records,
        late_us: gen.late_us,
        counters: gen.counters,
        unacked,
        epochs,
        steps,
        cpu,
        end,
    })
}

/// Commit latency (due → ack, ms, ascending) of the requests that fell
/// due inside `[lo, hi)`.
fn latencies_ms(m: &Measured, lo: u64, hi: u64) -> Vec<f64> {
    let mut ms: Vec<f64> = m
        .records
        .iter()
        .filter(|r| r.due_us >= lo && r.due_us < hi)
        .map(|r| (r.ack_us - r.due_us) as f64 / 1e3)
        .collect();
    stats::sort(&mut ms);
    ms
}

fn window_latencies_ms(m: &Measured) -> Vec<f64> {
    latencies_ms(m, m.window_us.0, m.window_us.1)
}

/// The `q` quantile of commit latency as the median over the window's
/// one-second slices of each slice's own quantile. Both cores run flat
/// out, so a neighbour's burst of CPU use stretches every epoch while
/// it lasts; the median over slices reports the cluster's latency
/// outside such episodes instead of averaging them in. Slices too thin
/// to support the quantile (fewer than ten samples beyond it) are
/// skipped.
fn sliced_latency_ms(m: &Measured, q: f64) -> f64 {
    let (lo, hi) = m.window_us;
    let per_slice: Vec<f64> = (lo..hi)
        .step_by(LATENCY_SLICE_US as usize)
        .map(|from| latencies_ms(m, from, (from + LATENCY_SLICE_US).min(hi)))
        .filter(|ms| stats::supports(ms.len(), q * 100.0))
        .map(|ms| stats::quantile_sorted(&ms, q))
        .collect();
    if per_slice.is_empty() {
        stats::quantile_sorted(&window_latencies_ms(m), q)
    } else {
        stats::median(&per_slice)
    }
}

/// Commit acks per second between the first and the last ack read in
/// the window. Acks arrive an epoch's batches at a time (several
/// hundred at once on the saturated workload), so counting against the
/// fixed window edges would quantise the rate by one burst either way.
fn committed_per_s(m: &Measured) -> f64 {
    let (lo, hi) = m.window_us;
    let acks = || m.records.iter().map(|r| r.ack_us).filter(|&t| t >= lo && t < hi);
    let (Some(first), Some(last)) = (acks().min(), acks().max()) else { return 0.0 };
    if last == first {
        return 0.0;
    }
    acks().filter(|&t| t > first).count() as f64 / ((last - first) as f64 / 1e6)
}

fn verdict(w: &TcpWorkload, seed: u64, m: &Measured, out: &mut Outcome) {
    out.attempted = m.counters.due;
    out.failed = m.unacked + m.counters.lost + m.counters.rejected;
    if m.counters.stray_acks > 0 {
        out.problems.push(format!("{} acks for requests never sent", m.counters.stray_acks));
    }
    out.problems.extend(check::cluster_end(&m.end));
    out.problems.extend(check::acked_in_log(&m.end, &m.records, seed, w.load.tx_bytes));
}

pub fn run_untraced(w: &TcpWorkload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let clock = Clock::start();
    let mut setups = Vec::new();
    for i in 0..EXTRA_SETUPS {
        let (cluster, _driver, setup_s) =
            set_up(w, seed.wrapping_add(1 + i as u64), Obs::disabled(), None, clock)?;
        cluster.stop()?;
        setups.push(setup_s);
    }
    let m = measure(w, seed, seconds, Obs::disabled(), None, clock)?;
    setups.push(m.setup_s);

    let mut out = Outcome::default();
    verdict(w, seed, &m, &mut out);
    let ms = window_latencies_ms(&m);
    if !stats::supports(ms.len(), 95.0) {
        out.problems.push(format!("{} latency samples cannot support a p95", ms.len()));
    }
    out.set("setup_s", stats::median(&setups));
    out.set("commit_latency_p50_ms", sliced_latency_ms(&m, 0.50));
    out.set("commit_latency_p95_ms", sliced_latency_ms(&m, 0.95));
    out.set("committed_tx_per_s", committed_per_s(&m));
    out.set("peak_rss_mib", procfs::peak_rss_mib());
    out.note(format!(
        "{} latency samples; {} epochs in {:.1} s; generator late p99 {:.3} ms",
        ms.len(),
        m.epochs,
        m.window_s(),
        late_p99_ms(&m)
    ));
    Ok(out)
}

fn late_p99_ms(m: &Measured) -> f64 {
    let late: Vec<f64> = m.late_us.iter().map(|&us| us as f64 / 1e3).collect();
    stats::quantile(&late, 0.99)
}

pub fn run_traced(name: &str, w: &TcpWorkload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let clock = Clock::start();
    let reference =
        measure(w, seed, REFERENCE_WINDOW_S.min(seconds), Obs::disabled(), None, clock)?;

    let sinks = Tee(MetricsSink::new(), Tee(TraceSink::new(), BenchSink::new(clock)));
    let (obs, shared) = Obs::new(sinks);
    let m = measure(w, seed, seconds, obs, Some(STEP_SAMPLE_EVERY), clock)?;
    let sinks = shared.try_into_inner().ok_or("an observer handle outlived the cluster")?;
    let Tee(metrics, Tee(spans, bench)) = sinks;
    let assembler = spans.into_assembler();
    let phases = Phases::of(&assembler);

    let mut out = Outcome::default();
    verdict(w, seed, &m, &mut out);
    if metrics.frame_decode_errors() > 0 {
        out.problems.push(format!("{} frame decode errors", metrics.frame_decode_errors()));
    }

    let ms = window_latencies_ms(&m);
    let (p_tail, tail_ms) = stats::supported_percentile(&ms, 99.0);
    out.set("loadgen.late_p99_ms", late_p99_ms(&m));
    out.set("loadgen.attempted", m.counters.due as f64);
    out.set("loadgen.deferred", m.counters.deferred as f64);
    out.set("loadgen.nacked", (m.counters.nacked_backpressure + m.counters.nacked_gap) as f64);
    out.set("loadgen.commit_latency_p99_ms", tail_ms);
    out.set("loadgen.latency_samples", ms.len() as f64);
    out.note(format!("loadgen.commit_latency_p99_ms is the p{p_tail} of {} samples", ms.len()));

    let requests = trace::request_spans(&m.records, &bench, m.window_us);
    out.set("gateway.admit_p50_ms", trace::child_p50_ms(&requests, |r| r.admit_us()));
    out.set("gateway.ack_p50_ms", trace::child_p50_ms(&requests, |r| r.ack_us()));
    let offers = metrics.gateway_accepted() + metrics.gateway_nacked();
    out.set("gateway.nack_share", share(metrics.gateway_nacked(), offers));
    out.note(format!(
        "{} requests traced; children tile each request span ({} had a gateway stamp clamped)",
        requests.len(),
        requests.iter().filter(|r| r.clamped).count()
    ));
    if late_p99_ms(&m) > 2.0 {
        out.note(
            "generator ran more than 2 ms late at p99: latency includes generator delay".into(),
        );
    }

    let live = (w.cluster.n - w.cluster.silent.len()) as f64;
    let epochs_observed = metrics.batches_submitted() as f64 / live;
    out.set("order.epochs_per_s", m.epochs_per_s());
    out.set("order.batch_wait_p50_ms", phases.p50(&["batch_wait"]) / 1e3);
    out.set(
        "order.batch_fill_share",
        metrics.txs_submitted() as f64
            / (epochs_observed * w.cluster.loaded as f64 * w.cluster.batch_max as f64).max(1.0),
    );
    out.set("order.empty_epoch_share", share(bench.empty_epochs, bench.epochs_committed));
    out.set("order.pipeline_occupancy_mean", metrics.pipeline_occupancy().mean());
    out.set("order.tick_steps", m.steps.steps[StepClass::Tick as usize] as f64);
    out.set("order.tick_busy_share", m.steps.busy_share(StepClass::Tick));

    let epochs = (m.epochs as f64).max(1.0);
    out.set("rbc.batch_msgs_per_epoch", m.steps.steps[StepClass::Rbc as usize] as f64 / epochs);
    out.set("rbc.batch_step_us_per_msg", m.steps.us_per_step(StepClass::Rbc));
    out.set("rbc.batch_busy_share", m.steps.busy_share(StepClass::Rbc));
    out.set("rbc.deliver_p50_ms", phases.p50(&["rbc_echo", "rbc_ready"]) / 1e3);
    out.set("core.aba_msgs_per_epoch", m.steps.steps[StepClass::Aba as usize] as f64 / epochs);
    out.set("core.aba_step_us_per_msg", m.steps.us_per_step(StepClass::Aba));
    out.set("core.aba_busy_share", m.steps.busy_share(StepClass::Aba));
    out.set("core.aba_rounds_mean", assembler.aba_round_counts().mean());
    out.set("core.aba_round_p50_ms", phases.p50(&["aba_round"]) / 1e3);
    out.set("coin.flips_per_epoch", phases.count("coin_wait") / live / epochs_observed.max(1.0));
    out.set("coin.wait_p50_ms", phases.p50(&["coin_wait"]) / 1e3);

    let (wire_msgs, wire_bytes) = metrics.msgs_by_kind().get("net").copied().unwrap_or((0, 0));
    let committed = metrics.gateway_committed().max(1) as f64;
    out.set("net.wire_msgs_per_tx", wire_msgs as f64 / committed);
    out.set("net.wire_bytes_per_tx", wire_bytes as f64 / committed);
    out.set("net.threads_peak", m.cpu.threads as f64);
    out.set("net.reconnects", metrics.peer_reconnects() as f64);
    out.set("net.decode_errors", metrics.frame_decode_errors() as f64);

    let process = m.cpu.process.total().max(1) as f64;
    let accounted = m.cpu.actor.total() + m.cpu.reactor.total() + m.cpu.generator.total();
    out.set("reactor.cpu_share", m.cpu.reactor.total() as f64 / process);
    out.set("reactor.sys_share", m.cpu.reactor.sys as f64 / process);
    out.set("actor.cpu_share", m.cpu.actor.total() as f64 / process);
    out.set(
        "actor.cpu_us_per_step",
        m.cpu.actor.total() as f64 / procfs::CLK_TCK * 1e6 / m.steps.total_steps().max(1) as f64,
    );
    out.set("loadgen.cpu_share", m.cpu.generator.total() as f64 / process);
    out.set("cpu.accounted_share", accounted as f64 / process);

    let (untraced, traced) = (reference.epochs_per_s(), m.epochs_per_s());
    out.set("obs.trace_overhead_share", (untraced - traced) / untraced.max(f64::MIN_POSITIVE));
    out.note(format!("epochs/s untraced {untraced:.2} vs traced {traced:.2}"));

    match trace::write(name, &requests, &[], &assembler) {
        Ok(path) => out.note(format!("trace written to {}", path.display())),
        Err(e) => out.note(format!("trace not written: {e}")),
    }
    Ok(out)
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
