//! Machine-readable run reports (`BENCH_*.json`).
//!
//! The tables in T1–T9 are rendered for humans; CI and downstream
//! analysis want numbers. This module runs the headline Bracha
//! configurations with a [`MetricsSink`] observer attached and renders
//! the aggregated per-round latency histograms and per-kind
//! message/byte counts as a single JSON document, written by the
//! `experiments` binary to `BENCH_bracha.json`.
//!
//! # Determinism and parallelism
//!
//! Each seed runs with its **own** `MetricsSink`; the per-seed sinks are
//! merged in ascending-seed order afterwards (see [`MetricsSink::merge`]).
//! Because the merge order is pinned, fanning the seeds out across worker
//! threads ([`run_config`]'s `jobs` parameter) produces the exact same
//! aggregate bytes as running them sequentially — the only fields that
//! may differ between invocations are the wall-clock measurements under
//! the `"timing"` and `"microbench"` keys, which are explicitly excluded
//! from the determinism guarantee (and from
//! [`ConfigOutcome::deterministic_fragment`]).

use crate::common::Mode;
use crate::hotpath;
use async_bft::Cluster;
use bft_obs::json::JsonValue;
use bft_obs::{MetricsSink, Obs};
use std::time::Instant;

/// One benchmark configuration: `n` nodes at maximum resilience
/// `f = ⌊(n−1)/3⌋`, unanimous-one inputs, uniform 1–20 tick delays.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Cluster size.
    pub n: usize,
    /// Seeds to aggregate over.
    pub seeds: u64,
}

/// The headline configurations the acceptance gate pins down:
/// Bracha at n=4/f=1 and n=16/f=5.
pub fn headline_configs(mode: Mode) -> Vec<BenchConfig> {
    let seeds = mode.seeds(10, 100) as u64;
    vec![BenchConfig { n: 4, seeds }, BenchConfig { n: 16, seeds }]
}

/// The CI smoke configuration: n=4/f=1 over a handful of seeds, small
/// enough to run in seconds on a cold runner.
pub fn smoke_configs() -> Vec<BenchConfig> {
    vec![BenchConfig { n: 4, seeds: 5 }]
}

/// Everything one seed's run contributes to the aggregate.
struct SeedOutcome {
    sink: MetricsSink,
    decided: bool,
    sent: u64,
    bytes_sent: u64,
    wall_nanos: u64,
}

fn run_seed(n: usize, seed: u64) -> SeedOutcome {
    let (obs, shared) = Obs::new(MetricsSink::new());
    let started = Instant::now();
    let report = Cluster::new(n).expect("n > 0").seed(seed).observer(obs.clone()).run();
    let wall_nanos = started.elapsed().as_nanos() as u64;
    drop(obs);
    let sink = shared.try_into_inner().expect("observer handles dropped with the world");
    SeedOutcome {
        sink,
        decided: report.all_correct_decided(),
        sent: report.metrics.sent,
        bytes_sent: report.metrics.bytes_sent,
        wall_nanos,
    }
}

/// The result of running one [`BenchConfig`]: a deterministic aggregate
/// fragment plus the (inherently non-deterministic) wall-clock numbers.
pub struct ConfigOutcome {
    fields: Vec<(String, JsonValue)>,
    /// Sum of per-seed wall-clock nanoseconds. Summing per-seed makes the
    /// figure independent of how many workers ran the seeds.
    pub wall_nanos: u64,
    /// Total `Decided` events across all seeds.
    pub decisions: u64,
}

impl ConfigOutcome {
    /// The aggregate without any timing fields — byte-identical across
    /// repeated runs regardless of `jobs`.
    pub fn deterministic_fragment(&self) -> JsonValue {
        JsonValue::Obj(self.fields.clone())
    }

    /// The full per-config report fragment, timing section included.
    pub fn fragment(&self) -> JsonValue {
        let mut fields = self.fields.clone();
        let per_decision_us = if self.decisions == 0 {
            0.0
        } else {
            self.wall_nanos as f64 / self.decisions as f64 / 1_000.0
        };
        fields.push((
            "timing".into(),
            JsonValue::Obj(vec![
                ("wall_clock_ms".into(), JsonValue::F64(self.wall_nanos as f64 / 1e6)),
                ("decisions".into(), JsonValue::U64(self.decisions)),
                ("wall_clock_per_decision_us".into(), JsonValue::F64(per_decision_us)),
            ]),
        ));
        JsonValue::Obj(fields)
    }
}

/// Runs one configuration, fanning the seeds across `jobs` worker
/// threads (1 = sequential). The merge order of the per-seed sinks is
/// pinned to ascending seed, so the aggregate is identical for any
/// `jobs` value.
pub fn run_config_outcome(cfg: BenchConfig, jobs: usize) -> ConfigOutcome {
    let seeds = cfg.seeds;
    let mut outcomes: Vec<Option<SeedOutcome>> = Vec::new();
    outcomes.resize_with(seeds as usize, || None);

    let jobs = jobs.max(1).min(seeds.max(1) as usize);
    if jobs <= 1 {
        for (i, slot) in outcomes.iter_mut().enumerate() {
            *slot = Some(run_seed(cfg.n, i as u64));
        }
    } else {
        // Contiguous chunks: worker w owns seeds [w*chunk, ...), writing
        // only into its own slice of the results, so no locks are needed
        // and the output layout is independent of scheduling.
        let chunk = outcomes.len().div_ceil(jobs);
        std::thread::scope(|s| {
            for (w, slice) in outcomes.chunks_mut(chunk).enumerate() {
                s.spawn(move || {
                    for (i, slot) in slice.iter_mut().enumerate() {
                        *slot = Some(run_seed(cfg.n, (w * chunk + i) as u64));
                    }
                });
            }
        });
    }

    let config = Cluster::new(cfg.n).expect("n > 0").config();
    let mut merged = MetricsSink::new();
    let mut decided_runs = 0u64;
    let mut sim_msgs = 0u64;
    let mut sim_bytes = 0u64;
    let mut wall_nanos = 0u64;
    // Pinned merge order: ascending seed.
    for outcome in outcomes.into_iter().map(|o| o.expect("every seed ran")) {
        merged.merge(&outcome.sink);
        decided_runs += u64::from(outcome.decided);
        sim_msgs += outcome.sent;
        sim_bytes += outcome.bytes_sent;
        wall_nanos += outcome.wall_nanos;
    }
    let decisions = merged.decide_times().len() as u64;
    let fields = vec![
        ("protocol".into(), JsonValue::str("bracha")),
        ("n".into(), JsonValue::U64(config.n() as u64)),
        ("f".into(), JsonValue::U64(config.f() as u64)),
        ("seeds".into(), JsonValue::U64(cfg.seeds)),
        ("decided_runs".into(), JsonValue::U64(decided_runs)),
        ("messages_sent".into(), JsonValue::U64(sim_msgs)),
        ("bytes_sent".into(), JsonValue::U64(sim_bytes)),
        ("metrics".into(), merged.to_json()),
    ];
    ConfigOutcome { fields, wall_nanos, decisions }
}

/// Runs one configuration and returns its JSON report fragment
/// (timing included).
pub fn run_config(cfg: BenchConfig, jobs: usize) -> JsonValue {
    run_config_outcome(cfg, jobs).fragment()
}

/// The hot-path microbenchmark section: ns/message figures for broadcast
/// fan-out and validator ingest (see [`crate::hotpath`]). Wall-clock —
/// excluded from the determinism guarantee.
pub fn microbench_section() -> JsonValue {
    JsonValue::Obj(vec![
        ("fanout_ns_per_msg_n16".into(), JsonValue::F64(hotpath::fanout_ns_per_msg(16, 20_000))),
        ("fanout_payload_bytes".into(), JsonValue::U64(hotpath::FANOUT_PAYLOAD_BYTES as u64)),
        (
            "validator_ingest_ns_per_msg_n16".into(),
            JsonValue::F64(hotpath::validator_ingest_ns_per_msg(16, 2_000)),
        ),
        (
            "validator_pending_ns_per_msg_n16".into(),
            JsonValue::F64(hotpath::validator_pending_ns_per_msg(16, 2_000)),
        ),
    ])
}

/// Decision latency of the same protocol over the real loopback TCP
/// transport (`bft-net`): n=4/f=1 Bracha clusters on actual sockets,
/// one cluster per seed. Wall-clock — excluded from the determinism
/// guarantee, like the `timing` and `microbench` sections.
pub fn net_loopback_section(runs: u64) -> JsonValue {
    use async_bft::coin::LocalCoin;
    use async_bft::consensus::{BrachaOptions, BrachaProcess};
    use async_bft::net::NetRuntime;
    use async_bft::types::{Config, Value};
    use std::time::Duration;

    let cfg = Config::new(4, 1).expect("4 >= 3f + 1");
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut decided = 0u64;
    let mut merged = MetricsSink::new();
    for seed in 0..runs {
        let (obs, shared) = Obs::new(MetricsSink::new());
        let mut rt =
            NetRuntime::new(cfg.n()).timeout(Duration::from_secs(60)).observer(obs.clone());
        for id in cfg.nodes() {
            rt.add_process(Box::new(BrachaProcess::new(
                cfg,
                id,
                Value::One,
                LocalCoin::new(seed, id),
                BrachaOptions::default(),
            )));
        }
        let report = rt.run();
        drop(obs);
        let sink = shared.try_into_inner().expect("observer handles dropped with the runtime");
        merged.merge(&sink);
        decided += u64::from(report.all_correct_decided());
        latencies_ms.push(report.elapsed.as_secs_f64() * 1e3);
    }
    let mean = latencies_ms.iter().sum::<f64>() / latencies_ms.len().max(1) as f64;
    let max = latencies_ms.iter().copied().fold(0.0f64, f64::max);
    JsonValue::Obj(vec![
        ("protocol".into(), JsonValue::str("bracha")),
        ("transport".into(), JsonValue::str("tcp-loopback")),
        ("n".into(), JsonValue::U64(cfg.n() as u64)),
        ("f".into(), JsonValue::U64(cfg.f() as u64)),
        ("runs".into(), JsonValue::U64(runs)),
        ("decided_runs".into(), JsonValue::U64(decided)),
        (
            "decision_latency_ms".into(),
            JsonValue::Obj(vec![
                ("mean".into(), JsonValue::F64(mean)),
                ("max".into(), JsonValue::F64(max)),
            ]),
        ),
        ("peer_connects".into(), JsonValue::U64(merged.peer_connects())),
        ("frame_decode_errors".into(), JsonValue::U64(merged.frame_decode_errors())),
    ])
}

/// One gateway load point: a loopback TCP cluster under the reactor
/// driver with an open-loop client load generator in front.
#[derive(Clone, Copy)]
struct GatewayPoint {
    n: usize,
    epochs: u64,
    pipeline_depth: usize,
    batch_max: usize,
    clients: u64,
    rate_tx_per_s: u64,
    duration_ms: u64,
    timeout_s: u64,
}

/// The gateway sweep by report mode. Epoch wall time grows as O(n⁴)
/// messages per epoch (every ABA step message rides a full O(n²) RBC —
/// see DESIGN.md "The n⁴ wall"), so the larger geometries run the
/// minimal committing configuration: pipeline depth 1 and two epochs,
/// of which the first is proposed empty before clients connect and the
/// second carries the client payload.
fn gateway_points(mode_label: &str) -> Vec<GatewayPoint> {
    let base = GatewayPoint {
        n: 16,
        epochs: 4,
        pipeline_depth: 2,
        batch_max: 8,
        clients: 64,
        rate_tx_per_s: 2_000,
        duration_ms: 10_000,
        timeout_s: 300,
    };
    if mode_label == "smoke" {
        // One small point that a cold CI runner finishes in seconds.
        return vec![GatewayPoint { epochs: 3, duration_ms: 3_000, timeout_s: 120, ..base }];
    }
    vec![
        base,
        GatewayPoint {
            n: 32,
            epochs: 2,
            pipeline_depth: 1,
            batch_max: 4,
            clients: 128,
            duration_ms: 20_000,
            timeout_s: 900,
            ..base
        },
        GatewayPoint {
            n: 64,
            epochs: 2,
            pipeline_depth: 1,
            batch_max: 4,
            clients: 256,
            duration_ms: 30_000,
            timeout_s: 3_600,
            ..base
        },
    ]
}

/// Client-gateway saturation throughput and submit→commit latency over
/// real loopback TCP under the reactor driver: an open-loop generator
/// submits from hundreds of simulated clients against every node's
/// gateway listener, and each row reports how many submissions came back
/// committed, at what latency, and with how many OS threads. Wall-clock
/// — excluded from the determinism guarantee, like `net_loopback`.
pub fn gateway_section(mode_label: &str) -> JsonValue {
    use async_bft::net::LoadGenConfig;
    use async_bft::order::OrderOptions;
    use async_bft::{run_gateway_load, GatewayLoadOptions};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let rows: Vec<JsonValue> = gateway_points(mode_label)
        .into_iter()
        .map(|p| {
            let opts = GatewayLoadOptions {
                n: p.n,
                seed: 7,
                order: OrderOptions {
                    batch_max: p.batch_max,
                    pipeline_depth: p.pipeline_depth,
                    epochs: p.epochs,
                    ..OrderOptions::default()
                },
                load: LoadGenConfig {
                    clients: p.clients,
                    rate_tx_per_s: p.rate_tx_per_s,
                    tx_bytes: 32,
                    duration_ms: p.duration_ms,
                    drain_ms: 2_000,
                    ..LoadGenConfig::default()
                },
                timeout: Duration::from_secs(p.timeout_s),
            };

            // Sample the process's peak thread count while the cluster
            // is up: the reactor acceptance figure (< 8 threads per
            // node) lands in the artifact instead of only in test logs.
            let stop = Arc::new(AtomicBool::new(false));
            let peak = Arc::new(AtomicU64::new(0));
            let sampler = {
                let (stop, peak) = (stop.clone(), peak.clone());
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        if let Some(t) = current_thread_count() {
                            peak.fetch_max(t, Ordering::Relaxed);
                        }
                        std::thread::sleep(Duration::from_millis(200));
                    }
                })
            };
            let out = run_gateway_load(&opts, Obs::disabled()).expect("gateway bench setup");
            stop.store(true, Ordering::Relaxed);
            let _ = sampler.join();

            let elapsed_s = out.report.elapsed.as_secs_f64().max(1e-9);
            let peak_threads = peak.load(Ordering::Relaxed);
            JsonValue::Obj(vec![
                ("n".into(), JsonValue::U64(p.n as u64)),
                ("epochs".into(), JsonValue::U64(p.epochs)),
                ("pipeline_depth".into(), JsonValue::U64(p.pipeline_depth as u64)),
                ("batch_max".into(), JsonValue::U64(p.batch_max as u64)),
                ("clients".into(), JsonValue::U64(p.clients)),
                ("offered_tx_per_s".into(), JsonValue::U64(p.rate_tx_per_s)),
                ("submitted".into(), JsonValue::U64(out.load.submitted)),
                ("committed".into(), JsonValue::U64(out.load.committed)),
                ("backpressure_nacks".into(), JsonValue::U64(out.load.nacked)),
                ("ordered_txs".into(), JsonValue::U64(out.ordered_txs.unwrap_or(0) as u64)),
                ("anomalies".into(), JsonValue::U64(out.anomalies())),
                ("elapsed_ms".into(), JsonValue::U64(out.report.elapsed.as_millis() as u64)),
                (
                    "saturation_committed_tx_per_s".into(),
                    JsonValue::F64(out.load.committed as f64 / elapsed_s),
                ),
                (
                    "submit_commit_latency_us".into(),
                    JsonValue::Obj(vec![
                        ("p50".into(), JsonValue::U64(out.load.p50_us)),
                        ("p99".into(), JsonValue::U64(out.load.p99_us)),
                    ]),
                ),
                ("peak_process_threads".into(), JsonValue::U64(peak_threads)),
                ("threads_per_node".into(), JsonValue::F64(peak_threads as f64 / p.n as f64)),
            ])
        })
        .collect();

    JsonValue::Obj(vec![
        ("protocol".into(), JsonValue::str("bracha-acs-order")),
        ("transport".into(), JsonValue::str("tcp-loopback-reactor")),
        ("generator".into(), JsonValue::str("open-loop")),
        ("points".into(), JsonValue::Arr(rows)),
    ])
}

/// Current thread count of this process (Linux `/proc`); `None` where
/// the proc filesystem is unavailable.
fn current_thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The fixed batch cap of the throughput section's workloads.
const THROUGHPUT_BATCH_MAX: usize = 4;

/// One deterministic ordering run (n=4/f=1, fixed seed and workload) at
/// the given pipeline depth: returns the merged sink, the ordered
/// payload count, the simulated ticks to completion, and whether every
/// correct node output the log.
fn ordering_run(epochs: u64, depth: usize) -> (MetricsSink, u64, u64, bool) {
    use async_bft::coin::CommonCoin;
    use async_bft::order::{OrderOptions, OrderProcess};
    use async_bft::sim::{UniformDelay, World, WorldConfig};
    use async_bft::types::Config;

    let cfg = Config::new(4, 1).expect("4 >= 3f + 1");
    let seed = 7u64;
    let opts = OrderOptions {
        batch_max: THROUGHPUT_BATCH_MAX,
        pipeline_depth: depth,
        epochs,
        ..OrderOptions::default()
    };
    let (obs, shared) = Obs::new(MetricsSink::new());
    let mut world = World::new(WorldConfig::new(cfg.n()), UniformDelay::new(1, 20, seed));
    world.set_observer(obs.clone());
    for id in cfg.nodes() {
        let workload: Vec<Vec<u8>> = (0..epochs * THROUGHPUT_BATCH_MAX as u64)
            .map(|i| format!("tx-{}-{i}", id.index()).into_bytes())
            .collect();
        world.add_process(Box::new(
            OrderProcess::new(cfg, id, opts, workload, move |inst| CommonCoin::new(seed, inst))
                .with_obs(obs.clone()),
        ));
    }
    let report = world.run();
    drop(obs);
    let sink = shared.try_into_inner().expect("observer handles dropped with the world");
    let ticks = report.end_time.ticks().max(1);
    let txs = report.unanimous_output().map_or(0, |log| log.len() as u64);
    (sink, txs, ticks, report.all_correct_decided())
}

/// Atomic-broadcast throughput over the deterministic sim substrate:
/// one epoch-pipelined ordering cluster (n=4/f=1) per pipeline depth,
/// identical seed and workload, `epochs` epochs each. Latency and
/// occupancy figures are simulated ticks via the observer clock, so —
/// unlike `timing`/`microbench`/`net_loopback` — this whole section is
/// covered by the determinism guarantee.
pub fn throughput_section(epochs: u64) -> JsonValue {
    let mut per_depth = Vec::new();
    for depth in [1usize, 4] {
        let (sink, txs, ticks, decided) = ordering_run(epochs, depth);
        let latency = sink.epoch_commit_latency();
        per_depth.push(JsonValue::Obj(vec![
            ("pipeline_depth".into(), JsonValue::U64(depth as u64)),
            ("decided".into(), JsonValue::U64(u64::from(decided))),
            ("txs_ordered".into(), JsonValue::U64(txs)),
            ("sim_ticks".into(), JsonValue::U64(ticks)),
            ("tx_per_kilotick".into(), JsonValue::F64(txs as f64 * 1000.0 / ticks as f64)),
            (
                "epoch_commit_latency_ticks".into(),
                JsonValue::Obj(vec![
                    ("mean".into(), JsonValue::F64(latency.mean())),
                    ("max".into(), JsonValue::F64(latency.max().unwrap_or(0.0))),
                ]),
            ),
            (
                "pipeline_occupancy".into(),
                JsonValue::Obj(vec![
                    ("mean".into(), JsonValue::F64(sink.pipeline_occupancy().mean())),
                    ("max".into(), JsonValue::U64(sink.max_pipeline_occupancy())),
                ]),
            ),
            ("epochs_committed".into(), JsonValue::U64(sink.epochs_committed())),
        ]));
    }
    JsonValue::Obj(vec![
        ("protocol".into(), JsonValue::str("bracha-acs-order")),
        ("substrate".into(), JsonValue::str("sim")),
        ("n".into(), JsonValue::U64(4)),
        ("f".into(), JsonValue::U64(1)),
        ("epochs".into(), JsonValue::U64(epochs)),
        ("batch_max".into(), JsonValue::U64(THROUGHPUT_BATCH_MAX as u64)),
        ("depths".into(), JsonValue::Arr(per_depth)),
    ])
}

/// One deterministic ordering run with the trace assembler attached
/// instead of the metrics sink: same n=4/f=1, seed-7, uniform 1–20 tick
/// configuration as [`ordering_run`], pipeline depth 2.
fn tracing_run(epochs: u64) -> bft_obs::TraceAssembler {
    use async_bft::coin::CommonCoin;
    use async_bft::order::{OrderOptions, OrderProcess};
    use async_bft::sim::{UniformDelay, World, WorldConfig};
    use async_bft::types::Config;
    use bft_obs::TraceSink;

    let cfg = Config::new(4, 1).expect("4 >= 3f + 1");
    let seed = 7u64;
    let opts = OrderOptions {
        batch_max: THROUGHPUT_BATCH_MAX,
        pipeline_depth: 2,
        epochs,
        ..OrderOptions::default()
    };
    let (obs, shared) = Obs::new(TraceSink::new());
    let mut world = World::new(WorldConfig::new(cfg.n()), UniformDelay::new(1, 20, seed));
    world.set_observer(obs.clone());
    for id in cfg.nodes() {
        let workload: Vec<Vec<u8>> = (0..epochs * THROUGHPUT_BATCH_MAX as u64)
            .map(|i| format!("tx-{}-{i}", id.index()).into_bytes())
            .collect();
        world.add_process(Box::new(
            OrderProcess::new(cfg, id, opts, workload, move |inst| CommonCoin::new(seed, inst))
                .with_obs(obs.clone()),
        ));
    }
    let _ = world.run();
    drop(obs);
    shared.try_into_inner().expect("observer handles dropped with the world").into_assembler()
}

/// The `"tracing"` section: per-phase p50/p99 span latencies, the
/// summed submit→commit critical-path breakdown, and the per-instance
/// ABA round-count distribution, from one traced ordering run. All
/// figures are simulated ticks via the observer clock, so the section
/// is covered by the determinism guarantee.
pub fn tracing_section(epochs: u64) -> JsonValue {
    tracing_run(epochs).to_json()
}

/// The payload sizes the `rbc_bytes` section sweeps, in KiB.
const RBC_BYTES_PAYLOAD_KIB: [usize; 3] = [1, 16, 64];

/// The cluster sizes the `rbc_bytes` section sweeps.
const RBC_BYTES_CLUSTERS: [usize; 2] = [4, 16];

/// Per-message envelope overhead of the mux framing on the real wire
/// (sender id + instance tag), added on top of the exact `RbcMessage`
/// encoding so the simulated byte counts match what `bft-net` ships.
const RBC_ENVELOPE_BYTES: usize = 12;

/// Byte-exact wire classifier for reliable-broadcast messages: the
/// `bft-net` codec encoding plus the mux envelope.
fn classify_rbc_bytes(msg: &async_bft::rbc::RbcMessage<Vec<u8>>) -> async_bft::sim::MsgClass {
    use async_bft::net::Codec;
    let mut buf = Vec::new();
    msg.encode(&mut buf);
    async_bft::sim::MsgClass { kind: msg.kind(), bytes: buf.len() + RBC_ENVELOPE_BYTES }
}

/// Outcome of one `rbc_bytes` cell: exact wire bytes, message count,
/// ticks until the last correct node delivered, and whether every node
/// delivered the broadcast payload byte-for-byte.
struct RbcBytesOutcome {
    bytes_on_wire: u64,
    messages: u64,
    decision_ticks: u64,
    delivered: bool,
    by_kind: std::collections::BTreeMap<&'static str, (u64, u64)>,
}

impl RbcBytesOutcome {
    fn to_json(&self) -> JsonValue {
        let kinds = self
            .by_kind
            .iter()
            .map(|(kind, &(count, bytes))| {
                (
                    (*kind).to_string(),
                    JsonValue::Obj(vec![
                        ("messages".into(), JsonValue::U64(count)),
                        ("bytes".into(), JsonValue::U64(bytes)),
                    ]),
                )
            })
            .collect();
        JsonValue::Obj(vec![
            ("bytes_on_wire".into(), JsonValue::U64(self.bytes_on_wire)),
            ("messages".into(), JsonValue::U64(self.messages)),
            ("decision_ticks".into(), JsonValue::U64(self.decision_ticks)),
            ("delivered".into(), JsonValue::Bool(self.delivered)),
            ("by_kind".into(), JsonValue::Obj(kinds)),
        ])
    }
}

/// Runs one reliable-broadcast instance (Bracha or coded) to completion
/// under the deterministic sim with a byte-exact wire classifier
/// installed. Node 0 broadcasts a `payload_len`-byte deterministic
/// pattern; uniform 1–20 tick delays, fixed seed — the whole cell is
/// covered by the determinism guarantee.
fn rbc_bytes_run(n: usize, payload_len: usize, kind: async_bft::rbc::RbcKind) -> RbcBytesOutcome {
    use async_bft::rbc::{CodedProcess, RbcKind, RbcProcess};
    use async_bft::sim::{UniformDelay, World, WorldConfig};
    use async_bft::types::{Config, NodeId};

    let cfg = Config::max_resilience(n).expect("n >= 4");
    let sender = NodeId::new(0);
    let payload: Vec<u8> =
        (0..payload_len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(7)).collect();

    let mut world = World::new(WorldConfig::new(n), UniformDelay::new(1, 20, 9));
    world.set_classifier(classify_rbc_bytes);
    for id in cfg.nodes() {
        let p = (id == sender).then(|| payload.clone());
        match kind {
            RbcKind::Bracha => {
                world.add_process(Box::new(RbcProcess::new(cfg, id, sender, p)));
            }
            RbcKind::Coded => {
                world.add_process(Box::new(CodedProcess::new(cfg, id, sender, p)));
            }
        }
    }
    let report = world.run();
    RbcBytesOutcome {
        bytes_on_wire: report.metrics.bytes_sent,
        messages: report.metrics.sent,
        decision_ticks: report.end_time.ticks(),
        delivered: report.all_correct_decided()
            && report.unanimous_output().as_deref() == Some(payload.as_slice()),
        by_kind: report.metrics.by_kind.clone(),
    }
}

/// The `"rbc_bytes"` section: bytes-on-wire and decision latency of one
/// reliable broadcast, Bracha vs erasure-coded, swept over payload size
/// and cluster size. Byte counts are the exact `bft-net` codec encoding
/// (plus mux envelope), so the coded-vs-Bracha ratios are the real wire
/// ratios. Fully deterministic.
///
/// The `headline` block pins the tentpole claim: at n=16/f=5 with a
/// 64 KiB payload, the coded broadcast ships at most 40% of Bracha's
/// bytes (the asymptotic gain is k = n − 2f = 6×; the measured ratio
/// includes echo amplification and commitment-proof overhead).
pub fn rbc_bytes_section() -> JsonValue {
    use async_bft::rbc::RbcKind;

    let mut sweeps = Vec::new();
    let mut headline_ratio = f64::NAN;
    for &n in &RBC_BYTES_CLUSTERS {
        let cfg = async_bft::types::Config::max_resilience(n).expect("n >= 4");
        for &kib in &RBC_BYTES_PAYLOAD_KIB {
            let payload_len = kib * 1024;
            let bracha = rbc_bytes_run(n, payload_len, RbcKind::Bracha);
            let coded = rbc_bytes_run(n, payload_len, RbcKind::Coded);
            let ratio = coded.bytes_on_wire as f64 / bracha.bytes_on_wire.max(1) as f64;
            if n == 16 && kib == 64 {
                headline_ratio = ratio;
            }
            sweeps.push(JsonValue::Obj(vec![
                ("n".into(), JsonValue::U64(n as u64)),
                ("f".into(), JsonValue::U64(cfg.f() as u64)),
                ("payload_bytes".into(), JsonValue::U64(payload_len as u64)),
                ("bracha".into(), bracha.to_json()),
                ("coded".into(), coded.to_json()),
                ("coded_to_bracha_byte_ratio".into(), JsonValue::F64(ratio)),
                ("coded_fewer_bytes".into(), JsonValue::Bool(ratio < 1.0)),
            ]));
        }
    }
    JsonValue::Obj(vec![
        ("protocol".into(), JsonValue::str("rbc")),
        ("substrate".into(), JsonValue::str("sim")),
        ("kinds".into(), JsonValue::Arr(vec![JsonValue::str("bracha"), JsonValue::str("coded")])),
        ("sweeps".into(), JsonValue::Arr(sweeps)),
        (
            "headline".into(),
            JsonValue::Obj(vec![
                ("n".into(), JsonValue::U64(16)),
                ("f".into(), JsonValue::U64(5)),
                ("payload_bytes".into(), JsonValue::U64(64 * 1024)),
                ("coded_to_bracha_byte_ratio".into(), JsonValue::F64(headline_ratio)),
                ("coded_bytes_leq_40pct_of_bracha".into(), JsonValue::Bool(headline_ratio <= 0.40)),
            ]),
        ),
    ])
}

/// One deterministic replicated-state-machine run over the sim
/// substrate: n=4/f=1, seed 7, seeded KV workload, checkpoint interval
/// 2, pipeline depth 2 — with the highest-indexed node crashed early
/// and restarted late, so rejoining goes through erasure-coded peer
/// state transfer from a certified checkpoint. Returns the merged sink,
/// the unanimous output, the simulated ticks to completion, and whether
/// every correct node (the recovered victim included) finished.
fn smr_run(epochs: u64) -> (MetricsSink, Option<async_bft::smr::SmrOutput>, u64, bool) {
    use async_bft::coin::CommonCoin;
    use async_bft::order::OrderOptions;
    use async_bft::sim::{SimTime, UniformDelay, World, WorldConfig};
    use async_bft::smr::{seeded_workload, SmrOptions, SmrProcess};
    use async_bft::types::{Config, NodeId};

    let cfg = Config::new(4, 1).expect("4 >= 3f + 1");
    let seed = 7u64;
    let opts = SmrOptions {
        order: OrderOptions {
            batch_max: THROUGHPUT_BATCH_MAX,
            pipeline_depth: 2,
            epochs,
            ..OrderOptions::default()
        },
        checkpoint_interval: 2,
    };
    let (obs, shared) = Obs::new(MetricsSink::new());
    let mut world = World::new(WorldConfig::new(cfg.n()), UniformDelay::new(1, 20, seed));
    world.set_observer(obs.clone());
    let count = (epochs * THROUGHPUT_BATCH_MAX as u64) as usize;
    let make = move |id: NodeId, obs: Obs| {
        SmrProcess::new(cfg, id, opts, seeded_workload(seed, id, count), move |inst| {
            CommonCoin::new(seed, inst)
        })
        .with_obs(obs)
    };
    for id in cfg.nodes() {
        world.add_process(Box::new(make(id, obs.clone())));
    }
    let victim = NodeId::new(cfg.n() - 1);
    world.schedule_crash(victim, SimTime::from_ticks(120));
    let obs_replacement = obs.clone();
    world.schedule_restart(
        victim,
        SimTime::from_ticks(1_500),
        Box::new(move || Box::new(make(victim, obs_replacement).recovering(true))),
    );
    let report = world.run();
    drop(obs);
    let sink = shared.try_into_inner().expect("observer handles dropped with the world");
    let ticks = report.end_time.ticks().max(1);
    (sink, report.unanimous_output(), ticks, report.all_correct_decided())
}

/// The `"state_machine"` section: applied-transaction throughput,
/// checkpoint certification latency, and crash-recovery catch-up bytes
/// from one deterministic replicated-KV run with a mid-run crash and
/// state-transfer rejoin. All figures are simulated ticks via the
/// observer clock, so the section is covered by the determinism
/// guarantee.
pub fn state_machine_section(epochs: u64) -> JsonValue {
    let (sink, out, ticks, decided) = smr_run(epochs);
    let latency = sink.checkpoint_latency();
    let applied = sink.slots_applied();
    JsonValue::Obj(vec![
        ("protocol".into(), JsonValue::str("bracha-smr-kv")),
        ("substrate".into(), JsonValue::str("sim")),
        ("n".into(), JsonValue::U64(4)),
        ("f".into(), JsonValue::U64(1)),
        ("epochs".into(), JsonValue::U64(epochs)),
        ("checkpoint_interval".into(), JsonValue::U64(2)),
        ("decided".into(), JsonValue::U64(u64::from(decided))),
        ("state_hash".into(), JsonValue::str(format!("{:016x}", out.map_or(0, |o| o.state_hash)))),
        ("sim_ticks".into(), JsonValue::U64(ticks)),
        ("slots_applied".into(), JsonValue::U64(applied)),
        ("applied_bytes".into(), JsonValue::U64(sink.applied_bytes())),
        ("applied_tx_per_kilotick".into(), JsonValue::F64(applied as f64 * 1000.0 / ticks as f64)),
        ("checkpoints_proposed".into(), JsonValue::U64(sink.checkpoints_proposed())),
        ("checkpoints_certified".into(), JsonValue::U64(sink.checkpoints_certified())),
        (
            "checkpoint_latency_ticks".into(),
            JsonValue::Obj(vec![
                ("mean".into(), JsonValue::F64(latency.mean())),
                ("max".into(), JsonValue::F64(latency.max().unwrap_or(0.0))),
            ]),
        ),
        ("state_transfers_completed".into(), JsonValue::U64(sink.state_transfers_completed())),
        ("catch_up_bytes".into(), JsonValue::U64(sink.state_transfer_bytes())),
    ])
}

/// Epoch count for the throughput section by report mode: smoke stays
/// small enough for a cold CI runner, full gets a longer pipeline.
fn throughput_epochs(mode_label: &str) -> u64 {
    match mode_label {
        "smoke" => 5,
        "full" => 12,
        _ => 8,
    }
}

/// Assembles a full report document over the given configurations.
pub fn report_for(configs: &[BenchConfig], mode_label: &str, jobs: usize) -> JsonValue {
    let fragments: Vec<JsonValue> = configs.iter().map(|&c| run_config(c, jobs)).collect();
    JsonValue::Obj(vec![
        ("suite".into(), JsonValue::str("bracha")),
        ("mode".into(), JsonValue::str(mode_label)),
        ("schema_version".into(), JsonValue::U64(3)),
        ("configs".into(), JsonValue::Arr(fragments)),
        ("microbench".into(), microbench_section()),
        ("net_loopback".into(), net_loopback_section(3)),
        ("gateway".into(), gateway_section(mode_label)),
        ("throughput".into(), throughput_section(throughput_epochs(mode_label))),
        ("rbc_bytes".into(), rbc_bytes_section()),
        ("tracing".into(), tracing_section(throughput_epochs(mode_label))),
        ("state_machine".into(), state_machine_section(throughput_epochs(mode_label))),
    ])
}

/// The full `BENCH_bracha.json` document.
pub fn bracha_report(mode: Mode, jobs: usize) -> JsonValue {
    let label = if mode == Mode::Full { "full" } else { "quick" };
    report_for(&headline_configs(mode), label, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_both_headline_configs() {
        // The headline configs at smoke-sized wall-clock sections: the
        // quick/full gateway sweep climbs to n=64 (minutes per point in
        // release, far worse in a debug test binary), so the shape check
        // runs the same assembly path with the small smoke points.
        let report = report_for(&headline_configs(Mode::Quick), "smoke", 2);
        let rendered = report.to_string();
        assert!(rendered.contains("\"suite\":\"bracha\""));
        assert!(rendered.contains("\"n\":4"));
        assert!(rendered.contains("\"n\":16"));
        assert!(rendered.contains("\"round_latency\""));
        assert!(rendered.contains("\"messages_by_kind\""));
        assert!(rendered.contains("echo/echo"));
        assert!(rendered.contains("\"timing\""));
        assert!(rendered.contains("\"microbench\""));
        assert!(rendered.contains("\"net_loopback\""));
        assert!(rendered.contains("\"transport\":\"tcp-loopback\""));
        assert!(rendered.contains("\"transport\":\"tcp-loopback-reactor\""));
        assert!(rendered.contains("\"saturation_committed_tx_per_s\""));
    }

    #[test]
    fn every_quick_run_decides() {
        let fragment = run_config(BenchConfig { n: 4, seeds: 3 }, 1).to_string();
        assert!(fragment.contains("\"decided_runs\":3"));
    }

    /// The acceptance gate for the ordering tentpole: a deeper pipeline
    /// overlaps epoch `e + 1`'s broadcast with epoch `e`'s agreement, so
    /// the same workload completes in fewer simulated ticks — higher
    /// throughput at equal delivered payload count.
    #[test]
    fn deeper_pipeline_raises_sim_throughput() {
        let (_, txs_seq, ticks_seq, decided_seq) = ordering_run(5, 1);
        let (sink, txs_deep, ticks_deep, decided_deep) = ordering_run(5, 4);
        assert!(decided_seq && decided_deep);
        assert_eq!(txs_seq, txs_deep, "pipelining must not change what gets ordered");
        assert!(
            ticks_deep < ticks_seq,
            "depth 4 should finish faster than sequential: {ticks_deep} vs {ticks_seq} ticks"
        );
        assert!(sink.max_pipeline_occupancy() > 1, "the deep run must actually overlap epochs");
        assert_eq!(sink.epochs_committed(), 5 * 4, "5 epochs at each of 4 nodes");
    }

    #[test]
    fn report_contains_the_throughput_section() {
        let rendered = throughput_section(3).to_string();
        assert!(rendered.contains("\"protocol\":\"bracha-acs-order\""));
        assert!(rendered.contains("\"pipeline_depth\":1"));
        assert!(rendered.contains("\"pipeline_depth\":4"));
        assert!(rendered.contains("\"tx_per_kilotick\""));
        assert!(rendered.contains("\"epoch_commit_latency_ticks\""));
        assert!(rendered.contains("\"pipeline_occupancy\""));
    }

    /// The tracing section is complete (no open spans, no anomalies,
    /// every trace's critical path accounted) and deterministic.
    #[test]
    fn tracing_section_is_complete_and_deterministic() {
        let asm = tracing_run(3);
        assert_eq!(asm.open_spans(), 0, "quiescence must close every span");
        assert_eq!(asm.duplicate_starts() + asm.unmatched_ends(), 0);
        assert_eq!(asm.trace_count(), 3 * 4, "one trace per (proposer, epoch)");
        for trace in asm.trace_ids() {
            let root = asm.root(trace).expect("every trace has a submit root");
            let end = root.end.expect("root closed");
            let path = asm.critical_path(trace).expect("complete critical path");
            let total: u64 = path.iter().map(|&(_, t)| t).sum();
            assert_eq!(total, end - root.start, "attribution sums to submit latency");
        }
        let rendered = tracing_section(3).to_string();
        assert_eq!(rendered, tracing_section(3).to_string(), "same seed, same bytes");
        assert!(rendered.contains("\"phase\":\"commit\""));
        assert!(rendered.contains("\"aba_rounds_per_instance\""));
    }

    /// The tentpole acceptance gate: at n=16/f=5 with a 64 KiB payload,
    /// the erasure-coded broadcast ships at most 40% of Bracha's bytes,
    /// both protocols deliver everywhere, and the section is
    /// deterministic.
    #[test]
    fn coded_rbc_meets_the_headline_byte_budget() {
        let rendered = rbc_bytes_section().to_string();
        assert!(rendered.contains("\"coded_bytes_leq_40pct_of_bracha\":true"), "{rendered}");
        assert!(!rendered.contains("\"delivered\":false"), "{rendered}");
        assert!(rendered.contains("\"rbc-cecho\""));
        assert_eq!(rendered, rbc_bytes_section().to_string(), "same seed, same bytes");
    }

    /// The coded broadcast's win grows with the payload: at n=16 the
    /// per-cell byte ratio must shrink monotonically as the payload
    /// sweeps 1 → 16 → 64 KiB (fixed per-message overhead amortizes).
    #[test]
    fn coded_advantage_grows_with_payload() {
        use async_bft::rbc::RbcKind;
        let mut ratios = Vec::new();
        for &kib in &RBC_BYTES_PAYLOAD_KIB {
            let bracha = rbc_bytes_run(16, kib * 1024, RbcKind::Bracha);
            let coded = rbc_bytes_run(16, kib * 1024, RbcKind::Coded);
            assert!(bracha.delivered && coded.delivered, "payload {kib} KiB");
            ratios.push(coded.bytes_on_wire as f64 / bracha.bytes_on_wire as f64);
        }
        assert!(
            ratios.windows(2).all(|w| w[1] < w[0]),
            "byte ratio must shrink with payload size: {ratios:?}"
        );
    }

    /// The state-machine section exercises the full recovery path — a
    /// certified checkpoint, a crash, and a completed state transfer
    /// with nonzero catch-up bytes — and is deterministic.
    #[test]
    fn state_machine_section_recovers_and_is_deterministic() {
        let (sink, out, _, decided) = smr_run(4);
        assert!(decided, "every correct node, the restarted one included, must finish");
        let out = out.expect("unanimous state across incarnations");
        assert_eq!(out.epochs, 4);
        assert!(sink.checkpoints_certified() >= 1, "interval 2 over 4 epochs certifies");
        assert_eq!(sink.state_transfers_completed(), 1, "the victim rejoins via transfer");
        assert!(sink.state_transfer_bytes() > 0, "catch-up must ship state bytes");
        assert!(sink.slots_applied() > 0);
        let rendered = state_machine_section(4).to_string();
        assert_eq!(rendered, state_machine_section(4).to_string(), "same seed, same bytes");
        assert!(rendered.contains("\"protocol\":\"bracha-smr-kv\""));
        assert!(rendered.contains("\"applied_tx_per_kilotick\""));
        assert!(rendered.contains("\"checkpoint_latency_ticks\""));
        assert!(rendered.contains("\"catch_up_bytes\""));
    }

    /// The acceptance gate for the parallel driver: byte-identical
    /// deterministic aggregates no matter how many workers ran the seeds.
    #[test]
    fn parallel_aggregate_is_byte_identical_to_sequential() {
        let cfg = BenchConfig { n: 4, seeds: 8 };
        let sequential = run_config_outcome(cfg, 1).deterministic_fragment().to_string();
        for jobs in [2, 3, 8] {
            let parallel = run_config_outcome(cfg, jobs).deterministic_fragment().to_string();
            assert_eq!(sequential, parallel, "jobs={jobs} diverged from sequential");
        }
    }
}
