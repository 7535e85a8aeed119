//! The benchmark's fixed vocabulary: workloads, metric names, units and
//! regression bounds. `BENCHMARK.json` at the repository root states
//! the same names; a unit test keeps the two in step.

use crate::cluster::ClusterSpec;
use crate::loadgen::{Load, LoadSpec};
use crate::simrun::SimWorkload;
use crate::tcp::TcpWorkload;

/// Default length of the measured window (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Reported by every workload with
/// tracing off. One bound per metric covers all four workloads, so the
/// noisiest one sets it: the TCP clusters keep both of the sandbox's
/// cores busy whatever the load, and their wall-clock numbers drift
/// with the host by 10-13% (IQR over ten runs) where `sim7_bulk`'s
/// single thread stays within 3%.
pub const END_TO_END: &[Metric] = &[
    e2e("commit_latency_p50_ms", "ms", Lower, 0.25),
    e2e("commit_latency_p95_ms", "ms", Lower, 0.25),
    e2e("committed_tx_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers, from the traced run. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[Metric] = &[
    layer("loadgen.late_p99_ms", "ms", Lower),
    layer("loadgen.attempted", "count", Higher),
    layer("loadgen.deferred", "count", Lower),
    layer("loadgen.nacked", "count", Lower),
    layer("loadgen.commit_latency_p99_ms", "ms", Lower),
    layer("loadgen.latency_samples", "count", Higher),
    layer("loadgen.cpu_share", "share", Lower),
    layer("gateway.admit_p50_ms", "ms", Lower),
    layer("gateway.ack_p50_ms", "ms", Lower),
    layer("gateway.nack_share", "share", Lower),
    layer("gateway.offer_ns", "ns", Lower),
    layer("order.epochs_per_s", "1/s", Higher),
    layer("order.batch_wait_p50_ms", "ms", Lower),
    layer("order.batch_fill_share", "share", Higher),
    layer("order.empty_epoch_share", "share", Lower),
    layer("order.pipeline_occupancy_mean", "count", Higher),
    layer("order.tick_steps", "count", Lower),
    layer("order.tick_busy_share", "share", Lower),
    layer("order.commit_latency_p50_ticks", "ticks", Lower),
    layer("rbc.batch_msgs_per_epoch", "count", Lower),
    layer("rbc.batch_step_us_per_msg", "us", Lower),
    layer("rbc.batch_busy_share", "share", Lower),
    layer("rbc.deliver_p50_ms", "ms", Lower),
    layer("rbc.deliver_p50_ticks", "ticks", Lower),
    layer("core.aba_msgs_per_epoch", "count", Lower),
    layer("core.aba_step_us_per_msg", "us", Lower),
    layer("core.aba_busy_share", "share", Lower),
    layer("core.aba_rounds_mean", "count", Lower),
    layer("core.aba_round_p50_ms", "ms", Lower),
    layer("core.aba_round_p50_ticks", "ticks", Lower),
    layer("coin.flips_per_epoch", "count", Lower),
    layer("coin.wait_p50_ms", "ms", Lower),
    layer("ec.encode_mib_per_s", "MiB/s", Higher),
    layer("ec.reconstruct_mib_per_s", "MiB/s", Higher),
    layer("ec.merkle_verify_ns", "ns", Lower),
    layer("ec.reconstruct_bytes_per_tx", "B", Lower),
    layer("frame.encode_ns_64b", "ns", Lower),
    layer("frame.decode_ns_64b", "ns", Lower),
    layer("frame.checksum_ns_per_kib", "ns", Lower),
    layer("codec.order_msg_roundtrip_ns", "ns", Lower),
    layer("net.wire_msgs_per_tx", "count", Lower),
    layer("net.wire_bytes_per_tx", "B", Lower),
    layer("net.threads_peak", "count", Lower),
    layer("net.reconnects", "count", Lower),
    layer("net.decode_errors", "count", Lower),
    layer("reactor.cpu_share", "share", Lower),
    layer("reactor.sys_share", "share", Lower),
    layer("actor.cpu_share", "share", Lower),
    layer("actor.cpu_us_per_step", "us", Lower),
    layer("cpu.accounted_share", "share", Higher),
    layer("smr.apply_us_per_op", "us", Lower),
    layer("smr.snapshot_mib_per_s", "MiB/s", Higher),
    layer("smr.checkpoints_certified", "count", Higher),
    layer("smr.checkpoint_latency_p50_ticks", "ticks", Lower),
    layer("smr.step_busy_share", "share", Lower),
    layer("sim.msgs_per_tx", "count", Lower),
    layer("sim.bytes_per_tx", "B", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    layer("obs.trace_overhead_share", "share", Lower),
];

#[derive(Clone, Debug)]
pub enum Kind {
    Tcp(TcpWorkload),
    Sim(SimWorkload),
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    pub kind: Kind,
}

fn tcp(n: usize, f: usize, silent: &[usize], load: Load, clients: u64) -> Kind {
    Kind::Tcp(TcpWorkload {
        cluster: ClusterSpec {
            n,
            f,
            silent: silent.to_vec(),
            batch_max: 64,
            pipeline_depth: 4,
            loaded: 2,
        },
        load: LoadSpec { load, clients, window: 64, tx_bytes: 32 },
    })
}

/// The four workloads. TCP workloads inject no link delay, so their
/// latency is processor and scheduling time on the host's cores.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "tcp4_open",
            why: "n=4 TCP, 1 silent node, open loop 5000 tx/s: few messages per epoch, so epoch cadence, batch wait, gateway and reactor wake-ups set latency; message-count changes show least",
            kind: tcp(4, 1, &[3], Load::Open { rate_per_s: 5000 }, 64),
        },
        Workload {
            name: "tcp10_sat",
            why: "n=10 TCP, 3 silent nodes, closed loop 16 clients x 64 outstanding: saturated, n^4 ABA-over-RBC traffic does the work, so message-count, codec, checksum and syscall gains show here",
            kind: tcp(10, 3, &[7, 8, 9], Load::Closed, 16),
        },
        Workload {
            name: "tcp7_crash2",
            why: "n=7 TCP, 2 silent nodes, open loop 400 tx/s: every quorum needs every live node and the silent proposers' ABA instances run late on the input-0 path; latency below saturation",
            kind: tcp(7, 2, &[5, 6], Load::Open { rate_per_s: 400 }, 64),
        },
        Workload {
            name: "sim7_bulk",
            why: "n=7 simulator, coded RBC, 4 KiB puts, checkpoints: bypasses net entirely (a transport change must not move it); ec and smr do the work; clock in message steps",
            kind: Kind::Sim(SimWorkload {
                n: 7,
                f: 2,
                value_bytes: 4 << 10,
                key_space: 4096,
                batch_max: 64,
                pipeline_depth: 2,
                checkpoint_interval: 4,
                epochs: 8,
            }),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_bft::obs::json::JsonValue;
    use std::collections::BTreeSet;

    fn names(doc: &JsonValue, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let Some(JsonValue::Arr(items)) = doc.get(key) else { panic!("{key} is not an array") };
        items
            .iter()
            .map(|m| {
                let s =
                    |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap_or_default().to_string();
                (s("name"), s("unit"), s("better"), m.get("bound").and_then(JsonValue::as_f64))
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program reports. They must say the same thing.
    #[test]
    fn benchmark_json_matches_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(doc.get("run_seconds").and_then(JsonValue::as_u64), Some(RUN_SECONDS));
        let as_rows = |table: &[Metric], bounded: bool| -> Vec<_> {
            table
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        bounded.then_some(m.bound),
                    )
                })
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), as_rows(END_TO_END, true));
        assert_eq!(names(&doc, "per_layer"), as_rows(PER_LAYER, false));
        let Some(JsonValue::Arr(listed)) = doc.get("workloads") else { panic!("workloads") };
        let listed: Vec<(String, String)> = listed
            .iter()
            .map(|w| {
                let s =
                    |k: &str| w.get(k).and_then(JsonValue::as_str).unwrap_or_default().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> =
            workloads().iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn names_are_unique_short_and_bounded() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for w in workloads() {
            assert!(seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
