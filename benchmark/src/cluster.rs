//! A loopback-TCP reactor cluster of gateway-fronted ordering nodes,
//! built only from the program's public API (`NetRuntime`,
//! `GatewayProcess`, `OrderProcess`) plus the wrappers in [`crate::wrap`].

use crate::wrap::{Silent, StepStats, StopSnapshot, Timed, TimedShared};
use async_bft::coin::CommonCoin;
use async_bft::net::{GatewayPipe, NetDriver, NetRuntime};
use async_bft::obs::Obs;
use async_bft::order::gateway::GatewayProcess;
use async_bft::order::{OrderLog, OrderMessage, OrderOptions, OrderProcess};
use async_bft::rbc::RbcKind;
use async_bft::types::{Config, NodeId};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An epoch horizon no run reaches: the window, not the horizon, ends
/// the run (see [`StopSnapshot`]).
const UNREACHABLE_EPOCHS: u64 = 1 << 40;

/// Longest a cluster may live; far beyond any run, so hitting it means
/// the stop flag never produced outputs and the run is reported broken.
const CLUSTER_TIMEOUT: Duration = Duration::from_secs(150);

#[derive(Clone, Debug)]
pub struct ClusterSpec {
    pub n: usize,
    pub f: usize,
    /// Nodes that stay silent from the start (counted against `f`).
    pub silent: Vec<usize>,
    pub batch_max: usize,
    pub pipeline_depth: usize,
    /// Gateways `0..loaded` take client connections.
    pub loaded: usize,
}

/// What the cluster left behind once every correct node had surfaced
/// its log (field-for-field what the runtime's report carries).
#[derive(Debug)]
pub struct ClusterEnd {
    pub outputs: BTreeMap<NodeId, OrderLog>,
    pub correct: Vec<NodeId>,
    pub timed_out: bool,
    pub poisoned: bool,
}

pub struct Cluster {
    /// The loaded gateways' pipes.
    pipes: Vec<GatewayPipe>,
    stop: Arc<AtomicBool>,
    /// Per correct node: epochs appended so far.
    epochs: Vec<Arc<AtomicU64>>,
    /// Per correct node, in the traced run: step statistics and actor tid.
    timed: Vec<TimedShared>,
    thread: JoinHandle<Result<ClusterEnd, String>>,
}

impl Cluster {
    /// Builds the cluster and starts it on a thread of its own.
    /// `sample_every` wraps every correct node in [`Timed`].
    pub fn start(
        spec: &ClusterSpec,
        coin_seed: u64,
        obs: Obs,
        sample_every: Option<u64>,
    ) -> Cluster {
        let cfg = Config::new(spec.n, spec.f).expect("workload specs satisfy n >= 3f + 1");
        let order = OrderOptions {
            batch_max: spec.batch_max,
            pipeline_depth: spec.pipeline_depth,
            epochs: UNREACHABLE_EPOCHS,
            rbc: RbcKind::Bracha,
        };
        let pipes: Vec<GatewayPipe> = (0..spec.n).map(|_| GatewayPipe::new()).collect();
        let mut rt: NetRuntime<OrderMessage, OrderLog> = NetRuntime::new(spec.n)
            .timeout(CLUSTER_TIMEOUT)
            .observer(obs.clone())
            .driver(NetDriver::Reactor);
        for (i, pipe) in pipes.iter().enumerate().take(spec.loaded) {
            rt = rt.gateway(NodeId::new(i), pipe.clone());
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut epochs = Vec::new();
        let mut timed = Vec::new();
        for id in cfg.nodes() {
            if spec.silent.contains(&id.index()) {
                rt.add_faulty_process(Box::new(Silent(id)));
                continue;
            }
            let inner = OrderProcess::new(cfg, id, order, Vec::new(), move |inst| {
                CommonCoin::new(coin_seed, inst)
            })
            .with_obs(obs.clone());
            let gateway =
                GatewayProcess::new(inner, pipes[id.index()].clone()).with_obs(obs.clone());
            let (node, node_epochs) = StopSnapshot::new(gateway, Arc::clone(&stop));
            epochs.push(node_epochs);
            match sample_every {
                Some(every) => {
                    let (node, shared) = Timed::new(node, every);
                    timed.push(shared);
                    rt.add_process(Box::new(node));
                }
                None => rt.add_process(Box::new(node)),
            }
        }
        let thread = std::thread::spawn(move || {
            let report = rt.try_run().map_err(|e| e.to_string())?;
            Ok(ClusterEnd {
                outputs: report.outputs,
                correct: report.correct,
                timed_out: report.timed_out,
                poisoned: report.poisoned,
            })
        });
        let pipes = pipes.into_iter().take(spec.loaded).collect();
        Cluster { pipes, stop, epochs, timed, thread }
    }

    /// The loaded gateways' addresses, once their listeners are bound.
    pub fn gateway_addrs(&self) -> Result<Vec<SocketAddr>, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let addrs: Vec<SocketAddr> = self.pipes.iter().filter_map(GatewayPipe::addr).collect();
            if addrs.len() == self.pipes.len() {
                return Ok(addrs);
            }
            if self.thread.is_finished() || Instant::now() > deadline {
                return Err("gateway listeners never came up".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Epochs appended by the correct node that is furthest behind —
    /// the cluster's heartbeat as every correct node has seen it.
    pub fn epochs(&self) -> u64 {
        self.epochs.iter().map(|e| e.load(Ordering::Relaxed)).min().unwrap_or(0)
    }

    /// Step statistics summed over the correct nodes (traced run).
    pub fn step_stats(&self) -> StepStats {
        let mut sum = StepStats::default();
        for shared in &self.timed {
            sum.add(&shared.stats());
        }
        sum
    }

    /// The actor threads' tids (traced run).
    pub fn actor_tids(&self) -> Vec<u32> {
        self.timed.iter().filter_map(TimedShared::tid).collect()
    }

    /// Raises the stop flag and waits for the runtime to collect every
    /// correct node's log and tear the cluster down.
    pub fn stop(self) -> Result<ClusterEnd, String> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().map_err(|_| "cluster thread panicked".to_string())?
    }
}
