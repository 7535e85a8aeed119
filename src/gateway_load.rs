//! One-stop harness for the **client-gateway** scenario: a reactor
//! cluster of [`GatewayProcess`] nodes fronted by real gateway sockets,
//! driven by the open-loop load generator from `bft_net::gateway`.
//!
//! The flow, end to end:
//!
//! 1. Build an `n`-node [`NetRuntime`] on the reactor driver with one
//!    [`GatewayPipe`] per node.
//! 2. Wrap each node's [`OrderProcess`] in a [`GatewayProcess`] so
//!    client submissions drain into its mempool with per-client
//!    sequencing.
//! 3. Spawn [`run_load`] on a side thread: it waits for the gateway
//!    listeners to come up, then submits at a fixed aggregate rate and
//!    matches commit acks back to submissions.
//! 4. Run the cluster to completion (a fixed epoch horizon) and join
//!    the generator.
//!
//! Used by the `abnet --clients` mode, the `gateway` benchmark section,
//! and the CI smoke job.

use crate::coin::CommonCoin;
use crate::net::{
    GatewayPipe, LoadGenConfig, LoadGenReport, NetRuntime, RuntimeReport, SetupError,
};
use crate::obs::Obs;
use crate::order::gateway::GatewayProcess;
use crate::order::{OpenCounts, OrderLog, OrderOptions, OrderProcess};
use crate::types::{Config, NodeId};
use crate::OpenTally;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Knobs for [`run_gateway_load`].
#[derive(Clone, Debug)]
pub struct GatewayLoadOptions {
    /// Cluster size.
    pub n: usize,
    /// Seed for the common coin.
    pub seed: u64,
    /// Ordering-engine configuration (epoch horizon bounds the run).
    pub order: OrderOptions,
    /// Load-generator configuration.
    pub load: LoadGenConfig,
    /// Cluster run timeout (should exceed the load duration plus drain).
    pub timeout: Duration,
}

impl Default for GatewayLoadOptions {
    fn default() -> Self {
        GatewayLoadOptions {
            n: 4,
            seed: 7,
            order: OrderOptions {
                batch_max: 16,
                pipeline_depth: 4,
                epochs: 24,
                ..OrderOptions::default()
            },
            load: LoadGenConfig::default(),
            timeout: Duration::from_secs(60),
        }
    }
}

/// What one gateway-load run produced.
#[derive(Debug)]
pub struct GatewayLoadOutcome {
    /// The cluster's runtime report (unanimity, timeout, poisoning).
    pub report: RuntimeReport<OrderLog>,
    /// The load generator's view (submitted/committed/nacked, latency).
    pub load: LoadGenReport,
    /// Length of the unanimous ordered log, when there is one.
    pub ordered_txs: Option<usize>,
    /// Epochs opened across the cluster, by trigger: why the pipeline was
    /// as deep as it was.
    pub opened: OpenCounts,
}

impl GatewayLoadOutcome {
    /// Conditions that should never occur in a healthy run: disagreeing
    /// logs, a timed-out cluster, a panicked runtime thread, or
    /// non-retryable client rejections.
    pub fn anomalies(&self) -> u64 {
        let mut count = self.load.rejected;
        if !self.report.agreement_holds() {
            count += 1;
        }
        if self.report.timed_out {
            count += 1;
        }
        if self.report.poisoned {
            count += 1;
        }
        count
    }
}

/// Runs one gateway-load scenario; see the module docs for the flow.
///
/// `obs` observes the cluster (transport + ordering + gateway events);
/// pass [`Obs::disabled`] to run dark.
///
/// # Panics
///
/// Panics when `opts.n` does not admit a valid configuration (`n = 0`).
pub fn run_gateway_load(
    opts: &GatewayLoadOptions,
    obs: Obs,
) -> Result<GatewayLoadOutcome, SetupError> {
    let f_max = opts.n.saturating_sub(1) / 3;
    let cfg = match Config::new(opts.n, f_max) {
        Ok(c) => c,
        Err(e) => panic!("gateway load: config for n = {}: {e}", opts.n),
    };
    let seed = opts.seed;
    let order = opts.order;

    let pipes: Vec<GatewayPipe> = (0..opts.n).map(|_| GatewayPipe::new()).collect();
    let mut rt: NetRuntime<_, OrderLog> =
        NetRuntime::new(opts.n).timeout(opts.timeout).observer(obs.clone());
    for (i, pipe) in pipes.iter().enumerate() {
        rt = rt.gateway(NodeId::new(i), pipe.clone());
    }
    let opened = OpenTally::new();
    for id in cfg.nodes() {
        let inner =
            OrderProcess::new(cfg, id, order, Vec::new(), move |inst| CommonCoin::new(seed, inst))
                .with_obs(obs.clone());
        let pipe = pipes.get(id.index()).cloned().unwrap_or_default();
        let gateway = GatewayProcess::new(inner, pipe).with_obs(obs.clone());
        rt.add_process(Box::new(opened.watch(gateway, |g| g.inner().opened())));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let generator = {
        let pipes = pipes.clone();
        let load = opts.load;
        let stop = Arc::clone(&stop);
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
            crate::net::run_load(&addrs, &load, &stop)
        })
    };

    let ran = rt.try_run();
    stop.store(true, Ordering::Relaxed);
    let load = generator.join().unwrap_or_default();
    let report = ran?;
    let ordered_txs = report.unanimous_output().map(|log| log.len());
    Ok(GatewayLoadOutcome { report, load, ordered_txs, opened: opened.total() })
}
