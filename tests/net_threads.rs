//! The TCP substrate's thread budget: one thread per node.
//!
//! A file of its own, so that no other test's threads run in this
//! process while it counts `/proc/self/task`.

use async_bft::coin::CommonCoin;
use async_bft::net::NetRuntime;
use async_bft::order::{OrderLog, OrderMessage, OrderOptions, OrderProcess};
use async_bft::rbc::RbcKind;
use async_bft::types::Config;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Threads of this process right now; `None` without procfs.
fn threads() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

/// An n=16 ordering run over TCP never has more than n + 2 threads
/// beyond those alive before it: one per node, with the calling thread
/// as the completion monitor.
#[test]
fn an_ordering_run_uses_one_thread_per_node() {
    let n = 16;
    let done = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let (done, peak) = (Arc::clone(&done), Arc::clone(&peak));
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                peak.fetch_max(threads().unwrap_or(0), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };
    // The sampler is counted in the baseline, as it is in every sample.
    let Some(baseline) = threads() else { return };

    let cfg = Config::max_resilience(n).expect("16 >= 3f + 1");
    let opts = OrderOptions { batch_max: 1, pipeline_depth: 1, epochs: 1, rbc: RbcKind::Bracha };
    let mut rt: NetRuntime<OrderMessage, OrderLog> =
        NetRuntime::new(n).timeout(Duration::from_secs(120));
    for id in cfg.nodes() {
        let workload = vec![vec![id.index() as u8]];
        rt.add_process(Box::new(OrderProcess::new(cfg, id, opts, workload, |inst| {
            CommonCoin::new(9, inst)
        })));
    }
    let report = rt.run();
    done.store(true, Ordering::Relaxed);
    let _ = sampler.join();

    assert!(!report.timed_out && report.agreement_holds(), "the n={n} ordering run failed");
    let extra = peak.load(Ordering::Relaxed).saturating_sub(baseline);
    assert!(extra >= n, "the sampler never saw the cluster: {extra} threads above baseline");
    assert!(extra <= n + 2, "{extra} threads above baseline for {n} nodes");
}
