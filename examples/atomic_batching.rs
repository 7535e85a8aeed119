//! Atomic transaction batching à la HoneyBadgerBFT: every node proposes
//! a batch of transactions, the cluster runs an Asynchronous Common
//! Subset (n reliable broadcasts + n binary agreements — both Bracha
//! 1984 primitives), and all correct nodes commit the *same* union of
//! batches, even with a crashed proposer. The ACS is the ordering
//! engine's, run for a single epoch.
//!
//! ```text
//! cargo run --example atomic_batching
//! ```

use async_bft::adversary::Silent;
use async_bft::coin::CommonCoin;
use async_bft::order::{OrderLog, OrderMessage, OrderOptions, OrderProcess};
use async_bft::sim::{UniformDelay, World, WorldConfig};
use async_bft::types::{Config, NodeId};
use std::collections::BTreeSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 4;
    let cfg = Config::new(n, 1)?;
    let crashed = NodeId::new(3);
    let opts = OrderOptions { epochs: 1, ..OrderOptions::default() };

    let mut world = World::new(WorldConfig::new(n), UniformDelay::new(1, 10, 11));
    for id in cfg.nodes() {
        if id == crashed {
            // This proposer is down from the start.
            world.add_faulty_process(Box::new(Silent::<OrderMessage, OrderLog>::new(id)));
            continue;
        }
        // Each node proposes its mempool as one batch.
        let batch = ["a", "b", "c"].map(|t| format!("tx-{}{t}", id.index()).into_bytes());
        world.add_process(Box::new(OrderProcess::new(cfg, id, opts, batch.to_vec(), |i| {
            CommonCoin::new(11, i)
        })));
    }

    let report = world.run();
    assert!(report.all_correct_decided(), "ACS must complete");
    assert!(report.agreement_holds(), "all correct nodes commit the same set");

    let committed = report.output_of(NodeId::new(0)).expect("node 0 committed");
    let batches: BTreeSet<NodeId> = committed.iter().map(|e| e.proposer).collect();
    println!("committed {} of {} proposed batches:", batches.len(), n);
    for entry in &committed {
        println!("  from {}: {}", entry.proposer, String::from_utf8_lossy(&entry.tx));
    }
    println!("\ntotal transactions committed atomically: {}", committed.len());
    println!("crashed proposer {crashed} excluded; liveness preserved ✓");
    println!("simulated latency: {} ticks", report.end_time.ticks());
    Ok(())
}
