//! Bracha's reliable broadcast — the Send/Echo/Ready primitive — first
//! with a correct sender, then with an *equivocating* Byzantine sender
//! that tells each half of the network a different story.
//!
//! ```text
//! cargo run --example reliable_broadcast
//! ```

use async_bft::adversary::RbcEquivocator;
use async_bft::rbc::{RbcKind, RbcProcess};
use async_bft::sim::{StopReason, UniformDelay, World, WorldConfig};
use async_bft::types::{Config, NodeId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 4;
    let cfg = Config::new(n, 1)?;
    let sender = NodeId::new(0);

    // --- A correct sender: everyone delivers its payload (validity) ---
    let mut world = World::new(WorldConfig::new(n), UniformDelay::new(1, 15, 7));
    for id in cfg.nodes() {
        let payload = (id == sender).then(|| "block #42".to_string());
        world.add_process(Box::new(RbcProcess::new(cfg, id, sender, RbcKind::Bracha, payload)));
    }
    let report = world.run();
    println!("correct sender:");
    println!("  everyone delivered: {}", report.all_correct_decided());
    println!("  delivered value   : {:?}", report.unanimous_output());
    println!("  messages          : {} (O(n²))\n", report.metrics.sent);
    assert_eq!(report.unanimous_output(), Some("block #42".to_string()));

    // --- An equivocating sender: "block A" to half, "block B" to the
    // rest. Agreement says no two correct nodes may deliver different
    // blocks; totality says delivery is all-or-none. ---
    println!("equivocating sender (\"block A\" vs \"block B\"):");
    let mut all = 0;
    let mut none = 0;
    for seed in 0..10 {
        let mut world = World::new(WorldConfig::new(n), UniformDelay::new(1, 15, seed));
        world.add_faulty_process(Box::new(RbcEquivocator::new(
            cfg,
            sender,
            "block A".to_string(),
            "block B".to_string(),
        )));
        for id in cfg.nodes().skip(1) {
            world.add_process(Box::new(RbcProcess::<String>::new(
                cfg,
                id,
                sender,
                RbcKind::Bracha,
                None,
            )));
        }
        let report = world.run();
        assert!(report.agreement_holds(), "split delivery must be impossible");
        match report.stop {
            StopReason::Completed => {
                all += 1;
                println!(
                    "  seed {seed}: all delivered {:?}",
                    report.unanimous_output().expect("agreement")
                );
            }
            _ => {
                none += 1;
                println!("  seed {seed}: nobody delivered (all-or-none: none)");
            }
        }
    }
    println!("\noutcomes: {all} × all-delivered, {none} × none-delivered, 0 × split ✓");
    Ok(())
}
