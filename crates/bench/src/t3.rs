//! T3 — message complexity: reliable broadcast costs O(n²) messages per
//! instance, the consensus protocol O(n³) per round (n RBC instances per
//! step, three steps).

use crate::common::{ExperimentReport, Mode};
use async_bft::{Cluster, CoinChoice, Schedule};
use bft_rbc::{RbcKind, RbcProcess};
use bft_sim::{FixedDelay, World, WorldConfig};
use bft_stats::Table;
use bft_types::{Config, NodeId};

/// Messages for one reliable-broadcast instance with a correct sender.
fn rbc_messages(n: usize) -> u64 {
    let cfg = Config::max_resilience(n).expect("n >= 1");
    let sender = NodeId::new(0);
    let mut world = World::new(WorldConfig::new(n), FixedDelay::new(1));
    for id in cfg.nodes() {
        let payload = (id == sender).then(|| "m".to_string());
        world.add_process(Box::new(RbcProcess::new(cfg, id, sender, RbcKind::Bracha, payload)));
    }
    let report = world.run();
    assert!(report.all_correct_decided(), "clean RBC must deliver");
    report.metrics.sent
}

/// Messages per consensus round (unanimous inputs decide in round 1, so
/// total messages ≈ one round's worth plus the wind-down).
fn consensus_messages_per_round(n: usize, seed: u64) -> (f64, u64) {
    let report = Cluster::new(n)
        .expect("n >= 1")
        .seed(seed)
        .coin(CoinChoice::Local)
        .schedule(Schedule::Fixed(1))
        .run();
    let rounds = report.max_round.max(1);
    (report.metrics.sent as f64 / rounds as f64, rounds)
}

/// Runs the T3 complexity scan.
pub fn run(mode: Mode) -> ExperimentReport {
    let sizes = match mode {
        Mode::Quick => vec![4usize, 7, 10, 13],
        Mode::Full => vec![4, 7, 10, 13, 16, 19, 25],
    };

    let mut table = Table::new(vec![
        "n",
        "rbc msgs",
        "rbc / n^2",
        "consensus msgs/round",
        "consensus / n^3",
        "fitted exponent (vs prev n)",
    ]);

    let mut prev: Option<(usize, f64)> = None;
    for &n in &sizes {
        let rbc = rbc_messages(n);
        let (per_round, _) = consensus_messages_per_round(n, 7);
        let exponent = prev
            .map(|(pn, pm)| {
                let e = (per_round / pm).ln() / (n as f64 / pn as f64).ln();
                format!("{e:.2}")
            })
            .unwrap_or_else(|| "-".to_string());
        table.row(vec![
            n.to_string(),
            rbc.to_string(),
            format!("{:.2}", rbc as f64 / (n * n) as f64),
            format!("{per_round:.0}"),
            format!("{:.2}", per_round / (n * n * n) as f64),
            exponent,
        ]);
        prev = Some((n, per_round));
    }

    ExperimentReport {
        id: "T3",
        title: "message complexity".into(),
        claim: "RBC is O(n²) per instance; consensus is O(n³) per round".into(),
        table,
        notes: "expected shape: the /n² and /n³ columns stay roughly constant; the fitted \
                exponent approaches 3 for consensus"
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rbc_message_count_is_quadratic() {
        let m4 = rbc_messages(4) as f64;
        let m8 = rbc_messages(8) as f64;
        let exponent = (m8 / m4).ln() / 2f64.ln();
        assert!((1.5..=2.5).contains(&exponent), "RBC exponent should be ≈2, got {exponent:.2}");
    }

    #[test]
    fn consensus_per_round_is_cubic_ish() {
        let (m4, _) = consensus_messages_per_round(4, 1);
        let (m8, _) = consensus_messages_per_round(8, 1);
        let exponent = (m8 / m4).ln() / 2f64.ln();
        assert!(
            (2.2..=3.5).contains(&exponent),
            "consensus exponent should be ≈3, got {exponent:.2}"
        );
    }
}
