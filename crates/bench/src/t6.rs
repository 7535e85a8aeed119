//! T6 — the modern-BFT extension: asynchronous common subset (ACS) built
//! from n reliable broadcasts + n binary agreements, as in HoneyBadgerBFT.
//!
//! The ACS is the ordering engine's, run for one epoch: each node's
//! proposal is its one-payload workload, and the log is the agreed set in
//! proposer order.

use crate::common::{ExperimentReport, Mode, Tally};
use bft_adversary::Silent;
use bft_coin::CommonCoin;
use bft_order::{OrderLog, OrderMessage, OrderOptions, OrderProcess};
use bft_sim::{Report, UniformDelay, World, WorldConfig};
use bft_stats::{Samples, Table};
use bft_types::Config;

fn run_acs(n: usize, crash_last: bool, payload_bytes: usize, seed: u64) -> Report<OrderLog> {
    let cfg = Config::max_resilience(n).expect("n >= 1");
    let opts = OrderOptions { epochs: 1, ..OrderOptions::default() };
    let mut world =
        World::new(WorldConfig::new(n).max_delivered(5_000_000), UniformDelay::new(1, 10, seed));
    for id in cfg.nodes() {
        if crash_last && id.index() == n - 1 {
            world.add_faulty_process(Box::new(Silent::<OrderMessage, OrderLog>::new(id)));
        } else {
            let proposal = vec![id.index() as u8; payload_bytes];
            world.add_process(Box::new(OrderProcess::new(
                cfg,
                id,
                opts,
                vec![proposal],
                move |i| CommonCoin::new(seed, i),
            )));
        }
    }
    world.run()
}

/// Runs the T6 scan.
pub fn run(mode: Mode) -> ExperimentReport {
    let seeds = mode.seeds(5, 15);
    let sizes = match mode {
        Mode::Quick => vec![4usize, 7],
        Mode::Full => vec![4, 7, 10],
    };

    let mut table = Table::new(vec![
        "n",
        "crashed proposer",
        "runs",
        "completed",
        "agreement",
        "mean set size",
        "mean msgs",
        "mean latency (ticks)",
    ]);

    for &n in &sizes {
        for crash in [false, true] {
            let mut completed = 0usize;
            let mut agreed = 0usize;
            let mut set_sizes = Samples::new();
            let mut msgs = Samples::new();
            let mut latency = Samples::new();
            for seed in 0..seeds as u64 {
                let report = run_acs(n, crash, 64, seed);
                if report.all_correct_decided() {
                    completed += 1;
                    if let Some(t) = report.decision_latency() {
                        latency.add(t.ticks() as f64);
                    }
                    if let Some(set) = report.correct.first().and_then(|id| report.outputs.get(id))
                    {
                        set_sizes.add(set.len() as f64);
                    }
                }
                if report.agreement_holds() {
                    agreed += 1;
                }
                msgs.add(report.metrics.sent as f64);
            }
            table.row(vec![
                n.to_string(),
                if crash { "yes" } else { "no" }.to_string(),
                seeds.to_string(),
                Tally::pct(completed, seeds),
                Tally::pct(agreed, seeds),
                format!("{:.2}", set_sizes.mean()),
                format!("{:.0}", msgs.mean()),
                format!("{:.0}", latency.mean()),
            ]);
        }
    }

    ExperimentReport {
        id: "T6",
        title: "asynchronous common subset from Bracha primitives".into(),
        claim: "n RBCs + n ABAs agree on a common ≥ n−f subset of proposals despite faults".into(),
        table,
        notes: "expected shape: 100% completed and agreed; set size ≥ n − f (= n when nobody \
                crashes, typically n − 1 with one crashed proposer)"
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acs_rows_complete_and_agree() {
        let report = run(Mode::Quick);
        for line in report.table.render().lines().skip(2) {
            assert!(line.matches("100%").count() >= 2, "ACS row failed: {line}");
        }
    }
}
