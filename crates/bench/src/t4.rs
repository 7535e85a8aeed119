//! T4 — reliable-broadcast properties under a Byzantine sender:
//! agreement and totality survive equivocation; a silent sender yields
//! nothing (validity binds only for correct senders).

use crate::common::{ExperimentReport, Mode, Tally};
use bft_adversary::{RbcEquivocator, Silent};
use bft_rbc::{RbcKind, RbcMessage, RbcProcess};
use bft_sim::{Report, UniformDelay, World, WorldConfig};
use bft_stats::Table;
use bft_types::{Config, NodeId};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sender {
    Correct,
    Equivocating,
    Silent,
}

impl Sender {
    fn describe(self) -> &'static str {
        match self {
            Sender::Correct => "correct",
            Sender::Equivocating => "equivocating",
            Sender::Silent => "silent",
        }
    }
}

fn run_rbc(n: usize, sender_kind: Sender, seed: u64) -> Report<String> {
    let cfg = Config::max_resilience(n).expect("n >= 1");
    let sender = NodeId::new(0);
    let mut world = World::new(WorldConfig::new(n), UniformDelay::new(1, 20, seed));
    match sender_kind {
        Sender::Correct => world.add_process(Box::new(RbcProcess::new(
            cfg,
            sender,
            sender,
            RbcKind::Bracha,
            Some("payload".to_string()),
        ))),
        Sender::Equivocating => world.add_faulty_process(Box::new(RbcEquivocator::new(
            cfg,
            sender,
            "payload-a".to_string(),
            "payload-b".to_string(),
        ))),
        Sender::Silent => {
            world.add_faulty_process(Box::new(Silent::<RbcMessage<String>, String>::new(sender)))
        }
    }
    for id in cfg.nodes().skip(1) {
        world.add_process(Box::new(RbcProcess::<String>::new(
            cfg,
            id,
            sender,
            RbcKind::Bracha,
            None,
        )));
    }
    world.run()
}

/// Runs the T4 matrix.
pub fn run(mode: Mode) -> ExperimentReport {
    let seeds = mode.seeds(15, 60);
    let sizes = match mode {
        Mode::Quick => vec![4usize, 7],
        Mode::Full => vec![4, 7, 10, 13],
    };

    let mut table = Table::new(vec![
        "n",
        "sender",
        "runs",
        "all delivered",
        "none delivered",
        "partial (totality violation)",
        "split (agreement violation)",
        "mean msgs",
    ]);

    for &n in &sizes {
        for sender_kind in [Sender::Correct, Sender::Equivocating, Sender::Silent] {
            let (mut all, mut none, mut partial, mut split) = (0usize, 0usize, 0usize, 0usize);
            let mut msgs = bft_stats::Samples::new();
            for seed in 0..seeds as u64 {
                let report = run_rbc(n, sender_kind, seed);
                msgs.add(report.metrics.sent as f64);
                let deciders =
                    report.correct.iter().filter(|id| report.outputs.contains_key(id)).count();
                if !report.agreement_holds() {
                    split += 1;
                } else if deciders == report.correct.len() {
                    all += 1;
                } else if deciders == 0 {
                    none += 1;
                } else {
                    partial += 1;
                }
            }
            table.row(vec![
                n.to_string(),
                sender_kind.describe().to_string(),
                seeds.to_string(),
                Tally::pct(all, seeds),
                Tally::pct(none, seeds),
                Tally::pct(partial, seeds),
                Tally::pct(split, seeds),
                format!("{:.0}", msgs.mean()),
            ]);
        }
    }

    ExperimentReport {
        id: "T4",
        title: "reliable broadcast under a Byzantine sender".into(),
        claim: "validity for correct senders; agreement and totality always (all-or-none, one \
                value)"
            .into(),
        table,
        notes: "expected shape: correct sender → 100% all-delivered; any sender → 0% partial \
                and 0% split"
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_split_or_partial_outcomes_ever() {
        let report = run(Mode::Quick);
        for line in report.table.render().lines().skip(2) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            // last two percentage columns before mean msgs are partial/split
            let partial = cells[cells.len() - 3];
            let split = cells[cells.len() - 2];
            assert_eq!(partial, "0%", "totality violated: {line}");
            assert_eq!(split, "0%", "agreement violated: {line}");
        }
    }
}
