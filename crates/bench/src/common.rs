//! Shared machinery of the experiment harness.

use bft_adversary::DoubleTalker;
use bft_coin::LocalCoin;
use bft_sim::{Report, UniformDelay, World, WorldConfig};
use bft_stats::{Samples, Table};
use bft_types::{Config, NodeId, Value};
use bracha::benor::BenOrProcess;

/// Sample-size selector: `quick` keeps the full harness under a minute;
/// `full` is the publication-quality pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Small seed counts (CI-friendly).
    Quick,
    /// Large seed counts.
    Full,
}

impl Mode {
    /// Picks a seed count by mode.
    pub fn seeds(self, quick: usize, full: usize) -> usize {
        match self {
            Mode::Quick => quick,
            Mode::Full => full,
        }
    }
}

/// The rendered result of one experiment.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Experiment id, e.g. `"T1"`.
    pub id: &'static str,
    /// One-line title.
    pub title: String,
    /// The paper's claim this experiment regenerates.
    pub claim: String,
    /// The main table.
    pub table: Table,
    /// Optional free-text (histograms, notes).
    pub notes: String,
}

impl ExperimentReport {
    /// Renders the report for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {}\n", self.id, self.title));
        out.push_str(&format!("   claim: {}\n\n", self.claim));
        out.push_str(&self.table.render());
        if !self.notes.is_empty() {
            out.push('\n');
            out.push_str(&self.notes);
            if !self.notes.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }
}

/// Aggregates run verdicts for one experiment cell.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Total runs.
    pub runs: usize,
    /// Runs where every correct node decided.
    pub terminated: usize,
    /// Runs where the deciders agreed.
    pub agreed: usize,
    /// Runs where every correct decision matched the expected value.
    pub valid: usize,
    /// Decision rounds (terminated runs only).
    pub rounds: Samples,
    /// Messages sent (all runs).
    pub msgs: Samples,
    /// Simulated end-to-decision time (terminated runs only).
    pub ticks: Samples,
}

impl Tally {
    /// Folds one simulation report into the tally. `expected` is the
    /// validity oracle (the value every correct node must decide), if the
    /// run pins one down.
    pub fn add(&mut self, report: &Report<Value>, expected: Option<Value>) {
        self.runs += 1;
        let terminated = report.all_correct_decided();
        if terminated {
            self.terminated += 1;
            if let Some(r) = report.decision_round() {
                self.rounds.add(r as f64);
            }
            if let Some(t) = report.decision_latency() {
                self.ticks.add(t.ticks() as f64);
            }
        }
        if report.agreement_holds() {
            self.agreed += 1;
        }
        let valid = match expected {
            Some(e) => {
                report.correct.iter().filter_map(|id| report.outputs.get(id)).all(|o| *o == e)
            }
            // Without an oracle, validity is vacuous (mixed inputs).
            None => true,
        };
        if valid {
            self.valid += 1;
        }
        self.msgs.add(report.metrics.sent as f64);
    }

    /// Percentage rendering helper.
    pub fn pct(num: usize, den: usize) -> String {
        if den == 0 {
            return "-".to_string();
        }
        format!("{:.0}%", 100.0 * num as f64 / den as f64)
    }

    /// `terminated / runs` as a percentage string.
    pub fn term_pct(&self) -> String {
        Self::pct(self.terminated, self.runs)
    }

    /// `agreed / runs` as a percentage string.
    pub fn agree_pct(&self) -> String {
        Self::pct(self.agreed, self.runs)
    }

    /// `valid / runs` as a percentage string.
    pub fn valid_pct(&self) -> String {
        Self::pct(self.valid, self.runs)
    }
}

/// Formats a float with two decimals, `-` when the sample set is empty.
pub fn fmt_mean(samples: &Samples) -> String {
    if samples.is_empty() {
        "-".to_string()
    } else {
        format!("{:.2}", samples.mean())
    }
}

/// Runs one Ben-Or cluster with `double_talkers` Byzantine nodes (ids
/// `n-double_talkers..n`) and all correct nodes starting from `input`.
///
/// Returns the simulation report; `f_cfg` is the fault bound baked into
/// the protocol's thresholds (exceed `n > 5f` to demonstrate breakage).
pub fn run_benor(
    n: usize,
    f_cfg: usize,
    double_talkers: usize,
    input: Value,
    seed: u64,
    max_rounds: u64,
) -> Report<Value> {
    let cfg = Config::new_unchecked_resilience(n, f_cfg).expect("valid unchecked config");
    let mut world =
        World::new(WorldConfig::new(n).max_delivered(2_000_000), UniformDelay::new(1, 20, seed));
    for id in cfg.nodes() {
        if id.index() >= n - double_talkers {
            world.add_faulty_process(Box::new(DoubleTalker::new(cfg, id)));
        } else {
            world.add_process(Box::new(BenOrProcess::new(
                cfg,
                id,
                input,
                LocalCoin::new(seed, id),
                max_rounds,
            )));
        }
    }
    world.run()
}

/// The id helper used across experiments.
pub fn node(i: usize) -> NodeId {
    NodeId::new(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_selects_seed_counts() {
        assert_eq!(Mode::Quick.seeds(5, 50), 5);
        assert_eq!(Mode::Full.seeds(5, 50), 50);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(Tally::pct(5, 10), "50%");
        assert_eq!(Tally::pct(0, 0), "-");
    }

    #[test]
    fn benor_runner_terminates_on_clean_inputs() {
        let report = run_benor(6, 1, 0, Value::One, 1, 1_000);
        assert!(report.all_correct_decided());
        assert_eq!(report.unanimous_output(), Some(Value::One));
    }
}
