//! F4 — the common coin decides in expected O(1) rounds independent of
//! `n`, even against the anti-coin scheduler.

use crate::common::{ExperimentReport, Mode};
use async_bft::{Cluster, CoinChoice, Schedule};
use bft_stats::{Histogram, Table};

/// F4's cluster: `n / 2` nodes start from 1, the rest from 0, with the
/// common coin, under the anti-coin split schedule.
fn cluster(n: usize, seed: u64) -> Cluster {
    Cluster::new(n)
        .expect("n >= 1")
        .seed(seed)
        .split_inputs(n / 2)
        .coin(CoinChoice::Common)
        .schedule(Schedule::Split { fast: 1, slow: 8 })
}

/// Runs the F4 sweep.
pub fn run(mode: Mode) -> ExperimentReport {
    let seeds = mode.seeds(25, 80);
    let sizes = match mode {
        Mode::Quick => vec![4usize, 7, 10],
        Mode::Full => vec![4, 7, 10, 13, 16],
    };

    let mut table = Table::new(vec!["n", "runs", "mean rounds", "max rounds", "P[R > 3]"]);
    let mut notes = String::new();

    for &n in &sizes {
        let mut hist = Histogram::new();
        for seed in 0..seeds as u64 {
            let report = cluster(n, seed).run();
            let r = report.decision_round().expect("common-coin runs decide within budget");
            hist.add(r);
        }
        table.row(vec![
            n.to_string(),
            seeds.to_string(),
            format!("{:.2}", hist.mean()),
            hist.max().unwrap_or(0).to_string(),
            format!("{:.3}", hist.tail_probability(3)),
        ]);
        if n == *sizes.last().unwrap() {
            notes = format!(
                "round distribution at n = {n} (adversarial split schedule):\n{}",
                hist.render(40)
            );
        }
    }

    notes.push_str(
        "expected shape: mean rounds flat (≈ 2) across n; compare F2's growing local-coin \
         column",
    );

    ExperimentReport {
        id: "F4",
        title: "common-coin agreement is O(1) expected rounds".into(),
        claim: "with a shared unpredictable coin the adversary cannot stretch the round count"
            .into(),
        table,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_coin::{CoinScheme, CommonCoin};
    use bft_types::Value;

    /// F4's outcome is a function of the coin stream alone. `Cluster`
    /// seeds the common coin with `(seed, 0)` whatever `n` is, so:
    /// * odd n: 0 is the majority input; every run decides 0, in round
    ///   1 + the first round r ≥ 1 whose flip is 0 (the round tail is the
    ///   coin's geometric tail, identical seed for seed at every odd n);
    /// * even n: the inputs tie; every run decides `flip(1)` in round 2.
    ///
    /// That is why odd n shows a higher mean and a longer tail than even n.
    #[test]
    fn decisions_follow_the_common_coin_stream() {
        for n in [4usize, 7, 10, 13, 16] {
            for seed in 0..80u64 {
                let mut coin = CommonCoin::new(seed, 0);
                let (value, round) = if n % 2 == 1 {
                    let first_zero = (1..).find(|&r| coin.flip(r) == Value::Zero);
                    (Value::Zero, 1 + first_zero.expect("the coin lands 0 eventually"))
                } else {
                    (coin.flip(1), 2)
                };
                let report = cluster(n, seed).run();
                let at = format!("n={n} seed={seed}");
                assert_eq!(report.unanimous_output(), Some(value), "{at}");
                assert_eq!(report.decision_round(), Some(round), "{at}");
            }
        }
    }

    #[test]
    fn mean_rounds_are_flat_and_small() {
        let report = run(Mode::Quick);
        for line in report.table.render().lines().skip(2) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            let mean: f64 = cells[2].parse().unwrap();
            assert!(mean <= 5.0, "common-coin mean rounds too high: {line}");
        }
    }
}
