//! The experiment harness: one module per table/figure of the
//! reproduction (see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded results).
//!
//! Every experiment is a pure function from a [`Mode`] (quick vs full
//! sample sizes) to a rendered report: a [`bft_stats::Table`] plus
//! free-text commentary. The `experiments` binary prints them and dumps
//! CSVs; the criterion benches under `benches/` measure the wall-clock
//! cost of the same code paths. End-to-end and per-layer performance is
//! `abbench`'s job (`benchmark/`), not this crate's.

#![forbid(unsafe_code)]
// Quorum thresholds are deliberately spelled `f + 1`, `2f + 1`, `3f + 1`
// to match the paper's statements, even where clippy prefers `> f`.
#![allow(clippy::int_plus_one)]
#![warn(missing_docs)]

pub mod common;
pub mod f1;
pub mod f2;
pub mod f3;
pub mod f4;
pub mod t1;
pub mod t2;
pub mod t3;
pub mod t4;
pub mod t5;
pub mod t6;
pub mod t7;
pub mod t8;
pub mod t9;

pub use common::{ExperimentReport, Mode};

/// A named experiment runner.
pub type Experiment = (&'static str, fn(Mode) -> ExperimentReport);

/// Every experiment, in presentation order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("t1", t1::run as fn(Mode) -> ExperimentReport),
        ("t2", t2::run),
        ("t3", t3::run),
        ("t4", t4::run),
        ("t5", t5::run),
        ("t6", t6::run),
        ("t7", t7::run),
        ("t8", t8::run),
        ("t9", t9::run),
        ("f1", f1::run),
        ("f2", f2::run),
        ("f3", f3::run),
        ("f4", f4::run),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_are_unique_and_complete() {
        let ids: Vec<&str> = all_experiments().iter().map(|(id, _)| *id).collect();
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
        assert_eq!(ids.len(), 13);
    }
}
