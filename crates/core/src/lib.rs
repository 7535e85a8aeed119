//! Bracha's asynchronous randomized Byzantine consensus — the PODC 1984
//! protocol that circumvents FLP with optimal resilience `n ≥ 3f + 1`.
//!
//! # The protocol
//!
//! Each node holds a binary estimate and proceeds in rounds of three steps,
//! every message being disseminated by [reliable broadcast](bft_rbc) (so a
//! node sends exactly one payload per `(round, step)` and cannot
//! equivocate) and *validated* before use (so a Byzantine node can only
//! send payloads that some correct node could have sent — see
//! [`validation`]):
//!
//! 1. **Initial** — broadcast the estimate; wait for `n − f` validated
//!    Initial messages; adopt the majority value.
//! 2. **Echo** — broadcast the new estimate; wait for `n − f` validated
//!    Echo messages; if more than `n/2` carry the same value `w`, mark the
//!    estimate *D-flagged* (locked) on `w`.
//! 3. **Ready** — broadcast the (possibly flagged) estimate; wait for
//!    `n − f` validated Ready messages; with `2f + 1` D-flags on `w`
//!    **decide** `w`; with `f + 1` adopt `w`; otherwise flip a
//!    [coin](bft_coin).
//!
//! Safety is deterministic (agreement + validity always hold); liveness is
//! probabilistic (termination with probability 1) — exactly the corner of
//! FLP the paper occupies. With a *common* coin instead of local coins the
//! expected number of rounds becomes constant; this crate treats the coin
//! as an injected [`CoinScheme`](bft_coin::CoinScheme) so the same state
//! machine covers both the 1984 protocol and its modern descendants.
//!
//! # Crate contents
//!
//! * [`BrachaNode`] / [`BrachaProcess`] — the consensus state machine and
//!   its transport adapter.
//! * [`validation`] — the message-validation engine (the paper's second
//!   key idea) with its existential quorum-subset predicates.
//! * [`benor`] — Ben-Or's 1983 protocol (`n > 5f`), the baseline the paper
//!   improves on.
//! * [`mmr`] — the signature-free common-coin binary agreement of
//!   Mostéfaoui, Moumen and Raynal.
//!
//! The "basis of modern async BFT" layer — asynchronous common subset
//! (`n` reliable broadcasts plus `n` binary agreements, HoneyBadger-style)
//! — lives in `bft-order`: its `OrderProcess` runs one ACS per epoch, and
//! a one-epoch run is the single-shot ACS (its log is the agreed set in
//! proposer order; multi-value consensus is that log's first entry).
//!
//! # Example
//!
//! Run a 4-node cluster to agreement under the simulator:
//!
//! ```
//! use bft_coin::LocalCoin;
//! use bft_sim::{UniformDelay, World, WorldConfig};
//! use bft_types::{Config, NodeId, Value};
//! use bracha::{BrachaOptions, BrachaProcess};
//!
//! # fn main() -> Result<(), bft_types::ConfigError> {
//! let cfg = Config::new(4, 1)?;
//! let mut world = World::new(WorldConfig::new(4), UniformDelay::new(1, 10, 7));
//! for id in cfg.nodes() {
//!     let input = if id.index() % 2 == 0 { Value::One } else { Value::Zero };
//!     let coin = LocalCoin::new(7, id);
//!     world.add_process(Box::new(BrachaProcess::new(
//!         cfg, id, input, coin, BrachaOptions::default(),
//!     )));
//! }
//! let report = world.run();
//! assert!(report.all_correct_decided());
//! assert!(report.agreement_holds());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// Quorum thresholds are deliberately spelled `f + 1`, `2f + 1`, `3f + 1`
// to match the paper's statements, even where clippy prefers `> f`.
#![allow(clippy::int_plus_one)]
#![warn(missing_docs)]

pub mod benor;
pub mod mmr;
pub mod validation;

mod engine;
mod msg;
mod process;

pub use engine::{BrachaNode, BrachaOptions, Transition};
pub use msg::{classify_wire, StepPayload, StepTag, Wire, WireClass};
pub use process::BrachaProcess;
