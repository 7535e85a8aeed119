//! `async-bft` — a reproduction of *Asynchronous Byzantine Consensus*
//! (Bracha, PODC 1984) as a production-quality Rust workspace.
//!
//! The workspace implements, from scratch:
//!
//! * [`bft_rbc`] — Bracha's **reliable broadcast** (Send/Echo/Ready), plus
//!   an AVID-style erasure-coded variant for large payloads.
//! * [`bft_ec`] — the dependency-free **Reed–Solomon** codec and Merkle
//!   fragment commitments behind the coded broadcast.
//! * [`bracha`] — the **randomized Byzantine consensus** protocol with its
//!   message-validation discipline and the Ben-Or baseline.
//! * [`bft_order`] — **atomic broadcast**: one asynchronous common subset
//!   (ACS) per epoch, the composition that makes Bracha's primitives "the
//!   basis of modern async BFT". A one-epoch run is the single-shot ACS;
//!   its log's first entry is multi-value consensus.
//! * [`bft_sim`] — a deterministic discrete-event **simulator** whose
//!   pluggable schedulers play the asynchronous network adversary.
//! * [`bft_net`] — a real **TCP transport**: frames with a checksum
//!   trailer, preshared-key authenticated handshake, full-mesh peer
//!   manager with reconnect/backoff, and deterministic link-level chaos
//!   injection. Message formats live with their types
//!   ([`bft_types::wire`]).
//! * [`bft_adversary`] — a zoo of Byzantine behaviours and content-aware
//!   adversarial schedulers.
//! * [`bft_coin`] — local and (dealer-model) common coins.
//! * [`bft_smr`] — a **replicated key-value state machine** over the
//!   ordered log: deterministic apply, RBC-agreed checkpoints with log
//!   truncation, and erasure-coded peer state transfer for crash
//!   recovery.
//! * [`bft_obs`] — zero-cost-when-disabled **observability**: a protocol
//!   event taxonomy with pluggable sinks (metrics aggregation, JSONL
//!   export, online invariant checking).
//!
//! The same sans-io state machines run unmodified on **two execution
//! substrates**, one deterministic, one real:
//!
//! 1. [`sim`] — deterministic discrete-event simulation: seeded,
//!    replayable, adversarial schedulers (drive it via [`Cluster`] or the
//!    `absim` binary);
//! 2. [`net`] — one OS thread per node exchanging authenticated framed
//!    messages over loopback TCP sockets, with optional chaos injection
//!    (drive it via the `abnet` binary).
//!
//! Both binaries run on one [`harness`]: the flag parser, the mode
//! banners, one node builder per mode, the per-run observer export and
//! the summary line are written once, and each binary keeps only its
//! substrate's run loop and run line.
//!
//! This crate ties them together and adds [`Cluster`], a one-stop builder
//! for simulated consensus experiments:
//!
//! ```
//! use async_bft::{Cluster, CoinChoice, FaultKind, Schedule};
//! use async_bft::types::Value;
//!
//! # fn main() -> Result<(), async_bft::types::ConfigError> {
//! let report = Cluster::new(7)?            // n = 7 ⇒ tolerates f = 2
//!     .seed(42)
//!     .split_inputs(3)                     // 3 nodes vote 1, rest 0
//!     .coin(CoinChoice::Local)
//!     .schedule(Schedule::Uniform { min: 1, max: 20 })
//!     .fault(0, FaultKind::FlipValue)      // two Byzantine liars
//!     .fault(1, FaultKind::Seesaw)
//!     .run();
//!
//! assert!(report.all_correct_decided());
//! assert!(report.agreement_holds());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
pub mod harness;

pub use cluster::{Cluster, CoinChoice, Schedule};

pub use bft_adversary::FaultKind;

/// Re-export of the vocabulary crate.
pub mod types {
    pub use bft_types::*;
}

/// Re-export of the simulator crate.
pub mod sim {
    pub use bft_sim::*;
}

/// Re-export of the reliable-broadcast crate.
pub mod rbc {
    pub use bft_rbc::*;
}

/// Re-export of the erasure-coding crate.
pub mod ec {
    pub use bft_ec::*;
}

/// Re-export of the coin crate.
pub mod coin {
    pub use bft_coin::*;
}

/// Re-export of the consensus crate.
pub mod consensus {
    pub use bracha::*;
}

/// Re-export of the adversary crate.
pub mod adversary {
    pub use bft_adversary::*;
}

/// Re-export of the TCP transport crate.
pub mod net {
    pub use bft_net::*;
}

/// Re-export of the atomic-broadcast (ordering) crate.
pub mod order {
    pub use bft_order::*;
}

/// Re-export of the replicated state machine crate.
pub mod smr {
    pub use bft_smr::*;
}

/// Re-export of the statistics crate.
pub mod stats {
    pub use bft_stats::*;
}

/// Re-export of the observability crate.
pub mod obs {
    pub use bft_obs::*;
}
