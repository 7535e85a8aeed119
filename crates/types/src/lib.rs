//! Core vocabulary types shared by every crate in the `async-bft` workspace.
//!
//! This crate defines the *language* of the reproduction of Bracha's
//! asynchronous Byzantine consensus (PODC 1984):
//!
//! * [`NodeId`] — process identifiers in a fully connected network of `n`
//!   nodes.
//! * [`Value`] — the binary consensus values `0` and `1`.
//! * [`Config`] — the `(n, f)` system parameters together with all quorum
//!   arithmetic used by the protocols (`n − f`, `⌈(n+f+1)/2⌉`, `f + 1`,
//!   `2f + 1`, …). Centralising the thresholds here keeps every protocol
//!   honest about where its resilience comes from.
//! * [`Round`] and [`Step`] — the three-step round structure of Bracha's
//!   consensus protocol.
//! * [`Process`] and [`Effect`] — the sans-io interface between protocol
//!   state machines and transports. Both the deterministic discrete-event
//!   simulator (`bft-sim`) and the TCP transport (`bft-net`) drive the
//!   *same* protocol code through this interface.
//! * [`hash`] — FNV-1a 64, the one hash every layer uses.
//! * [`verdict`] — a run's verdicts (every correct node decided, they
//!   agree, the unanimous output), shared by both substrates' reports.
//! * [`wire`] — the binary wire codec: the [`wire::Codec`] trait, its
//!   strict [`wire::Reader`] and the encodings of the types above. Each
//!   protocol crate implements it for its own message types.
//!
//! # Example
//!
//! ```
//! use bft_types::{Config, Value};
//!
//! # fn main() -> Result<(), bft_types::ConfigError> {
//! let cfg = Config::new(7, 2)?; // n = 7 nodes, f = 2 Byzantine
//! assert_eq!(cfg.quorum(), 5); // n − f
//! assert_eq!(cfg.decide_threshold(), 5); // 2f + 1
//! assert_eq!(Value::Zero.flipped(), Value::One);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// Quorum thresholds are deliberately spelled `f + 1`, `2f + 1`, `3f + 1`
// to match the paper's statements, even where clippy prefers `> f`.
#![allow(clippy::int_plus_one)]
#![warn(missing_docs)]

mod bitset;
mod config;
mod error;
pub mod hash;
mod id;
mod process;
mod round;
mod value;
pub mod verdict;
pub mod wire;

pub use bitset::NodeBitset;
pub use config::Config;
pub use error::{ConfigError, ProtocolError};
pub use id::NodeId;
pub use process::{Effect, Envelope, Process};
pub use round::{Round, Step};
pub use value::Value;
