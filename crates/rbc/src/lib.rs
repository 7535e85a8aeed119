//! Bracha's reliable broadcast — the Send/Echo/Ready primitive of the
//! PODC 1984 paper, now universally known as *Bracha broadcast*.
//!
//! Reliable broadcast lets a designated **sender** disseminate one payload
//! such that, despite up to `f < n/3` Byzantine nodes (possibly including
//! the sender itself):
//!
//! * **Validity** — if the sender is correct, every correct node
//!   eventually delivers its payload.
//! * **Agreement** — no two correct nodes deliver different payloads.
//! * **Totality** (all-or-none) — if any correct node delivers, every
//!   correct node eventually delivers.
//!
//! The protocol (per instance, at node `p`):
//!
//! 1. The sender sends `Send(m)` to everyone.
//! 2. On the first `Send(m)` *from the designated sender*: broadcast
//!    `Echo(m)`.
//! 3. On `Echo(m)` from `⌈(n+f+1)/2⌉` distinct nodes, or `Ready(m)` from
//!    `f+1` distinct nodes: broadcast `Ready(m)` (once).
//! 4. On `Ready(m)` from `2f+1` distinct nodes: **deliver** `m`.
//!
//! The Echo quorum is big enough that two different payloads can never both
//! reach it (any two such quorums intersect in a correct node, which echoes
//! only once), so a Byzantine sender cannot make correct nodes deliver
//! different values. The `f+1` Ready amplification makes delivery total.
//!
//! The state machine here is sans-io: it consumes messages and returns
//! [`RbcAction`]s. Use [`RbcProcess`] to run one instance under `bft-sim`
//! or `bft-net`, or [`RbcMux`] to run many concurrent instances (as the
//! consensus protocol in the `bracha` crate does).
//!
//! Big payloads have a second implementation: [`CodedInstance`] speaks an
//! AVID-style erasure-coded variant (fragment unicast + fragment echoes,
//! O(n·B) bytes on the wire instead of Bracha's O(n²·B)) behind the same
//! action surface. Both run one crate-private vote core, which owns steps
//! 2–4: the echo, Ready and delivered flags (so an instance delivers at
//! most once), per-peer dedup, the Ready tally with its `f + 1` and
//! `2f + 1` thresholds, and the phase, quorum, delivery and echo/ready
//! span events. Over it [`RbcInstance`] counts echoes per payload;
//! [`CodedInstance`] votes on a Merkle root and adds fragment
//! verification, the sender's own-bytes shortcut, decode and the
//! reconstruct span. Neither keeps the payload it delivered: it leaves in
//! [`RbcAction::Deliver`] alone. The [`RbcKind`] is fixed when an
//! [`RbcMux`] or [`RbcProcess`] is built.
//!
//! # Example
//!
//! ```
//! use bft_rbc::{RbcAction, RbcInstance};
//! use bft_types::{Config, NodeId};
//!
//! # fn main() -> Result<(), bft_types::ConfigError> {
//! let cfg = Config::new(4, 1)?;
//! let sender = NodeId::new(0);
//!
//! // The sender starts an instance…
//! let mut s = RbcInstance::new(cfg, sender, sender);
//! let actions = s.start("hello".to_string());
//! assert!(matches!(actions[0], RbcAction::Broadcast(_)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coded;
mod instance;
mod msg;
mod mux;
mod process;
pub mod simple;
mod vote;

pub use coded::{CodedInstance, CodedPayload};
pub use instance::{RbcAction, RbcInstance};
pub use msg::RbcMessage;
pub use mux::{RbcKind, RbcMux, RbcMuxAction, RbcMuxMessage};
pub use process::RbcProcess;
pub use simple::EchoBroadcast;
