//! `bft-net` — a real TCP transport runtime for the Bracha stack.
//!
//! This crate is the real execution substrate for the *unmodified*
//! sans-io protocol state machines (`BrachaProcess`, `RbcProcess`):
//!
//! | substrate | scheduling               | links                    |
//! |-----------|--------------------------|--------------------------|
//! | `bft-sim` | deterministic, seeded    | in-memory queues         |
//! | `bft-net` | OS threads + **sockets** | loopback TCP connections |
//!
//! Layers, bottom-up:
//!
//! * `bft_types::wire` — little-endian binary encoding for protocol
//!   messages (no serde; strict, typed decode errors). Each message type
//!   implements it in its own crate; this crate moves the bytes.
//! * [`frame`] — length-prefixed framing with a magic/version header and
//!   an FNV-1a checksum trailer.
//! * [`handshake`] — preshared-key challenge–response authentication, so
//!   every connection carries a verified sender identity (envelopes are
//!   stamped by the transport, never trusted from message bodies).
//! * [`chaos`] — a deterministic, seeded per-link delay, the one fault
//!   injected on real sockets; it holds frames back, never reorders or
//!   loses them.
//! * `link` (crate-private) — the link contract as two sans-io machines
//!   with no socket or clock inside: the dialer-side `Sender` (handshake,
//!   ack-trimmed replay log, backoff, the chaos delay) and the
//!   accepter-side `Receiver` (handshake, per-peer dedup floor, acks,
//!   severing on a gap). Its tests drive both over a seeded in-memory
//!   byte pipe that cuts connections at any byte offset.
//! * [`runtime`] — [`NetRuntime`], its builder API and the
//!   [`RuntimeReport`] it returns: socket setup, the redial backoff, the
//!   panic ledger.
//! * [`reactor`] — the engine behind [`NetRuntime`]: one nonblocking
//!   `poll(2)` loop per node owns every socket the node touches (the
//!   full-mesh peer links and the client gateway), moves bytes between
//!   them and the link machines, and steps the node's process as its
//!   frames arrive, so each node is one thread however large the
//!   cluster.
//! * [`gateway`] — the client-facing submit/ack protocol served by the
//!   reactor (typed backpressure NACKs, per-client sequencing) plus an
//!   open-loop load generator for driving a cluster externally.
//!
//! # Example
//!
//! ```no_run
//! use bft_coin::LocalCoin;
//! use bft_net::NetRuntime;
//! use bft_types::{Config, Value};
//! use bracha::{BrachaOptions, BrachaProcess};
//! use std::time::Duration;
//!
//! let cfg = Config::new(4, 1).expect("n >= 3f + 1");
//! let mut rt = NetRuntime::new(4).timeout(Duration::from_secs(10));
//! for id in cfg.nodes() {
//!     rt.add_process(Box::new(BrachaProcess::new(
//!         cfg,
//!         id,
//!         Value::One,
//!         LocalCoin::new(5, id),
//!         BrachaOptions::default(),
//!     )));
//! }
//! let report = rt.run();
//! assert!(report.agreement_holds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod clock;
pub mod frame;
pub mod gateway;
pub mod handshake;
mod link;
pub mod reactor;
pub mod runtime;

pub use bft_types::hash::fnv1a64;
pub use bft_types::wire::Codec;
pub use chaos::ChaosConfig;
pub use frame::{
    encode_frame, encode_frame_into, Frame, FrameKind, FrameRef, PayloadTooLarge, FRAME_OVERHEAD,
    HEADER_LEN, MAGIC, TRAILER_LEN, VERSION,
};
pub use gateway::{
    run_load, ClientSubmit, GatewayNotice, GatewayPipe, LoadGenConfig, LoadGenReport, NackReason,
};
pub use handshake::{HandshakeError, Secret};
pub use runtime::{
    BoxedProcess, ListenerBounce, NetDriver, NetRuntime, RestartFactory, RuntimeReport, SetupError,
};
