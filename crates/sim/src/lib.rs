//! A deterministic discrete-event simulator for asynchronous
//! message-passing protocols under adversarial scheduling.
//!
//! The paper's system model is a fully connected network of `n` processes
//! linked by reliable, authenticated, FIFO, *asynchronous* channels: every
//! message is delivered after an unbounded but finite delay chosen by an
//! adversary that can inspect message contents. Real networks cannot
//! express such a worst-case adversary, so this crate substitutes a
//! simulator in which the adversary is a pluggable [`Scheduler`] —
//! everything from a benign uniform-delay scheduler to a content-aware
//! anti-coin adversary (see `bft-adversary`).
//!
//! Design properties:
//!
//! * **Determinism** — given the same processes, scheduler and seed, a run
//!   is bit-for-bit reproducible. Events are ordered by `(time, sequence)`.
//! * **FIFO links** — per ordered pair of nodes, delivery order equals send
//!   order regardless of the delays the scheduler picks (the simulator
//!   clamps delivery times to be monotone per link), matching the paper's
//!   channel assumption.
//! * **Finite delay** — schedulers return a delay in simulated ticks; the
//!   simulator rejects infinite postponement by construction (every message
//!   is enqueued with a concrete delivery time).
//! * **Metrics** — message and byte counts, per-node decision times and
//!   rounds, online agreement checking.
//!
//! # Example
//!
//! ```
//! use bft_sim::{FixedDelay, World, WorldConfig};
//! use bft_types::{Effect, NodeId, Process};
//!
//! /// Every node broadcasts "hello" and decides once it has heard from all.
//! struct Hello { id: NodeId, n: usize, heard: usize, done: bool }
//!
//! impl Process for Hello {
//!     type Msg = ();
//!     type Output = usize;
//!     fn id(&self) -> NodeId { self.id }
//!     fn on_start(&mut self) -> Vec<Effect<(), usize>> {
//!         vec![Effect::Broadcast { msg: () }]
//!     }
//!     fn on_message(&mut self, _from: NodeId, _msg: &()) -> Vec<Effect<(), usize>> {
//!         self.heard += 1;
//!         if self.heard == self.n && !self.done {
//!             self.done = true;
//!             return vec![Effect::Output(self.heard), Effect::Halt];
//!         }
//!         Vec::new()
//!     }
//!     fn output(&self) -> Option<usize> { self.done.then_some(self.heard) }
//!     fn is_halted(&self) -> bool { self.done }
//! }
//!
//! let n = 4;
//! let mut world = World::new(WorldConfig::new(n), FixedDelay::new(1));
//! for id in NodeId::all(n) {
//!     world.add_process(Box::new(Hello { id, n, heard: 0, done: false }));
//! }
//! let report = world.run();
//! assert!(report.all_correct_decided());
//! assert_eq!(report.output_of(NodeId::new(0)), Some(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod metrics;
mod report;
mod scheduler;
mod time;
mod world;

pub use metrics::{Metrics, MsgClass};
pub use report::{Report, StopReason};
pub use scheduler::{
    BoxedScheduler, FixedDelay, FnScheduler, GeometricDelay, PartitionDelay, Scheduler,
    UniformDelay,
};
pub use time::SimTime;
pub use world::{ProcessFactory, StopPolicy, World, WorldConfig};
