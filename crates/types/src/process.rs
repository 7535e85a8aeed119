//! The sans-io interface between protocol state machines and transports.
//!
//! Protocols in this workspace are written as *pure state machines*: they
//! receive events ([`Process::on_start`], [`Process::on_message`]) and
//! return a list of [`Effect`]s. They never touch sockets, threads, clocks
//! or randomness sources directly (randomness is injected through the
//! `bft-coin` crate). This makes the same protocol code runnable under the
//! deterministic discrete-event simulator (`bft-sim`), over the TCP
//! transport (`bft-net`), and directly inside unit tests.

use crate::NodeId;
use std::fmt;
use std::sync::Arc;

/// An instruction emitted by a protocol state machine for its transport.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Effect<M, O> {
    /// Send `msg` to a single peer over the authenticated point-to-point
    /// link. The transport guarantees FIFO order per link and eventual
    /// delivery (the asynchronous model: unbounded but finite delay).
    Send {
        /// Destination node.
        to: NodeId,
        /// The message to deliver.
        msg: M,
    },
    /// Send `msg` to every node in the system, *including the sender
    /// itself*. This is the protocol-level "broadcast to all" of Bracha's
    /// paper (a convenience over `n` point-to-point sends — it is **not**
    /// reliable broadcast, which is a protocol built on top).
    Broadcast {
        /// The message to deliver to every node.
        msg: M,
    },
    /// Surface a protocol output to the harness (a consensus decision, a
    /// reliable-broadcast delivery, …).
    Output(O),
    /// The process has terminated and will take no further steps. The
    /// transport may drop any messages still addressed to it.
    Halt,
}

/// A message in flight, tagged with its (authenticated) sender and its
/// destination.
///
/// The asynchronous model of the paper assumes authenticated channels: when
/// `v` receives a message from `u`, it knows the message was sent by `u`.
/// Transports realise this by constructing the envelope themselves rather
/// than trusting the payload.
///
/// The payload is behind an [`Arc`]: a broadcast to `n` recipients is `n`
/// envelopes sharing **one** payload allocation, so fan-out enqueues `n`
/// pointers instead of `n` deep clones. Read access is transparent via
/// deref (`envelope.msg.method()` works as before); transports hand the
/// payload to protocol code as `&M` ([`Process::on_message`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The node that sent the message.
    pub from: NodeId,
    /// The node the message is addressed to.
    pub to: NodeId,
    /// The protocol payload, shared between every envelope of the same
    /// broadcast.
    pub msg: Arc<M>,
}

impl<M> Envelope<M> {
    /// Wraps an owned payload into a fresh single-owner envelope.
    pub fn new(from: NodeId, to: NodeId, msg: M) -> Self {
        Envelope { from, to, msg: Arc::new(msg) }
    }

    /// Builds an envelope around an already-shared payload (the fan-out
    /// path: one `Arc` per broadcast, one cheap clone per recipient).
    pub fn shared(from: NodeId, to: NodeId, msg: Arc<M>) -> Self {
        Envelope { from, to, msg }
    }
}

impl<M: fmt::Display> fmt::Display for Envelope<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}: {}", self.from, self.to, self.msg)
    }
}

/// A protocol participant driven by a transport.
///
/// Implementations include every correct-protocol state machine in the
/// workspace (reliable broadcast nodes, Bracha/Ben-Or consensus nodes, ACS
/// nodes) *and* the Byzantine behaviours of `bft-adversary` — a faulty node
/// is just a `Process` that does not follow the protocol.
///
/// # Contract
///
/// * The transport calls [`Process::on_start`] exactly once, before any
///   message delivery.
/// * [`Process::on_message`] is called once per delivered message, with the
///   authenticated sender.
/// * After a process emits [`Effect::Halt`] (or [`Process::is_halted`]
///   returns true) the transport stops delivering to it.
///
/// # Example
///
/// A trivial process that decides its own input immediately:
///
/// ```
/// use bft_types::{Effect, NodeId, Process};
///
/// struct Trivial { id: NodeId, decided: Option<u8> }
///
/// impl Process for Trivial {
///     type Msg = ();
///     type Output = u8;
///
///     fn id(&self) -> NodeId { self.id }
///
///     fn on_start(&mut self) -> Vec<Effect<(), u8>> {
///         self.decided = Some(7);
///         vec![Effect::Output(7), Effect::Halt]
///     }
///
///     fn on_message(&mut self, _from: NodeId, _msg: &()) -> Vec<Effect<(), u8>> {
///         Vec::new()
///     }
///
///     fn output(&self) -> Option<u8> { self.decided }
///     fn is_halted(&self) -> bool { self.decided.is_some() }
/// }
///
/// let mut p = Trivial { id: NodeId::new(0), decided: None };
/// let effects = p.on_start();
/// assert_eq!(effects.len(), 2);
/// assert_eq!(p.output(), Some(7));
/// ```
pub trait Process {
    /// The message type exchanged between processes of this protocol.
    type Msg: Clone + fmt::Debug;
    /// The output type surfaced to the harness (e.g. the decided value).
    type Output: Clone + fmt::Debug;

    /// The identifier of this process.
    fn id(&self) -> NodeId;

    /// Invoked once by the transport before any delivery; typically emits
    /// the protocol's first broadcast.
    fn on_start(&mut self) -> Vec<Effect<Self::Msg, Self::Output>>;

    /// Invoked for each message delivered to this process. `from` is the
    /// authenticated sender.
    ///
    /// The payload arrives by reference because the transport may share
    /// one allocation between all recipients of a broadcast; processes
    /// clone only the pieces they store.
    fn on_message(&mut self, from: NodeId, msg: &Self::Msg)
        -> Vec<Effect<Self::Msg, Self::Output>>;

    /// Invoked by host transports that have out-of-band input for the
    /// process — e.g. the TCP runtime's client gateway draining external
    /// submissions into the mempool between deliveries. Never invoked by
    /// the deterministic simulator, so protocol state machines that rely
    /// on it are host-level adapters by construction; pure protocols
    /// keep the default no-op.
    fn on_tick(&mut self) -> Vec<Effect<Self::Msg, Self::Output>> {
        Vec::new()
    }

    /// The most recent output of this process (e.g. its decision), if any.
    fn output(&self) -> Option<Self::Output> {
        None
    }

    /// Whether this process has terminated. Halted processes receive no
    /// further events.
    fn is_halted(&self) -> bool {
        false
    }

    /// The protocol round this process is currently in, as a metrics hook
    /// for the harness. Protocols without a round structure return 0.
    fn round(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Ping;

    struct Echoer {
        id: NodeId,
        halted: bool,
    }

    impl Process for Echoer {
        type Msg = Ping;
        type Output = ();

        fn id(&self) -> NodeId {
            self.id
        }

        fn on_start(&mut self) -> Vec<Effect<Ping, ()>> {
            vec![Effect::Broadcast { msg: Ping }]
        }

        fn on_message(&mut self, from: NodeId, msg: &Ping) -> Vec<Effect<Ping, ()>> {
            self.halted = true;
            vec![Effect::Send { to: from, msg: msg.clone() }, Effect::Halt]
        }

        fn is_halted(&self) -> bool {
            self.halted
        }
    }

    #[test]
    fn process_lifecycle() {
        let mut p = Echoer { id: NodeId::new(1), halted: false };
        assert_eq!(p.on_start(), vec![Effect::Broadcast { msg: Ping }]);
        assert!(!p.is_halted());
        let effects = p.on_message(NodeId::new(2), &Ping);
        assert!(effects.contains(&Effect::Halt));
        assert!(p.is_halted());
        assert_eq!(p.round(), 0);
        assert_eq!(p.output(), None);
    }

    #[test]
    fn envelope_display() {
        let env = Envelope::new(NodeId::new(0), NodeId::new(1), "hi");
        assert_eq!(env.to_string(), "n0 -> n1: hi");
        let shared = std::sync::Arc::new("yo");
        let a = Envelope::shared(NodeId::new(0), NodeId::new(1), shared.clone());
        let b = Envelope::shared(NodeId::new(0), NodeId::new(2), shared);
        assert!(std::sync::Arc::ptr_eq(&a.msg, &b.msg));
    }
}
