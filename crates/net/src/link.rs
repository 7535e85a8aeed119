//! The link contract as two sans-io machines: frames in, bytes out.
//!
//! Bracha's model assumes reliable, authenticated, FIFO point-to-point
//! links. TCP gives FIFO and integrity inside one connection; everything
//! that makes a directed link `u → v` survive connection churn lives
//! here, with no socket and no clock inside:
//!
//! * [`Sender`], the dialer side of `u → v`: the Hello/Challenge/Auth
//!   handshake, the replay log (contiguous sequence numbers from 1,
//!   trimmed by cumulative acks, replayed in full on every new
//!   connection), redial backoff with jitter, and the chaos delay.
//! * [`Receiver`], the accepter side at `v`: the handshake, a per-peer
//!   dedup floor that survives connections (a replayed frame below it is
//!   skipped), a cumulative ack every [`ACK_EVERY`] frames, and severing
//!   a connection whose sequence numbers jump past the floor.
//!
//! Both take decoded [`FrameRef`]s, append whole frames to the caller's
//! output buffer, read time only from a `now_ms` argument, and report
//! transport events through an `emit` callback. The reactor moves their
//! bytes over sockets; the tests below move them over an in-memory pipe
//! that can cut either direction at any byte offset, stall a direction,
//! and let an old connection drain after its replacement came up.
//!
//! A connection ends in one of two ways for the sender: before `Up` it is
//! a failed handshake, which backs off; after, it is a closed link, which
//! redials at once and replays everything not yet acked.

use crate::chaos::{LinkChaos, XorShift};
use crate::frame::{encode_frame_into, FrameKind, FrameRef};
use crate::handshake::{
    auth_payload, challenge_payload, hello_payload, next_nonce, parse_auth, parse_challenge,
    parse_hello, Secret,
};
use crate::runtime::BACKOFF;
use bft_obs::Event;
use bft_types::hash::Fnv64;
use bft_types::NodeId;
use std::collections::VecDeque;
use std::sync::Arc;

/// The receiver acks every `ACK_EVERY`-th frame (cumulative), letting the
/// sender trim its replay log. Small enough to bound the log, large
/// enough that ack traffic stays negligible.
pub(crate) const ACK_EVERY: u64 = 16;

/// How long a half-open handshake (either side) may sit before the
/// connection is abandoned: the dialer backs off, the accepter drops the
/// straggler.
pub(crate) const HANDSHAKE_DEADLINE_MS: u64 = 2_000;

/// Why a connection is closed, as a `PeerDisconnected` reason label.
pub(crate) type Reason = &'static str;

/// The reason a machine gives when the handshake goes wrong (the label
/// is never reported: the dialer reports its backoff instead).
const HANDSHAKE: Reason = "handshake_failed";

/// An encoded frame body (shared between the links of one broadcast)
/// plus the causal-trace hint stamped into its frame header.
pub(crate) type FrameBody = (Arc<Vec<u8>>, u64);

/// Appends one frame to `out` and counts it. Bodies past the frame cap
/// never get here (the send boundary rejects them), so no encode fails.
fn put(out: &mut Vec<u8>, frames: &mut u64, kind: FrameKind, seq: u64, trace: u64, body: &[u8]) {
    if encode_frame_into(out, kind, seq, trace, body).is_ok() {
        *frames += 1;
    }
}

/// Where the dialer's current connection is.
#[derive(Clone, Copy, Debug)]
enum Phase {
    /// No connection.
    Idle,
    /// Hello written; waiting for the accepter's Challenge.
    Hello { nonce_me: u64, started_ms: u64 },
    /// Authenticated: `Msg` frames flow out, acks flow back.
    Up,
}

/// The dialer side of one directed link.
pub(crate) struct Sender {
    me: NodeId,
    peer: NodeId,
    secret: Secret,
    /// The replay log; `log[i]` carries seq `log_base + i + 1`. A deque,
    /// so trimming an acked prefix costs that prefix, not the whole log.
    log: VecDeque<FrameBody>,
    log_base: u64,
    /// Log entries written to the current connection.
    sent: usize,
    peak: usize,
    ever_connected: bool,
    /// Failed dials in the current reconnect episode.
    attempt: u64,
    next_dial_at_ms: u64,
    phase: Phase,
    chaos: LinkChaos,
    /// When the head frame's chaos delay ends (`None`: not drawn yet).
    held_until_ms: Option<u64>,
    jitter: XorShift,
    /// Frames written, handshake included.
    pub(crate) frames_out: u64,
}

impl Sender {
    pub(crate) fn new(me: NodeId, peer: NodeId, secret: Secret, chaos: LinkChaos) -> Self {
        // A per-link jitter stream, so backoff schedules repeat run to run.
        let mut h = Fnv64::new();
        h.update(b"backoff-jitter");
        h.update(&(me.index() as u32).to_le_bytes());
        h.update(&(peer.index() as u32).to_le_bytes());
        Sender {
            me,
            peer,
            secret,
            log: VecDeque::new(),
            log_base: 0,
            sent: 0,
            peak: 0,
            ever_connected: false,
            attempt: 0,
            next_dial_at_ms: 0,
            phase: Phase::Idle,
            chaos,
            held_until_ms: None,
            jitter: XorShift::new(h.finish()),
            frames_out: 0,
        }
    }

    pub(crate) fn peer(&self) -> NodeId {
        self.peer
    }

    /// The replay log's high-water mark, in frames.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    pub(crate) fn is_up(&self) -> bool {
        matches!(self.phase, Phase::Up)
    }

    /// Appends a frame body to the replay log; the next `transmit` on an
    /// authenticated connection sends it.
    pub(crate) fn push(&mut self, body: FrameBody) {
        self.log.push_back(body);
        self.peak = self.peak.max(self.log.len());
    }

    /// Whether to dial now (called with no connection). A link that never
    /// connected dials with nothing to send, so a node connects before its
    /// process starts; otherwise it dials once it has something to send
    /// and its backoff has passed, and lowers `deadline` to that time.
    pub(crate) fn wants_dial(&self, now_ms: u64, deadline: &mut u64) -> bool {
        if self.ever_connected && self.sent >= self.log.len() {
            return false;
        }
        if now_ms < self.next_dial_at_ms {
            *deadline = (*deadline).min(self.next_dial_at_ms);
            return false;
        }
        true
    }

    /// A fresh connection: writes Hello and starts the handshake clock.
    pub(crate) fn on_connected(&mut self, out: &mut Vec<u8>, now_ms: u64, deadline: &mut u64) {
        let nonce_me = next_nonce();
        put(out, &mut self.frames_out, FrameKind::Hello, 0, 0, &hello_payload(self.me, nonce_me));
        self.phase = Phase::Hello { nonce_me, started_ms: now_ms };
        *deadline = (*deadline).min(now_ms + HANDSHAKE_DEADLINE_MS);
    }

    /// One frame from the accepter: the Challenge (answered with Auth,
    /// after which the whole log is replayed) or a cumulative ack (which
    /// trims the log). Anything else closes the connection.
    pub(crate) fn on_frame(
        &mut self,
        frame: FrameRef<'_>,
        out: &mut Vec<u8>,
        emit: &mut impl FnMut(Event),
    ) -> Result<(), Reason> {
        match self.phase {
            Phase::Hello { nonce_me, .. } => {
                if frame.kind != FrameKind::Challenge {
                    return Err(HANDSHAKE);
                }
                let nonce_peer = parse_challenge(frame.payload, self.secret, self.peer, nonce_me)
                    .map_err(|_| HANDSHAKE)?;
                let auth = auth_payload(self.secret, nonce_peer, self.me);
                put(out, &mut self.frames_out, FrameKind::Auth, 0, 0, &auth);
                let peer = self.peer;
                if self.ever_connected {
                    let attempts = self.attempt;
                    emit(Event::PeerReconnected { peer, attempts });
                } else {
                    emit(Event::PeerConnected { peer });
                }
                self.ever_connected = true;
                self.attempt = 0;
                self.held_until_ms = None;
                self.phase = Phase::Up;
                Ok(())
            }
            Phase::Up if frame.kind == FrameKind::Ack => {
                if frame.seq > self.log_base {
                    let k = ((frame.seq - self.log_base) as usize).min(self.sent);
                    self.log.drain(..k);
                    self.sent -= k;
                    self.log_base += k as u64;
                }
                Ok(())
            }
            _ => Err("ack_failed"),
        }
    }

    /// Writes what the log holds past `sent`, in order, until `out` reaches
    /// `limit` bytes (then `Ok(true)`: more is waiting) or the head frame
    /// is held by a chaos delay (its end lowers `deadline`). Before `Up`,
    /// checks the handshake deadline instead.
    pub(crate) fn transmit(
        &mut self,
        out: &mut Vec<u8>,
        limit: usize,
        now_ms: u64,
        deadline: &mut u64,
    ) -> Result<bool, Reason> {
        match self.phase {
            Phase::Idle => return Ok(false),
            Phase::Hello { started_ms, .. } => {
                let expiry = started_ms + HANDSHAKE_DEADLINE_MS;
                if now_ms >= expiry {
                    return Err(HANDSHAKE);
                }
                *deadline = (*deadline).min(expiry);
                return Ok(false);
            }
            Phase::Up => {}
        }
        while let Some((body, trace)) = self.log.get(self.sent) {
            if out.len() >= limit {
                return Ok(true);
            }
            let chaos = &mut self.chaos;
            let until = *self.held_until_ms.get_or_insert_with(|| now_ms + chaos.delay_ms());
            if now_ms < until {
                *deadline = (*deadline).min(until);
                return Ok(false);
            }
            let seq = self.log_base + self.sent as u64 + 1;
            put(out, &mut self.frames_out, FrameKind::Msg, seq, *trace, body);
            self.sent += 1;
            self.held_until_ms = None;
        }
        Ok(false)
    }

    /// The connection is gone. Before `Up` that is a failed dial or
    /// handshake: back off. After, the link redials at once and replays
    /// every frame not yet acked.
    pub(crate) fn on_closed(&mut self, reason: Reason, now_ms: u64, emit: &mut impl FnMut(Event)) {
        let peer = self.peer;
        let was_up = self.is_up();
        self.phase = Phase::Idle;
        self.held_until_ms = None;
        self.sent = 0;
        if was_up {
            emit(Event::PeerDisconnected { peer, reason });
        } else {
            self.attempt += 1;
            let (attempt, delay_ms) =
                (self.attempt, BACKOFF.delay_ms(self.attempt, &mut self.jitter));
            self.next_dial_at_ms = now_ms + delay_ms;
            emit(Event::ReconnectBackoff { peer, attempt, delay_ms });
        }
    }
}

/// Where one accepted connection is in the handshake.
#[derive(Clone, Copy, Debug)]
enum InPhase {
    AwaitHello { since_ms: u64 },
    AwaitAuth { peer: NodeId, nonce_me: u64, since_ms: u64 },
    Up { peer: NodeId },
}

/// One accepted connection's handshake state; the per-peer state that
/// outlives it is the [`Receiver`]'s.
#[derive(Clone, Copy, Debug)]
pub(crate) struct InLink(InPhase);

impl InLink {
    /// A connection accepted at `now_ms`.
    pub(crate) fn new(now_ms: u64) -> Self {
        InLink(InPhase::AwaitHello { since_ms: now_ms })
    }

    pub(crate) fn is_up(&self) -> bool {
        matches!(self.0, InPhase::Up { .. })
    }

    /// A handshake straggler past its deadline must be closed.
    pub(crate) fn on_timer(&self, now_ms: u64) -> Result<(), Reason> {
        match self.0 {
            InPhase::AwaitHello { since_ms } | InPhase::AwaitAuth { since_ms, .. }
                if now_ms.saturating_sub(since_ms) >= HANDSHAKE_DEADLINE_MS =>
            {
                Err(HANDSHAKE)
            }
            _ => Ok(()),
        }
    }

    /// The connection closed under us; handshake failures stay silent on
    /// this side (the dialer reports them as backoff).
    pub(crate) fn on_closed(&self, reason: Reason, emit: &mut impl FnMut(Event)) {
        if let InPhase::Up { peer } = self.0 {
            emit(Event::PeerDisconnected { peer, reason });
        }
    }
}

/// What a receiver keeps per peer across connections.
#[derive(Clone, Copy, Debug)]
struct Floor {
    /// The next sequence number to deliver.
    next: u64,
    /// The peer has authenticated at least once (`PeerConnected` is
    /// reported once; later connections are the dialer's reconnects).
    seen: bool,
}

/// The accepter side of every link into one node.
pub(crate) struct Receiver {
    me: NodeId,
    secret: Secret,
    /// One floor per node id (`me`'s is never used).
    floors: Vec<Floor>,
    /// Frames written (Challenges and acks).
    pub(crate) frames_out: u64,
}

impl Receiver {
    /// The receiver of node `me` in an `n`-node cluster.
    pub(crate) fn new(me: NodeId, n: usize, secret: Secret) -> Self {
        Receiver { me, secret, floors: vec![Floor { next: 1, seen: false }; n], frames_out: 0 }
    }

    /// One frame on connection `conn`. Handshake frames advance it (a
    /// bad one closes it). Once `Up`, a `Msg` at the peer's floor is
    /// returned for delivery with its sender, one below the floor is a
    /// replay and is skipped, and one above it is a gap: the connection is
    /// severed and the dialer's full replay fills it in.
    pub(crate) fn on_frame<'f>(
        &mut self,
        conn: &mut InLink,
        frame: FrameRef<'f>,
        out: &mut Vec<u8>,
        now_ms: u64,
        emit: &mut impl FnMut(Event),
    ) -> Result<Option<(NodeId, &'f [u8])>, Reason> {
        match conn.0 {
            InPhase::AwaitHello { .. } => {
                if frame.kind != FrameKind::Hello {
                    return Err(HANDSHAKE);
                }
                let (peer, nonce_peer) = parse_hello(frame.payload, self.me, self.floors.len())
                    .map_err(|_| HANDSHAKE)?;
                let nonce_me = next_nonce();
                let body = challenge_payload(self.secret, self.me, nonce_me, nonce_peer);
                put(out, &mut self.frames_out, FrameKind::Challenge, 0, 0, &body);
                conn.0 = InPhase::AwaitAuth { peer, nonce_me, since_ms: now_ms };
                Ok(None)
            }
            InPhase::AwaitAuth { peer, nonce_me, .. } => {
                if frame.kind != FrameKind::Auth
                    || parse_auth(frame.payload, self.secret, peer, nonce_me).is_err()
                {
                    return Err(HANDSHAKE);
                }
                let floor = self.floors.get_mut(peer.index()).ok_or(HANDSHAKE)?;
                if !floor.seen {
                    floor.seen = true;
                    emit(Event::PeerConnected { peer });
                }
                conn.0 = InPhase::Up { peer };
                Ok(None)
            }
            InPhase::Up { peer } => {
                if frame.kind != FrameKind::Msg {
                    emit(Event::FrameDecodeError { reason: "unexpected_kind" });
                    return Err("unexpected_kind");
                }
                let floor = self.floors.get_mut(peer.index()).ok_or(HANDSHAKE)?;
                let seq = frame.seq;
                if seq > floor.next {
                    let expected = floor.next;
                    emit(Event::FrameSequenceGap { from: peer, expected, got: seq });
                    return Err("sequence_gap");
                }
                let fresh = seq == floor.next;
                if fresh {
                    floor.next += 1;
                }
                // Replays are acked too: an ack lost with its connection
                // is sent again when the replay passes the same frame.
                if seq.is_multiple_of(ACK_EVERY) {
                    put(out, &mut self.frames_out, FrameKind::Ack, seq, 0, &[]);
                }
                Ok(fresh.then_some((peer, frame.payload)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use proptest::prelude::*;

    const DIALER: NodeId = NodeId::new(0);
    const ACCEPTER: NodeId = NodeId::new(1);
    const SECRET: Secret = Secret::from_raw(0x5EC);

    fn sender(chaos: &ChaosConfig) -> Sender {
        let chaos = chaos.link(DIALER, ACCEPTER);
        Sender::new(DIALER, ACCEPTER, SECRET, chaos)
    }

    /// Frame `i`'s body: distinct per frame, some of them empty.
    fn body(i: usize) -> Vec<u8> {
        vec![i as u8; i % 5]
    }

    /// Hands every whole frame at the front of `buf` to `each`, then drops
    /// the bytes handed over; a partial frame waits for more bytes.
    fn drain_frames(
        buf: &mut Vec<u8>,
        mut each: impl FnMut(FrameRef<'_>) -> Result<(), Reason>,
    ) -> Result<(), Reason> {
        let mut used = 0;
        let result = loop {
            match FrameRef::decode_prefix(buf.get(used..).unwrap_or_default()) {
                Ok(Some((frame, len))) => {
                    used += len;
                    if let Err(reason) = each(frame) {
                        break Err(reason);
                    }
                }
                Ok(None) => break Ok(()),
                Err(_) => break Err("garbage"),
            }
        };
        buf.drain(..used);
        result
    }

    /// One direction of a connection.
    #[derive(Default)]
    struct Dir {
        /// Written, not yet arrived.
        wire: Vec<u8>,
        /// Arrived, not yet parsed.
        inbuf: Vec<u8>,
        /// Bytes carried so far.
        carried: usize,
        /// The direction is cut after this many bytes.
        cut_at: Option<usize>,
        /// The writer closed its end.
        fin: bool,
    }

    impl Dir {
        fn room(&self) -> usize {
            self.cut_at.map_or(usize::MAX, |at| at - self.carried)
        }

        /// Carries up to `k` bytes to the reader.
        fn carry(&mut self, k: usize) {
            let k = k.min(self.wire.len()).min(self.room());
            self.inbuf.extend(self.wire.drain(..k));
            self.carried += k;
        }

        /// The reader has everything it will ever get.
        fn eof(&self) -> bool {
            (self.fin && self.wire.is_empty()) || self.room() == 0
        }

        fn in_flight(&self) -> bool {
            !self.inbuf.is_empty() || (!self.wire.is_empty() && self.room() > 0)
        }

        /// The reader closed its end: nothing more arrives.
        fn close_reader(&mut self) {
            self.cut_at = Some(self.carried);
            self.inbuf.clear();
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Side {
        Data,
        Acks,
    }

    /// One connection: the dialer's data stream, the accepter's ack stream
    /// (Challenge and acks), and the accepter's handshake state, `None`
    /// once the accepter has closed its end.
    struct Conn {
        data: Dir,
        acks: Dir,
        rx: Option<InLink>,
    }

    impl Conn {
        fn dir(&mut self, side: Side) -> &mut Dir {
            match side {
                Side::Data => &mut self.data,
                Side::Acks => &mut self.acks,
            }
        }
    }

    /// The in-memory byte pipe: one sender, one receiver and every
    /// connection between them, old ones still draining included.
    struct Pipe {
        tx: Sender,
        rx: Receiver,
        conns: Vec<Conn>,
        /// The sender's connection.
        live: Option<usize>,
        /// Applied to the next connection the sender opens.
        next_cut: Option<(Side, usize)>,
        now_ms: u64,
        pushed: usize,
        delivered: Vec<Vec<u8>>,
        /// What the receiver reported.
        rx_events: Vec<Event>,
    }

    impl Pipe {
        fn new(chaos: &ChaosConfig) -> Self {
            Pipe {
                tx: sender(chaos),
                rx: Receiver::new(ACCEPTER, 2, SECRET),
                conns: Vec::new(),
                live: None,
                next_cut: None,
                now_ms: 0,
                pushed: 0,
                delivered: Vec::new(),
                rx_events: Vec::new(),
            }
        }

        fn push(&mut self, frames: usize) {
            for _ in 0..frames {
                self.tx.push((Arc::new(body(self.pushed)), 0));
                self.pushed += 1;
            }
        }

        /// The dialer's turn: dial if it wants to; else read its acks,
        /// transmit, and close on EOF or a machine's error.
        fn sender_turn(&mut self) {
            let Pipe { tx, conns, now_ms, .. } = self;
            let now_ms = *now_ms;
            let mut wake = u64::MAX;
            let Some(c) = self.live else {
                if tx.wants_dial(now_ms, &mut wake) {
                    let mut conn = Conn {
                        data: Dir::default(),
                        acks: Dir::default(),
                        rx: Some(InLink::new(now_ms)),
                    };
                    if let Some((side, at)) = self.next_cut.take() {
                        conn.dir(side).cut_at = Some(at);
                    }
                    tx.on_connected(&mut conn.data.wire, now_ms, &mut wake);
                    conns.push(conn);
                    self.live = Some(conns.len() - 1);
                }
                return;
            };
            let conn = &mut conns[c];
            let result = drain_frames(&mut conn.acks.inbuf, |frame| {
                tx.on_frame(frame, &mut conn.data.wire, &mut drop)
            })
            .and_then(|()| if conn.acks.eof() { Err("peer_closed") } else { Ok(()) })
            .and_then(|()| tx.transmit(&mut conn.data.wire, usize::MAX, now_ms, &mut wake))
            .map(drop);
            if let Err(reason) = result {
                tx.on_closed(reason, now_ms, &mut drop);
                conn.data.fin = true;
                conn.acks.close_reader();
                self.live = None;
            }
        }

        /// The accepter's turn on connection `c`: parse, deliver, and close
        /// on EOF, a handshake timeout or a machine's error.
        fn receiver_turn(&mut self, c: usize) {
            let Pipe { rx, conns, now_ms, delivered, rx_events, .. } = self;
            let mut emit = |e| rx_events.push(e);
            let conn = &mut conns[c];
            let Some(link) = conn.rx.as_mut() else { return };
            let result = drain_frames(&mut conn.data.inbuf, |frame| {
                let delivery = rx.on_frame(link, frame, &mut conn.acks.wire, *now_ms, &mut emit)?;
                delivered.extend(delivery.map(|(from, payload)| {
                    assert_eq!(from, DIALER, "delivered from the authenticated dialer");
                    payload.to_vec()
                }));
                Ok(())
            })
            .and_then(|()| {
                if conn.data.eof() {
                    Err("closed")
                } else {
                    link.on_timer(*now_ms)
                }
            });
            if let Err(reason) = result {
                link.on_closed(reason, &mut emit);
                conn.rx = None;
                conn.acks.fin = true;
                conn.data.close_reader();
            }
        }

        fn carry(&mut self, c: usize, side: Side, k: usize) {
            self.conns[c].dir(side).carry(k);
        }

        /// Nothing left to move: every frame pushed is delivered, no byte
        /// can still arrive, every reader has seen its EOF, and the sender
        /// has written its whole log to an open connection.
        fn quiet(&self) -> bool {
            let busy = |(c, conn): (usize, &Conn)| {
                conn.data.in_flight()
                    || conn.acks.in_flight()
                    || (conn.rx.is_some() && conn.data.eof())
                    || (self.live == Some(c) && conn.acks.eof())
            };
            self.delivered.len() == self.pushed
                && !self.conns.iter().enumerate().any(busy)
                && (self.live.is_some() || self.tx.log.is_empty())
                && self.tx.sent == self.tx.log.len()
        }

        /// Runs every side in turn, carrying every byte, a millisecond a
        /// round, until the pipe is quiet.
        fn settle(&mut self) {
            for _ in 0..10_000 {
                if self.quiet() {
                    return;
                }
                self.sender_turn();
                for c in 0..self.conns.len() {
                    self.carry(c, Side::Data, usize::MAX);
                    self.receiver_turn(c);
                    self.carry(c, Side::Acks, usize::MAX);
                }
                self.now_ms += 1;
            }
            panic!("the pipe never settled: {} of {} delivered", self.delivered.len(), self.pushed);
        }

        /// Every frame delivered exactly once and in order, the log trimmed
        /// below one ack interval, and never a sequence gap.
        fn assert_contract(&self) {
            let want: Vec<Vec<u8>> = (0..self.pushed).map(body).collect();
            assert_eq!(self.delivered, want, "each frame once, in order");
            assert!(
                (self.tx.log.len() as u64) < ACK_EVERY,
                "{} frames left in the replay log",
                self.tx.log.len()
            );
            let gaps =
                self.rx_events.iter().filter(|e| matches!(e, Event::FrameSequenceGap { .. }));
            assert_eq!(gaps.count(), 0, "a replay never skips ahead");
        }
    }

    #[test]
    fn every_cut_of_a_twenty_frame_exchange_delivers_each_frame_once_in_order() {
        let frames = 20;
        let mut whole = Pipe::new(&ChaosConfig::default());
        whole.push(frames);
        whole.settle();
        whole.assert_contract();
        assert_eq!(whole.conns.len(), 1);
        let (data_len, ack_len) = (whole.conns[0].data.carried, whole.conns[0].acks.carried);
        assert_eq!(whole.tx.log.len(), frames - ACK_EVERY as usize, "the exchange crosses an ack");

        for (side, len) in [(Side::Data, data_len), (Side::Acks, ack_len)] {
            for at in 0..len {
                let mut pipe = Pipe::new(&ChaosConfig::default());
                pipe.push(frames);
                pipe.next_cut = Some((side, at));
                pipe.settle();
                assert!(pipe.conns.len() >= 2, "{side:?} cut at {at} never redialled");
                pipe.assert_contract();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A seeded schedule of pushes, turns in any order, partial
        /// deliveries, cuts of either direction at any offset, stalls, time
        /// jumps past the handshake deadline and chaos delays; then the
        /// faults stop and the pipe settles. The contract holds throughout:
        /// what is delivered is always a prefix of what was pushed.
        #[test]
        fn seeded_byte_pipe_keeps_the_link_contract(seed in 0u64..u64::MAX) {
            let chaos = ChaosConfig { seed, delay_per_mille: 200, max_delay_ms: 3 };
            let mut pipe = Pipe::new(&chaos);
            let mut rng = XorShift::new(seed);
            let mut stalled = [false; 2];
            let pick = |rng: &mut XorShift, len: usize| rng.below(len as u64) as usize;
            for _ in 0..600 {
                let side = if rng.below(2) == 0 { Side::Data } else { Side::Acks };
                let c = pick(&mut rng, pipe.conns.len().max(1));
                match rng.below(9) {
                    0 if pipe.pushed < 40 => pipe.push(1 + pick(&mut rng, 4)),
                    1 | 2 => pipe.sender_turn(),
                    3 if c < pipe.conns.len() => pipe.receiver_turn(c),
                    4 | 5 if c < pipe.conns.len() && !stalled[side as usize] => {
                        let k = 1 + pick(&mut rng, 80);
                        pipe.carry(c, side, k);
                    }
                    6 if c < pipe.conns.len() && rng.below(8) == 0 => {
                        let dir = pipe.conns[c].dir(side);
                        let at = dir.carried + pick(&mut rng, dir.wire.len() + 1);
                        dir.cut_at = Some(dir.cut_at.map_or(at, |old| old.min(at)));
                    }
                    7 => stalled[side as usize] ^= true,
                    _ => pipe.now_ms += if rng.below(40) == 0 { 2_500 } else { rng.below(3) },
                }
                let want: Vec<Vec<u8>> = (0..pipe.delivered.len()).map(body).collect();
                prop_assert_eq!(&pipe.delivered, &want, "seed {}: out of order or twice", seed);
            }
            pipe.push(40 - pipe.pushed.min(40));
            pipe.settle();
            pipe.assert_contract();
            let connected =
                pipe.rx_events.iter().filter(|e| matches!(e, Event::PeerConnected { .. }));
            prop_assert_eq!(connected.count(), 1, "seed {}: one PeerConnected per peer", seed);
        }
    }

    /// Runs one handshake between `tx` and a fresh accepted connection,
    /// frame by frame, and returns that connection `Up`.
    fn authenticate(tx: &mut Sender, rx: &mut Receiver, rx_events: &mut Vec<Event>) -> InLink {
        let mut conn = InLink::new(0);
        let (mut data, mut acks) = (Vec::new(), Vec::new());
        let mut to_rx = |data: &mut Vec<u8>, acks: &mut Vec<u8>, conn: &mut InLink| {
            drain_frames(data, |f| {
                rx.on_frame(conn, f, acks, 0, &mut |e| rx_events.push(e)).map(drop)
            })
        };
        tx.on_connected(&mut data, 0, &mut 0);
        assert_eq!(to_rx(&mut data, &mut acks, &mut conn), Ok(()));
        assert_eq!(drain_frames(&mut acks, |f| tx.on_frame(f, &mut data, &mut drop)), Ok(()));
        assert_eq!(to_rx(&mut data, &mut acks, &mut conn), Ok(()));
        assert!(tx.is_up() && conn.is_up());
        conn
    }

    #[test]
    fn two_authentications_before_any_msg_report_one_peer_connected() {
        let (mut tx, mut rx) =
            (sender(&ChaosConfig::default()), Receiver::new(ACCEPTER, 2, SECRET));
        let mut events = Vec::new();
        authenticate(&mut tx, &mut rx, &mut events);
        tx.on_closed("peer_closed", 0, &mut drop);
        authenticate(&mut tx, &mut rx, &mut events);
        assert_eq!(events, [Event::PeerConnected { peer: DIALER }]);
    }

    #[test]
    fn a_jump_past_the_floor_severs_and_a_replay_below_it_is_skipped() {
        let (mut tx, mut rx) =
            (sender(&ChaosConfig::default()), Receiver::new(ACCEPTER, 2, SECRET));
        let mut events = Vec::new();
        let mut conn = authenticate(&mut tx, &mut rx, &mut events);
        let offer = |rx: &mut Receiver, conn: &mut InLink, kind, seq, events: &mut Vec<Event>| {
            let mut wire = Vec::new();
            assert!(encode_frame_into(&mut wire, kind, seq, 0, &[seq as u8]).is_ok());
            let mut got = Err("no frame");
            let parsed = drain_frames(&mut wire, |f| {
                let delivery = rx.on_frame(conn, f, &mut Vec::new(), 0, &mut |e| events.push(e));
                got = delivery.map(|d| d.map(|(_, payload)| payload.to_vec()));
                got.as_ref().map(drop).map_err(|e| *e)
            });
            assert_eq!(parsed.is_ok(), got.is_ok());
            got
        };
        assert_eq!(offer(&mut rx, &mut conn, FrameKind::Msg, 1, &mut events), Ok(Some(vec![1])));
        assert_eq!(offer(&mut rx, &mut conn, FrameKind::Msg, 1, &mut events), Ok(None), "replay");
        assert_eq!(offer(&mut rx, &mut conn, FrameKind::Msg, 3, &mut events), Err("sequence_gap"));
        assert_eq!(
            events.last(),
            Some(&Event::FrameSequenceGap { from: DIALER, expected: 2, got: 3 })
        );

        // The floor outlives the connection.
        tx.on_closed("peer_closed", 0, &mut drop);
        let mut conn = authenticate(&mut tx, &mut rx, &mut events);
        assert_eq!(offer(&mut rx, &mut conn, FrameKind::Msg, 1, &mut events), Ok(None));
        assert_eq!(offer(&mut rx, &mut conn, FrameKind::Msg, 2, &mut events), Ok(Some(vec![2])));
        assert_eq!(
            offer(&mut rx, &mut conn, FrameKind::Hello, 0, &mut events),
            Err("unexpected_kind"),
            "only Msg frames flow once a connection is up"
        );
    }

    #[test]
    fn a_failed_handshake_backs_off_and_a_closed_link_redials_at_once() {
        let mut tx = sender(&ChaosConfig::default());
        let mut events = Vec::new();
        let mut wake = u64::MAX;
        assert!(tx.wants_dial(0, &mut wake), "a link that never connected dials");
        tx.on_connected(&mut Vec::new(), 0, &mut wake);
        assert_eq!(
            tx.transmit(&mut Vec::new(), usize::MAX, HANDSHAKE_DEADLINE_MS, &mut wake),
            Err(HANDSHAKE)
        );
        tx.on_closed(HANDSHAKE, HANDSHAKE_DEADLINE_MS, &mut |e| events.push(e));
        let Some(Event::ReconnectBackoff { attempt: 1, delay_ms, .. }) = events.pop() else {
            panic!("a failed handshake must back off");
        };
        let retry_at = HANDSHAKE_DEADLINE_MS + delay_ms;
        wake = u64::MAX;
        assert!(!tx.wants_dial(retry_at - 1, &mut wake));
        assert_eq!(wake, retry_at, "the backoff end bounds the wait");
        assert!(tx.wants_dial(retry_at, &mut wake));

        let mut rx = Receiver::new(ACCEPTER, 2, SECRET);
        authenticate(&mut tx, &mut rx, &mut Vec::new());
        tx.push((Arc::new(body(1)), 0));
        let mut out = Vec::new();
        assert_eq!(tx.transmit(&mut out, usize::MAX, retry_at, &mut wake), Ok(false));
        assert!(!out.is_empty());
        tx.on_closed("peer_closed", retry_at, &mut |e| events.push(e));
        assert_eq!(events, [Event::PeerDisconnected { peer: ACCEPTER, reason: "peer_closed" }]);
        assert!(tx.wants_dial(retry_at, &mut wake), "an unacked frame redials at once");
    }

    #[test]
    fn the_chaos_delay_holds_the_head_frame_and_the_ones_behind_it() {
        let chaos = ChaosConfig { seed: 9, delay_per_mille: 1000, max_delay_ms: 5 };
        let mut tx = sender(&chaos);
        authenticate(&mut tx, &mut Receiver::new(ACCEPTER, 2, SECRET), &mut Vec::new());
        tx.push((Arc::new(body(1)), 0));
        tx.push((Arc::new(body(2)), 0));
        let (mut out, mut wake) = (Vec::new(), u64::MAX);
        assert_eq!(tx.transmit(&mut out, usize::MAX, 100, &mut wake), Ok(false));
        assert!(out.is_empty() && (101..=105).contains(&wake), "held until {wake}");
        let first = wake;
        wake = u64::MAX;
        assert_eq!(tx.transmit(&mut out, usize::MAX, first, &mut wake), Ok(false));
        assert_eq!(tx.sent, 1, "the head goes at its time; the next draws its own delay");
        assert!(wake > first && wake <= first + 5);
    }
}
