//! The TCP transport's engine: one nonblocking poll loop per node.
//!
//! Each node is **one thread**, whatever `n`. It owns every socket the
//! node touches (peer listener, inbound connections, outbound links, the
//! client gateway) and the node's sans-io process, which it steps in the
//! same pass that reads the frames — as the simulator does, one
//! `on_message` per delivery. Readiness comes from `poll(2)` via the
//! dependency-free [`poll`] shim.
//!
//! # One pass
//!
//! A pass runs, in order: the scheduled crash/restart deadlines, the
//! listener bounce, accepts, every inbound connection (each decoded
//! frame is stepped at once, and the self-addressed messages the step
//! queues are stepped before the next frame), the client gateway (read
//! submissions, one `on_tick` if any was admitted or the last poll
//! reported nothing, then every completion notice queued so far is
//! written back), and finally every outbound link
//! (encode what the steps queued, flush). So every frame and every
//! gateway notice a step produces is on its connection before the loop
//! parks in `poll` — no other thread feeds this loop, so there is nothing
//! to wake it for. The one flag set from outside, shutdown, is read at
//! the top of each pass: a node sees it within one poll cap (10 ms).
//! Every connection — inbound peer, outbound link, gateway client — is
//! read one `READ_CHUNK` at a time, and a chunk's frames are parsed
//! (inbound: stepped) before the next read. Before its process starts, a
//! node connects to every running peer, and no process starts until
//! every node has (`StartGate`).
//!
//! # What the links guarantee
//!
//! The link contract [`crate::runtime`] documents (the handshake,
//! contiguous sequence numbers, the ack-trimmed replay log, the per-peer
//! dedup floor, backoff, severing on a gap, the chaos delay) is not kept
//! here: it is the sans-io `Sender` and `Receiver` machines of
//! `link.rs`. The reactor owns the sockets and moves bytes: each outbound
//! `Link` pairs a sender with its connection, each `InConn` pairs an
//! accepted connection with its handshake state, and the node's one
//! receiver holds the floors. Decoded frames go in as `FrameRef` views of
//! the connection's input buffer, and the machines encode straight into
//! its output buffer. The deterministic simulator is the differential
//! oracle: `tests/net_reactor.rs` and `tests/net_loopback.rs` require the
//! logs a seeded workload commits over these sockets to equal the ones
//! it commits in `bft-sim`.
//!
//! Each `poll` both parks the loop and reports per-descriptor readiness;
//! the next pass makes read/accept syscalls **only on the descriptors
//! `revents` flagged**, so an idle connection costs one poll-set entry,
//! not a `read(2)` that returns `EWOULDBLOCK`. Readiness is still only a
//! gate, never a proof: `poll(2)` is level-triggered, every socket is
//! nonblocking, and every pump handles `WouldBlock`, so a spurious bit
//! costs one wasted syscall and a missed bit is re-reported by the next
//! poll — never a stall.
//!
//! # The client gateway
//!
//! A node configured with a [`GatewayPipe`] additionally owns a gateway
//! listener. External clients connect without a handshake and speak
//! `Submit`/`SubmitOk`/`SubmitNack` frames; decoded submissions go to the
//! process through the pipe's bounded intake (refusals are answered
//! with a typed backpressure NACK without a step), a pass that admitted
//! any runs the process's `on_tick` hook, and the completion notices it
//! and earlier steps pushed go back to the submitting clients'
//! connections.
//!
//! A pass after a poll that reported nothing runs `on_tick` too, on
//! every node, gateway or not: a quiet cluster sends no message, so
//! without it a process would never see a flag raised outside the
//! protocol (the host finishing the gateway's intake, a harness asking
//! for its output). That costs at most one tick per idle node per poll
//! cap, and a tick on a node with nothing to order sends nothing.

use crate::clock::{sleep_ms, Clock};
use crate::frame::{encode_frame_into, FrameKind, FrameRef, PayloadTooLarge, FRAME_OVERHEAD};
use crate::gateway::{
    parse_submit, submit_nack_payload, submit_ok_payload, ClientSubmit, GatewayNotice, GatewayPipe,
    NackReason, INTAKE_CAP,
};
use crate::link::{InLink, Reason, Receiver, Sender};
use crate::runtime::{
    locked, rebind, supervised, BoxedProcess, ListenerBounce, NetRuntime, PanicLedger, RestartSpec,
    RuntimeReport,
};
use bft_obs::{Event as ObsEvent, Obs, ReactorStats};
use bft_types::wire::{Codec, DecodeError, MAX_PAYLOAD};
use bft_types::{Effect, NodeId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Soft cap on a peer connection's pending output buffer: the transmit
/// machine flushes each time it gets there and stops once the socket
/// takes no more, so a slow receiver bounds our memory instead of growing
/// it, and a busy link's buffer stays one cap deep.
const OUTBUF_SOFT_CAP: usize = 16 << 10;

/// Upper bound on one poll sleep: how long a parked node may take to see
/// the shutdown flag.
const POLL_CAP_MS: u64 = 10;

// ---- buffered nonblocking connections -------------------------------------

/// What a fill pass observed on the read side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FillEnd {
    /// Connection still open (nothing more to read right now).
    Open,
    /// Orderly FIN from the peer (peers never half-close here, so the
    /// connection is done).
    Eof,
    /// Hard transport error.
    Error,
}

/// Bytes asked of the kernel per connection `read`.
const READ_CHUNK: usize = 16 << 10;

/// One nonblocking socket with explicit in/out buffering.
struct BufConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    in_pos: usize,
    outbuf: Vec<u8>,
    out_pos: usize,
    /// The peer sent FIN: stop polling for readability (an EOF socket is
    /// perpetually "readable" and would spin the loop).
    peer_eof: bool,
    /// The last poll flagged the socket readable (set via [`mark_ready`],
    /// consumed by [`read_ready`]). Starts `true` so a fresh connection
    /// reads whatever raced in before its first poll.
    ready: bool,
}

impl BufConn {
    fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(BufConn {
            stream,
            inbuf: Vec::new(),
            in_pos: 0,
            outbuf: Vec::new(),
            out_pos: 0,
            peer_eof: false,
            ready: true,
        })
    }

    /// Records that the last poll reported this socket readable (or
    /// hung up / errored — a read surfaces those too).
    fn mark_ready(&mut self) {
        self.ready = true;
    }

    fn pending_out(&self) -> bool {
        self.out_pos < self.outbuf.len()
    }

    /// Encodes one frame straight into the output buffer.
    fn queue_frame(
        &mut self,
        io: &mut ReactorStats,
        kind: FrameKind,
        seq: u64,
        trace: u64,
        payload: &[u8],
    ) -> Result<(), PayloadTooLarge> {
        encode_frame_into(&mut self.outbuf, kind, seq, trace, payload)?;
        io.frames_out += 1;
        Ok(())
    }

    /// Appends up to one [`READ_CHUNK`] of what the socket holds to the
    /// input buffer. The read syscall is issued only when the last poll
    /// flagged the socket (the flag is consumed here and re-armed by the
    /// next poll) or the last chunk came back full, so an idle connection
    /// costs no `EWOULDBLOCK` read per pass. Also returns whether the chunk
    /// came back full: a *short* read has emptied the kernel buffer, so
    /// asking again would only buy a `WouldBlock`. Level-triggered `poll`
    /// re-flags anything that arrives later, a FIN included — EOF is then
    /// reported by the next flagged pass. Skipped entirely once the peer
    /// has half-closed.
    fn read_ready(&mut self, io: &mut ReactorStats) -> (FillEnd, bool) {
        if self.peer_eof {
            return (FillEnd::Eof, false);
        }
        if !self.ready {
            return (FillEnd::Open, false);
        }
        let mut chunk = [0u8; READ_CHUNK];
        let (end, full) = loop {
            io.reads += 1;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    break (FillEnd::Eof, false);
                }
                Ok(k) => {
                    self.inbuf.extend_from_slice(chunk.get(..k).unwrap_or_default());
                    break (FillEnd::Open, k == READ_CHUNK);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    io.reads_blocked += 1;
                    break (FillEnd::Open, false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break (FillEnd::Error, false),
            }
        };
        self.ready = full;
        (end, full)
    }

    /// Reads the socket a chunk at a time, up to the first short read,
    /// and lets `parse` take each chunk's complete frames before the next
    /// read — so the input buffer holds one chunk and a partial frame, not
    /// all the socket had. An `Err` from `parse` (close the connection)
    /// stops the reading and is returned.
    fn read_frames<E>(
        &mut self,
        io: &mut ReactorStats,
        mut parse: impl FnMut(&mut Self, &mut ReactorStats) -> Result<(), E>,
    ) -> Result<FillEnd, E> {
        loop {
            let (end, more) = self.read_ready(io);
            parse(self, io)?;
            self.compact_in();
            if !more {
                return Ok(end);
            }
        }
    }

    /// Peels the next complete frame off the input buffer, if one is
    /// fully buffered, as a view into that buffer — paired with the
    /// output buffer, so a link machine can answer while it holds the
    /// frame.
    fn next_frame(
        &mut self,
        io: &mut ReactorStats,
    ) -> Result<Option<(FrameRef<'_>, &mut Vec<u8>)>, DecodeError> {
        let rest = self.inbuf.get(self.in_pos..).unwrap_or_default();
        let Some((frame, used)) = FrameRef::decode_prefix(rest)? else { return Ok(None) };
        // `used` is bounded by the bytes actually buffered, but keep the
        // cursor arithmetic non-wrapping regardless.
        self.in_pos = self.in_pos.saturating_add(used);
        io.frames_in += 1;
        Ok(Some((frame, &mut self.outbuf)))
    }

    /// Drops consumed input bytes (called once per parsed chunk, so frame
    /// parsing stays O(bytes) instead of O(bytes × frames)).
    fn compact_in(&mut self) {
        if self.in_pos > 0 {
            self.inbuf.drain(..self.in_pos);
            self.in_pos = 0;
        }
    }

    /// Writes as much pending output as the socket accepts. `false`
    /// means the connection is dead.
    fn flush(&mut self, io: &mut ReactorStats) -> bool {
        while self.out_pos < self.outbuf.len() {
            let rest = self.outbuf.get(self.out_pos..).unwrap_or_default();
            io.writes += 1;
            match self.stream.write(rest) {
                Ok(0) => return false,
                Ok(k) => self.out_pos += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.out_pos >= self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
        } else if self.out_pos > (64 << 10) {
            self.outbuf.drain(..self.out_pos);
            self.out_pos = 0;
        }
        true
    }

    /// The poll-set entry for this connection, or `None` when there is
    /// nothing to wait for (half-closed and fully flushed).
    fn poll_fd(&self) -> Option<poll::PollFd> {
        let mut events: i16 = 0;
        if !self.peer_eof {
            events |= poll::POLLIN;
        }
        if self.pending_out() {
            events |= poll::POLLOUT;
        }
        if events == 0 {
            return None;
        }
        Some(poll::PollFd::new(self.stream.as_raw_fd(), events))
    }
}

// ---- outbound links -------------------------------------------------------

/// One directed outbound link: the sender machine and its connection.
struct Link {
    tx: Sender,
    conn: Option<BufConn>,
}

impl Link {
    /// One nonblocking pass: with no connection, dial if the machine asks
    /// to; with one, feed it the accepter's frames, then write what it
    /// transmits. A connection that ends is reported to the machine.
    fn pump(
        &mut self,
        addr_table: &Mutex<Vec<SocketAddr>>,
        io: &mut ReactorStats,
        now_ms: u64,
        deadline: &mut u64,
        emit: &mut impl FnMut(ObsEvent),
    ) {
        let result = match self.conn.as_mut() {
            Some(conn) => exchange(&mut self.tx, conn, io, now_ms, deadline, emit),
            None if self.tx.wants_dial(now_ms, deadline) => {
                self.dial(addr_table, io, now_ms, deadline)
            }
            None => Ok(()),
        };
        if let Err(reason) = result {
            self.conn = None;
            self.tx.on_closed(reason, now_ms, emit);
        }
    }

    /// Connects and writes the machine's Hello.
    fn dial(
        &mut self,
        addr_table: &Mutex<Vec<SocketAddr>>,
        io: &mut ReactorStats,
        now_ms: u64,
        deadline: &mut u64,
    ) -> Result<(), Reason> {
        let addr = locked(addr_table).get(self.tx.peer().index()).copied();
        let conn = addr.and_then(|addr| TcpStream::connect(addr).and_then(BufConn::new).ok());
        let conn = self.conn.insert(conn.ok_or("dial_failed")?);
        self.tx.on_connected(&mut conn.outbuf, now_ms, deadline);
        if conn.flush(io) {
            Ok(())
        } else {
            Err("write_failed")
        }
    }
}

/// Reads the accepter's frames into the sender, then encodes up to the
/// soft cap and flushes, for as long as the socket takes all of it: no
/// frame waits for the next pass, and the buffer never holds more than
/// the cap. `Err` closes the connection.
fn exchange(
    tx: &mut Sender,
    conn: &mut BufConn,
    io: &mut ReactorStats,
    now_ms: u64,
    deadline: &mut u64,
    emit: &mut impl FnMut(ObsEvent),
) -> Result<(), Reason> {
    let end = conn.read_frames(io, |conn, io| loop {
        match conn.next_frame(io) {
            Ok(Some((frame, out))) => tx.on_frame(frame, out, emit)?,
            Ok(None) => break Ok(()),
            Err(_) => break Err("ack_failed"),
        }
    })?;
    match end {
        FillEnd::Open => {}
        FillEnd::Eof => return Err("peer_closed"),
        FillEnd::Error => return Err("read_failed"),
    }
    while tx.transmit(&mut conn.outbuf, conn.out_pos + OUTBUF_SOFT_CAP, now_ms, deadline)?
        && conn.flush(io)
        && !conn.pending_out()
    {}
    if conn.flush(io) {
        Ok(())
    } else {
        Err("write_failed")
    }
}

// ---- inbound connections --------------------------------------------------

/// One accepted peer connection.
struct InConn {
    conn: BufConn,
    link: InLink,
}

// ---- the client gateway front ---------------------------------------------

/// The reactor-owned half of a node's client gateway: the listener,
/// accepted client connections, and the client → connection routing for
/// completion notices.
struct GatewayFront {
    listener: TcpListener,
    /// The last poll flagged the listener: an `accept` will not block.
    listener_ready: bool,
    pipe: GatewayPipe,
    conns: Vec<(u64, BufConn)>,
    next_conn_id: u64,
    owner: BTreeMap<u64, u64>,
}

impl GatewayFront {
    fn new(listener: TcpListener, pipe: GatewayPipe) -> Self {
        GatewayFront {
            listener,
            listener_ready: true,
            pipe,
            conns: Vec::new(),
            next_conn_id: 0,
            owner: BTreeMap::new(),
        }
    }

    /// Accepts new clients and reads every connection: decoded
    /// submissions go to the pipe's intake, and a full intake is refused
    /// with a typed NACK (queued here, written by [`reply`](Self::reply)).
    /// A connection that fails, or sends anything but a well-formed
    /// `Submit` — a confused or hostile peer — is closed. Returns whether
    /// the intake took a submission.
    fn read(&mut self, io: &mut ReactorStats, obs: &Obs, clock: Clock, me: NodeId) -> bool {
        if self.listener_ready {
            self.listener_ready = false;
            while let Ok((stream, _)) = self.listener.accept() {
                if let Ok(conn) = BufConn::new(stream) {
                    self.conns.push((self.next_conn_id, conn));
                    self.next_conn_id += 1;
                }
            }
        }
        let mut admitted = false;
        let before = self.conns.len();
        let (pipe, owner) = (&self.pipe, &mut self.owner);
        self.conns.retain_mut(|(conn_id, conn)| {
            let parsed = conn.read_frames(io, |conn, io| loop {
                match conn.next_frame(io) {
                    Ok(Some((frame, _))) => {
                        if frame.kind != FrameKind::Submit {
                            return Err(());
                        }
                        let Ok((client, tx)) = parse_submit(frame.payload) else { return Err(()) };
                        let seq = frame.seq;
                        owner.insert(client, *conn_id);
                        if pipe.push_intake(ClientSubmit { client, seq, tx }) {
                            admitted = true;
                            continue;
                        }
                        // Intake full: external load must never grow node
                        // memory without bound.
                        let pending = pipe.intake_len() as u64;
                        let reason =
                            NackReason::Backpressure { pending, capacity: INTAKE_CAP as u64 };
                        let body = submit_nack_payload(client, &reason);
                        let _ = conn.queue_frame(io, FrameKind::SubmitNack, seq, 0, &body);
                        let label = reason.label();
                        obs.emit_at(clock.now_us(), me, || ObsEvent::GatewayNacked {
                            client,
                            seq,
                            reason: label,
                        });
                    }
                    Ok(None) => break Ok(()),
                    Err(_) => return Err(()),
                }
            });
            !matches!(parsed, Ok(FillEnd::Error) | Err(()))
        });
        if self.conns.len() < before {
            self.forget_closed();
        }
        admitted
    }

    /// Queues every completion notice on the submitting client's most
    /// recent connection (notices for vanished clients are dropped: the
    /// client re-learns its state by resubmitting), then flushes each
    /// connection once — a pass's replies in one write — and closes the
    /// ones whose write failed or whose client hung up.
    fn reply(&mut self, io: &mut ReactorStats) {
        for notice in self.pipe.drain_notices() {
            let (client, kind, seq, body) = match notice {
                GatewayNotice::Committed { client, seq } => {
                    (client, FrameKind::SubmitOk, seq, submit_ok_payload(client))
                }
                GatewayNotice::Rejected { client, seq, reason } => {
                    (client, FrameKind::SubmitNack, seq, submit_nack_payload(client, &reason))
                }
            };
            let Some(conn_id) = self.owner.get(&client).copied() else { continue };
            if let Some((_, conn)) = self.conns.iter_mut().find(|(id, _)| *id == conn_id) {
                let _ = conn.queue_frame(io, kind, seq, 0, &body);
            }
        }
        let before = self.conns.len();
        self.conns.retain_mut(|(_, conn)| conn.flush(io) && !conn.peer_eof);
        if self.conns.len() < before {
            self.forget_closed();
        }
    }

    /// Drops the routing entries of closed connections.
    fn forget_closed(&mut self) {
        let conns = &self.conns;
        self.owner.retain(|_, conn_id| conns.iter().any(|(id, _)| id == conn_id));
    }
}

// ---- the node's process ---------------------------------------------------

/// The node's sans-io process and what its steps touch besides the
/// links: the local delivery queue, the shared output map and the
/// crash/restart schedule.
struct Host<M, O> {
    me: NodeId,
    proc_: BoxedProcess<M, O>,
    /// The process emitted `Halt`.
    halted: bool,
    /// The host is down: between a scheduled crash and its restart.
    crashed: bool,
    restart: Option<RestartSpec<M, O>>,
    /// Self-addressed messages, stepped before the pass moves on.
    local: VecDeque<M>,
    outputs: Arc<Mutex<BTreeMap<NodeId, O>>>,
    obs: Obs,
    clock: Clock,
}

impl<M: Codec + Clone + fmt::Debug, O: Clone + fmt::Debug + PartialEq> Host<M, O> {
    fn dead(&self) -> bool {
        self.crashed || self.halted || self.proc_.is_halted()
    }

    /// Refreshes the shared stamp before a protocol step, so events
    /// emitted from inside the process (spans included) carry the time of
    /// *this* step. A disabled observer discards the stamp, so the clock
    /// is read only when one is attached.
    fn stamp(&self) {
        if self.obs.enabled() {
            self.obs.set_now(self.clock.now_us());
        }
    }

    /// Runs `on_start` (at launch and after a restart).
    fn start(&mut self, links: &mut [Link]) {
        self.stamp();
        let effects = self.proc_.on_start();
        self.apply(effects, links);
        self.drain_local(links);
    }

    /// Delivers one message from a peer — dropped while the node is dead,
    /// as a dead host would — then the self-addressed ones it queues.
    fn deliver(&mut self, from: NodeId, msg: &M, links: &mut [Link]) {
        self.step_message(from, msg, links);
        self.drain_local(links);
    }

    /// Out-of-band input is queued (gateway intake), or a pass found
    /// nothing at all: gives the process a turn even though no message
    /// arrived.
    fn tick(&mut self, links: &mut [Link]) {
        if self.dead() {
            return;
        }
        self.stamp();
        let effects = self.proc_.on_tick();
        self.apply(effects, links);
        self.drain_local(links);
    }

    fn step_message(&mut self, from: NodeId, msg: &M, links: &mut [Link]) {
        self.stamp();
        let me = self.me;
        if self.dead() {
            self.obs.emit(me, || ObsEvent::MessageDropped { from });
            return;
        }
        self.obs.emit(me, || ObsEvent::MessageDelivered { from, kind: "net" });
        let effects = self.proc_.on_message(from, msg);
        self.apply(effects, links);
    }

    fn drain_local(&mut self, links: &mut [Link]) {
        while let Some(msg) = self.local.pop_front() {
            self.step_message(self.me, &msg, links);
        }
    }

    /// Fires the scheduled crash and restart once their deadlines pass,
    /// and otherwise lowers the pass's poll deadline to the next one. A
    /// crashed host drops every delivery; the restart builds a fresh
    /// process, clears the node's output (the replacement must re-earn
    /// it) and runs `on_start`.
    fn step_restart(&mut self, now_ms: u64, deadline: &mut u64, links: &mut [Link]) {
        let Some(spec) = self.restart.as_ref() else { return };
        let (crash_at, restart_at) = (spec.crash_at_ms, spec.restart_at_ms);
        if !self.crashed && now_ms >= crash_at {
            self.crashed = true;
            self.stamp();
            self.obs.emit(self.me, || ObsEvent::NodeHalted);
        }
        if !self.crashed {
            *deadline = (*deadline).min(crash_at);
        } else if now_ms < restart_at {
            *deadline = (*deadline).min(restart_at);
        } else if let Some(spec) = self.restart.take() {
            self.proc_ = (spec.factory)();
            self.crashed = false;
            self.halted = false;
            locked(&self.outputs).remove(&self.me);
            self.start(links);
        }
    }

    /// Carries out one step's effects: frames go onto their links' replay
    /// logs, self-addressed messages onto the local queue.
    fn apply(&mut self, effects: Vec<Effect<M, O>>, links: &mut [Link]) {
        let me = self.me;
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => {
                    let body = msg.to_bytes();
                    if oversize(me, &body, &self.obs) {
                        continue;
                    }
                    let bytes = (body.len() + FRAME_OVERHEAD) as u64;
                    self.obs.emit(me, || ObsEvent::MessageSent { to, kind: "net", bytes });
                    if to == me {
                        // Self-delivery short-circuits in-process (the
                        // encoded size is still reported for parity).
                        self.local.push_back(msg);
                    } else if let Some(link) = links.iter_mut().find(|l| l.tx.peer() == to) {
                        link.tx.push((Arc::new(body), msg.trace_hint()));
                    }
                }
                Effect::Broadcast { msg } => {
                    // Encode once: every remote link's log entry shares one
                    // body allocation.
                    let body = Arc::new(msg.to_bytes());
                    if oversize(me, &body, &self.obs) {
                        continue;
                    }
                    let trace = msg.trace_hint();
                    let bytes = (body.len() + FRAME_OVERHEAD) as u64;
                    // `links` holds every peer but `me`.
                    for to in NodeId::all(links.len() + 1) {
                        self.obs.emit(me, || ObsEvent::MessageSent { to, kind: "net", bytes });
                    }
                    for link in links.iter_mut() {
                        link.tx.push((Arc::clone(&body), trace));
                    }
                    self.local.push_back(msg);
                }
                Effect::Output(o) => {
                    locked(&self.outputs).entry(me).or_insert(o);
                }
                Effect::Halt => {
                    if !self.halted {
                        self.halted = true;
                        self.obs.emit(me, || ObsEvent::NodeHalted);
                    }
                }
            }
        }
    }
}

/// Rejects bodies that cannot be framed ([`MAX_PAYLOAD`])
/// at the send boundary, before they are assigned a sequence number.
/// Letting one into a link's replay log would wedge the link: the frame can
/// never be transmitted, and skipping it would leave a permanent
/// sequence gap on replay.
fn oversize(me: NodeId, body: &[u8], obs: &Obs) -> bool {
    if body.len() > MAX_PAYLOAD as usize {
        let len = body.len() as u64;
        obs.emit(me, || ObsEvent::PayloadRejected { len });
        return true;
    }
    false
}

/// The callback the link machines report through: each event stamped
/// when it happens, and none once shutdown is set (teardown closes every
/// connection, and those closes are not faults).
fn reporter<'a>(
    obs: &'a Obs,
    clock: Clock,
    me: NodeId,
    shutdown: &'a AtomicBool,
) -> impl FnMut(ObsEvent) + 'a {
    move |event| {
        if !shutdown.load(Ordering::Relaxed) {
            obs.emit_at(clock.now_us(), me, || event);
        }
    }
}

// ---- the per-node reactor -------------------------------------------------

/// What one poll-set entry maps back to, so `revents` can be routed to
/// the owning connection's readiness flag after `poll` returns.
#[derive(Clone, Copy, Debug)]
enum PollTarget {
    /// The peer listener.
    Listener,
    /// `inbound[i]`.
    Inbound(usize),
    /// `links[i]` (the link's live connection).
    Link(usize),
    /// The gateway listener.
    GwListener,
    /// `gateway.conns[i]`.
    GwConn(usize),
}

/// Everything one node's thread owns. `run` is the poll loop.
struct NodeReactor<M, O> {
    me: NodeId,
    clock: Clock,
    obs: Obs,
    shutdown: Arc<AtomicBool>,
    addr_table: Arc<Mutex<Vec<SocketAddr>>>,
    host: Host<M, O>,
    listener: Option<TcpListener>,
    /// The last poll flagged the peer listener readable.
    listener_ready: bool,
    bounce: Option<ListenerBounce>,
    rebind_at_ms: Option<u64>,
    /// Syscall and frame counts, reported once at exit.
    io: ReactorStats,
    /// The poll set and its routing table, kept across passes so a pass
    /// does not allocate them.
    fds: Vec<poll::PollFd>,
    targets: Vec<PollTarget>,
    /// One per peer, in id order (`me` has none).
    links: Vec<Link>,
    inbound: Vec<InConn>,
    /// The accepter side of every inbound link, dedup floors included.
    receiver: Receiver,
    gateway: Option<GatewayFront>,
}

impl<M: Codec + Clone + fmt::Debug, O: Clone + fmt::Debug + PartialEq> NodeReactor<M, O> {
    /// The whole node: first it connects to its `peers` (accepts,
    /// handshakes, no process yet) and waits at `gate` for every node to
    /// have done so; then one nonblocking pass per iteration (in the order
    /// the module docs give), parked in `poll` between passes.
    fn run(mut self, gate: &StartGate, peers: usize) {
        loop {
            let now_ms = self.clock.now_ms();
            let mut deadline = now_ms + POLL_CAP_MS;
            self.accept_peers(now_ms);
            self.pump_inbound(now_ms);
            self.pump_links(now_ms, &mut deadline);
            if self.meshed(peers) || self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            self.sleep(deadline);
        }
        if gate.arrive(&self.shutdown) {
            self.host.start(&mut self.links);
        }
        let mut quiet = false;
        while !self.shutdown.load(Ordering::Relaxed) {
            let now_ms = self.clock.now_ms();
            let mut deadline = now_ms + POLL_CAP_MS;
            self.host.step_restart(now_ms, &mut deadline, &mut self.links);
            self.step_bounce(now_ms, &mut deadline);
            self.accept_peers(now_ms);
            self.pump_inbound(now_ms);
            self.pump_gateway(quiet);
            self.pump_links(now_ms, &mut deadline);
            quiet = self.sleep(deadline);
        }
        let mut stats = self.io;
        stats.frames_out += self.receiver.frames_out;
        for link in &self.links {
            stats.frames_out += link.tx.frames_out;
            let (peer, frames) = (link.tx.peer(), link.tx.peak() as u64);
            self.obs
                .emit_at(self.clock.now_us(), self.me, || ObsEvent::LinkLogPeak { peer, frames });
        }
        self.obs.emit_at(self.clock.now_us(), self.me, || ObsEvent::ReactorStats { stats });
    }

    /// Whether this node has an authenticated link to and from each of
    /// its running `peers` (a peer with no process never answers a dial).
    fn meshed(&self, peers: usize) -> bool {
        let dialled = self.links.iter().filter(|l| l.tx.is_up()).count();
        let accepted = self.inbound.iter().filter(|c| c.link.is_up()).count();
        dialled >= peers && accepted >= peers
    }

    /// Pumps every outbound link: encode what the steps queued, flush.
    fn pump_links(&mut self, now_ms: u64, deadline: &mut u64) {
        let mut emit = reporter(&self.obs, self.clock, self.me, &self.shutdown);
        for link in self.links.iter_mut() {
            link.pump(&self.addr_table, &mut self.io, now_ms, deadline, &mut emit);
        }
    }

    /// Applies a scheduled listener bounce: down at `at_ms` (severing
    /// live inbound connections), rebound on a fresh ephemeral port
    /// `down_ms` later, with the address table updated for the dialers.
    fn step_bounce(&mut self, now_ms: u64, deadline: &mut u64) {
        if let Some(b) = self.bounce {
            if now_ms >= b.at_ms {
                self.bounce = None;
                self.listener = None;
                let mut emit = reporter(&self.obs, self.clock, self.me, &self.shutdown);
                for c in self.inbound.drain(..) {
                    c.link.on_closed("read_failed", &mut emit);
                }
                self.rebind_at_ms = Some(b.at_ms + b.down_ms);
            } else {
                *deadline = (*deadline).min(b.at_ms);
            }
        }
        if let Some(up_at) = self.rebind_at_ms {
            if now_ms >= up_at {
                self.rebind_at_ms = None;
                if let Some((listener, addr)) = rebind(&self.shutdown) {
                    if let Some(slot) = locked(&self.addr_table).get_mut(self.me.index()) {
                        *slot = addr;
                    }
                    self.listener = Some(listener);
                    // A dial may land before the fresh fd's first poll.
                    self.listener_ready = true;
                }
            } else {
                *deadline = (*deadline).min(up_at);
            }
        }
    }

    /// Accepts every pending peer connection (only when the last poll
    /// flagged the listener — an idle listener costs no syscall).
    fn accept_peers(&mut self, now_ms: u64) {
        if !self.listener_ready {
            return;
        }
        self.listener_ready = false;
        let Some(listener) = self.listener.as_ref() else { return };
        while let Ok((stream, _)) = listener.accept() {
            if let Ok(conn) = BufConn::new(stream) {
                self.inbound.push(InConn { conn, link: InLink::new(now_ms) });
            }
        }
    }

    /// Pumps every inbound peer connection, closing the dead ones.
    fn pump_inbound(&mut self, now_ms: u64) {
        let mut i = 0;
        while i < self.inbound.len() {
            if self.pump_one_inbound(i, now_ms) {
                self.inbound.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// One pass over inbound connection `i`; `true` means close it.
    fn pump_one_inbound(&mut self, i: usize, now_ms: u64) -> bool {
        let Some(c) = self.inbound.get_mut(i) else { return false };
        let mut emit = reporter(&self.obs, self.clock, self.me, &self.shutdown);
        let (receiver, host, links) = (&mut self.receiver, &mut self.host, &mut self.links);
        let parsed = c.conn.read_frames(&mut self.io, |conn, io| loop {
            let (frame, out) = match conn.next_frame(io) {
                Ok(Some(next)) => next,
                Ok(None) => return Ok(()),
                Err(err) => {
                    if c.link.is_up() {
                        emit(ObsEvent::FrameDecodeError { reason: err.label() });
                    }
                    return Err(());
                }
            };
            let delivery = receiver.on_frame(&mut c.link, frame, out, now_ms, &mut emit);
            let Some((from, payload)) = delivery.map_err(|_| ())? else { continue };
            match M::from_bytes(payload) {
                Ok(msg) => host.deliver(from, &msg, links),
                Err(err) => {
                    emit(ObsEvent::FrameDecodeError { reason: err.label() });
                    return Err(());
                }
            }
        });
        let Ok(end) = parsed else { return true };
        // Ack write failures are tolerated: link death surfaces on the
        // read side.
        let _ = c.conn.flush(&mut self.io);
        let reason = match end {
            FillEnd::Open => return c.link.on_timer(now_ms).is_err(),
            FillEnd::Eof => "closed",
            FillEnd::Error => "read_failed",
        };
        c.link.on_closed(reason, &mut emit);
        true
    }

    /// Pumps the client gateway: reads submissions into the intake, gives
    /// the process one `on_tick` if any was admitted — or, gateway or not,
    /// if the last poll reported nothing (`quiet`: a node with no traffic
    /// still sees out-of-band flags such as a finished intake) — then
    /// answers every completion notice queued so far: this step's and the
    /// pass's earlier ones.
    fn pump_gateway(&mut self, quiet: bool) {
        let (io, obs, clock, me) = (&mut self.io, &self.obs, self.clock, self.me);
        let admitted = self.gateway.as_mut().is_some_and(|gw| gw.read(io, obs, clock, me));
        if admitted || quiet {
            self.host.tick(&mut self.links);
        }
        if let Some(gw) = self.gateway.as_mut() {
            gw.reply(&mut self.io);
        }
    }

    /// Parks in `poll(2)` until the earliest deadline or a socket turns
    /// ready — then distributes the
    /// returned `revents` as readiness flags, so the next pass issues
    /// read/accept syscalls only where poll saw something. A poll error
    /// degrades to flagging everything (one wasted `WouldBlock` per
    /// descriptor, same as the pre-readiness behaviour). Returns whether
    /// the poll reported nothing (it timed out).
    fn sleep(&mut self, deadline_ms: u64) -> bool {
        let mut fds = std::mem::take(&mut self.fds);
        let mut targets = std::mem::take(&mut self.targets);
        fds.clear();
        targets.clear();
        if let Some(listener) = &self.listener {
            fds.push(poll::PollFd::new(listener.as_raw_fd(), poll::POLLIN));
            targets.push(PollTarget::Listener);
        }
        for (i, c) in self.inbound.iter().enumerate() {
            if let Some(fd) = c.conn.poll_fd() {
                fds.push(fd);
                targets.push(PollTarget::Inbound(i));
            }
        }
        for (i, link) in self.links.iter().enumerate() {
            if let Some(fd) = link.conn.as_ref().and_then(BufConn::poll_fd) {
                fds.push(fd);
                targets.push(PollTarget::Link(i));
            }
        }
        if let Some(gw) = &self.gateway {
            fds.push(poll::PollFd::new(gw.listener.as_raw_fd(), poll::POLLIN));
            targets.push(PollTarget::GwListener);
            for (i, (_, conn)) in gw.conns.iter().enumerate() {
                if let Some(fd) = conn.poll_fd() {
                    fds.push(fd);
                    targets.push(PollTarget::GwConn(i));
                }
            }
        }
        let now = self.clock.now_ms();
        let wait = deadline_ms.saturating_sub(now).clamp(1, POLL_CAP_MS) as i32;
        self.io.polls += 1;
        let polled = poll::poll(&mut fds, wait);
        match polled {
            Ok(0) => {}
            Ok(_) => {
                for (fd, target) in fds.iter().zip(&targets) {
                    if fd.readable() || fd.failed() {
                        self.flag_ready(*target);
                    }
                }
            }
            Err(_) => {
                for target in &targets {
                    self.flag_ready(*target);
                }
            }
        }
        self.fds = fds;
        self.targets = targets;
        matches!(polled, Ok(0))
    }

    /// Arms the readiness flag behind one poll-set entry. The index-based
    /// targets are valid because nothing mutates the connection vectors
    /// between building the poll set and distributing its results.
    fn flag_ready(&mut self, target: PollTarget) {
        match target {
            PollTarget::Listener => self.listener_ready = true,
            PollTarget::Inbound(i) => {
                if let Some(c) = self.inbound.get_mut(i) {
                    c.conn.mark_ready();
                }
            }
            PollTarget::Link(i) => {
                if let Some(conn) = self.links.get_mut(i).and_then(|l| l.conn.as_mut()) {
                    conn.mark_ready();
                }
            }
            PollTarget::GwListener => {
                if let Some(gw) = self.gateway.as_mut() {
                    gw.listener_ready = true;
                }
            }
            PollTarget::GwConn(i) => {
                if let Some((_, conn)) = self.gateway.as_mut().and_then(|gw| gw.conns.get_mut(i)) {
                    conn.mark_ready();
                }
            }
        }
    }
}

// ---- the entry point ------------------------------------------------------

/// Holds every process back until every node has connected to every
/// other. A node whose thread the host keeps off the CPU for a few
/// milliseconds then delays everyone's start. If the others started
/// without it, they would skip its links (still in the handshake), agree
/// faster than the full cluster does, and the ACS would rightly leave its
/// batch out. That outcome is correct but depends on timing, and the
/// seeded differential tests against the simulator cannot expect it.
struct StartGate {
    meshed: Mutex<usize>,
    all: Condvar,
    nodes: usize,
}

impl StartGate {
    /// Counts one node as connected and waits for the rest; `false`
    /// means shutdown came first.
    fn arrive(&self, shutdown: &AtomicBool) -> bool {
        let mut meshed = locked(&self.meshed);
        *meshed += 1;
        if *meshed == self.nodes {
            self.all.notify_all();
        }
        while *meshed < self.nodes {
            if shutdown.load(Ordering::Relaxed) {
                return false;
            }
            let cap = std::time::Duration::from_millis(POLL_CAP_MS);
            meshed = match self.all.wait_timeout(meshed, cap) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        true
    }
}

/// Runs the cluster: one thread per node, plus the calling thread as
/// completion monitor (monitor, teardown, report).
pub(crate) fn run<M, O>(
    mut rt: NetRuntime<M, O>,
    bound: Vec<TcpListener>,
    addrs: Vec<SocketAddr>,
    gateways: Vec<Option<(TcpListener, GatewayPipe)>>,
) -> RuntimeReport<O>
where
    M: Codec + Clone + fmt::Debug + Send + Sync + 'static,
    O: Clone + fmt::Debug + PartialEq + Send + 'static,
{
    let n = rt.n;
    let clock = Clock::new();
    let obs = rt.obs.clone();
    let timeout = rt.timeout;
    let addr_table = Arc::new(Mutex::new(addrs));
    let outputs: Arc<Mutex<BTreeMap<NodeId, O>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let shutdown = Arc::new(AtomicBool::new(false));
    let ledger = PanicLedger::default();

    let correct: Vec<NodeId> = rt
        .procs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.as_ref().is_some_and(|(_, faulty)| !faulty))
        .map(|(i, _)| NodeId::new(i))
        .collect();

    let mut restart_specs: BTreeMap<usize, RestartSpec<M, O>> = BTreeMap::new();
    for spec in rt.restarts.drain(..) {
        restart_specs.insert(spec.node.index(), spec);
    }

    let nodes = rt.procs.iter().flatten().count();
    let peers = nodes.saturating_sub(1);
    let gate = StartGate { meshed: Mutex::new(0), all: Condvar::new(), nodes };
    let mut timed_out = false;
    std::thread::scope(|scope| {
        let procs = std::mem::take(&mut rt.procs);
        let gate = &gate;
        for (j, ((slot, listener), front)) in procs.into_iter().zip(bound).zip(gateways).enumerate()
        {
            let Some((proc_, _)) = slot else { continue };
            let me = NodeId::new(j);
            let links: Vec<Link> = NodeId::all(n)
                .filter(|&peer| peer != me)
                .map(|peer| Link {
                    tx: Sender::new(me, peer, rt.secret, rt.chaos.link(me, peer)),
                    conn: None,
                })
                .collect();
            let host = Host {
                me,
                proc_,
                halted: false,
                crashed: false,
                restart: restart_specs.remove(&j),
                local: VecDeque::new(),
                outputs: Arc::clone(&outputs),
                obs: obs.clone(),
                clock,
            };
            let node: NodeReactor<M, O> = NodeReactor {
                me,
                clock,
                obs: obs.clone(),
                shutdown: Arc::clone(&shutdown),
                addr_table: Arc::clone(&addr_table),
                host,
                listener: Some(listener),
                listener_ready: true,
                bounce: rt.bounces.iter().copied().find(|b| b.node == me),
                rebind_at_ms: None,
                io: ReactorStats::default(),
                fds: Vec::new(),
                targets: Vec::new(),
                links,
                inbound: Vec::new(),
                receiver: Receiver::new(me, n, rt.secret),
                gateway: front.map(|(listener, pipe)| GatewayFront::new(listener, pipe)),
            };
            let ledger = ledger.clone();
            scope.spawn(move || supervised(&ledger, "node", || node.run(gate, peers)));
        }

        // Completion monitor: poll until all correct nodes decided or
        // the timeout fires, then tear everything down — every node sees
        // the flag within one poll cap.
        loop {
            obs.set_now(clock.now_us());
            {
                let outs = locked(&outputs);
                if correct.iter().all(|id| outs.contains_key(id)) {
                    break;
                }
            }
            if clock.elapsed() > timeout {
                timed_out = true;
                break;
            }
            sleep_ms(1);
        }
        shutdown.store(true, Ordering::Relaxed);
    });

    let outputs = Arc::try_unwrap(outputs)
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .unwrap_or_else(|arc| locked(&arc).clone());
    let poisoned = ledger.finish(&obs);
    RuntimeReport { outputs, correct, timed_out, elapsed: clock.elapsed(), poisoned }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;

    fn readable_within(sock: &impl AsRawFd, timeout_ms: i32) -> bool {
        let mut fds = [poll::PollFd::new(sock.as_raw_fd(), poll::POLLIN)];
        poll::poll(&mut fds, timeout_ms).unwrap_or(0) == 1 && fds.iter().all(poll::PollFd::readable)
    }

    fn conn_pair() -> Option<(BufConn, BufConn)> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).ok()?;
        let dialer = TcpStream::connect(listener.local_addr().ok()?).ok()?;
        let (accepted, _) = listener.accept().ok()?;
        Some((BufConn::new(dialer).ok()?, BufConn::new(accepted).ok()?))
    }

    /// Waits until `n` bytes sit unread in the connection's kernel
    /// buffer, so a test knows what the next reads will find.
    fn await_buffered(conn: &BufConn, n: usize) {
        let mut probe = vec![0u8; n + 1];
        for _ in 0..5000 {
            if conn.stream.peek(&mut probe).unwrap_or(0) >= n {
                return;
            }
            sleep_ms(1);
        }
        panic!("{n} bytes never arrived");
    }

    #[test]
    fn bufconn_flush_and_fill_round_trip() {
        let Some((mut a, mut b)) = conn_pair() else { return };
        let mut io = ReactorStats::default();

        assert!(a.queue_frame(&mut io, FrameKind::Msg, 7, 0, b"hello reactor").is_ok());
        assert!(a.pending_out());
        assert!(a.flush(&mut io));
        assert!(!a.pending_out());
        assert_eq!((io.frames_out, io.writes), (1, 1));

        let wire = encode_frame(FrameKind::Msg, 7, 0, b"hello reactor").unwrap_or_default();
        await_buffered(&b, wire.len());
        assert_eq!(b.read_ready(&mut io), (FillEnd::Open, false));
        assert_eq!(b.inbuf, wire, "queue_frame puts encode_frame's bytes on the wire");
        let frame = b.next_frame(&mut io).ok().flatten().map(|(frame, _)| frame.to_frame());
        assert_eq!(frame.map(|f| (f.seq, f.payload)), Some((7, b"hello reactor".to_vec())));
        assert!(matches!(b.next_frame(&mut io), Ok(None)));
        assert_eq!(io.frames_in, 1);

        drop(a);
        assert!(readable_within(&b.stream, 5000), "a FIN must flag the socket");
        b.mark_ready();
        assert_eq!(b.read_ready(&mut io), (FillEnd::Eof, false), "dropping the peer is EOF");
        assert_eq!(b.read_ready(&mut io), (FillEnd::Eof, false), "EOF is sticky");
        assert!(b.poll_fd().is_none(), "an EOF conn with nothing to write leaves the poll set");
    }

    #[test]
    fn a_burst_is_read_without_a_blocked_read_and_idle_passes_read_nothing() {
        let Some((mut a, mut b)) = conn_pair() else { return };
        let mut io = ReactorStats::default();
        let burst = 40 << 10;
        a.outbuf = a_pattern(burst);
        assert!(a.flush(&mut io) && !a.pending_out());
        await_buffered(&b, burst);

        // Pass 1 (fresh connections start flagged): two full chunks and
        // one short read empty the socket — no read comes back empty.
        let mut io = ReactorStats::default();
        assert_eq!(fill(&mut b, &mut io), FillEnd::Open);
        assert_eq!(b.inbuf, a_pattern(burst));
        assert_eq!(io.reads, (burst / READ_CHUNK + 1) as u64);
        assert_eq!(io.reads_blocked, 0);

        // Pass 2: poll flagged nothing, so nothing is read.
        assert!(!readable_within(&b.stream, 0));
        assert_eq!(fill(&mut b, &mut io), FillEnd::Open);
        assert_eq!(io.reads, (burst / READ_CHUNK + 1) as u64);
    }

    /// Reads what the socket holds and parses nothing, so `inbuf` keeps
    /// every byte read.
    fn fill(conn: &mut BufConn, io: &mut ReactorStats) -> FillEnd {
        conn.read_frames(io, |_, _| Ok::<(), ()>(())).unwrap_or(FillEnd::Error)
    }

    fn a_pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| i as u8).collect()
    }

    #[test]
    fn a_fin_behind_a_short_read_is_reported_by_the_next_flagged_pass() {
        let Some((mut a, mut b)) = conn_pair() else { return };
        let mut io = ReactorStats::default();
        a.outbuf = a_pattern(100);
        assert!(a.flush(&mut io));
        await_buffered(&b, 100);
        drop(a);
        // Give the FIN time to land behind the data (loopback: at once).
        sleep_ms(20);

        // The short read stops before the FIN …
        assert_eq!(fill(&mut b, &mut io), FillEnd::Open);
        assert_eq!(b.inbuf.len(), 100);
        assert!(!b.peer_eof);
        // … and level-triggered poll hands it to the next pass.
        assert!(readable_within(&b.stream, 5000), "a pending FIN must re-flag the socket");
        b.mark_ready();
        assert_eq!(fill(&mut b, &mut io), FillEnd::Eof);
    }
}
