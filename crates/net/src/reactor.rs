//! The TCP transport's I/O engine: one nonblocking poll loop per node.
//!
//! Each node gets a **fixed small thread count**, whatever `n`: one
//! reactor thread owning every socket the node touches (peer listener,
//! inbound connections, outbound links, the client gateway, and the wake
//! channel its actor nudges it through — see [`WakeShared`] for that
//! hand-off), plus the actor thread running the sans-io process.
//! Readiness comes from `poll(2)` via the dependency-free [`poll`] shim.
//!
//! # What the links guarantee
//!
//! Per directed link the reactor keeps the contract [`crate::runtime`]
//! documents: authenticated by the handshake (the pure helpers in
//! [`crate::handshake`]), contiguous sequence numbers, a replay log
//! trimmed by cumulative acks, and a per-peer dedup floor that survives
//! reconnects. Chaos sits under that contract with a fixed per-frame draw
//! order (outage → delay → drop loop → duplicate), so a seeded chaos
//! schedule produces the same per-link fault pattern on every run. The
//! full transport event vocabulary (`PeerConnected`, `FrameSequenceGap`,
//! `LinkLogPeak`, …) is emitted from here. The deterministic simulator is
//! the differential oracle: `tests/net_reactor.rs` and
//! `tests/net_loopback.rs` require the logs a seeded workload commits over
//! these sockets to equal the ones it commits in `bft-sim`.
//!
//! Every connection is a state machine: an
//! outbound link is `Idle → Hello → Up` (with a head-of-line chaos
//! machine `Start → Delayed → Dropping` per frame), an inbound
//! connection is `AwaitHello → AwaitAuth → Up`. Each `poll` both parks
//! the loop and reports per-descriptor readiness; the next pass issues
//! read/accept syscalls **only on the descriptors `revents` flagged**,
//! so an idle connection costs one poll-set entry, not a `read(2)` that
//! returns `EWOULDBLOCK`. Readiness is still only a gate, never a proof:
//! `poll(2)` is level-triggered, every socket is nonblocking, and every
//! pump handles `WouldBlock`, so a spurious bit costs one wasted syscall
//! and a missed bit is re-reported by the next poll — never a stall.
//!
//! # The client gateway
//!
//! A node configured with a [`GatewayPipe`] additionally owns a gateway
//! listener. External clients connect without a handshake and speak
//! `Submit`/`SubmitOk`/`SubmitNack` frames; decoded submissions flow to
//! the actor through the pipe's bounded intake (refusals are answered
//! with a typed backpressure NACK straight from the reactor), and
//! completion notices flow back and are forwarded to the submitting
//! client's connection. The actor learns about queued intake via
//! `Ctrl::Tick`, which invokes the process's `on_tick` hook.

use crate::chaos::{LinkChaos, XorShift};
use crate::clock::{sleep_ms, Clock};
use crate::codec::Codec;
use crate::codec::DecodeError;
use crate::frame::{encode_frame_into, FrameKind, FrameRef, PayloadTooLarge};
use crate::gateway::{
    parse_submit, submit_nack_payload, submit_ok_payload, ClientSubmit, GatewayNotice, GatewayPipe,
    NackReason, INTAKE_CAP,
};
use crate::handshake::{
    auth_payload, challenge_payload, hello_payload, next_nonce, parse_auth, parse_challenge,
    parse_hello, Secret,
};
use crate::runtime::{
    actor_loop, locked, rebind, supervised, BackoffPolicy, Ctrl, FrameBody, InboxChannels,
    LinkFanout, ListenerBounce, NetRuntime, PanicLedger, RestartSpec, ACK_EVERY, MAX_RETRANSMIT,
    RETRANSMIT_RTO_MS,
};
use bft_obs::{Event as ObsEvent, Obs, ReactorStats};
use bft_runtime::RuntimeReport;
use bft_types::{Envelope, NodeId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};

/// How long a half-open handshake (either direction) may sit before the
/// connection is abandoned; the dialer treats expiry as a failed attempt
/// and backs off, the accepter just drops the straggler.
const HANDSHAKE_DEADLINE_MS: u64 = 2_000;

/// Soft cap on a peer connection's pending output buffer: the transmit
/// machine stops encoding past it and resumes once a flush drains it, so
/// a slow receiver bounds our memory instead of growing it.
const OUTBUF_SOFT_CAP: usize = 256 << 10;

/// Upper bound on one poll sleep, so shutdown and new actor output are
/// observed promptly even if a wakeup is lost.
const POLL_CAP_MS: u64 = 10;

// ---- wakeups --------------------------------------------------------------

/// The wake channel one node's actor and reactor share: a socket pair
/// the reactor polls, gated by a flag so that only a reactor that may be
/// parked is ever written to.
///
/// The protocol is arm → drain → poll. At the top of every pass the
/// reactor empties the wake socket, then *arms* the flag, and only then
/// drains the actor-fed queues (link receivers, gateway notices) and
/// parks in `poll`. A producer queues first and calls
/// [`ReactorWaker::wake`] second, which writes one byte only if it could
/// *disarm* the flag. Every access to the flag is a `SeqCst` swap, so
/// for any queued item one of two things holds. Either the producer's
/// swap precedes an arming in the flag's modification order: that
/// arming reads from it (or from a later swap of the same release
/// sequence), the push happens-before that pass's drain, and the drain
/// sees the item. Or the last arming precedes the producer's swap: then
/// the producer, or another producer since that arming, found the flag
/// set and wrote a byte — after the pass's read of the socket, so the
/// byte is still there when the reactor reaches `poll`, which returns
/// at once. No wake-up is lost, and at most one byte is written per pass.
struct WakeShared {
    /// Written by wakers. Both ends live here so neither outlives the
    /// other: a late wake can never hit a closed peer.
    tx: UnixStream,
    /// Read (and polled) by the reactor only.
    rx: UnixStream,
    armed: AtomicBool,
    /// Wake requests that found the flag disarmed and wrote nothing.
    skipped: AtomicU64,
}

/// A handle on a node's wake channel. Clones share the channel; wake
/// errors are ignored (the poll cap bounds the added latency).
#[derive(Clone)]
pub(crate) struct ReactorWaker {
    shared: Option<Arc<WakeShared>>,
}

impl ReactorWaker {
    /// A waker wired to nothing — used when the wake pair could not be
    /// set up; the reactor then relies on its capped poll timeout.
    pub(crate) fn disconnected() -> Self {
        ReactorWaker { shared: None }
    }

    /// Builds a wake channel (`None` when the socket pair cannot be
    /// created).
    fn pair() -> Option<Self> {
        let (tx, rx) = UnixStream::pair().ok()?;
        tx.set_nonblocking(true).ok()?;
        rx.set_nonblocking(true).ok()?;
        let shared =
            WakeShared { tx, rx, armed: AtomicBool::new(false), skipped: AtomicU64::new(0) };
        Some(ReactorWaker { shared: Some(Arc::new(shared)) })
    }

    /// Nudges the reactor after something was queued for it. Writes to
    /// the channel only when the reactor armed the flag since the last
    /// write. Nonblocking and infallible by design: a full wake socket
    /// already guarantees a pending wakeup.
    pub(crate) fn wake(&self) {
        let Some(shared) = &self.shared else { return };
        if shared.armed.swap(false, Ordering::SeqCst) {
            let _ = (&shared.tx).write(&[1u8]);
        } else {
            shared.skipped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reactor side: re-arms the flag — after the pass's read of the wake
    /// socket, before its queue drains. A swap rather than a store: the
    /// arming has to *read* the last waker's swap to synchronize with it.
    fn arm(&self) {
        if let Some(shared) = &self.shared {
            shared.armed.swap(true, Ordering::SeqCst);
        }
    }

    /// Reactor side: the end to poll and drain.
    fn rx(&self) -> Option<&UnixStream> {
        self.shared.as_ref().map(|shared| &shared.rx)
    }

    /// Wake requests the flag absorbed so far.
    fn skipped(&self) -> u64 {
        self.shared.as_ref().map_or(0, |shared| shared.skipped.load(Ordering::Relaxed))
    }
}

impl fmt::Debug for ReactorWaker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReactorWaker(connected={})", self.shared.is_some())
    }
}

// ---- buffered nonblocking connections -------------------------------------

/// What a fill pass observed on the read side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FillEnd {
    /// Connection still open (nothing more to read right now).
    Open,
    /// Orderly FIN from the peer. For a dial connection this is *not*
    /// immediate death: TCP half-close semantics require pending frames
    /// to keep flowing until a write fails, which is what turns a
    /// skipped replay into the sequence gap the receiver must detect.
    Eof,
    /// Hard transport error.
    Error,
}

/// Bytes asked of the kernel per connection `read`.
const READ_CHUNK: usize = 16 << 10;

/// Reads what a nonblocking socket holds, `chunk.len()` bytes at a time,
/// handing each piece to `sink` and stopping at the first *short* read:
/// a read that returns less than it asked for has emptied the kernel
/// buffer, so asking again would only buy a `WouldBlock`.
/// Level-triggered `poll` re-flags anything that arrives later, a FIN
/// included — EOF is then reported by the next flagged pass.
fn read_until_short(
    mut src: impl Read,
    chunk: &mut [u8],
    io: &mut ReactorStats,
    mut sink: impl FnMut(&[u8]),
) -> FillEnd {
    loop {
        io.reads += 1;
        match src.read(chunk) {
            Ok(0) => return FillEnd::Eof,
            Ok(k) => {
                sink(chunk.get(..k).unwrap_or_default());
                if k < chunk.len() {
                    return FillEnd::Open;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                io.reads_blocked += 1;
                return FillEnd::Open;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return FillEnd::Error,
        }
    }
}

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
    /// consumed by [`fill_ready`]). Starts `true` so a fresh connection
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

    fn out_len(&self) -> usize {
        self.outbuf.len() - self.out_pos
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

    /// Appends what the socket holds to the input buffer (see
    /// [`read_until_short`]). Skipped entirely once the peer has
    /// half-closed.
    fn fill(&mut self, io: &mut ReactorStats) -> FillEnd {
        if self.peer_eof {
            return FillEnd::Eof;
        }
        let mut chunk = [0u8; READ_CHUNK];
        let inbuf = &mut self.inbuf;
        let end = read_until_short(&self.stream, &mut chunk, io, |bytes| {
            inbuf.extend_from_slice(bytes);
        });
        self.peer_eof = end == FillEnd::Eof;
        end
    }

    /// Readiness-gated [`fill`](Self::fill): issues the read syscall only
    /// when the last poll flagged the socket (the flag is consumed here
    /// and re-armed by the next poll — level-triggered, so bytes left in
    /// the kernel re-flag immediately). This is what makes an idle
    /// connection free per pass instead of one `EWOULDBLOCK` read.
    fn fill_ready(&mut self, io: &mut ReactorStats) -> FillEnd {
        if self.peer_eof {
            return FillEnd::Eof;
        }
        if !self.ready {
            return FillEnd::Open;
        }
        self.ready = false;
        self.fill(io)
    }

    /// Peels the next complete frame off the input buffer, if one is
    /// fully buffered, as a view into that buffer.
    fn next_frame(&mut self, io: &mut ReactorStats) -> Result<Option<FrameRef<'_>>, DecodeError> {
        let rest = self.inbuf.get(self.in_pos..).unwrap_or_default();
        let Some((frame, used)) = FrameRef::decode_prefix(rest)? else { return Ok(None) };
        // `used` is bounded by the bytes actually buffered, but keep the
        // cursor arithmetic non-wrapping regardless.
        self.in_pos = self.in_pos.saturating_add(used);
        io.frames_in += 1;
        Ok(Some(frame))
    }

    /// Drops consumed input bytes (called once per pump pass, so frame
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

/// Where an outbound connection is in its lifecycle.
#[derive(Clone, Copy, Debug)]
enum LinkPhase {
    /// No connection (between dials).
    Idle,
    /// Hello sent; waiting for the accepter's Challenge.
    Hello { nonce_me: u64, started_ms: u64 },
    /// Authenticated; frames flow.
    Up,
}

/// The chaos machine for the head-of-line frame, mirroring the thread
/// writer's per-frame draw order exactly: outage wait (no draw) → one
/// `delay_ms` draw → an `attempt_dropped` loop (≤ [`MAX_RETRANSMIT`],
/// RTO-spaced) → one `duplicate` draw at transmission.
#[derive(Clone, Copy, Debug)]
enum Head {
    /// Nothing drawn yet for the current head frame.
    Start,
    /// Chaos delay in progress.
    Delayed { until_ms: u64 },
    /// Retransmission loop: `attempts` wire losses so far.
    Dropping { attempts: u32, retry_at_ms: u64 },
}

/// Why an outbound connection died — determines the replay reset and
/// the emitted event.
#[derive(Clone, Copy, Debug)]
enum LinkDeath {
    /// Dial/handshake failure: back off and emit `ReconnectBackoff`.
    Handshake,
    /// Peer closed a fully-drained link: full replay (`"peer_closed"`).
    Idle,
    /// Write failure with frames in flight: `sent` is preserved so a
    /// chaos-skipped replay exposes the gap (`"write_failed"`).
    Write,
    /// The ack stream broke or carried a non-ack frame: full replay
    /// (`"ack_failed"`).
    Ack,
}

/// Shared per-node context handed to every link pump.
struct LinkCtx<'a> {
    me: NodeId,
    obs: &'a Obs,
    clock: Clock,
    backoff: BackoffPolicy,
    secret: Secret,
    shutdown: &'a AtomicBool,
    addr_table: &'a Mutex<Vec<SocketAddr>>,
}

/// One directed outbound link: the replay log, the connection state
/// machine, and the chaos head machine.
struct LinkState {
    peer: NodeId,
    rx: Receiver<FrameBody>,
    /// The replay log; `log[i]` carries seq `log_base + i + 1`. A deque,
    /// so trimming an acked prefix costs that prefix, not the whole log.
    log: VecDeque<FrameBody>,
    log_base: u64,
    sent: usize,
    peak: usize,
    draining: bool,
    finished: bool,
    ever_connected: bool,
    /// Failed dial attempts in the current reconnect episode.
    attempt: u64,
    next_dial_at_ms: u64,
    chaos: LinkChaos,
    jitter: XorShift,
    conn: Option<BufConn>,
    phase: LinkPhase,
    head: Head,
}

impl LinkState {
    fn new(me: NodeId, peer: NodeId, rx: Receiver<FrameBody>, chaos: LinkChaos) -> Self {
        // A per-link jitter stream, so backoff schedules repeat run to
        // run.
        let mut h = crate::hash::Fnv64::new();
        h.write(b"backoff-jitter");
        h.write(&(me.index() as u32).to_le_bytes());
        h.write(&(peer.index() as u32).to_le_bytes());
        LinkState {
            peer,
            rx,
            log: VecDeque::new(),
            log_base: 0,
            sent: 0,
            peak: 0,
            draining: false,
            finished: false,
            ever_connected: false,
            attempt: 0,
            next_dial_at_ms: 0,
            chaos,
            jitter: XorShift::new(h.finish()),
            conn: None,
            phase: LinkPhase::Idle,
            head: Head::Start,
        }
    }

    /// One nonblocking pass over this link.
    fn pump(&mut self, ctx: &LinkCtx<'_>, io: &mut ReactorStats, now_ms: u64, deadline: &mut u64) {
        if self.finished {
            return;
        }
        // Absorb newly queued frame bodies from the actor.
        if !self.draining {
            loop {
                match self.rx.try_recv() {
                    Ok(body) => self.log.push_back(body),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        self.draining = true;
                        break;
                    }
                }
            }
            self.peak = self.peak.max(self.log.len());
        }

        if let Some(mut conn) = self.conn.take() {
            match self.pump_conn(&mut conn, ctx, io, now_ms, deadline) {
                None => self.conn = Some(conn),
                Some(death) => self.die(death, ctx, now_ms),
            }
        } else if self.sent < self.log.len() {
            if now_ms >= self.next_dial_at_ms {
                self.dial(ctx, io, now_ms, deadline);
            } else {
                *deadline = (*deadline).min(self.next_dial_at_ms);
            }
        }

        // The link is complete once the actor hung up and every frame is
        // out of the socket — which is also when the log peak is
        // reported.
        let flushed = self.conn.as_ref().map(|c| !c.pending_out()).unwrap_or(true);
        if self.draining && self.sent == self.log.len() && flushed {
            self.finished = true;
            self.emit_peak(ctx);
        }
    }

    /// Pumps a live connection; `Some(death)` means it must be torn
    /// down (the connection is dropped by the caller).
    fn pump_conn(
        &mut self,
        conn: &mut BufConn,
        ctx: &LinkCtx<'_>,
        io: &mut ReactorStats,
        now_ms: u64,
        deadline: &mut u64,
    ) -> Option<LinkDeath> {
        let end = conn.fill_ready(io);

        // Parse whatever arrived, under the current phase.
        loop {
            match self.phase {
                LinkPhase::Idle => break,
                LinkPhase::Hello { nonce_me, started_ms } => match conn.next_frame(io) {
                    Ok(Some(frame)) => {
                        if frame.kind != FrameKind::Challenge {
                            return Some(LinkDeath::Handshake);
                        }
                        let Ok(nonce_peer) =
                            parse_challenge(frame.payload, ctx.secret, self.peer, nonce_me)
                        else {
                            return Some(LinkDeath::Handshake);
                        };
                        // The dialer considers the handshake done after
                        // writing Auth.
                        let body = auth_payload(ctx.secret, nonce_peer, ctx.me);
                        let _ = conn.queue_frame(io, FrameKind::Auth, 0, 0, &body);
                        self.established(ctx);
                    }
                    Ok(None) => {
                        if now_ms.saturating_sub(started_ms) >= HANDSHAKE_DEADLINE_MS {
                            return Some(LinkDeath::Handshake);
                        }
                        *deadline = (*deadline).min(started_ms + HANDSHAKE_DEADLINE_MS);
                        break;
                    }
                    Err(_) => return Some(LinkDeath::Handshake),
                },
                LinkPhase::Up => match conn.next_frame(io) {
                    Ok(Some(frame)) if frame.kind == FrameKind::Ack => {
                        // Cumulative ack: trim the acked prefix.
                        if frame.seq > self.log_base {
                            let k = ((frame.seq - self.log_base) as usize).min(self.sent);
                            self.log.drain(..k);
                            self.sent -= k;
                            self.log_base += k as u64;
                        }
                    }
                    Ok(Some(_)) | Err(_) => return Some(LinkDeath::Ack),
                    Ok(None) => break,
                },
            }
        }
        conn.compact_in();

        let sent_before = self.sent;
        if matches!(self.phase, LinkPhase::Up) {
            self.transmit(conn, ctx, io, now_ms, deadline);
        }
        // Frames transmitted after the peer's FIN are doomed: peers
        // never half-close in this protocol, so nobody will read them.
        // The kernel accepts them before the RST lands, so they count
        // as `sent`, and the link dies as on a write failure with `sent`
        // preserved — which is exactly what lets `skip_first_replay`
        // manufacture a sequence gap: queueing anything onto an EOF'd
        // connection is a Write death.
        let queued_to_dead = conn.peer_eof && self.sent > sent_before;

        if !conn.flush(io) {
            return Some(match self.phase {
                LinkPhase::Up => LinkDeath::Write,
                _ => LinkDeath::Handshake,
            });
        }
        match end {
            FillEnd::Open => None,
            FillEnd::Error => Some(match self.phase {
                LinkPhase::Up if conn.peer_eof => LinkDeath::Write,
                LinkPhase::Up => LinkDeath::Ack,
                _ => LinkDeath::Handshake,
            }),
            FillEnd::Eof => match self.phase {
                LinkPhase::Up if queued_to_dead => Some(LinkDeath::Write),
                // An idle, fully-flushed link whose peer closed is dead
                // (a receiver that saw a sequence gap closed it): redial
                // and replay, or the peer starves.
                LinkPhase::Up if self.sent == self.log.len() && !conn.pending_out() => {
                    Some(LinkDeath::Idle)
                }
                // Pending work blocked on chaos (outage/delay): hold the
                // connection so those frames still get counted against it.
                LinkPhase::Up => None,
                _ => Some(LinkDeath::Handshake),
            },
        }
    }

    /// The transmit machine: encodes head frames into the output buffer
    /// under the chaos head machine, in its fixed draw order per frame.
    fn transmit(
        &mut self,
        conn: &mut BufConn,
        ctx: &LinkCtx<'_>,
        io: &mut ReactorStats,
        now_ms: u64,
        deadline: &mut u64,
    ) {
        loop {
            if self.sent >= self.log.len() || conn.out_len() >= OUTBUF_SOFT_CAP {
                break;
            }
            let seq = self.log_base + self.sent as u64 + 1;
            match self.head {
                Head::Start => {
                    // Partition window: frames wait out the outage.
                    if let Some(until) = self.chaos.outage_until(now_ms) {
                        *deadline = (*deadline).min(until);
                        break;
                    }
                    let delay = self.chaos.delay_ms();
                    self.head = if delay > 0 {
                        Head::Delayed { until_ms: now_ms + delay }
                    } else {
                        Head::Dropping { attempts: 0, retry_at_ms: now_ms }
                    };
                }
                Head::Delayed { until_ms } => {
                    if now_ms < until_ms {
                        *deadline = (*deadline).min(until_ms);
                        break;
                    }
                    self.head = Head::Dropping { attempts: 0, retry_at_ms: now_ms };
                }
                Head::Dropping { attempts, retry_at_ms } => {
                    if now_ms < retry_at_ms {
                        *deadline = (*deadline).min(retry_at_ms);
                        break;
                    }
                    if attempts < MAX_RETRANSMIT && self.chaos.attempt_dropped() {
                        let peer = self.peer;
                        ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::FrameDropped {
                            to: peer,
                            seq,
                        });
                        self.head = Head::Dropping {
                            attempts: attempts + 1,
                            retry_at_ms: now_ms + RETRANSMIT_RTO_MS,
                        };
                        continue;
                    }
                    let Some((body, trace)) = self.log.get(self.sent) else { break };
                    match conn.queue_frame(io, FrameKind::Msg, seq, *trace, body) {
                        Ok(()) => {
                            if self.chaos.duplicate() {
                                let _ = conn.queue_frame(io, FrameKind::Msg, seq, *trace, body);
                            }
                        }
                        Err(_) => {
                            // Unreachable (oversize is rejected at the
                            // send boundary); skip to keep the link live.
                            ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || {
                                ObsEvent::FrameDecodeError { reason: "payload_too_large" }
                            });
                        }
                    }
                    self.sent += 1;
                    self.head = Head::Start;
                }
            }
        }
    }

    /// Marks the link authenticated and applies the replay policy.
    fn established(&mut self, ctx: &LinkCtx<'_>) {
        let was_reconnect = self.ever_connected;
        let peer = self.peer;
        let at = ctx.clock.now_us();
        if was_reconnect {
            let attempts = self.attempt;
            ctx.obs.emit_at(at, ctx.me, || ObsEvent::PeerReconnected { peer, attempts });
        } else {
            ctx.obs.emit_at(at, ctx.me, || ObsEvent::PeerConnected { peer });
        }
        self.ever_connected = true;
        if !(was_reconnect && self.chaos.skip_replay_once()) {
            // Fresh connection ⇒ replay the whole log; the receiver
            // dedups by sequence number. The chaos branch resumes from
            // the send counter instead, manufacturing a sequence gap.
            self.sent = 0;
        }
        self.attempt = 0;
        self.phase = LinkPhase::Up;
        self.head = Head::Start;
    }

    /// Tears the connection down along one of the [`LinkDeath`] paths.
    fn die(&mut self, death: LinkDeath, ctx: &LinkCtx<'_>, now_ms: u64) {
        self.conn = None;
        self.head = Head::Start;
        let was_up = matches!(self.phase, LinkPhase::Up);
        self.phase = LinkPhase::Idle;
        let peer = self.peer;
        let shutdown = ctx.shutdown.load(Ordering::Relaxed);
        match death {
            LinkDeath::Handshake => {
                self.attempt += 1;
                let delay_ms = ctx.backoff.delay_ms(self.attempt, &mut self.jitter);
                self.next_dial_at_ms = now_ms + delay_ms;
                if !shutdown {
                    let attempt = self.attempt;
                    ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::ReconnectBackoff {
                        peer,
                        attempt,
                        delay_ms,
                    });
                }
            }
            LinkDeath::Idle => {
                self.sent = 0;
                if !shutdown && was_up {
                    ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::PeerDisconnected {
                        peer,
                        reason: "peer_closed",
                    });
                }
            }
            LinkDeath::Write => {
                // The frame in flight when the link died was never
                // really sent — uncount it. This keeps
                // `sent < log.len()`, which is what arms the redial; the
                // surviving prefix of `sent` is what a chaos-skipped
                // replay resumes from, manufacturing the receiver-visible
                // sequence gap.
                self.sent = self.sent.saturating_sub(1);
                if !shutdown && was_up {
                    ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::PeerDisconnected {
                        peer,
                        reason: "write_failed",
                    });
                }
            }
            LinkDeath::Ack => {
                self.sent = 0;
                if !shutdown && was_up {
                    ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::PeerDisconnected {
                        peer,
                        reason: "ack_failed",
                    });
                }
            }
        }
    }

    /// Starts a fresh dial: connect (loopback fails fast), queue Hello,
    /// enter the Hello phase with a deadline.
    fn dial(&mut self, ctx: &LinkCtx<'_>, io: &mut ReactorStats, now_ms: u64, deadline: &mut u64) {
        let addr = locked(ctx.addr_table).get(self.peer.index()).copied();
        let Some(addr) = addr else { return };
        let conn = TcpStream::connect(addr).and_then(BufConn::new);
        match conn {
            Ok(mut conn) => {
                let nonce_me = next_nonce();
                let body = hello_payload(ctx.me, nonce_me);
                let _ = conn.queue_frame(io, FrameKind::Hello, 0, 0, &body);
                if conn.flush(io) {
                    self.conn = Some(conn);
                    self.phase = LinkPhase::Hello { nonce_me, started_ms: now_ms };
                    *deadline = (*deadline).min(now_ms + HANDSHAKE_DEADLINE_MS);
                } else {
                    self.die(LinkDeath::Handshake, ctx, now_ms);
                }
            }
            Err(_) => self.die(LinkDeath::Handshake, ctx, now_ms),
        }
    }

    /// Reports the link's replay-log high-water mark (the thread
    /// writer's teardown event).
    fn emit_peak(&self, ctx: &LinkCtx<'_>) {
        let peer = self.peer;
        let frames = self.peak as u64;
        ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::LinkLogPeak { peer, frames });
    }
}

// ---- inbound connections --------------------------------------------------

/// Accepter-side handshake progress for one inbound connection.
#[derive(Clone, Copy, Debug)]
enum InPhase {
    /// Waiting for the dialer's Hello.
    AwaitHello { since_ms: u64 },
    /// Challenge sent; waiting for the Auth proof.
    AwaitAuth { peer: NodeId, nonce_me: u64, since_ms: u64 },
    /// Authenticated: `Msg` frames are delivered, acks flow back.
    Up { peer: NodeId },
}

/// One accepted peer connection.
struct InConn {
    conn: BufConn,
    phase: InPhase,
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

// ---- the per-node reactor -------------------------------------------------

/// What one poll-set entry maps back to, so `revents` can be routed to
/// the owning connection's readiness flag after `poll` returns.
#[derive(Clone, Copy, Debug)]
enum PollTarget {
    /// The wake channel's read end.
    Wake,
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

/// Everything one node's reactor thread owns. `run` is the poll loop.
struct NodeReactor<M> {
    me: NodeId,
    n: usize,
    clock: Clock,
    obs: Obs,
    secret: Secret,
    backoff: BackoffPolicy,
    shutdown: Arc<AtomicBool>,
    addr_table: Arc<Mutex<Vec<SocketAddr>>>,
    inbox: Sender<Ctrl<M>>,
    listener: Option<TcpListener>,
    /// The last poll flagged the peer listener readable.
    listener_ready: bool,
    bounce: Option<ListenerBounce>,
    rebind_at_ms: Option<u64>,
    /// This node's wake channel (see [`WakeShared`] for the protocol).
    waker: ReactorWaker,
    /// The last poll flagged the wake channel readable.
    wake_ready: bool,
    /// Syscall and frame counts, reported once at exit.
    io: ReactorStats,
    /// The poll set and its routing table, kept across passes so a pass
    /// does not allocate them.
    fds: Vec<poll::PollFd>,
    targets: Vec<PollTarget>,
    links: Vec<LinkState>,
    inbound: Vec<InConn>,
    /// Per-peer next-expected seq; survives connection churn so replays
    /// dedup exactly-once (local to this thread — no lock needed).
    // lint: allow(unbounded-map) — keys are handshake-authenticated peer indices < n; the next-seq dedup floor must never be GC'd
    expected: BTreeMap<usize, u64>,
    gateway: Option<GatewayFront>,
}

impl<M: Codec + Clone + fmt::Debug> NodeReactor<M> {
    fn link_ctx(&self) -> LinkCtx<'_> {
        LinkCtx {
            me: self.me,
            obs: &self.obs,
            clock: self.clock,
            backoff: self.backoff,
            secret: self.secret,
            shutdown: &self.shutdown,
            addr_table: &self.addr_table,
        }
    }

    /// The node's whole I/O, one nonblocking pass per iteration, parked
    /// in `poll` between passes.
    fn run(mut self) {
        loop {
            // Arm → drain → poll: empty the wake channel, re-arm its
            // flag, and only then look at what other threads left for
            // this one — the shutdown flag first, the actor's queues in
            // the pumps below.
            self.drain_wake();
            self.waker.arm();
            if self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let now_ms = self.clock.now_ms();
            let mut deadline = now_ms + POLL_CAP_MS;
            self.step_bounce(now_ms, &mut deadline);
            self.accept_peers(now_ms);
            self.pump_inbound(now_ms);
            {
                let ctx = LinkCtx {
                    me: self.me,
                    obs: &self.obs,
                    clock: self.clock,
                    backoff: self.backoff,
                    secret: self.secret,
                    shutdown: &self.shutdown,
                    addr_table: &self.addr_table,
                };
                for link in self.links.iter_mut() {
                    link.pump(&ctx, &mut self.io, now_ms, &mut deadline);
                }
            }
            self.pump_gateway();
            self.sleep(deadline);
        }
        // Report the replay-log peaks the finished-link path did not get
        // to: every link reports one at exit.
        let ctx = self.link_ctx();
        for link in &self.links {
            if !link.finished {
                link.emit_peak(&ctx);
            }
        }
        let stats = ReactorStats { wakes_skipped: self.waker.skipped(), ..self.io };
        self.obs.emit_at(self.clock.now_us(), self.me, || ObsEvent::ReactorStats(stats));
    }

    /// Applies a scheduled listener bounce: down at `at_ms` (severing
    /// live inbound connections), rebound on a fresh ephemeral port
    /// `down_ms` later, with the address table updated for the dialers.
    fn step_bounce(&mut self, now_ms: u64, deadline: &mut u64) {
        if let Some(b) = self.bounce {
            if now_ms >= b.at_ms {
                self.bounce = None;
                self.listener = None;
                for c in self.inbound.drain(..) {
                    if let InPhase::Up { peer } = c.phase {
                        if !self.shutdown.load(Ordering::Relaxed) {
                            self.obs.emit_at(self.clock.now_us(), self.me, || {
                                ObsEvent::PeerDisconnected { peer, reason: "read_failed" }
                            });
                        }
                    }
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
                self.inbound.push(InConn { conn, phase: InPhase::AwaitHello { since_ms: now_ms } });
            }
        }
    }

    /// Empties the wake channel (the bytes are meaningless; arrival was
    /// the message). Skipped when the last poll saw it silent. One read
    /// is enough: at most one byte is written per pass.
    fn drain_wake(&mut self) {
        if !self.wake_ready {
            return;
        }
        self.wake_ready = false;
        let Some(sock) = self.waker.rx() else { return };
        let mut wakes = 0;
        let end = read_until_short(sock, &mut [0u8; 256], &mut self.io, |bytes| {
            wakes += bytes.len() as u64;
        });
        self.io.wakes_written += wakes;
        if end != FillEnd::Open {
            // Stop polling (and arming) a broken channel; wakers then
            // never write, and the poll cap bounds the latency.
            self.waker = ReactorWaker::disconnected();
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
        let end = c.conn.fill_ready(&mut self.io);
        loop {
            match c.conn.next_frame(&mut self.io) {
                Ok(Some(frame)) => match c.phase {
                    InPhase::AwaitHello { .. } => {
                        // Handshake failures are silent on the accepter
                        // side; they surface as backoff on the dialer.
                        if frame.kind != FrameKind::Hello {
                            return true;
                        }
                        let Ok((peer, nonce_peer)) = parse_hello(frame.payload, self.me, self.n)
                        else {
                            return true;
                        };
                        let nonce_me = next_nonce();
                        let body = challenge_payload(self.secret, self.me, nonce_me, nonce_peer);
                        let _ = c.conn.queue_frame(&mut self.io, FrameKind::Challenge, 0, 0, &body);
                        c.phase = InPhase::AwaitAuth { peer, nonce_me, since_ms: now_ms };
                    }
                    InPhase::AwaitAuth { peer, nonce_me, .. } => {
                        if frame.kind != FrameKind::Auth {
                            return true;
                        }
                        if parse_auth(frame.payload, self.secret, peer, nonce_me).is_err() {
                            return true;
                        }
                        // First-ever connection from this peer ⇒
                        // PeerConnected; later accepts are reconnects,
                        // reported by the dialer with its attempt count.
                        if !self.expected.contains_key(&peer.index()) {
                            self.obs.emit_at(self.clock.now_us(), self.me, || {
                                ObsEvent::PeerConnected { peer }
                            });
                        }
                        c.phase = InPhase::Up { peer };
                    }
                    InPhase::Up { peer } => {
                        if frame.kind != FrameKind::Msg {
                            self.obs.emit_at(self.clock.now_us(), self.me, || {
                                ObsEvent::FrameDecodeError { reason: "unexpected_kind" }
                            });
                            return true;
                        }
                        let seq = frame.seq;
                        let next = self.expected.entry(peer.index()).or_insert(1);
                        if seq < *next {
                            // Duplicate (chaos) or replayed after
                            // reconnect.
                            continue;
                        }
                        if seq > *next {
                            // Contiguity violation: drop the connection;
                            // the dialer reconnects and replays.
                            let expected = *next;
                            self.obs.emit_at(self.clock.now_us(), self.me, || {
                                ObsEvent::FrameSequenceGap { from: peer, expected, got: seq }
                            });
                            return true;
                        }
                        *next += 1;
                        // The message is decoded out of the input buffer
                        // before the ack below takes the connection's
                        // other half.
                        let msg = M::from_bytes(frame.payload);
                        // Cumulative ack on the same connection so the
                        // dialer can trim its replay log.
                        if seq % ACK_EVERY == 0 {
                            let _ = c.conn.queue_frame(&mut self.io, FrameKind::Ack, seq, 0, &[]);
                        }
                        match msg {
                            Ok(msg) => {
                                let env = Envelope::new(peer, self.me, msg);
                                if self.inbox.send(Ctrl::Deliver(env)).is_err() {
                                    return true;
                                }
                            }
                            Err(err) => {
                                let reason = err.label();
                                self.obs.emit_at(self.clock.now_us(), self.me, || {
                                    ObsEvent::FrameDecodeError { reason }
                                });
                                return true;
                            }
                        }
                    }
                },
                Ok(None) => break,
                Err(err) => {
                    if matches!(c.phase, InPhase::Up { .. }) {
                        let reason = err.label();
                        self.obs.emit_at(self.clock.now_us(), self.me, || {
                            ObsEvent::FrameDecodeError { reason }
                        });
                    }
                    return true;
                }
            }
        }
        c.conn.compact_in();
        // Ack write failures are tolerated: link death surfaces on the
        // read side.
        let _ = c.conn.flush(&mut self.io);
        match end {
            FillEnd::Open => match c.phase {
                // Handshake stragglers time out silently.
                InPhase::AwaitHello { since_ms } | InPhase::AwaitAuth { since_ms, .. } => {
                    now_ms.saturating_sub(since_ms) >= HANDSHAKE_DEADLINE_MS
                }
                InPhase::Up { .. } => false,
            },
            FillEnd::Eof => {
                if let InPhase::Up { peer } = c.phase {
                    if !self.shutdown.load(Ordering::Relaxed) {
                        self.obs.emit_at(self.clock.now_us(), self.me, || {
                            ObsEvent::PeerDisconnected { peer, reason: "closed" }
                        });
                    }
                }
                true
            }
            FillEnd::Error => {
                if let InPhase::Up { peer } = c.phase {
                    if !self.shutdown.load(Ordering::Relaxed) {
                        self.obs.emit_at(self.clock.now_us(), self.me, || {
                            ObsEvent::PeerDisconnected { peer, reason: "read_failed" }
                        });
                    }
                }
                true
            }
        }
    }

    /// Pumps the client gateway: accept, queue completion notices on
    /// the owning connections, decode submissions into the pipe's intake
    /// (refusing with a typed NACK when it is full), flush each
    /// connection once, and nudge the actor once per pass with queued
    /// work.
    fn pump_gateway(&mut self) {
        let Some(gw) = self.gateway.as_mut() else { return };
        if gw.listener_ready {
            gw.listener_ready = false;
            while let Ok((stream, _)) = gw.listener.accept() {
                if let Ok(conn) = BufConn::new(stream) {
                    gw.conns.push((gw.next_conn_id, conn));
                    gw.next_conn_id += 1;
                }
            }
        }
        // Completion notices go back to the submitting client's most
        // recent connection; notices for vanished clients are dropped
        // (the client re-learns its state by resubmitting). They are
        // only queued here: the connection loop below flushes a whole
        // pass's replies with one write.
        for notice in gw.pipe.drain_notices() {
            let (client, kind, seq, body) = match notice {
                GatewayNotice::Committed { client, seq } => {
                    (client, FrameKind::SubmitOk, seq, submit_ok_payload(client))
                }
                GatewayNotice::Rejected { client, seq, reason } => {
                    (client, FrameKind::SubmitNack, seq, submit_nack_payload(client, &reason))
                }
            };
            let Some(conn_id) = gw.owner.get(&client).copied() else { continue };
            if let Some((_, conn)) = gw.conns.iter_mut().find(|(id, _)| *id == conn_id) {
                let _ = conn.queue_frame(&mut self.io, kind, seq, 0, &body);
            }
        }
        let mut ticked = false;
        let mut any_closed = false;
        let mut i = 0;
        while i < gw.conns.len() {
            let mut closed = false;
            if let Some((conn_id, conn)) = gw.conns.get_mut(i) {
                let conn_id = *conn_id;
                let end = conn.fill_ready(&mut self.io);
                loop {
                    match conn.next_frame(&mut self.io) {
                        Ok(Some(frame)) => {
                            // Clients speak Submit only; anything else
                            // (or a malformed payload) is a confused or
                            // hostile peer — drop the connection.
                            if frame.kind != FrameKind::Submit {
                                closed = true;
                                break;
                            }
                            let Ok((client, tx)) = parse_submit(frame.payload) else {
                                closed = true;
                                break;
                            };
                            let seq = frame.seq;
                            gw.owner.insert(client, conn_id);
                            if gw.pipe.push_intake(ClientSubmit { client, seq, tx }) {
                                ticked = true;
                            } else {
                                // Intake full: refuse straight from the
                                // reactor — external load must never
                                // grow node memory without bound.
                                let pending = gw.pipe.intake_len() as u64;
                                let reason = NackReason::Backpressure {
                                    pending,
                                    capacity: INTAKE_CAP as u64,
                                };
                                let body = submit_nack_payload(client, &reason);
                                let _ = conn.queue_frame(
                                    &mut self.io,
                                    FrameKind::SubmitNack,
                                    seq,
                                    0,
                                    &body,
                                );
                                let label = reason.label();
                                self.obs.emit_at(self.clock.now_us(), self.me, || {
                                    ObsEvent::GatewayNacked { client, seq, reason: label }
                                });
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            closed = true;
                            break;
                        }
                    }
                }
                conn.compact_in();
                if !closed && !conn.flush(&mut self.io) {
                    closed = true;
                }
                if !closed && !matches!(end, FillEnd::Open) {
                    closed = true;
                }
            }
            if closed {
                gw.conns.swap_remove(i);
                any_closed = true;
            } else {
                i += 1;
            }
        }
        if any_closed {
            let conns = &gw.conns;
            gw.owner.retain(|_, conn_id| conns.iter().any(|(id, _)| id == conn_id));
        }
        if ticked {
            let _ = self.inbox.send(Ctrl::Tick);
        }
    }

    /// Parks in `poll(2)` until the earliest deadline, a socket turns
    /// ready, or the wake channel is written — then distributes the
    /// returned `revents` as readiness flags, so the next pass issues
    /// read/accept syscalls only where poll saw something. A poll error
    /// degrades to flagging everything (one wasted `WouldBlock` per
    /// descriptor, same as the pre-readiness behaviour).
    fn sleep(&mut self, deadline_ms: u64) {
        let mut fds = std::mem::take(&mut self.fds);
        let mut targets = std::mem::take(&mut self.targets);
        fds.clear();
        targets.clear();
        if let Some(sock) = self.waker.rx() {
            fds.push(poll::PollFd::new(sock.as_raw_fd(), poll::POLLIN));
            targets.push(PollTarget::Wake);
        }
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
        match poll::poll(&mut fds, wait) {
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
    }

    /// Arms the readiness flag behind one poll-set entry. The index-based
    /// targets are valid because nothing mutates the connection vectors
    /// between building the poll set and distributing its results.
    fn flag_ready(&mut self, target: PollTarget) {
        match target {
            PollTarget::Wake => self.wake_ready = true,
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

/// Runs the cluster: one reactor and one actor thread per node, plus the
/// calling thread as completion monitor (inboxes, monitor, teardown,
/// report).
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
    let secret = rt.secret;
    let backoff = rt.backoff;
    let timeout = rt.timeout;
    let addr_table = Arc::new(Mutex::new(addrs));

    let (inbox_txs, inbox_rxs): InboxChannels<M> = (0..n).map(|_| mpsc::channel()).unzip();

    // Per-link frame queues: senders fan out from each node's actor,
    // receivers land in the owning node's reactor.
    let mut link_txs: Vec<Vec<Option<Sender<FrameBody>>>> = Vec::with_capacity(n);
    let mut link_rx_rows: Vec<Vec<(usize, Receiver<FrameBody>)>> = Vec::with_capacity(n);
    for from in 0..n {
        let mut tx_row = Vec::with_capacity(n);
        let mut rx_row = Vec::new();
        for to in 0..n {
            if to == from {
                tx_row.push(None);
            } else {
                let (tx, rx) = mpsc::channel();
                tx_row.push(Some(tx));
                rx_row.push((to, rx));
            }
        }
        link_txs.push(tx_row);
        link_rx_rows.push(rx_row);
    }

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

    // One wake channel per node; failure degrades to capped poll sleeps.
    let wakers: Vec<ReactorWaker> =
        (0..n).map(|_| ReactorWaker::pair().unwrap_or_else(ReactorWaker::disconnected)).collect();

    let mut fronts: Vec<Option<GatewayFront>> = Vec::with_capacity(n);
    for (j, slot) in gateways.into_iter().enumerate() {
        match slot {
            Some((listener, pipe)) => {
                pipe.set_waker(wakers.get(j).cloned().unwrap_or_else(ReactorWaker::disconnected));
                fronts.push(Some(GatewayFront {
                    listener,
                    listener_ready: true,
                    pipe,
                    conns: Vec::new(),
                    next_conn_id: 0,
                    owner: BTreeMap::new(),
                }));
            }
            None => fronts.push(None),
        }
    }

    let mut timed_out = false;
    std::thread::scope(|scope| {
        // Reactor threads: one per node, owning every socket the node
        // touches.
        let per_node = bound.into_iter().zip(link_rx_rows).zip(&wakers).zip(fronts);
        for (j, (((listener, rx_row), waker), front)) in per_node.enumerate() {
            let me = NodeId::new(j);
            let links: Vec<LinkState> = rx_row
                .into_iter()
                .map(|(to, rx)| {
                    let peer = NodeId::new(to);
                    LinkState::new(me, peer, rx, rt.chaos.link(me, peer))
                })
                .collect();
            let Some(inbox) = inbox_txs.get(j).cloned() else { continue };
            let node: NodeReactor<M> = NodeReactor {
                me,
                n,
                clock,
                obs: obs.clone(),
                secret,
                backoff,
                shutdown: Arc::clone(&shutdown),
                addr_table: Arc::clone(&addr_table),
                inbox,
                listener: Some(listener),
                listener_ready: true,
                bounce: rt.bounces.iter().copied().find(|b| b.node == me),
                rebind_at_ms: None,
                waker: waker.clone(),
                wake_ready: true,
                io: ReactorStats::default(),
                fds: Vec::new(),
                targets: Vec::new(),
                links,
                inbound: Vec::new(),
                expected: BTreeMap::new(),
                gateway: front,
            };
            let ledger = ledger.clone();
            scope.spawn(move || supervised(&ledger, "reactor", || node.run()));
        }

        // Actor threads: the fan-out wakes this node's reactor after
        // enqueueing frames.
        for (idx, (slot, rx)) in rt.procs.iter_mut().zip(inbox_rxs).enumerate() {
            let Some((mut proc_, _)) = slot.take() else { continue };
            let Some(self_tx) = inbox_txs.get(idx).cloned() else { continue };
            let links = LinkFanout {
                txs: link_txs.get_mut(idx).map(std::mem::take).unwrap_or_default(),
                waker: wakers.get(idx).cloned().unwrap_or_else(ReactorWaker::disconnected),
            };
            let outputs = Arc::clone(&outputs);
            let obs = obs.clone();
            let restart = restart_specs.remove(&idx);
            let ledger = ledger.clone();
            scope.spawn(move || {
                supervised(&ledger, "actor", || {
                    actor_loop(&mut proc_, rx, &self_tx, &links, &outputs, &obs, clock, restart);
                });
            });
        }

        // Completion monitor: poll until all correct nodes decided or
        // the timeout fires, then tear everything down.
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
        for tx in &inbox_txs {
            let _ = tx.send(Ctrl::Stop);
        }
        // Wake every reactor so the ≤10ms poll sleeps cut short; no
        // socket severing is needed — nothing blocks on I/O.
        for waker in &wakers {
            waker.wake();
        }
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

    #[test]
    fn wake_writes_only_when_the_flag_is_armed() {
        let Some(waker) = ReactorWaker::pair() else {
            return; // environment without socket pairs — nothing to test
        };
        let Some(rx) = waker.rx() else { return };
        assert!(!readable_within(rx, 0), "fresh wake channel must be silent");
        waker.wake();
        assert!(!readable_within(rx, 0), "an unarmed flag must absorb the wake");
        assert_eq!(waker.skipped(), 1);

        waker.arm();
        waker.wake();
        waker.wake();
        assert!(readable_within(rx, 1000), "an armed wake() must make the read end readable");
        let mut buf = [0u8; 8];
        assert_eq!((&*rx).read(&mut buf).ok(), Some(1), "one arming buys one byte");
        assert_eq!(waker.skipped(), 2);
    }

    #[test]
    fn disconnected_waker_is_inert() {
        let waker = ReactorWaker::disconnected();
        waker.arm();
        waker.wake(); // must not panic
        assert_eq!(waker.skipped(), 0);
        assert_eq!(format!("{waker:?}"), "ReactorWaker(connected=false)");
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
        assert_eq!(b.fill(&mut io), FillEnd::Open);
        assert_eq!(b.inbuf, wire, "queue_frame puts encode_frame's bytes on the wire");
        let frame = b.next_frame(&mut io).ok().flatten().map(FrameRef::to_frame);
        assert_eq!(frame.map(|f| (f.seq, f.payload)), Some((7, b"hello reactor".to_vec())));
        assert_eq!(b.next_frame(&mut io), Ok(None));
        assert_eq!(io.frames_in, 1);

        drop(a);
        assert!(readable_within(&b.stream, 5000), "a FIN must flag the socket");
        assert_eq!(b.fill(&mut io), FillEnd::Eof, "dropping the peer must surface as EOF");
        assert_eq!(b.fill(&mut io), FillEnd::Eof, "EOF is sticky");
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
        assert_eq!(b.fill_ready(&mut io), FillEnd::Open);
        assert_eq!(b.inbuf, a_pattern(burst));
        assert_eq!(io.reads, (burst / READ_CHUNK + 1) as u64);
        assert_eq!(io.reads_blocked, 0);

        // Pass 2: poll flagged nothing, so nothing is read.
        assert!(!readable_within(&b.stream, 0));
        assert_eq!(b.fill_ready(&mut io), FillEnd::Open);
        assert_eq!(io.reads, (burst / READ_CHUNK + 1) as u64);
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
        assert_eq!(b.fill_ready(&mut io), FillEnd::Open);
        assert_eq!(b.inbuf.len(), 100);
        assert!(!b.peer_eof);
        // … and level-triggered poll hands it to the next pass.
        assert!(readable_within(&b.stream, 5000), "a pending FIN must re-flag the socket");
        b.mark_ready();
        assert_eq!(b.fill_ready(&mut io), FillEnd::Eof);
    }
}
