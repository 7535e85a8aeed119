//! The client gateway: external submit/ack traffic in front of the
//! ordering engine.
//!
//! The peer mesh ([`crate::runtime`], [`crate::reactor`]) carries
//! *protocol* traffic between cluster nodes. Real deployments also face
//! **clients**: processes outside the cluster that submit payloads and
//! want an acknowledgement once their payload is committed to the
//! replicated log. This module is that front door, in three parts:
//!
//! * **Wire messages** — `Submit` / `SubmitOk` / `SubmitNack` frames
//!   (see [`crate::frame::FrameKind`]) reusing the peer framing layer:
//!   same magic, same checksum trailer, same strict decoding. A client
//!   connection performs no handshake — the gateway trusts transport
//!   integrity but nothing else, so every byte is parsed defensively
//!   and per-client sequencing is enforced server-side.
//! * **[`GatewayPipe`]** — the queues between a node's reactor (which
//!   owns the client sockets) and its `Process`, which the same node
//!   thread steps. The reactor pushes decoded submissions into the
//!   intake queue and drains completion notices out; the process side
//!   does the reverse.
//! * **[`run_load`]** — an open-loop load generator: thousands of
//!   simulated clients submitting at a fixed aggregate rate from a
//!   single thread, with per-(client, seq) latency stamps measured from
//!   first submission to commit acknowledgement.
//!
//! # Per-client sequencing
//!
//! Every client numbers its submissions contiguously from 1 and the
//! gateway accepts seq `k + 1` only after `1..=k` (acceptance, not
//! commit, orders the window — a client may pipeline). Backpressure
//! from the ordering engine is surfaced as a typed NACK carrying the
//! mempool occupancy, and **does not advance** the expected sequence:
//! the client retries the same seq later. See `bft_order::gateway` for
//! the process-side state machine.

use crate::clock::Clock;
use crate::frame::{decode_prefix, encode_frame, FrameKind};
use bft_types::wire::{put_u64, DecodeError, Reader};
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NackReason {
    /// The ordering engine's mempool covers every pipeline slot; retry
    /// the same sequence number after a commit drains it.
    Backpressure {
        /// Payloads queued at refusal time.
        pending: u64,
        /// The mempool bound that was hit.
        capacity: u64,
    },
    /// The submission skipped ahead of the per-client contiguous
    /// sequence; resubmit from `expected`.
    SequenceGap {
        /// The sequence number the gateway expects next.
        expected: u64,
    },
    /// The payload exceeds the frame layer's hard cap.
    Oversize {
        /// The offending payload length.
        len: u64,
    },
}

impl NackReason {
    /// Stable snake_case label (observability events, logs).
    pub const fn label(&self) -> &'static str {
        match self {
            NackReason::Backpressure { .. } => "backpressure",
            NackReason::SequenceGap { .. } => "sequence_gap",
            NackReason::Oversize { .. } => "oversize",
        }
    }

    const fn code(&self) -> u8 {
        match self {
            NackReason::Backpressure { .. } => 1,
            NackReason::SequenceGap { .. } => 2,
            NackReason::Oversize { .. } => 3,
        }
    }
}

/// One decoded client submission, as handed to the process side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientSubmit {
    /// The submitting client's id (client-chosen, connection-scoped).
    pub client: u64,
    /// The client's contiguous submission number (1-based).
    pub seq: u64,
    /// The application payload.
    pub tx: Vec<u8>,
}

/// A completion notice flowing from the process side back to the
/// reactor, which forwards it to the submitting client's connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GatewayNotice {
    /// The submission reached the replicated log; answered as
    /// [`FrameKind::SubmitOk`].
    Committed {
        /// The submitting client.
        client: u64,
        /// The committed submission number.
        seq: u64,
    },
    /// The submission was refused; answered as
    /// [`FrameKind::SubmitNack`].
    Rejected {
        /// The submitting client.
        client: u64,
        /// The refused submission number.
        seq: u64,
        /// Why it was refused.
        reason: NackReason,
    },
}

// ---- wire payloads --------------------------------------------------------
//
// The frame header already carries the sequence number; gateway payloads
// add the client id (and, for NACKs, the typed reason). All integers are
// little-endian, mirroring `bft_types::wire`.

/// Builds a `Submit` payload: `client ‖ tx`.
pub fn submit_payload(client: u64, tx: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + tx.len());
    put_u64(&mut out, client);
    out.extend_from_slice(tx);
    out
}

/// Parses a `Submit` payload into `(client, tx)`.
pub fn parse_submit(payload: &[u8]) -> Result<(u64, Vec<u8>), DecodeError> {
    let mut r = Reader::new(payload);
    let client = r.u64()?;
    let rest = r.remaining();
    if rest > bft_types::wire::MAX_PAYLOAD as usize {
        return Err(DecodeError::Oversize(rest as u32));
    }
    let tx = r.take(rest)?.to_vec();
    Ok((client, tx))
}

/// Builds a `SubmitOk` payload: `client`.
pub fn submit_ok_payload(client: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    put_u64(&mut out, client);
    out
}

/// Parses a `SubmitOk` payload into the client id.
pub fn parse_submit_ok(payload: &[u8]) -> Result<u64, DecodeError> {
    let mut r = Reader::new(payload);
    let client = r.u64()?;
    r.finish()?;
    Ok(client)
}

/// Builds a `SubmitNack` payload: `client ‖ code ‖ a ‖ b` where the two
/// trailing words carry the reason's parameters (zero when unused).
pub fn submit_nack_payload(client: u64, reason: &NackReason) -> Vec<u8> {
    let (a, b) = match *reason {
        NackReason::Backpressure { pending, capacity } => (pending, capacity),
        NackReason::SequenceGap { expected } => (expected, 0),
        NackReason::Oversize { len } => (len, 0),
    };
    let mut out = Vec::with_capacity(25);
    put_u64(&mut out, client);
    out.push(reason.code());
    put_u64(&mut out, a);
    put_u64(&mut out, b);
    out
}

/// Parses a `SubmitNack` payload into `(client, reason)`.
pub fn parse_submit_nack(payload: &[u8]) -> Result<(u64, NackReason), DecodeError> {
    let mut r = Reader::new(payload);
    let client = r.u64()?;
    let code = r.u8()?;
    let a = r.u64()?;
    let b = r.u64()?;
    r.finish()?;
    let reason = match code {
        1 => NackReason::Backpressure { pending: a, capacity: b },
        2 => NackReason::SequenceGap { expected: a },
        3 => NackReason::Oversize { len: a },
        got => return Err(DecodeError::Invalid { what: "nack code", got: got as u64 }),
    };
    Ok((client, reason))
}

// ---- the reactor ↔ process pipe -------------------------------------------

/// Bound on queued-but-undrained client submissions per node. Past it
/// the reactor answers `Backpressure` directly instead of buffering —
/// external load must never grow node memory without bound.
pub(crate) const INTAKE_CAP: usize = 65_536;

struct PipeInner {
    intake: Mutex<VecDeque<ClientSubmit>>,
    notices: Mutex<VecDeque<GatewayNotice>>,
    addr: Mutex<Option<SocketAddr>>,
    finished: AtomicBool,
}

/// The queues between one node's reactor and its process (cheaply
/// cloneable; all clones share state).
///
/// Built by the harness, handed to [`crate::NetRuntime::gateway`] *and*
/// kept by the caller: after the runtime starts, [`GatewayPipe::addr`]
/// is the socket address clients connect to; the node's reactor serves
/// it.
#[derive(Clone)]
pub struct GatewayPipe {
    inner: Arc<PipeInner>,
}

impl Default for GatewayPipe {
    fn default() -> Self {
        GatewayPipe::new()
    }
}

impl GatewayPipe {
    /// Creates an unconnected pipe.
    pub fn new() -> Self {
        GatewayPipe {
            inner: Arc::new(PipeInner {
                intake: Mutex::new(VecDeque::new()),
                notices: Mutex::new(VecDeque::new()),
                addr: Mutex::new(None),
                finished: AtomicBool::new(false),
            }),
        }
    }

    /// Where clients connect; `None` until the runtime has bound the
    /// gateway listener.
    pub fn addr(&self) -> Option<SocketAddr> {
        *crate::runtime::locked(&self.inner.addr)
    }

    pub(crate) fn set_addr(&self, addr: SocketAddr) {
        *crate::runtime::locked(&self.inner.addr) = Some(addr);
    }

    /// Queues a decoded submission for the process side; `false` means
    /// the intake is full and the caller must refuse the submission.
    /// Called by the reactor (and by process-side tests injecting
    /// submissions without sockets).
    pub fn push_intake(&self, submit: ClientSubmit) -> bool {
        let mut q = crate::runtime::locked(&self.inner.intake);
        if q.len() >= INTAKE_CAP {
            return false;
        }
        q.push_back(submit);
        true
    }

    /// Current intake occupancy (for the reactor's refusal NACK).
    pub(crate) fn intake_len(&self) -> usize {
        crate::runtime::locked(&self.inner.intake).len()
    }

    /// Drains every queued submission, FIFO. Called by the process side
    /// (e.g. `bft_order::gateway::GatewayProcess`) from its tick/message
    /// hooks.
    pub fn drain_intake(&self) -> Vec<ClientSubmit> {
        let mut q = crate::runtime::locked(&self.inner.intake);
        q.drain(..).collect()
    }

    /// Queues a completion notice for the reactor, which answers it in
    /// the same pass as the step that pushed it. Called by the process
    /// side.
    pub fn push_notice(&self, notice: GatewayNotice) {
        crate::runtime::locked(&self.inner.notices).push_back(notice);
    }

    /// Drains every queued notice, FIFO. Called by the reactor (and by
    /// process-side tests asserting on the notice stream).
    pub fn drain_notices(&self) -> Vec<GatewayNotice> {
        let mut q = crate::runtime::locked(&self.inner.notices);
        q.drain(..).collect()
    }

    /// Ends the service: no more clients will come. Submissions already
    /// in the intake, and any a connected client still sends, are admitted
    /// and ordered as before; the process side reads the flag at its next
    /// tick or completed epoch and stops waiting for payloads (an ordering
    /// node then winds down to its horizon). Called by the host, e.g. once
    /// its load generator has returned. Idempotent.
    pub fn finish(&self) {
        self.inner.finished.store(true, Ordering::Release);
    }

    /// Whether [`finish`](Self::finish) has been called on any clone.
    pub fn is_finished(&self) -> bool {
        self.inner.finished.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for GatewayPipe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GatewayPipe(addr={:?})", self.addr())
    }
}

// ---- the open-loop load generator -----------------------------------------

/// Knobs for [`run_load`].
#[derive(Clone, Copy, Debug)]
pub struct LoadGenConfig {
    /// Simulated clients (round-robin across gateway addresses).
    pub clients: u64,
    /// Aggregate submission rate across all clients, per second. Open
    /// loop: the schedule does not slow down when the cluster does.
    pub rate_tx_per_s: u64,
    /// Application payload bytes per submission (floor; the generator
    /// stamps client and seq into the first 16 bytes).
    pub tx_bytes: usize,
    /// How long to keep submitting, in milliseconds.
    pub duration_ms: u64,
    /// After the cluster run ends (the harness flips `stop`), how long
    /// to keep reading in-flight commit acks before giving up, in
    /// milliseconds. While `stop` stays clear the generator drains until
    /// every submission a gateway holds is acknowledged — a slow
    /// cluster's acks arrive long after the submit window, and the
    /// harness bounds the wait with its own cluster timeout.
    pub drain_ms: u64,
    /// Per-client pipelining bound: a client with this many
    /// unacknowledged submissions defers its slot (counted as
    /// `throttled`) instead of widening the gap window.
    pub window: u64,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            clients: 1000,
            rate_tx_per_s: 5000,
            tx_bytes: 32,
            duration_ms: 2000,
            drain_ms: 3000,
            window: 64,
        }
    }
}

/// What [`run_load`] observed.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadGenReport {
    /// Distinct submissions sent at least once.
    pub submitted: u64,
    /// Submissions acknowledged as committed.
    pub committed: u64,
    /// Backpressure NACKs received (each retried, unless the seq had
    /// committed by the time the NACK arrived).
    pub nacked: u64,
    /// Non-retryable rejections (oversize — should stay zero).
    pub rejected: u64,
    /// Schedule slots deferred by the per-client window bound.
    pub throttled: u64,
    /// Median submit→commit latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile submit→commit latency, microseconds.
    pub p99_us: u64,
    /// Wall-clock time of the whole generator run, milliseconds.
    pub elapsed_ms: u64,
}

/// Per-simulated-client cursor state. The cursor stays above `acked`
/// (`next > acked` always): a committed seq is never sent, stamped or
/// counted again.
struct ClientState {
    /// Next seq to submit (1-based). Pulled *back* by NACKs, pushed past
    /// every acknowledged seq by acks.
    next: u64,
    /// Highest seq acknowledged as committed.
    acked: u64,
    /// Earliest time this client's slot may fire again (backoff after a
    /// backpressure NACK), ms on the generator clock.
    retry_at_ms: u64,
}

impl ClientState {
    fn new() -> Self {
        ClientState { next: 1, acked: 0, retry_at_ms: 0 }
    }

    /// Takes the seq to submit now.
    fn fire(&mut self) -> u64 {
        self.next += 1;
        self.next - 1
    }

    /// A `SubmitOk` for `seq`: it and everything below it are committed.
    /// A NACK of an earlier attempt may have pulled the cursor back to
    /// `seq`; resending it would only earn a duplicate re-ack.
    fn on_ack(&mut self, seq: u64) {
        self.acked = self.acked.max(seq);
        self.next = self.next.max(seq + 1);
    }

    /// A NACK asking for `resume` again (the refused seq, or a gap's
    /// `expected`): pulls the cursor back to it — unless it is at or below
    /// `acked`. Such a NACK is stale: it was sent before a retry of that
    /// seq got through and committed. Returns whether the NACK was
    /// current (the caller then backs off a refused client).
    fn on_nack(&mut self, resume: u64) -> bool {
        if resume <= self.acked {
            return false;
        }
        self.next = self.next.min(resume);
        true
    }
}

/// One gateway connection owned by the generator.
struct GenConn {
    stream: Option<TcpStream>,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_pos: usize,
    next_dial_at_ms: u64,
}

/// Soft bound on a generator connection's pending output; schedule slots
/// land in `throttled` instead of growing the buffer past it.
const GEN_OUTBUF_SOFT_CAP: usize = 1 << 20;

impl GenConn {
    fn dial(addr: SocketAddr) -> Option<TcpStream> {
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        Some(stream)
    }

    /// Nonblocking flush; drops the stream on a hard write error.
    fn flush(&mut self) {
        use std::io::Write;
        let Some(stream) = self.stream.as_mut() else { return };
        while self.out_pos < self.outbuf.len() {
            match stream.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => {
                    self.stream = None;
                    break;
                }
                Ok(k) => self.out_pos += k,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.stream = None;
                    break;
                }
            }
        }
        if self.out_pos >= self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
        } else if self.out_pos > (64 << 10) {
            self.outbuf.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }

    /// Nonblocking read into `inbuf`; drops the stream on EOF/error.
    fn fill(&mut self) {
        use std::io::Read;
        let Some(stream) = self.stream.as_mut() else { return };
        let mut chunk = [0u8; 16 << 10];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    self.stream = None;
                    break;
                }
                Ok(k) => self.inbuf.extend_from_slice(chunk.get(..k).unwrap_or_default()),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.stream = None;
                    break;
                }
            }
        }
    }
}

/// The deterministic payload of submission `(client, seq)`: both ids in
/// the first 16 bytes, zero-padded to `tx_bytes`.
fn gen_tx(client: u64, seq: u64, tx_bytes: usize) -> Vec<u8> {
    let mut tx = vec![0u8; tx_bytes.max(16)];
    if let Some(head) = tx.get_mut(..8) {
        head.copy_from_slice(&client.to_le_bytes());
    }
    if let Some(mid) = tx.get_mut(8..16) {
        mid.copy_from_slice(&seq.to_le_bytes());
    }
    tx
}

/// Runs the open-loop load generator against a set of gateway
/// addresses, single-threaded over nonblocking sockets.
///
/// Clients are partitioned round-robin across `addrs` (client `c`
/// submits to `addrs[c % addrs.len()]`). The submit schedule is open
/// loop at `rate_tx_per_s`; a slot whose client is window-bound or
/// backing off is counted in [`LoadGenReport::throttled`] rather than
/// rescheduled. After the submit window the generator keeps draining
/// commit acks until `stop` is set (the harness flips it when the
/// cluster run ends — that bounds the wait) plus a `drain_ms` grace for
/// in-flight frames, or until nothing is outstanding: no gateway holds a
/// submission of ours unacknowledged. A refused seq the window has
/// rewound past is never resent once submitting ends, so it is not
/// waited for — a cluster that orders only what it holds (and winds
/// down once its host finishes the intake) would never ack it.
pub fn run_load(addrs: &[SocketAddr], cfg: &LoadGenConfig, stop: &AtomicBool) -> LoadGenReport {
    let mut report = LoadGenReport::default();
    if addrs.is_empty() || cfg.clients == 0 {
        return report;
    }
    let clock = Clock::new();
    let interval_us = 1_000_000 / cfg.rate_tx_per_s.max(1);

    let mut conns: Vec<GenConn> = addrs
        .iter()
        .map(|&addr| GenConn {
            stream: GenConn::dial(addr),
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            next_dial_at_ms: 0,
        })
        .collect();
    let mut clients: Vec<ClientState> = (0..cfg.clients).map(|_| ClientState::new()).collect();
    // First-submission stamps, removed on commit ack; resends keep the
    // original stamp so latency covers the full retry story.
    let mut stamps: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut tick: u64 = 0;
    let mut next_tick_us: u64 = 0;
    // When `stop` was first observed set — starts the drain grace clock.
    let mut stopped_at_ms: Option<u64> = None;

    loop {
        let now_ms = clock.now_ms();
        let now_us = clock.now_us();
        if stopped_at_ms.is_none() && stop.load(Ordering::Relaxed) {
            stopped_at_ms = Some(now_ms);
        }
        let submitting = now_ms < cfg.duration_ms && stopped_at_ms.is_none();
        if !submitting {
            // Drain phase: wait for outstanding acks for as long as the
            // cluster is still running; once the harness flips `stop`
            // (the run ended), linger `drain_ms` for in-flight frames.
            let grace_over =
                stopped_at_ms.is_some_and(|t| now_ms >= t.saturating_add(cfg.drain_ms));
            let held = stamps
                .keys()
                .any(|&(c, seq)| clients.get(c as usize).is_some_and(|cs| seq < cs.next));
            if !held || grace_over {
                break;
            }
        }

        // Redial dead connections, rate-limited.
        for (i, conn) in conns.iter_mut().enumerate() {
            if conn.stream.is_none() && now_ms >= conn.next_dial_at_ms {
                conn.stream = addrs.get(i).copied().and_then(GenConn::dial);
                conn.next_dial_at_ms = now_ms + 50;
                if conn.stream.is_some() {
                    conn.inbuf.clear();
                    conn.outbuf.clear();
                    conn.out_pos = 0;
                }
            }
        }

        // Fire every due schedule slot (bounded per pass: an open loop
        // catches up after a stall, but not all at once).
        let mut burst = 0u32;
        while submitting && now_us >= next_tick_us && burst < 4096 {
            next_tick_us = next_tick_us.saturating_add(interval_us);
            burst += 1;
            let c = tick % cfg.clients;
            tick += 1;
            let Some(client) = clients.get_mut(c as usize) else { continue };
            let conn_idx = (c as usize) % conns.len();
            let Some(conn) = conns.get_mut(conn_idx) else { continue };
            let window_full = client.next > client.acked + cfg.window;
            let backing_off = now_ms < client.retry_at_ms;
            let conn_down = conn.stream.is_none();
            let out_full = conn.outbuf.len() >= GEN_OUTBUF_SOFT_CAP;
            if window_full || backing_off || conn_down || out_full {
                report.throttled += 1;
                continue;
            }
            let seq = client.fire();
            let tx = gen_tx(c, seq, cfg.tx_bytes);
            let payload = submit_payload(c, &tx);
            if let Ok(bytes) = encode_frame(FrameKind::Submit, seq, 0, &payload) {
                conn.outbuf.extend_from_slice(&bytes);
                if let std::collections::btree_map::Entry::Vacant(e) = stamps.entry((c, seq)) {
                    e.insert(now_us);
                    report.submitted += 1;
                }
            }
        }

        // Pump every connection.
        for conn in conns.iter_mut() {
            conn.flush();
            conn.fill();
            let mut consumed = 0usize;
            loop {
                let rest = conn.inbuf.get(consumed..).unwrap_or_default();
                match decode_prefix(rest) {
                    Ok(Some((frame, used))) => {
                        // `used` is bounded by the bytes actually
                        // buffered, but keep the cursor arithmetic
                        // non-wrapping regardless.
                        consumed = consumed.saturating_add(used);
                        match frame.kind {
                            FrameKind::SubmitOk => {
                                if let Ok(client_id) = parse_submit_ok(&frame.payload) {
                                    if let Some(at) = stamps.remove(&(client_id, frame.seq)) {
                                        latencies.push(now_us.saturating_sub(at));
                                        report.committed += 1;
                                    }
                                    if let Some(cs) = clients.get_mut(client_id as usize) {
                                        cs.on_ack(frame.seq);
                                    }
                                }
                            }
                            FrameKind::SubmitNack => {
                                if let Ok((client_id, reason)) = parse_submit_nack(&frame.payload) {
                                    let Some(cs) = clients.get_mut(client_id as usize) else {
                                        continue;
                                    };
                                    match reason {
                                        NackReason::Backpressure { .. } => {
                                            report.nacked += 1;
                                            if cs.on_nack(frame.seq) {
                                                cs.retry_at_ms = now_ms + 5;
                                            }
                                        }
                                        NackReason::SequenceGap { expected } => {
                                            cs.on_nack(expected);
                                        }
                                        NackReason::Oversize { .. } => report.rejected += 1,
                                    }
                                }
                            }
                            _ => {
                                // A gateway speaks only Ok/Nack; anything
                                // else means a confused peer — drop it.
                                conn.stream = None;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        conn.stream = None;
                        conn.inbuf.clear();
                        consumed = 0;
                        break;
                    }
                }
            }
            if consumed > 0 {
                conn.inbuf.drain(..consumed);
            }
        }

        // Sleep until the next schedule slot (or a readable ack) via
        // poll(2); the generator never busy-spins.
        let mut fds: Vec<poll::PollFd> = Vec::with_capacity(conns.len());
        for conn in &conns {
            if let Some(stream) = &conn.stream {
                use std::os::fd::AsRawFd;
                let mut events = poll::POLLIN;
                if conn.out_pos < conn.outbuf.len() {
                    events |= poll::POLLOUT;
                }
                fds.push(poll::PollFd::new(stream.as_raw_fd(), events));
            }
        }
        let wait_ms = if submitting && now_us >= next_tick_us {
            0
        } else if submitting {
            (next_tick_us.saturating_sub(now_us) / 1000).clamp(0, 10) as i32
        } else {
            5
        };
        let _ = poll::poll(&mut fds, wait_ms.max(0));
    }

    latencies.sort_unstable();
    let pick = |q_num: usize, q_den: usize| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = (latencies.len() - 1) * q_num / q_den;
        latencies.get(idx).copied().unwrap_or(0)
    };
    report.p50_us = pick(1, 2);
    report.p99_us = pick(99, 100);
    report.elapsed_ms = clock.now_ms();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gateway_payloads_round_trip() {
        let p = submit_payload(7, b"hello");
        assert_eq!(parse_submit(&p), Ok((7, b"hello".to_vec())));

        let ok = submit_ok_payload(99);
        assert_eq!(parse_submit_ok(&ok), Ok(99));

        for reason in [
            NackReason::Backpressure { pending: 12, capacity: 16 },
            NackReason::SequenceGap { expected: 4 },
            NackReason::Oversize { len: 1 << 21 },
        ] {
            let n = submit_nack_payload(3, &reason);
            assert_eq!(parse_submit_nack(&n), Ok((3, reason)));
        }
    }

    #[test]
    fn malformed_gateway_payloads_are_typed_errors() {
        assert!(parse_submit(&[1, 2]).is_err());
        assert!(parse_submit_ok(&[0; 9]).is_err(), "trailing byte");
        let mut bad = submit_nack_payload(1, &NackReason::SequenceGap { expected: 2 });
        if let Some(code) = bad.get_mut(8) {
            *code = 9;
        }
        assert!(matches!(
            parse_submit_nack(&bad),
            Err(DecodeError::Invalid { what: "nack code", .. })
        ));
    }

    #[test]
    fn pipe_is_fifo_and_intake_is_bounded() {
        let pipe = GatewayPipe::new();
        assert!(pipe.push_intake(ClientSubmit { client: 1, seq: 1, tx: vec![1] }));
        assert!(pipe.push_intake(ClientSubmit { client: 1, seq: 2, tx: vec![2] }));
        let drained = pipe.drain_intake();
        assert_eq!(drained.iter().map(|s| s.seq).collect::<Vec<_>>(), [1, 2]);
        assert!(pipe.drain_intake().is_empty());

        for i in 0..super::INTAKE_CAP {
            assert!(pipe.push_intake(ClientSubmit { client: 0, seq: i as u64, tx: Vec::new() }));
        }
        assert!(
            !pipe.push_intake(ClientSubmit { client: 0, seq: 0, tx: Vec::new() }),
            "intake past the cap must refuse"
        );

        pipe.push_notice(GatewayNotice::Committed { client: 1, seq: 1 });
        pipe.push_notice(GatewayNotice::Rejected {
            client: 1,
            seq: 2,
            reason: NackReason::SequenceGap { expected: 2 },
        });
        let notices = pipe.drain_notices();
        assert_eq!(notices.len(), 2);
        assert!(matches!(notices.first(), Some(GatewayNotice::Committed { seq: 1, .. })));
    }

    #[test]
    fn a_nack_rewinds_the_cursor_unless_its_seq_already_committed() {
        let mut c = ClientState { next: 10, acked: 7, retry_at_ms: 0 };
        // Current NACKs pull the cursor back to the refused seq, never
        // forward.
        assert!(c.on_nack(9));
        assert!(c.on_nack(8));
        assert!(c.on_nack(9));
        assert_eq!(c.next, 8);
        // Stale ones — the retry got through and committed before the
        // NACK of the first attempt (or a gap NACK for a seq sent behind
        // it) arrived — must not reopen a committed seq.
        assert!(!c.on_nack(7));
        assert!(!c.on_nack(3));
        assert_eq!(c.next, 8);
    }

    #[test]
    fn an_ack_after_a_nack_of_the_same_seq_is_never_resent() {
        let mut c = ClientState::new();
        assert_eq!([c.fire(), c.fire(), c.fire()], [1, 2, 3]);
        c.on_ack(1);
        // Seq 2's first attempt is refused while a retry of it is already
        // in flight: the NACK pulls the cursor back to 2 …
        assert!(c.on_nack(2));
        // … and then the retry commits. Resending 2 would stamp it anew
        // and count its duplicate re-ack as a second commit.
        c.on_ack(2);
        assert_eq!(c.fire(), 3, "a committed seq is never resent");
    }

    #[test]
    fn generated_txs_carry_client_and_seq() {
        let tx = gen_tx(5, 9, 32);
        assert_eq!(tx.len(), 32);
        assert_eq!(tx.get(..8), Some(&5u64.to_le_bytes()[..]));
        assert_eq!(tx.get(8..16), Some(&9u64.to_le_bytes()[..]));
        assert_eq!(gen_tx(1, 1, 4).len(), 16, "floor at the stamp size");
    }
}
