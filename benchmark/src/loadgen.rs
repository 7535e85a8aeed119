//! The benchmark's own load generator: one thread, one connection per
//! loaded gateway, many logical clients multiplexed over them.
//!
//! Two things set it apart from `bft_net::run_load`, and both change the
//! numbers it reports:
//!
//! * **Latency is stamped from a slot's due time**, not from when it
//!   was sent. A slot whose client is window-bound or backing off after
//!   a NACK *stays due* and is sent as soon as the client may send
//!   again, so the wait a stall imposes on later requests is counted
//!   (no coordinated omission), and nothing is silently dropped.
//! * **The generator reports how late it ran** ([`Generator::late_us`]):
//!   the gap between a slot's due time and the pump that noticed it. A
//!   run whose p99 lateness exceeds 2 ms measured the generator, not
//!   the cluster.
//!
//! The per-client contract is the gateway's: contiguous `seq` from 1, a
//! backpressure NACK does not advance the window (resend the same seq
//! after a backoff), a `SequenceGap` NACK rewinds to `expected`.
//!
//! [`Generator`] is the pure schedule/bookkeeping half (unit-tested
//! without sockets); [`Driver`] owns the sockets and the clock.

use crate::rng::Rng;
use async_bft::net::frame::decode_prefix;
use async_bft::net::gateway::{parse_submit_nack, parse_submit_ok, submit_payload};
use async_bft::net::{encode_frame, FrameKind, NackReason};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a client waits after a backpressure NACK before resending.
const NACK_BACKOFF_US: u64 = 5_000;
/// Longest sleep between pumps: bounds how stale an unread ack can get.
const PUMP_CAP_US: u64 = 1_000;
/// Shortest sleep between pumps: keeps the generator's own CPU use low
/// on the two cores it shares with the cluster.
const PUMP_FLOOR_US: u64 = 500;

/// Microseconds since a shared origin; `Copy`, so the generator and the
/// trace sink stamp on one clock.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_us(&self) -> u64 {
        self.0.elapsed().as_micros() as u64
    }
}

/// How slots fall due.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// At a fixed aggregate rate, whatever the cluster does: independent
    /// users. Slot `k` is due at `k / rate` and goes to client `k mod
    /// clients` (through a seeded permutation).
    Open { rate_per_s: u64 },
    /// Each client keeps `window` requests outstanding and a new slot is
    /// due the moment an ack frees one: callers that wait for replies.
    Closed,
}

#[derive(Clone, Copy, Debug)]
pub struct LoadSpec {
    pub load: Load,
    pub clients: u64,
    /// Open loop: per-client pipelining bound. Closed loop: requests
    /// each client keeps outstanding.
    pub window: u64,
    pub tx_bytes: usize,
}

/// One due-but-unacknowledged request of a client.
#[derive(Clone, Copy, Debug)]
struct Slot {
    due_us: u64,
    /// When the generator noticed the slot was due.
    fired_us: u64,
    /// First transmission (resends keep it).
    sent_us: Option<u64>,
}

#[derive(Debug)]
struct Client {
    gateway: usize,
    /// Highest seq acknowledged as committed.
    acked: u64,
    /// Next seq to transmit; pulled back by NACKs.
    next: u64,
    /// Slots for seqs `acked + 1 ..`, sent or not.
    slots: VecDeque<Slot>,
    retry_at_us: u64,
}

/// A request that completed: every stamp is on the generator's clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    pub client: u64,
    pub seq: u64,
    pub due_us: u64,
    pub sent_us: u64,
    pub ack_us: u64,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Slots that fell due (what the run attempted).
    pub due: u64,
    /// Frames written, resends included.
    pub frames_sent: u64,
    /// Slots that could not be sent in the pump they fell due in.
    pub deferred: u64,
    pub nacked_backpressure: u64,
    pub nacked_gap: u64,
    /// Non-retryable refusals (`Oversize`): the slot fails.
    pub rejected: u64,
    pub duplicate_acks: u64,
    /// Acks for a seq that was never sent.
    pub stray_acks: u64,
    /// Slots skipped over by a later ack of the same client: admitted
    /// by the gateway, never committed. They fail.
    pub lost: u64,
}

/// A frame the driver should write: `(gateway, client, seq)`.
pub type Send = (usize, u64, u64);

/// The schedule and per-client sequencing state; no I/O, no clock.
#[derive(Debug)]
pub struct Generator {
    spec: LoadSpec,
    clients: Vec<Client>,
    /// Slot index → client (a seeded permutation of `0..clients`).
    order: Vec<u64>,
    next_slot: u64,
    origin_us: u64,
    generating: bool,
    pub counters: Counters,
    pub records: Vec<Record>,
    /// Per fired slot: how long after its due time it was noticed.
    pub late_us: Vec<u64>,
}

impl Generator {
    /// `gateways` connections are loaded; the seed assigns clients to
    /// them (balanced) and permutes the slot→client order.
    pub fn new(spec: LoadSpec, gateways: usize, seed: u64, origin_us: u64) -> Self {
        let mut rng = Rng::fork(seed, "loadgen");
        let mut ids: Vec<u64> = (0..spec.clients).collect();
        rng.shuffle(&mut ids);
        let mut clients: Vec<Client> = (0..spec.clients)
            .map(|_| Client {
                gateway: 0,
                acked: 0,
                next: 1,
                slots: VecDeque::new(),
                retry_at_us: 0,
            })
            .collect();
        for (rank, &id) in ids.iter().enumerate() {
            clients[id as usize].gateway = rank % gateways.max(1);
        }
        rng.shuffle(&mut ids);
        Generator {
            spec,
            clients,
            order: ids,
            next_slot: 0,
            origin_us,
            generating: true,
            counters: Counters::default(),
            records: Vec::new(),
            late_us: Vec::new(),
        }
    }

    /// Due time of open-loop slot `k`: exact integer arithmetic, so the
    /// schedule never drifts from `rate`.
    fn slot_due_us(&self, k: u64, rate_per_s: u64) -> u64 {
        self.origin_us + (k as u128 * 1_000_000 / rate_per_s.max(1) as u128) as u64
    }

    /// When the next open-loop slot is due (`None`: closed loop or
    /// stopped).
    pub fn next_due_us(&self) -> Option<u64> {
        match self.spec.load {
            Load::Open { rate_per_s } if self.generating => {
                Some(self.slot_due_us(self.next_slot, rate_per_s))
            }
            _ => None,
        }
    }

    /// No further slots fall due; what is outstanding still completes.
    pub fn stop_generating(&mut self) {
        self.generating = false;
    }

    /// Due-but-unacknowledged slots across all clients.
    pub fn outstanding(&self) -> usize {
        self.clients.iter().map(|c| c.slots.len()).sum()
    }

    /// Turns elapsed time (open) or freed window (closed) into due slots.
    pub fn fire_due(&mut self, now_us: u64) {
        if !self.generating {
            return;
        }
        match self.spec.load {
            Load::Open { rate_per_s } => loop {
                let due_us = self.slot_due_us(self.next_slot, rate_per_s);
                if due_us > now_us {
                    break;
                }
                let client = self.order[(self.next_slot % self.spec.clients) as usize];
                self.next_slot += 1;
                self.push_slot(client, due_us, now_us);
            },
            Load::Closed => {
                for client in 0..self.spec.clients {
                    while (self.clients[client as usize].slots.len() as u64) < self.spec.window {
                        self.push_slot(client, now_us, now_us);
                    }
                }
            }
        }
    }

    fn push_slot(&mut self, client: u64, due_us: u64, now_us: u64) {
        self.counters.due += 1;
        self.late_us.push(now_us - due_us);
        self.clients[client as usize].slots.push_back(Slot {
            due_us,
            fired_us: now_us,
            sent_us: None,
        });
    }

    /// Every frame that may be written now, in per-client seq order.
    pub fn take_sends(&mut self, now_us: u64) -> Vec<Send> {
        let mut out = Vec::new();
        for (id, c) in self.clients.iter_mut().enumerate() {
            if now_us < c.retry_at_us {
                continue;
            }
            let limit = (c.acked + c.slots.len() as u64).min(c.acked + self.spec.window);
            while c.next <= limit {
                let slot = &mut c.slots[(c.next - c.acked - 1) as usize];
                if slot.sent_us.is_none() {
                    slot.sent_us = Some(now_us);
                    if now_us != slot.fired_us {
                        self.counters.deferred += 1;
                    }
                }
                out.push((c.gateway, id as u64, c.next));
                c.next += 1;
            }
        }
        self.counters.frames_sent += out.len() as u64;
        out
    }

    /// A `SubmitOk` for `(client, seq)` read at `now_us`.
    pub fn on_ack(&mut self, client: u64, seq: u64, now_us: u64) {
        let Some(c) = self.clients.get_mut(client as usize) else {
            self.counters.stray_acks += 1;
            return;
        };
        if seq <= c.acked {
            self.counters.duplicate_acks += 1;
            return;
        }
        let idx = (seq - c.acked - 1) as usize;
        let Some(sent_us) = c.slots.get(idx).and_then(|s| s.sent_us) else {
            // Never due, or due but never transmitted.
            self.counters.stray_acks += 1;
            return;
        };
        // Commit acks arrive in per-client order, so the seqs this one
        // skipped were admitted by the gateway and then dropped before
        // the log (their batch lost its epoch): they will never commit.
        self.counters.lost += idx as u64;
        let slot = c.slots.drain(..=idx).next_back().expect("idx is in range");
        c.acked = seq;
        c.next = c.next.max(seq + 1);
        self.records.push(Record { client, seq, due_us: slot.due_us, sent_us, ack_us: now_us });
    }

    /// A `SubmitNack` for `(client, seq)` read at `now_us`.
    pub fn on_nack(&mut self, client: u64, seq: u64, reason: NackReason, now_us: u64) {
        let Some(c) = self.clients.get_mut(client as usize) else { return };
        match reason {
            NackReason::Backpressure { .. } => {
                self.counters.nacked_backpressure += 1;
                if seq > c.acked {
                    c.next = c.next.min(seq);
                    c.retry_at_us = now_us + NACK_BACKOFF_US;
                }
            }
            NackReason::SequenceGap { expected } => {
                self.counters.nacked_gap += 1;
                c.next = c.next.min(expected.max(c.acked + 1));
            }
            NackReason::Oversize { .. } => self.counters.rejected += 1,
        }
    }
}

/// The payload of `(client, seq)` under `seed`: regenerable, so the log
/// check can tell a committed body from one that was never submitted.
pub fn tx_body(seed: u64, client: u64, seq: u64, len: usize) -> Vec<u8> {
    let mut body = vec![0u8; len];
    Rng::new(seed ^ client.rotate_left(40) ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .fill(&mut body);
    body
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_pos: usize,
}

impl Conn {
    fn dial(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream, inbuf: Vec::new(), outbuf: Vec::new(), out_pos: 0 })
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(k) => self.out_pos += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.outbuf.clear();
        self.out_pos = 0;
        Ok(())
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 << 10];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(k) => self.inbuf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// When [`Driver::run`] returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Until {
    /// At the deadline.
    Deadline,
    /// At the first commit ack (or the deadline).
    FirstAck,
    /// Once nothing is outstanding (or the deadline).
    Idle,
}

/// The generator bound to sockets and a clock.
pub struct Driver {
    pub gen: Generator,
    conns: Vec<Conn>,
    clock: Clock,
    seed: u64,
}

impl Driver {
    /// Connects one socket per loaded gateway.
    pub fn connect(
        spec: LoadSpec,
        addrs: &[SocketAddr],
        seed: u64,
        clock: Clock,
    ) -> io::Result<Driver> {
        let conns = addrs.iter().map(|&a| Conn::dial(a)).collect::<io::Result<Vec<_>>>()?;
        let gen = Generator::new(spec, addrs.len(), seed, clock.now_us());
        Ok(Driver { gen, conns, clock, seed })
    }

    /// Pumps the schedule and both sockets until `until` is met.
    pub fn run(&mut self, deadline_us: u64, until: Until) -> io::Result<()> {
        let acked_before = self.gen.records.len();
        loop {
            let now = self.clock.now_us();
            self.gen.fire_due(now);
            for (gateway, client, seq) in self.gen.take_sends(now) {
                let body = tx_body(self.seed, client, seq, self.gen.spec.tx_bytes);
                let frame = encode_frame(FrameKind::Submit, seq, 0, &submit_payload(client, &body))
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
                self.conns[gateway].outbuf.extend_from_slice(&frame);
            }
            for conn in &mut self.conns {
                conn.flush()?;
                conn.fill()?;
            }
            let now = self.clock.now_us();
            for i in 0..self.conns.len() {
                self.drain_frames(i, now)?;
            }
            let done = match until {
                Until::Deadline => false,
                Until::FirstAck => self.gen.records.len() > acked_before,
                Until::Idle => self.gen.outstanding() == 0,
            };
            if done || now >= deadline_us {
                return Ok(());
            }
            let next = self.gen.next_due_us().unwrap_or(u64::MAX).min(deadline_us);
            let wait = next.saturating_sub(now).clamp(PUMP_FLOOR_US, PUMP_CAP_US);
            std::thread::sleep(Duration::from_micros(wait));
        }
    }

    fn drain_frames(&mut self, conn: usize, now_us: u64) -> io::Result<()> {
        let mut inbuf = std::mem::take(&mut self.conns[conn].inbuf);
        let mut pos = 0;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        loop {
            match decode_prefix(&inbuf[pos..]) {
                Ok(Some((frame, used))) => {
                    pos += used;
                    match frame.kind {
                        FrameKind::SubmitOk => {
                            let client = parse_submit_ok(&frame.payload)
                                .map_err(|_| bad("malformed SubmitOk"))?;
                            self.gen.on_ack(client, frame.seq, now_us);
                        }
                        FrameKind::SubmitNack => {
                            let (client, reason) = parse_submit_nack(&frame.payload)
                                .map_err(|_| bad("malformed SubmitNack"))?;
                            self.gen.on_nack(client, frame.seq, reason, now_us);
                        }
                        _ => return Err(bad("gateway sent a frame that is neither Ok nor Nack")),
                    }
                }
                Ok(None) => break,
                Err(_) => return Err(bad("corrupt frame from gateway")),
            }
        }
        inbuf.drain(..pos);
        self.conns[conn].inbuf = inbuf;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(rate: u64, clients: u64, window: u64) -> Generator {
        let spec =
            LoadSpec { load: Load::Open { rate_per_s: rate }, clients, window, tx_bytes: 32 };
        Generator::new(spec, 2, 1, 0)
    }

    #[test]
    fn open_schedule_is_exact_and_spreads_over_clients_and_gateways() {
        let mut g = open(1000, 8, 64);
        g.fire_due(0);
        assert_eq!(g.counters.due, 1, "slot 0 is due at the origin");
        g.fire_due(9_999);
        assert_eq!(g.counters.due, 10, "slots at 0,1000,..,9000 us");
        g.fire_due(10_000);
        assert_eq!(g.counters.due, 11);
        assert_eq!(g.next_due_us(), Some(11_000));
        let sends = g.take_sends(10_000);
        assert_eq!(sends.len(), 11);
        // 8 clients round-robin: the first 8 slots hit 8 distinct clients.
        let mut first: Vec<u64> = sends.iter().map(|s| s.1).collect();
        first.sort_unstable();
        first.dedup();
        assert_eq!(first.len(), 8);
        let on_gw0 = g.clients.iter().filter(|c| c.gateway == 0).count();
        assert_eq!(on_gw0, 4, "clients are split evenly over the gateways");
        // A rate that does not divide a second still never drifts.
        let g = open(3, 1, 1);
        assert_eq!(g.slot_due_us(3, 3), 1_000_000);
        assert_eq!(g.slot_due_us(300, 3), 100_000_000);
    }

    #[test]
    fn seed_changes_the_assignment() {
        let spec =
            LoadSpec { load: Load::Open { rate_per_s: 10 }, clients: 16, window: 4, tx_bytes: 8 };
        let a = Generator::new(spec, 2, 1, 0);
        let b = Generator::new(spec, 2, 1, 0);
        let c = Generator::new(spec, 2, 2, 0);
        let gw = |g: &Generator| g.clients.iter().map(|c| c.gateway).collect::<Vec<_>>();
        assert_eq!(gw(&a), gw(&b));
        assert_eq!(a.order, b.order);
        assert!(gw(&a) != gw(&c) || a.order != c.order);
        assert_ne!(tx_body(1, 2, 3, 32), tx_body(2, 2, 3, 32));
        assert_eq!(tx_body(1, 2, 3, 32), tx_body(1, 2, 3, 32));
    }

    #[test]
    fn lateness_is_measured_from_the_due_time() {
        let mut g = open(1000, 1, 64);
        g.fire_due(2_500); // slots due at 0, 1000, 2000 noticed at 2500
        assert_eq!(g.late_us, vec![2_500, 1_500, 500]);
    }

    #[test]
    fn window_bound_slots_stay_due_and_keep_their_due_stamp() {
        let mut g = open(1000, 1, 2);
        g.fire_due(3_000); // 4 slots due: 0,1000,2000,3000
        let sends = g.take_sends(3_000);
        assert_eq!(sends.iter().map(|s| s.2).collect::<Vec<_>>(), vec![1, 2], "window of 2");
        assert_eq!(g.outstanding(), 4, "the other two stay due, not dropped");
        assert!(g.take_sends(3_500).is_empty());
        g.on_ack(0, 1, 4_000);
        let sends = g.take_sends(4_000);
        assert_eq!(sends.iter().map(|s| s.2).collect::<Vec<_>>(), vec![3]);
        assert_eq!(g.counters.deferred, 1);
        g.on_ack(0, 2, 5_000);
        g.on_ack(0, 3, 6_000);
        let r = g.records[2];
        assert_eq!((r.seq, r.due_us, r.sent_us, r.ack_us), (3, 2_000, 4_000, 6_000));
        assert_eq!(r.ack_us - r.due_us, 4_000, "latency counts the deferral");
    }

    #[test]
    fn backpressure_rewinds_backs_off_and_keeps_the_first_stamps() {
        let mut g = open(1000, 1, 8);
        g.fire_due(2_000);
        assert_eq!(g.take_sends(2_000).len(), 3);
        g.on_nack(0, 2, NackReason::Backpressure { pending: 4, capacity: 4 }, 2_100);
        g.on_nack(0, 3, NackReason::SequenceGap { expected: 2 }, 2_100);
        assert!(g.take_sends(3_000).is_empty(), "backing off");
        let resent = g.take_sends(2_100 + NACK_BACKOFF_US);
        assert_eq!(resent.iter().map(|s| s.2).collect::<Vec<_>>(), vec![2, 3]);
        g.on_ack(0, 1, 8_000);
        g.on_ack(0, 2, 9_000);
        assert_eq!(g.records[1].sent_us, 2_000, "a resend keeps the first send stamp");
        assert_eq!(g.counters.nacked_backpressure, 1);
        assert_eq!(g.counters.nacked_gap, 1);
        assert_eq!(g.counters.frames_sent, 5);
    }

    #[test]
    fn anomalous_acks_are_counted_not_recorded() {
        let mut g = open(1000, 2, 8);
        g.fire_due(1_000);
        g.take_sends(1_000);
        g.on_ack(0, 5, 2_000); // never due
        g.on_ack(9, 1, 2_000); // unknown client
        assert_eq!(g.counters.stray_acks, 2);
        assert_eq!(g.counters.lost, 0);
        let first = g.take_sends(1_000).len();
        assert_eq!(first, 0);
        let c0 = g.order[0];
        g.on_ack(c0, 1, 2_000);
        g.on_ack(c0, 1, 2_100);
        assert_eq!(g.counters.duplicate_acks, 1);
        assert_eq!(g.records.len(), 1);
    }

    #[test]
    fn an_ack_that_skips_seqs_fails_the_skipped_slots() {
        let mut g = open(1000, 1, 8);
        g.fire_due(3_000);
        assert_eq!(g.take_sends(3_000).len(), 4);
        g.on_ack(0, 1, 4_000);
        g.on_ack(0, 4, 5_000); // 2 and 3 were dropped inside the cluster
        assert_eq!(g.counters.lost, 2);
        assert_eq!(g.outstanding(), 0);
        assert_eq!(g.records.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(g.records[1].due_us, 3_000);
        g.fire_due(4_000);
        assert_eq!(g.take_sends(4_000), vec![(g.clients[0].gateway, 0, 5)]);
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_due_means_freed() {
        let spec = LoadSpec { load: Load::Closed, clients: 2, window: 3, tx_bytes: 32 };
        let mut g = Generator::new(spec, 2, 1, 0);
        g.fire_due(100);
        assert_eq!(g.outstanding(), 6);
        assert_eq!(g.take_sends(100).len(), 6);
        g.on_ack(1, 1, 900);
        g.fire_due(1_000);
        assert_eq!(g.outstanding(), 6, "the freed slot is due again at once");
        let sends = g.take_sends(1_000);
        assert_eq!(sends, vec![(g.clients[1].gateway, 1, 4)]);
        assert!(g.late_us.iter().all(|&l| l == 0));
        g.stop_generating();
        g.on_ack(1, 2, 2_000);
        g.fire_due(2_000);
        assert_eq!(g.outstanding(), 5, "no new slots once stopped");
        assert_eq!(g.next_due_us(), None);
    }
}
