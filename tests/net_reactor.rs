//! Regression and differential gates for the reactor transport and the
//! client gateway.
//!
//! The oracle is the deterministic simulator: the same seeded ordering
//! workload must commit the identical log in `bft-sim` and over loopback
//! TCP under a seeded chaos delay schedule, and the reactor alone must
//! deliver a 64 KiB erasure-coded broadcast byte for byte at n=16 under
//! delay (sim-vs-TCP equality at that geometry is
//! `tests/net_loopback.rs::coded_rbc_delivers_identical_log_on_sim_and_tcp`).
//! Alongside ride three bugfix regressions: bind failures surface as
//! typed [`SetupError`]s instead of panics, shutdown is never stalled by
//! in-flight chaos/backoff waits, and a panicked runtime thread is
//! reported via `RuntimeReport::poisoned` instead of being masked by
//! poison-riding mutex locks.
//!
//! The one-pass node loop rides here too: a frame a step produces leaves
//! in the same pass (no hop waits out the poll cap), a scheduled restart
//! fires on its deadline with no traffic to wake the node, the
//! allocation-free frame paths are the allocating ones byte for byte, a
//! gateway cluster with no traffic is ticked (it sees a flag raised
//! outside the protocol without a message sent), and
//! the reactor's own counters show the batching (the `BufConn`
//! short-read cases are unit tests next to the private type, in
//! `crates/net/src/reactor.rs`).
//!
//! These tests open real sockets and real threads; CI runs them
//! single-threaded (`--test-threads=1`) under a hard timeout.

use async_bft::coin::{CommonCoin, LocalCoin};
use async_bft::consensus::{BrachaOptions, BrachaProcess, Wire};
use async_bft::net::frame::decode_prefix;
use async_bft::net::{
    encode_frame, encode_frame_into, ChaosConfig, Frame, FrameKind, FrameRef, GatewayPipe,
    NetRuntime, SetupError,
};
use async_bft::obs::{Event, MetricsSink, Obs, Sink};
use async_bft::order::gateway::{GatewayCore, GatewayProcess, OfferOutcome};
use async_bft::order::{Backpressure, OrderLog, OrderMessage, OrderOptions, OrderProcess};
use async_bft::rbc::{RbcKind, RbcProcess};
use async_bft::sim::{UniformDelay, World, WorldConfig};
use async_bft::types::{Config, Effect, NodeId, Process, Value};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------
// Differential gates: the simulator as oracle
// ---------------------------------------------------------------------

/// The n=4 ordering cluster's options: batches of 2, 2 epochs in
/// flight, 3 epochs — room for 6 payloads per node.
const ORDERING: OrderOptions =
    OrderOptions { batch_max: 2, pipeline_depth: 2, epochs: 3, rbc: RbcKind::Bracha };

/// A node's 6 payloads: a function of `(seed, node)` only, never of the
/// substrate's scheduling.
fn workload(seed: u64, id: NodeId) -> Vec<Vec<u8>> {
    (0..6).map(|i| format!("tx-{seed}-{}-{i}", id.index()).into_bytes()).collect()
}

fn ordering_node(cfg: Config, id: NodeId, seed: u64) -> OrderProcess<CommonCoin> {
    OrderProcess::new(cfg, id, ORDERING, workload(seed, id), move |inst| {
        CommonCoin::new(seed, inst)
    })
}

/// The ordering differential at n=4: the log the simulator commits is
/// the log the reactor commits over loopback TCP while chaos holds back
/// 10% of frames by up to 3 ms — and it holds every payload of the
/// workload exactly once.
#[test]
fn reactor_matches_sim_on_ordered_log_under_chaos() {
    let n = 4;
    let seed = 17;
    let cfg = Config::new(n, 1).expect("4 >= 3f + 1");

    // The simulator is deterministic, so its log is fixed by the delay
    // seed. Under seed 3 every proposer's batch makes it into every epoch
    // (no slot is excluded; nor is one under seeds 0–19 at this delay
    // range), so all 4 × 3 × 2 = 24 payloads commit within the 3 epochs.
    // A TCP run that excludes no slot commits that same log.
    let mut world = World::new(WorldConfig::new(n), UniformDelay::new(1, 20, 3));
    for id in cfg.nodes() {
        world.add_process(Box::new(ordering_node(cfg, id, seed)));
    }
    let sim_report = world.run();
    assert!(sim_report.all_correct_decided(), "sim ordering run stalled");
    let sim: OrderLog = sim_report.unanimous_output().expect("sim nodes must agree on one log");

    let chaos = ChaosConfig { seed: 0xD1FF, delay_per_mille: 100, max_delay_ms: 3 };
    let mut rt: NetRuntime<OrderMessage, OrderLog> =
        NetRuntime::new(n).timeout(TIMEOUT).chaos(chaos);
    for id in cfg.nodes() {
        rt.add_process(Box::new(ordering_node(cfg, id, seed)));
    }
    let report = rt.run();
    assert!(!report.timed_out, "ordering run stalled over TCP");
    assert!(report.agreement_holds(), "TCP nodes diverged");
    assert!(!report.poisoned, "TCP run recorded a thread panic");
    let tcp = report.unanimous_output().expect("TCP nodes never agreed on a log");

    assert_eq!(sim, tcp, "sim and TCP committed different logs from identical inputs");
    let mut committed: Vec<Vec<u8>> = tcp.into_iter().map(|e| e.tx).collect();
    committed.sort_unstable();
    let mut offered: Vec<Vec<u8>> = cfg.nodes().flat_map(|id| workload(seed, id)).collect();
    offered.sort_unstable();
    assert_eq!(committed.len(), 24);
    assert_eq!(committed, offered, "every payload must commit exactly once");
}

/// The n=16 coded broadcast over the reactor: a 64 KiB erasure-coded
/// payload, 3% of frames held back by up to 3 ms, delivered byte for
/// byte at the full f=5 mesh geometry (240 directed links).
#[test]
fn reactor_delivers_coded_rbc_at_n16_under_delay() {
    let n = 16;
    let cfg = Config::max_resilience(n).expect("16 >= 3f + 1");
    let sender = NodeId::new(0);
    let payload: Vec<u8> =
        (0..64 * 1024).map(|i| (i as u8).wrapping_mul(97).wrapping_add(13)).collect();
    let chaos = ChaosConfig { seed: 0xAB16, delay_per_mille: 30, max_delay_ms: 3 };
    let mut rt: NetRuntime<_, Vec<u8>> = NetRuntime::new(n).timeout(TIMEOUT).chaos(chaos);
    for id in cfg.nodes() {
        let mine = (id == sender).then(|| payload.clone());
        rt.add_process(Box::new(RbcProcess::new(cfg, id, sender, RbcKind::Coded, mine)));
    }
    let report = rt.run();
    assert!(!report.timed_out, "coded broadcast stalled at n=16");
    assert!(!report.poisoned, "run recorded a thread panic");
    let delivered = report.unanimous_output().expect("nodes diverged at n=16");
    assert_eq!(delivered, payload, "the reactor corrupted the payload");
}

// ---------------------------------------------------------------------
// The node loop
// ---------------------------------------------------------------------

/// The poll cap of a node's loop (`POLL_CAP_MS` in the reactor).
const POLL_CAP: Duration = Duration::from_millis(10);

/// Two nodes bounce one counter back and forth: every hop finds the
/// receiving node parked in `poll`.
struct PingPong {
    id: NodeId,
    hops: u64,
}

impl Process for PingPong {
    type Msg = u64;
    type Output = u64;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_start(&mut self) -> Vec<Effect<u64, u64>> {
        if self.id.index() == 0 {
            vec![Effect::Send { to: NodeId::new(1), msg: 1 }]
        } else {
            Vec::new()
        }
    }

    fn on_message(&mut self, from: NodeId, hop: &u64) -> Vec<Effect<u64, u64>> {
        match (*hop).cmp(&self.hops) {
            std::cmp::Ordering::Less => vec![Effect::Send { to: from, msg: hop + 1 }],
            // The last hop ends this side and tells the other to end too.
            std::cmp::Ordering::Equal => {
                vec![Effect::Send { to: from, msg: hop + 1 }, Effect::Output(self.hops)]
            }
            std::cmp::Ordering::Greater => vec![Effect::Output(self.hops)],
        }
    }
}

/// No hop waits out the poll cap: 500 strictly sequential hops, each
/// arriving at a node asleep in `poll`. A frame left queued behind the
/// pass that stepped it would cost its hop the full 10 ms cap; the whole
/// exchange has to finish in a fraction of 500 such sleeps.
#[test]
fn sequential_ping_pong_never_waits_out_the_poll_cap() {
    let hops = 500;
    let mut rt: NetRuntime<u64, u64> = NetRuntime::new(2).timeout(TIMEOUT);
    for i in 0..2 {
        rt.add_process(Box::new(PingPong { id: NodeId::new(i), hops }));
    }
    let report = rt.run();
    assert!(!report.timed_out);
    assert_eq!(report.unanimous_output(), Some(hops));
    assert!(
        report.elapsed < POLL_CAP * (hops as u32) / 4,
        "{hops} hops took {:?}: frames are waiting out the poll cap",
        report.elapsed
    );
}

/// A node that says nothing; as built by a restart, it outputs at start.
struct Quiet {
    id: NodeId,
    restarted: bool,
}

impl Process for Quiet {
    type Msg = u64;
    type Output = u64;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_start(&mut self) -> Vec<Effect<u64, u64>> {
        if self.restarted {
            vec![Effect::Output(1)]
        } else {
            Vec::new()
        }
    }

    fn on_message(&mut self, _from: NodeId, _msg: &u64) -> Vec<Effect<u64, u64>> {
        Vec::new()
    }
}

/// A restart fires on its deadline with no traffic at all: the only
/// output of the run is the one the restarted process emits from
/// `on_start` at 50 ms, so the run ends only if the node's poll deadline
/// covers the restart, not a frame's arrival.
#[test]
fn a_restart_fires_on_its_deadline_with_no_traffic() {
    let restart_at = Duration::from_millis(50);
    let victim = NodeId::new(0);
    let mut rt: NetRuntime<u64, u64> = NetRuntime::new(2).timeout(TIMEOUT).restart_node(
        victim,
        0,
        restart_at.as_millis() as u64,
        Box::new(move || Box::new(Quiet { id: victim, restarted: true })),
    );
    rt.add_process(Box::new(Quiet { id: victim, restarted: false }));
    rt.add_faulty_process(Box::new(Quiet { id: NodeId::new(1), restarted: false }));
    let report = rt.run();
    assert!(!report.timed_out, "the restarted node never produced its output");
    assert_eq!(report.unanimous_output(), Some(1));
    assert!(
        report.elapsed < restart_at + 3 * POLL_CAP,
        "the restart due at {restart_at:?} ended the run only at {:?}",
        report.elapsed
    );
}

/// A gateway node that surfaces its log at its first step after `flag`
/// is raised (a harness ending a run at a wall-clock instant), and counts
/// the messages it sends.
struct OutputOnFlag {
    inner: GatewayProcess<CommonCoin>,
    flag: Arc<AtomicBool>,
    sent: Arc<AtomicU64>,
    emitted: bool,
}

impl OutputOnFlag {
    fn after(
        &mut self,
        mut out: Vec<Effect<OrderMessage, OrderLog>>,
    ) -> Vec<Effect<OrderMessage, OrderLog>> {
        let sends =
            out.iter().filter(|e| matches!(e, Effect::Send { .. } | Effect::Broadcast { .. }));
        self.sent.fetch_add(sends.count() as u64, Ordering::Relaxed);
        if !self.emitted && self.flag.load(Ordering::Relaxed) {
            self.emitted = true;
            out.push(Effect::Output(self.inner.inner().log().to_vec()));
        }
        out
    }
}

impl Process for OutputOnFlag {
    type Msg = OrderMessage;
    type Output = OrderLog;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_start(&mut self) -> Vec<Effect<OrderMessage, OrderLog>> {
        let out = self.inner.on_start();
        self.after(out)
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: &OrderMessage,
    ) -> Vec<Effect<OrderMessage, OrderLog>> {
        let out = self.inner.on_message(from, msg);
        self.after(out)
    }

    fn on_tick(&mut self) -> Vec<Effect<OrderMessage, OrderLog>> {
        let out = self.inner.on_tick();
        self.after(out)
    }
}

/// A gateway cluster with no client traffic sends no message, yet its
/// processes still get turns: a reactor pass whose poll found nothing
/// ticks its node, gateway listener or not (node 3 has a pipe but no
/// listener), so a flag raised outside the protocol is seen and every
/// node outputs within a second.
#[test]
fn an_idle_gateway_cluster_is_ticked_and_sees_an_external_flag() {
    let n = 4;
    let cfg = Config::new(n, 1).expect("4 >= 3f + 1");
    let opts = OrderOptions { epochs: 1 << 40, ..OrderOptions::default() };
    let flag = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicU64::new(0));
    let mut rt: NetRuntime<OrderMessage, OrderLog> =
        NetRuntime::new(n).timeout(Duration::from_secs(10));
    for id in cfg.nodes() {
        let pipe = GatewayPipe::new();
        if id.index() < 3 {
            rt = rt.gateway(id, pipe.clone());
        }
        let inner = OrderProcess::new(cfg, id, opts, Vec::new(), |inst| CommonCoin::new(5, inst));
        rt.add_process(Box::new(OutputOnFlag {
            inner: GatewayProcess::new(inner, pipe),
            flag: Arc::clone(&flag),
            sent: Arc::clone(&sent),
            emitted: false,
        }));
    }
    let raiser = {
        let flag = Arc::clone(&flag);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            flag.store(true, Ordering::Relaxed);
            Instant::now()
        })
    };
    let report = rt.run();
    let raised_at = raiser.join().expect("the raiser thread does not panic");
    assert!(!report.timed_out, "no node saw the flag");
    assert_eq!(
        report.unanimous_output(),
        Some(OrderLog::default()),
        "every node output an empty log"
    );
    let lag = raised_at.elapsed();
    assert!(lag < Duration::from_secs(1), "the flag was seen only {lag:?} after it was raised");
    assert_eq!(sent.load(Ordering::Relaxed), 0, "an idle gateway cluster sent messages");
}

/// The reactor's own counters on a loaded n=4 ordering run: the
/// short-read rule keeps empty-handed reads rare, and a write carries
/// more than one frame.
#[test]
fn reactor_stats_show_few_blocked_reads_and_batched_writes() {
    let n = 4;
    let cfg = Config::new(n, 1).expect("4 >= 3f + 1");
    let opts =
        OrderOptions { batch_max: 4, pipeline_depth: 2, epochs: 12, ..OrderOptions::default() };
    let (obs, metrics) = Obs::new(MetricsSink::new());
    let mut rt: NetRuntime<OrderMessage, OrderLog> =
        NetRuntime::new(n).timeout(TIMEOUT).observer(obs.clone());
    for id in cfg.nodes() {
        let workload: Vec<Vec<u8>> = (0..48).map(|i| vec![id.index() as u8, i]).collect();
        rt.add_process(Box::new(OrderProcess::new(cfg, id, opts, workload, |inst| {
            CommonCoin::new(3, inst)
        })));
    }
    let report = rt.run();
    drop(obs);
    assert!(!report.timed_out && report.agreement_holds());

    let stats = metrics.lock().reactor();
    assert!(stats.polls > 0 && stats.frames_in > 1000, "every reactor reports: {stats:?}");
    assert!(stats.frames_out >= stats.frames_in, "nothing is received unsent: {stats:?}");
    assert!(stats.reads_blocked * 4 <= stats.reads, "over 25% of reads found nothing: {stats:?}");
    assert!(stats.frames_per_write() > 1.0, "writes carry single frames: {stats:?}");
}

fn arb_frame_kind() -> impl Strategy<Value = FrameKind> {
    (1u8..=8).prop_map(|b| FrameKind::from_wire_byte(b).expect("1..=8 are the wire kinds"))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// The reactor's allocation-free frame paths are the allocating
    /// ones: `encode_frame_into` appends exactly `encode_frame`'s bytes
    /// (leaving what the buffer already held), and the borrowed
    /// `FrameRef` view decodes exactly what `Frame::decode` and
    /// `decode_prefix` decode.
    #[test]
    fn borrowed_frame_paths_match_the_owning_ones(
        kind in arb_frame_kind(),
        seq in 0u64..u64::MAX,
        trace in 0u64..u64::MAX,
        payload in proptest::collection::vec(0u8..=255, 0..300),
        held in proptest::collection::vec(0u8..=255, 0..40),
    ) {
        let owned = encode_frame(kind, seq, trace, &payload).expect("under the cap");
        let mut buf = held.clone();
        prop_assert!(encode_frame_into(&mut buf, kind, seq, trace, &payload).is_ok());
        prop_assert_eq!(&buf[..held.len()], &held[..]);
        prop_assert_eq!(&buf[held.len()..], &owned[..]);

        let frame = Frame::decode(&owned).expect("own encoding decodes");
        let (view, used) = FrameRef::decode_prefix(&owned)
            .expect("own encoding decodes")
            .expect("the frame is complete");
        prop_assert_eq!(used, owned.len());
        prop_assert_eq!(view.payload, &payload[..]);
        prop_assert_eq!(view.to_frame(), frame.clone());
        prop_assert_eq!(decode_prefix(&owned), Ok(Some((frame, owned.len()))));
    }

    /// On arbitrary bytes the two prefix decoders agree, verdict for
    /// verdict: same frames, same "need more", same typed errors.
    #[test]
    fn borrowed_and_owning_prefix_decoders_agree_on_garbage(
        bytes in proptest::collection::vec(0u8..=255, 0..96),
        magic in proptest::bool::ANY,
    ) {
        let mut bytes = bytes;
        if magic && bytes.len() >= 4 {
            // Get past the magic/version gate so length and checksum
            // handling are reached too.
            bytes[..4].copy_from_slice(&[0x84, 0xAB, 2, 4]);
        }
        let view = FrameRef::decode_prefix(&bytes).map(|o| o.map(|(f, used)| (f.to_frame(), used)));
        prop_assert_eq!(view, decode_prefix(&bytes));
    }
}

// ---------------------------------------------------------------------
// Gateway sequencing proptest
// ---------------------------------------------------------------------

/// One step of the randomized gateway schedule.
#[derive(Clone, Debug)]
enum GwOp {
    /// A client submission attempt: `(client, seq, mempool_accepts)`.
    Offer(u64, u64, bool),
    /// The log surfaced `(client, seq)` — only applied when that seq
    /// was actually admitted (the log cannot invent entries).
    Commit(u64, u64),
}

fn arb_gw_op() -> impl Strategy<Value = GwOp> {
    prop_oneof![
        (0u64..3, 1u64..12, proptest::bool::ANY).prop_map(|(c, s, ok)| GwOp::Offer(c, s, ok)),
        (0u64..3, 1u64..12).prop_map(|(c, s)| GwOp::Commit(c, s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Per-client sequencing never reorders or drops acked submissions,
    /// no matter how offers, backpressure refusals, duplicates, gaps and
    /// commits interleave: the set of seqs admitted to the mempool for
    /// each client is exactly `1..=k` in ascending order, a
    /// backpressured offer never advances the window, and every commit
    /// ack refers to a previously admitted seq.
    #[test]
    fn gateway_sequencing_never_reorders_or_drops(
        ops in proptest::collection::vec(arb_gw_op(), 1..120),
    ) {
        let bp = Backpressure { pending: 8, capacity: 8 };
        let mut core = GatewayCore::new();
        // The mempool tape: every admission, in call order.
        let mut admitted: Vec<(u64, u64)> = Vec::new();
        // Reference model: per-client high-water marks.
        let mut model_admitted = std::collections::BTreeMap::<u64, u64>::new();
        let mut model_committed = std::collections::BTreeMap::<u64, u64>::new();

        for op in &ops {
            match *op {
                GwOp::Offer(client, seq, accepts) => {
                    let hi = model_admitted.get(&client).copied().unwrap_or(0);
                    let before = core.expected(client);
                    let outcome = core.offer(client, seq, || {
                        admitted.push((client, seq));
                        if accepts { Ok(()) } else { Err(bp) }
                    });
                    match outcome {
                        OfferOutcome::Accepted => {
                            prop_assert_eq!(seq, hi + 1, "admitted out of sequence");
                            model_admitted.insert(client, seq);
                        }
                        OfferOutcome::Backpressured(_) => {
                            prop_assert_eq!(seq, hi + 1, "backpressure for a non-next seq");
                            prop_assert_eq!(
                                core.expected(client), before,
                                "backpressure advanced the window"
                            );
                            // The refused admission never reached the
                            // mempool's accepted state; drop it from the
                            // tape the way `OrderProcess::submit` does.
                            prop_assert_eq!(admitted.pop(), Some((client, seq)));
                        }
                        OfferOutcome::DuplicateCommitted => {
                            let committed = model_committed.get(&client).copied().unwrap_or(0);
                            prop_assert!(seq <= committed, "spurious re-ack");
                        }
                        OfferOutcome::DuplicateInFlight => {
                            prop_assert!(seq <= hi, "in-flight duplicate above the window");
                        }
                        OfferOutcome::Gap { expected } => {
                            prop_assert_eq!(expected, hi + 1);
                            prop_assert!(seq > hi + 1, "gap verdict for an in-window seq");
                        }
                    }
                }
                GwOp::Commit(client, seq) => {
                    // Only seqs the gateway admitted can surface in the
                    // replicated log.
                    let hi = model_admitted.get(&client).copied().unwrap_or(0);
                    if seq <= hi {
                        prop_assert!(core.mark_committed(client, seq), "lost an admitted client");
                        let slot = model_committed.entry(client).or_insert(0);
                        *slot = (*slot).max(seq);
                    }
                }
            }
        }

        // The mempool tape holds every acked submission exactly once,
        // per client in ascending contiguous order: nothing reordered,
        // nothing dropped.
        for (client, hi) in &model_admitted {
            let seqs: Vec<u64> =
                admitted.iter().filter(|(c, _)| c == client).map(|&(_, s)| s).collect();
            let expect: Vec<u64> = (1..=*hi).collect();
            prop_assert_eq!(&seqs, &expect, "client {} mempool tape diverged", client);
            prop_assert_eq!(core.expected(*client), hi + 1);
        }
    }
}

// ---------------------------------------------------------------------
// Bugfix regressions
// ---------------------------------------------------------------------

/// A two-node process that chatters forever and never produces an
/// output — traffic to park chaos-delay sleeps on, with no way for the
/// run to end except the timeout.
struct Chatter {
    id: NodeId,
}

impl Process for Chatter {
    type Msg = Vec<u8>;
    type Output = u64;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_start(&mut self) -> Vec<Effect<Vec<u8>, u64>> {
        vec![Effect::Send { to: NodeId::new(1 - self.id.index()), msg: vec![1] }]
    }

    fn on_message(&mut self, from: NodeId, _msg: &Vec<u8>) -> Vec<Effect<Vec<u8>, u64>> {
        vec![Effect::Send { to: from, msg: vec![1] }]
    }

    fn output(&self) -> Option<u64> {
        None
    }
}

/// Regression for the setup-panic bugfix: pointing every node's
/// listener at an already-claimed concrete port must surface as
/// `Err(SetupError::Bind { node: 0, .. })` from `try_run`, not a panic
/// — and before any cluster thread has started.
#[test]
fn claimed_port_is_a_typed_setup_error_not_a_panic() {
    // Claim an ephemeral port for the duration of the test.
    let claimed = std::net::TcpListener::bind("127.0.0.1:0").expect("claim a port");
    let addr = claimed.local_addr().expect("claimed port has an address");

    let mut rt: NetRuntime<Vec<u8>, u64> = NetRuntime::new(2).timeout(TIMEOUT).bind_addr(addr);
    for i in 0..2 {
        rt.add_process(Box::new(Chatter { id: NodeId::new(i) }));
    }
    match rt.try_run() {
        Err(SetupError::Bind { node, source }) => {
            assert_eq!(node, 0, "the first bind attempt must fail");
            assert_eq!(source.kind(), std::io::ErrorKind::AddrInUse);
        }
        Err(other) => panic!("wrong setup error: {other}"),
        Ok(_) => panic!("binding a claimed port succeeded?"),
    }
}

/// Regression for the uninterruptible-sleep bugfix: with every frame
/// delayed five seconds by chaos, every link's head frame sits in a
/// chaos delay when the run times out. Shutdown must not wait those out:
/// the whole run — teardown included — finishes in a fraction of one
/// injected delay, where blocking sleeps would stall teardown for the
/// full five seconds.
#[test]
fn shutdown_interrupts_chaos_and_backoff_sleeps() {
    let chaos = ChaosConfig { seed: 5, delay_per_mille: 1000, max_delay_ms: 5_000 };
    let started = Instant::now();
    let mut rt: NetRuntime<Vec<u8>, u64> =
        NetRuntime::new(2).timeout(Duration::from_millis(500)).chaos(chaos);
    for i in 0..2 {
        rt.add_process(Box::new(Chatter { id: NodeId::new(i) }));
    }
    let report = rt.run();
    let total = started.elapsed();
    assert!(report.timed_out, "a chatter run can only end by timeout");
    assert!(
        total < Duration::from_secs(4),
        "teardown took {total:?} — shutdown stalled in a chaos/backoff wait"
    );
}

/// A recording sink that panics on the first `LinkLogPeak` it sees —
/// i.e. inside a supervised transport thread at teardown, after the
/// cluster has decided.
struct PanicOnceSink {
    events: Vec<(u64, NodeId, Event)>,
    armed: bool,
}

impl Sink for PanicOnceSink {
    fn on_event(&mut self, at: u64, node: NodeId, event: &Event) {
        if self.armed && matches!(event, Event::LinkLogPeak { .. }) {
            self.armed = false;
            panic!("injected observer failure");
        }
        self.events.push((at, node, event.clone()));
    }
}

/// Regression for the poison-masking bugfix: a panic in a runtime
/// thread (injected here through a sink that blows up mid-teardown)
/// must surface as `RuntimeReport::poisoned` plus a `PoisonDetected`
/// event — not be silently ridden through by the poison-tolerant mutex
/// locks. The run itself still completes: supervision contains the
/// panic, it does not cascade.
#[test]
fn panicked_runtime_thread_is_reported_not_masked() {
    let (obs, shared) = Obs::new(PanicOnceSink { events: Vec::new(), armed: true });
    let cfg = Config::new(4, 1).expect("4 >= 3f + 1");
    let mut rt: NetRuntime<Wire, Value> = NetRuntime::new(4).timeout(TIMEOUT).observer(obs.clone());
    for id in cfg.nodes() {
        rt.add_process(Box::new(BrachaProcess::new(
            cfg,
            id,
            Value::One,
            LocalCoin::new(23, id),
            BrachaOptions::default(),
        )));
    }
    let report = rt.run();
    drop(obs);

    assert!(!report.timed_out, "the injected panic must not stall the run");
    assert!(report.all_correct_decided());
    assert_eq!(report.unanimous_output(), Some(Value::One));
    assert!(report.poisoned, "a panicked runtime thread went unreported");

    let events = std::mem::take(&mut shared.lock().events);
    assert!(
        events.iter().any(|(_, _, ev)| matches!(ev, Event::PoisonDetected { .. })),
        "no PoisonDetected event reached the sink"
    );
}
