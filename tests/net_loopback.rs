//! End-to-end consensus over real loopback TCP — the acceptance gate for
//! the `bft-net` transport.
//!
//! The *unmodified* protocol processes (the same boxes the simulator
//! drives) run over actual sockets: framed wire codec, authenticated
//! handshake, full-mesh peer manager. The suite covers the
//! happy path with a Byzantine node, the same run with 10% of frames
//! delayed by chaos, a mid-run listener outage that exercises the
//! reconnect/replay machinery, and reliable broadcast with a string
//! payload. Lost, duplicated and out-of-order bytes, and connections cut
//! at every byte offset, are checked on the link machines themselves
//! (`crates/net/src/link.rs`), where they are deterministic.
//!
//! These tests open real sockets and real threads; CI runs them
//! single-threaded (`--test-threads=1`) under a hard timeout.

use async_bft::adversary::{make_bracha_adversary, FaultKind};
use async_bft::coin::{CoinScheme, CommonCoin, LocalCoin};
use async_bft::consensus::{BrachaOptions, BrachaProcess, Wire};
use async_bft::net::{ChaosConfig, ListenerBounce, NetRuntime, RuntimeReport};
use async_bft::obs::{Event, MetricsSink, Obs, VecSink};
use async_bft::rbc::{RbcKind, RbcProcess};
use async_bft::types::{Config, NodeId, Value};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

/// Builds a Bracha cluster over loopback TCP whose last node is a
/// Byzantine `FlipValue` liar; every other node starts from `input(id)`
/// and flips `coin(id)`.
fn byzantine_cluster<C: CoinScheme + Send + 'static>(
    rt: &mut NetRuntime<Wire, Value>,
    cfg: Config,
    seed: u64,
    input: fn(NodeId) -> Value,
    coin: impl Fn(NodeId) -> C,
) {
    let liar = NodeId::new(cfg.n() - 1);
    for id in cfg.nodes() {
        if id == liar {
            rt.add_faulty_process(make_bracha_adversary(
                FaultKind::FlipValue,
                cfg,
                id,
                Value::One,
                seed,
            ));
        } else {
            rt.add_process(Box::new(BrachaProcess::new(
                cfg,
                id,
                input(id),
                coin(id),
                BrachaOptions::default(),
            )));
        }
    }
}

/// Runs a [`byzantine_cluster`] to completion and checks termination,
/// agreement and a clean transport.
fn decide_over_tcp<C: CoinScheme + Send + 'static>(
    cfg: Config,
    seed: u64,
    input: fn(NodeId) -> Value,
    coin: impl Fn(NodeId) -> C,
) -> RuntimeReport<Value> {
    let (obs, shared) = Obs::new(MetricsSink::new());
    let mut rt = NetRuntime::new(cfg.n()).timeout(TIMEOUT).observer(obs.clone());
    byzantine_cluster(&mut rt, cfg, seed, input, coin);
    let report = rt.run();
    drop(obs);

    assert!(!report.timed_out, "cluster stalled over TCP");
    assert!(report.all_correct_decided());
    assert!(report.agreement_holds());

    let metrics = shared.lock();
    assert!(metrics.peer_connects() > 0, "transport never reported a connection");
    assert_eq!(metrics.frame_decode_errors(), 0, "clean run must not hit decode errors");
    report
}

/// The headline acceptance test: Bracha with a Byzantine liar completes
/// over real TCP with agreement — at n=4/f=1 with local coins and
/// unanimous inputs (so validity pins the decision), and at n=7/f=2 with
/// inputs split by parity and one common coin.
#[test]
fn bracha_decides_over_loopback_tcp_with_byzantine_node() {
    let cfg = Config::new(4, 1).expect("4 >= 3f + 1");
    let report = decide_over_tcp(cfg, 7, |_| Value::One, |id| LocalCoin::new(7, id));
    // Validity: unanimous correct input One must be the decision, no
    // matter what the liar injects.
    assert_eq!(report.unanimous_output(), Some(Value::One));

    let cfg = Config::new(7, 2).expect("7 >= 3f + 1");
    let split = |id: NodeId| Value::from_bit(1 - (id.index() % 2) as u8);
    decide_over_tcp(cfg, 9, split, |_| CommonCoin::new(9, 0));
}

/// The same cluster with chaos holding back 10% of frames by up to 5 ms
/// (and the frames queued behind them): consensus still terminates, and
/// the delay never breaks a link's sequence.
#[test]
fn bracha_decides_with_ten_percent_frame_delay() {
    let (obs, shared) = Obs::new(MetricsSink::new());
    let chaos = ChaosConfig { seed: 0xC0FFEE, delay_per_mille: 100, max_delay_ms: 5 };
    let mut rt = NetRuntime::new(4).timeout(TIMEOUT).observer(obs.clone()).chaos(chaos);
    let cfg = Config::new(4, 1).expect("4 >= 3f + 1");
    byzantine_cluster(&mut rt, cfg, 11, |_| Value::One, |id| LocalCoin::new(11, id));
    let report = rt.run();
    drop(obs);

    assert!(!report.timed_out, "cluster stalled under chaos");
    assert!(report.all_correct_decided());
    assert!(report.agreement_holds());
    assert_eq!(report.unanimous_output(), Some(Value::One));

    let metrics = shared.lock();
    assert_eq!(metrics.frame_sequence_gaps(), 0, "a delay must not reorder a link");
    assert_eq!(metrics.frame_decode_errors(), 0);
}

/// Reconnect path: node 2's listener dies and rebinds on a fresh port
/// 250 ms later. The bounce is due at 0 ms, so it fires on node 2's
/// first pass after the start gate, before node 2 has read a single
/// protocol message and so before it can decide. It severs every link
/// into node 2; the dialers find the port dead, back off, reconnect and
/// replay their logs — and the cluster must still decide. (That a replay
/// fills every gap and skips every duplicate, wherever a connection is
/// cut, is checked byte by byte in `crates/net/src/link.rs`.)
#[test]
fn cluster_survives_listener_bounce_and_reconnects() {
    let bounced = NodeId::new(2);
    let (obs, shared) = Obs::new(VecSink::new());
    let mut rt = NetRuntime::new(4)
        .timeout(TIMEOUT)
        .observer(obs.clone())
        .bounce_listener(ListenerBounce { node: bounced, at_ms: 0, down_ms: 250 });
    let cfg = Config::new(4, 1).expect("4 >= 3f + 1");
    byzantine_cluster(&mut rt, cfg, 13, |_| Value::One, |id| LocalCoin::new(13, id));
    let report = rt.run();
    drop(obs);

    assert!(!report.timed_out, "cluster never recovered from the listener bounce");
    assert!(report.all_correct_decided());
    assert!(report.agreement_holds());
    assert_eq!(report.unanimous_output(), Some(Value::One));

    let events = shared.lock().take();
    let reconnects = events
        .iter()
        .filter(|(_, _, ev)| matches!(ev, Event::PeerReconnected { peer, .. } if *peer == bounced))
        .count();
    let backoffs = events
        .iter()
        .filter(|(_, _, ev)| matches!(ev, Event::ReconnectBackoff { peer, .. } if *peer == bounced))
        .count();
    assert!(reconnects > 0, "no dialer ever reported PeerReconnected to the bounced node");
    assert!(backoffs > 0, "reconnection succeeded without any backoff retries?");
}

/// The erasure-coded broadcast at the headline bench geometry — n=16,
/// f=5, one 64 KiB payload — delivers the identical byte string over
/// real loopback TCP as under the deterministic simulator: the
/// "same delivered log on sim and loopback TCP" acceptance gate for the
/// coded-RBC tentpole. Fragments, Merkle proofs, and reconstruction all
/// cross the real framed wire here.
#[test]
fn coded_rbc_delivers_identical_log_on_sim_and_tcp() {
    use async_bft::sim::{UniformDelay, World, WorldConfig};

    let n = 16;
    let cfg = Config::max_resilience(n).expect("16 >= 3f + 1");
    assert_eq!(cfg.f(), 5);
    let sender = NodeId::new(0);
    let payload: Vec<u8> =
        (0..64 * 1024).map(|i| (i as u8).wrapping_mul(31).wrapping_add(7)).collect();

    // --- deterministic simulator ---
    let mut world = World::new(WorldConfig::new(n), UniformDelay::new(1, 20, 9));
    for id in cfg.nodes() {
        let mine = (id == sender).then(|| payload.clone());
        world.add_process(Box::new(RbcProcess::new(cfg, id, sender, RbcKind::Coded, mine)));
    }
    let sim_report = world.run();
    assert!(sim_report.all_correct_decided());
    let sim_log = sim_report.unanimous_output().expect("sim nodes must agree on one payload");

    // --- real loopback TCP ---
    let mut rt: NetRuntime<_, Vec<u8>> = NetRuntime::new(n).timeout(TIMEOUT);
    for id in cfg.nodes() {
        let mine = (id == sender).then(|| payload.clone());
        rt.add_process(Box::new(RbcProcess::new(cfg, id, sender, RbcKind::Coded, mine)));
    }
    let tcp_report = rt.run();
    assert!(!tcp_report.timed_out, "coded broadcast stalled over TCP");
    let tcp_log = tcp_report.unanimous_output().expect("tcp nodes must agree on one payload");

    assert_eq!(sim_log, tcp_log, "sim and TCP must deliver identical logs");
    assert_eq!(tcp_log, payload, "delivered log must be the broadcast payload");
}

/// A two-node ping-pong process: the message carries a counter, each
/// delivery replies with `counter + 1` until `limit`, and both nodes
/// surface an output near the end so the runtime can tear down. Each
/// directed link carries `limit / 2` frames — a knob for how much
/// traffic crosses one link.
struct PingPong {
    id: NodeId,
    limit: u64,
    seen: Option<u64>,
    halted: bool,
}

impl PingPong {
    fn new(id: NodeId, limit: u64) -> Self {
        PingPong { id, limit, seen: None, halted: false }
    }
}

impl async_bft::types::Process for PingPong {
    type Msg = Vec<u8>;
    type Output = u64;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_start(&mut self) -> Vec<async_bft::types::Effect<Vec<u8>, u64>> {
        use async_bft::types::Effect;
        if self.id == NodeId::new(0) {
            vec![Effect::Send { to: NodeId::new(1), msg: 1u64.to_le_bytes().to_vec() }]
        } else {
            Vec::new()
        }
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: &Vec<u8>,
    ) -> Vec<async_bft::types::Effect<Vec<u8>, u64>> {
        use async_bft::types::Effect;
        let c = u64::from_le_bytes(msg[..8].try_into().unwrap());
        self.seen = Some(c);
        if c >= self.limit {
            self.halted = true;
            return vec![Effect::Output(c), Effect::Halt];
        }
        let mut effects = vec![Effect::Send { to: from, msg: (c + 1).to_le_bytes().to_vec() }];
        if c >= self.limit - 1 {
            effects.push(Effect::Output(c));
        }
        effects
    }

    fn output(&self) -> Option<u64> {
        self.seen.filter(|c| *c >= self.limit - 1)
    }

    fn is_halted(&self) -> bool {
        self.halted
    }
}

/// Runs a two-node ping-pong of `round_trips` frames per directed link
/// and returns the largest `LinkLogPeak` any link's sender reported.
fn peak_link_log(round_trips: u64) -> u64 {
    let (obs, shared) = Obs::new(VecSink::new());
    let mut rt: NetRuntime<Vec<u8>, u64> =
        NetRuntime::new(2).timeout(TIMEOUT).observer(obs.clone());
    for i in 0..2 {
        rt.add_process(Box::new(PingPong::new(NodeId::new(i), round_trips * 2)));
    }
    let report = rt.run();
    drop(obs);
    assert!(!report.timed_out, "ping-pong of {round_trips} round trips stalled");
    let events = shared.lock().take();
    events
        .iter()
        .filter_map(|(_, _, ev)| match ev {
            Event::LinkLogPeak { frames, .. } => Some(*frames),
            _ => None,
        })
        .max()
        .expect("every link must report LinkLogPeak at teardown")
}

/// Ack-based log trimming keeps each sender's replay log bounded by the
/// ack cadence, not the run length: doubling the traffic horizon must
/// not move the resident peak, where the untrimmed log's peak would
/// equal the per-link frame count (96 vs 192 here).
#[test]
fn writer_log_peak_is_bounded_by_ack_horizon() {
    let short = peak_link_log(96);
    let long = peak_link_log(192);
    assert!(short >= 1, "a ping-pong run must log at least one frame");
    // Absolute bound: a handful of ack windows, far under the 96-frame
    // untrimmed short-run peak.
    assert!(short <= 64, "short-run peak {short} suggests the log never trimmed");
    assert!(long <= 64, "long-run peak {long} suggests the log never trimmed");
    // Horizon doubling: the peak tracks the ack window, not the total
    // frame count (which doubled).
    assert!(
        long <= short + 32,
        "doubling the horizon moved the peak from {short} to {long}: log growth tracks run length"
    );
}

/// The state-machine differential gate: the same seeded KV workload,
/// ordered and applied on the deterministic simulator and on real
/// loopback TCP, ends with byte-identical state hashes on all correct
/// nodes — apply is a function of the committed log, not of the
/// substrate's scheduling.
#[test]
fn smr_state_hash_matches_between_sim_and_tcp() {
    use async_bft::coin::CommonCoin;
    use async_bft::order::OrderOptions;
    use async_bft::rbc::RbcKind;
    use async_bft::sim::{UniformDelay, World, WorldConfig};
    use async_bft::smr::{seeded_workload, SmrMessage, SmrOptions, SmrOutput, SmrProcess};

    let n = 4;
    let seed = 21u64;
    let cfg = Config::new(n, 1).expect("4 >= 3f + 1");
    let opts = SmrOptions {
        order: OrderOptions { batch_max: 2, pipeline_depth: 2, epochs: 5, rbc: RbcKind::Bracha },
        checkpoint_interval: 2,
    };
    let count = (opts.order.epochs * opts.order.batch_max as u64) as usize;
    let make = move |id: NodeId| {
        SmrProcess::new(cfg, id, opts, seeded_workload(seed, id, count), move |inst| {
            CommonCoin::new(seed, inst)
        })
    };

    // --- deterministic simulator ---
    let mut world = World::new(WorldConfig::new(n), UniformDelay::new(1, 20, seed));
    for id in cfg.nodes() {
        world.add_process(Box::new(make(id)));
    }
    let sim_report = world.run();
    assert!(sim_report.all_correct_decided());
    let sim_out = sim_report.unanimous_output().expect("sim nodes must agree on one state");

    // --- real loopback TCP ---
    let mut rt: NetRuntime<SmrMessage, SmrOutput> = NetRuntime::new(n).timeout(TIMEOUT);
    for id in cfg.nodes() {
        rt.add_process(Box::new(make(id)));
    }
    let tcp_report = rt.run();
    assert!(!tcp_report.timed_out, "state machine stalled over TCP");
    assert!(tcp_report.agreement_holds());
    let tcp_out = tcp_report.unanimous_output().expect("tcp nodes must agree on one state");

    assert_eq!(sim_out.state_hash, tcp_out.state_hash, "sim and TCP state hashes diverged");
    assert_eq!(sim_out, tcp_out, "sim and TCP state summaries diverged");
}

/// The crash-restart acceptance gate: in a seeded n=4/f=1 TCP run the
/// highest-indexed node is killed at start-up and restarted once the
/// survivors have run ahead and certified checkpoints. It must rejoin via
/// erasure-coded peer state transfer from a certified checkpoint,
/// provably without replaying any epoch below it, and every correct
/// node — victim included — must finish with the identical state hash.
#[test]
fn crashed_node_rejoins_via_state_transfer_over_tcp() {
    use async_bft::coin::CommonCoin;
    use async_bft::net::RestartFactory;
    use async_bft::order::OrderOptions;
    use async_bft::rbc::RbcKind;
    use async_bft::smr::{seeded_workload, SmrMessage, SmrOptions, SmrOutput, SmrProcess};

    let n = 4;
    let seed = 33u64;
    let interval = 2u64;
    let epochs = 6u64;
    let cfg = Config::new(n, 1).expect("4 >= 3f + 1");
    let opts = SmrOptions {
        order: OrderOptions { batch_max: 2, pipeline_depth: 2, epochs, rbc: RbcKind::Bracha },
        checkpoint_interval: interval,
    };
    let count = (epochs * opts.order.batch_max as u64) as usize;
    let victim = NodeId::new(n - 1);

    let (obs, shared) = Obs::new(VecSink::new());
    let make = move |id: NodeId, obs: Obs| {
        SmrProcess::new(cfg, id, opts, seeded_workload(seed, id, count), move |inst| {
            CommonCoin::new(seed, inst)
        })
        .with_obs(obs)
    };
    // Crash the victim right after its start-up step, so it can neither
    // finish the run nor apply anything before the crash however fast the
    // build is (an undisturbed run of this size takes ~100 ms in a debug
    // build, ~50 ms in release: any later fixed crash time races it).
    // The survivors (n − f) run on and certify checkpoints; the
    // replacement comes up recovering, so it installs a certified
    // snapshot by state transfer whenever it restarts relative to them.
    let obs_replacement = obs.clone();
    let factory: RestartFactory<SmrMessage, SmrOutput> =
        Box::new(move || Box::new(make(victim, obs_replacement).recovering(true)));
    let mut rt: NetRuntime<SmrMessage, SmrOutput> = NetRuntime::new(n)
        .timeout(TIMEOUT)
        .observer(obs.clone())
        .restart_node(victim, 0, 500, factory);
    for id in cfg.nodes() {
        rt.add_process(Box::new(make(id, obs.clone())));
    }
    let report = rt.run();
    drop(obs);

    assert!(!report.timed_out, "victim never rejoined: the cluster timed out");
    assert!(report.all_correct_decided());
    assert!(report.agreement_holds());
    let out = report.unanimous_output().expect("all nodes, victim included, agree on the state");
    assert_eq!(out.epochs, epochs);

    let events = shared.lock().take();
    // The victim completed at least one state transfer, for a boundary
    // its peers really certified.
    let fetched: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|(at, node, ev)| match ev {
            Event::StateTransferCompleted { epoch, .. } if *node == victim => Some((*at, *epoch)),
            _ => None,
        })
        .collect();
    let &(_, first_fetched) = fetched.first().expect("victim never completed a state transfer");
    assert!(first_fetched >= interval, "fetched checkpoint {first_fetched} below the interval");
    assert!(
        events.iter().any(|(_, node, ev)| matches!(
            ev,
            Event::CheckpointCertified { epoch, .. } if *node != victim && *epoch == first_fetched
        )),
        "no surviving peer certified the checkpoint the victim installed"
    );

    // No replay below the checkpoint: once the victim began fetching,
    // every slot it applied sits at or above the fetched boundary.
    let fetch_started_at = events
        .iter()
        .find_map(|(at, node, ev)| match ev {
            Event::StateTransferStarted { .. } if *node == victim => Some(*at),
            _ => None,
        })
        .expect("victim never started a state transfer");
    let replayed = events
        .iter()
        .filter(|(at, node, ev)| match ev {
            Event::SlotApplied { epoch, .. } => {
                *node == victim && *at >= fetch_started_at && *epoch < first_fetched
            }
            _ => false,
        })
        .count();
    assert_eq!(replayed, 0, "victim replayed {replayed} slots below its fetched checkpoint");

    // And the online invariant checkers stayed silent.
    assert!(
        !events.iter().any(|(_, _, ev)| matches!(ev, Event::InvariantViolated { .. })),
        "invariant violation during crash-restart recovery"
    );
}

/// Reliable broadcast with a variable-length string payload crosses the
/// wire intact (exercises the length-prefixed string codec end to end).
#[test]
fn rbc_delivers_string_payload_over_tcp() {
    let n = 4;
    let cfg = Config::new(n, 1).expect("4 >= 3f + 1");
    let sender = NodeId::new(0);
    let payload = "loopback payload — κοινή διάλεκτος".to_string();
    let mut rt: NetRuntime<_, String> = NetRuntime::new(n).timeout(TIMEOUT);
    for id in cfg.nodes() {
        let mine = (id == sender).then(|| payload.clone());
        rt.add_process(Box::new(RbcProcess::new(cfg, id, sender, RbcKind::Bracha, mine)));
    }
    let report = rt.run();
    assert!(!report.timed_out);
    assert_eq!(report.unanimous_output(), Some(payload));
}
