//! The TCP transport runtime: the host substrate over real sockets.
//!
//! [`NetRuntime`] runs the *unmodified* sans-io processes over loopback
//! TCP — one thread per node ([`crate::reactor`]), which owns every
//! socket the node touches and steps the node's process as frames
//! arrive — and returns a [`RuntimeReport`]: the execution substrate
//! next to the deterministic `bft-sim`. This module holds the builder,
//! the report, socket setup and the panic ledger; the reactor holds the
//! loop.
//!
//! # Link discipline
//!
//! Bracha's model assumes authenticated, reliable, FIFO point-to-point
//! links. Here those properties come from TCP (FIFO, integrity within a
//! connection), the handshake (authenticated sender identity per
//! connection — see [`crate::handshake`]) and a replay/dedup layer that
//! extends them *across* connections: contiguous per-link sequence
//! numbers, a sender-side replay log trimmed by cumulative acks and
//! replayed in full on every new connection (bodies are `Arc`-shared with
//! the broadcast fan-out, so the log stores pointers, not copies), and a
//! receiver-side dedup floor per peer that survives connections — so
//! delivery is exactly once and in order end to end. That layer is two
//! sans-io machines in `link.rs`, which the reactor feeds from sockets.
//!
//! # Shutdown
//!
//! Nothing blocks on I/O: every socket is nonblocking and each node
//! parks in `poll(2)` for at most its 10 ms poll cap. The supervisor
//! flips a shutdown flag, which every node sees at the top of its next
//! pass — within one poll cap, since nothing else wakes it; everything
//! runs under `std::thread::scope`, so `run` returns only after every
//! thread has exited.

use crate::chaos::{ChaosConfig, XorShift};
use crate::clock::sleep_ms;
use crate::gateway::GatewayPipe;
use crate::handshake::Secret;
use bft_obs::{Event as ObsEvent, Obs};
use bft_types::wire::Codec;
use bft_types::{verdict, NodeId, Process};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A boxed, thread-movable process.
pub type BoxedProcess<M, O> = Box<dyn Process<Msg = M, Output = O> + Send>;

/// The result of a [`NetRuntime::run`].
#[derive(Clone, Debug)]
pub struct RuntimeReport<O> {
    /// First output of each node that produced one.
    pub outputs: BTreeMap<NodeId, O>,
    /// The correct (non-faulty) nodes.
    pub correct: Vec<NodeId>,
    /// Whether the run hit the timeout before all correct nodes produced
    /// an output.
    pub timed_out: bool,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Whether a runtime thread panicked during the run (shared state
    /// may have been poisoned and ridden through). Every node and
    /// transport thread is supervised and sets it, paired with a
    /// `poison_detected` obs event, so a hung or short-delivering run can
    /// be triaged instead of silently masked.
    pub poisoned: bool,
}

impl<O: Clone + PartialEq> RuntimeReport<O> {
    /// Whether every correct node produced an output.
    pub fn all_correct_decided(&self) -> bool {
        verdict::all_correct_decided(&self.correct, &self.outputs)
    }

    /// Whether all correct nodes that produced an output agree.
    pub fn agreement_holds(&self) -> bool {
        verdict::agreement_holds(&self.correct, &self.outputs)
    }

    /// The unanimous output of the correct nodes, if all decided and
    /// agree.
    pub fn unanimous_output(&self) -> Option<O> {
        verdict::unanimous_output(&self.correct, &self.outputs)
    }
}

/// Locks a std mutex, riding through poisoning (a panicked peer thread
/// must not cascade; the supervisor still needs the outputs). Riding
/// through must not *mask* the panic, though: every runtime thread runs
/// under [`supervised`], so the crash is recorded in the [`PanicLedger`]
/// and surfaces as `RuntimeReport::poisoned` plus a `PoisonDetected`
/// event.
pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Records which runtime thread panicked first, so a poisoned run is
/// reported instead of silently ridden through. Clones share one ledger.
#[derive(Clone, Default)]
pub(crate) struct PanicLedger(Arc<LedgerInner>);

#[derive(Default)]
struct LedgerInner {
    hit: AtomicBool,
    context: Mutex<Option<&'static str>>,
}

impl PanicLedger {
    /// Marks the ledger poisoned; the first recorded context wins.
    fn record(&self, context: &'static str) {
        self.0.hit.store(true, Ordering::Relaxed);
        let mut slot = locked(&self.0.context);
        if slot.is_none() {
            *slot = Some(context);
        }
    }

    /// Emits `PoisonDetected` if any supervised thread panicked and
    /// returns whether one did. The emission itself is panic-proofed:
    /// when the *observer sink* is what panicked, reporting through it
    /// again must not take the supervisor down too.
    pub(crate) fn finish(&self, obs: &Obs) -> bool {
        if !self.0.hit.load(Ordering::Relaxed) {
            return false;
        }
        let context = locked(&self.0.context).unwrap_or("thread");
        let obs = obs.clone();
        let _ = std::panic::catch_unwind(AssertUnwindSafe(move || {
            obs.emit(NodeId::new(0), || ObsEvent::PoisonDetected { context });
        }));
        true
    }
}

/// Runs a runtime thread's body under `catch_unwind`, recording a panic
/// in the ledger instead of letting it tear silently through the scope.
pub(crate) fn supervised<F: FnOnce()>(ledger: &PanicLedger, context: &'static str, f: F) {
    if std::panic::catch_unwind(AssertUnwindSafe(f)).is_err() {
        ledger.record(context);
    }
}

/// Builds the replacement process for a scheduled node restart.
pub type RestartFactory<M, O> = Box<dyn FnOnce() -> BoxedProcess<M, O> + Send>;

/// A scheduled crash-and-restart of one node: at `crash_at_ms` the
/// node drops its process state and discards deliveries (the
/// host is dead; its TCP links stay up, which loopback cannot avoid
/// without severing the whole cluster); at `restart_at_ms` the factory
/// builds a replacement that starts from scratch and must recover
/// through the protocol itself.
pub(crate) struct RestartSpec<M, O> {
    pub(crate) node: NodeId,
    pub(crate) crash_at_ms: u64,
    pub(crate) restart_at_ms: u64,
    pub(crate) factory: RestartFactory<M, O>,
}

/// Capped exponential backoff with deterministic jitter for redials.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BackoffPolicy {
    /// First-retry delay, in milliseconds.
    pub(crate) base_ms: u64,
    /// Upper bound on the exponential component, in milliseconds.
    pub(crate) cap_ms: u64,
    /// Additional uniform jitter in `[0, jitter_ms]`, in milliseconds.
    pub(crate) jitter_ms: u64,
}

/// The redial backoff every link's sender follows.
pub(crate) const BACKOFF: BackoffPolicy = BackoffPolicy { base_ms: 5, cap_ms: 200, jitter_ms: 5 };

impl BackoffPolicy {
    /// The delay before redial `attempt` (1-based).
    pub(crate) fn delay_ms(&self, attempt: u64, rng: &mut XorShift) -> u64 {
        let shift = attempt.saturating_sub(1).min(16) as u32;
        let exp = self.base_ms.saturating_mul(1u64 << shift).min(self.cap_ms.max(1));
        let jitter = if self.jitter_ms > 0 { rng.below(self.jitter_ms + 1) } else { 0 };
        exp + jitter
    }
}

/// A scheduled mid-run listener outage for one node: the listener socket
/// closes at `at_ms`, live inbound connections are severed, and after
/// `down_ms` the node rebinds on a *fresh* ephemeral port (published to
/// the dialers' address table). This is the reconnect-path test hook.
#[derive(Clone, Copy, Debug)]
pub struct ListenerBounce {
    /// The node whose listener bounces.
    pub node: NodeId,
    /// When the listener goes down, ms since run start.
    pub at_ms: u64,
    /// How long it stays down, in milliseconds.
    pub down_ms: u64,
}

/// The I/O engine behind the TCP cluster. There is one; the enum exists
/// only so that callers of [`NetRuntime::driver`] still compile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NetDriver {
    /// The event-driven engine ([`crate::reactor`]): one `poll(2)` loop
    /// per node owning every socket the node touches and stepping its
    /// process, so each node is one thread regardless of `n`.
    #[default]
    Reactor,
}

/// A socket-setup failure surfaced by [`NetRuntime::try_run`] before any
/// cluster thread starts. The runtime holds no protocol state at this
/// point, so callers can retry, rebind elsewhere, or skip.
#[derive(Debug)]
pub enum SetupError {
    /// A node's peer listener could not bind its configured address
    /// (e.g. the port is already claimed by another socket).
    Bind {
        /// The node whose listener failed to bind.
        node: usize,
        /// The underlying socket error.
        source: io::Error,
    },
    /// A freshly bound listener did not report a local address.
    LocalAddr {
        /// The node whose listener failed.
        node: usize,
        /// The underlying socket error.
        source: io::Error,
    },
    /// A node's client-gateway listener could not be set up.
    GatewayBind {
        /// The node whose gateway listener failed.
        node: usize,
        /// The underlying socket error.
        source: io::Error,
    },
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetupError::Bind { node, source } => {
                write!(f, "node {node}: cannot bind peer listener: {source}")
            }
            SetupError::LocalAddr { node, source } => {
                write!(f, "node {node}: bound listener has no local address: {source}")
            }
            SetupError::GatewayBind { node, source } => {
                write!(f, "node {node}: cannot bind gateway listener: {source}")
            }
        }
    }
}

impl std::error::Error for SetupError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SetupError::Bind { source, .. }
            | SetupError::LocalAddr { source, .. }
            | SetupError::GatewayBind { source, .. } => Some(source),
        }
    }
}

/// A thread-per-node runtime over loopback TCP sockets.
///
/// Build with [`NetRuntime::new`], install one process per node id, then
/// call [`NetRuntime::run`], which blocks until every correct node has
/// produced an output (or the timeout fires) and then tears the cluster
/// down.
pub struct NetRuntime<M, O> {
    pub(crate) n: usize,
    pub(crate) procs: Vec<Option<(BoxedProcess<M, O>, bool)>>,
    pub(crate) timeout: Duration,
    pub(crate) obs: Obs,
    pub(crate) secret: Secret,
    pub(crate) chaos: ChaosConfig,
    pub(crate) bounces: Vec<ListenerBounce>,
    pub(crate) restarts: Vec<RestartSpec<M, O>>,
    bind_addr: SocketAddr,
    gateways: Vec<Option<GatewayPipe>>,
}

impl<M, O> fmt::Debug for NetRuntime<M, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NetRuntime(n={}, timeout={:?})", self.n, self.timeout)
    }
}

impl<M, O> NetRuntime<M, O>
where
    M: Codec + Clone + fmt::Debug + Send + Sync + 'static,
    O: Clone + fmt::Debug + PartialEq + Send + 'static,
{
    /// Creates an empty runtime for `n` nodes (default timeout: 30 s,
    /// default preshared key, no chaos).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a runtime needs at least one node");
        NetRuntime {
            n,
            procs: (0..n).map(|_| None).collect(),
            timeout: Duration::from_secs(30),
            obs: Obs::disabled(),
            secret: Secret::default(),
            chaos: ChaosConfig::default(),
            bounces: Vec::new(),
            restarts: Vec::new(),
            bind_addr: SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0),
            gateways: (0..n).map(|_| None).collect(),
        }
    }

    /// Does nothing: [`NetDriver::Reactor`] is the only engine. Kept only
    /// so that the frozen `benchmark/` crate, which calls it, compiles;
    /// remove it in the next change allowed to touch `benchmark/`.
    pub fn driver(self, _driver: NetDriver) -> Self {
        self
    }

    /// Sets the address every node's peer listener binds (default
    /// `127.0.0.1:0`, i.e. a fresh ephemeral port per node). Mostly a
    /// test seam: pointing all nodes at one concrete port makes bind
    /// failures (an already-claimed port) observable via
    /// [`NetRuntime::try_run`].
    pub fn bind_addr(mut self, addr: SocketAddr) -> Self {
        self.bind_addr = addr;
        self
    }

    /// Attaches a client gateway to `node`: the runtime binds a gateway
    /// listener for it and the node's reactor serves the framed
    /// submit/ack protocol over the pipe (see [`crate::gateway`]). The
    /// bound address is published via [`GatewayPipe::addr`] once
    /// [`NetRuntime::try_run`] has set the cluster up.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn gateway(mut self, node: NodeId, pipe: GatewayPipe) -> Self {
        assert!(node.index() < self.n, "node {node} out of range");
        if let Some(slot) = self.gateways.get_mut(node.index()) {
            *slot = Some(pipe);
        }
        self
    }

    /// Attaches an observer; the runtime emits transport events through
    /// it and keeps its clock at microseconds since run start.
    pub fn observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the run timeout.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the cluster preshared key.
    pub fn secret(mut self, secret: Secret) -> Self {
        self.secret = secret;
        self
    }

    /// Installs the link-level chaos configuration.
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Schedules a mid-run listener bounce (reconnect-path testing).
    pub fn bounce_listener(mut self, bounce: ListenerBounce) -> Self {
        self.bounces.push(bounce);
        self
    }

    /// Schedules a crash-and-restart: at `crash_at_ms` (ms since run
    /// start) the node discards its process state and drops every
    /// delivery, as a dead host would; at `restart_at_ms` the `factory`
    /// builds a replacement that starts fresh — any recorded output is
    /// cleared and must be re-earned, typically by catching up from the
    /// peers via the protocol's own state-transfer path.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or the restart precedes the
    /// crash.
    pub fn restart_node(
        mut self,
        node: NodeId,
        crash_at_ms: u64,
        restart_at_ms: u64,
        factory: RestartFactory<M, O>,
    ) -> Self {
        assert!(node.index() < self.n, "node {node} out of range");
        assert!(crash_at_ms <= restart_at_ms, "restart must not precede the crash");
        self.restarts.push(RestartSpec { node, crash_at_ms, restart_at_ms, factory });
        self
    }

    /// Installs a correct process.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the slot is occupied.
    pub fn add_process(&mut self, proc_: BoxedProcess<M, O>) {
        self.install(proc_, false);
    }

    /// Installs a Byzantine process, excluded from the completion
    /// condition and correctness checks.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the slot is occupied.
    pub fn add_faulty_process(&mut self, proc_: BoxedProcess<M, O>) {
        self.install(proc_, true);
    }

    fn install(&mut self, proc_: BoxedProcess<M, O>, faulty: bool) {
        let idx = proc_.id().index();
        assert!(idx < self.n, "process id {idx} out of range");
        assert!(self.procs[idx].is_none(), "slot {idx} already occupied");
        self.procs[idx] = Some((proc_, faulty));
    }

    /// Runs the cluster to completion over loopback TCP.
    ///
    /// # Panics
    ///
    /// Panics if some node slot was never populated or socket setup
    /// fails ([`NetRuntime::try_run`] is the non-panicking form).
    pub fn run(self) -> RuntimeReport<O> {
        match self.try_run() {
            Ok(report) => report,
            // lint: allow(panic) — convenience wrapper: callers that want to handle socket setup failures use try_run
            Err(err) => panic!("net runtime setup failed: {err}"),
        }
    }

    /// Binds every socket the run needs, then drives the cluster to
    /// completion on the reactors.
    ///
    /// Socket setup failures (a listener that cannot bind because its
    /// port is already claimed, a gateway listener without a local
    /// address, …) surface as a typed [`SetupError`] instead of a panic,
    /// so embedding callers (benches, long-lived harnesses) can retry or
    /// report. No cluster thread has started when an error is returned.
    ///
    /// # Panics
    ///
    /// Panics if some node slot was never populated — a programming
    /// error, unlike an environment failure.
    pub fn try_run(mut self) -> Result<RuntimeReport<O>, SetupError> {
        for (i, p) in self.procs.iter().enumerate() {
            assert!(p.is_some(), "node slot {i} was never populated");
        }
        let n = self.n;

        // Bind every listener before any thread starts, so the address
        // table is complete when the first dialer consults it.
        let mut bound = Vec::with_capacity(n);
        let mut addrs: Vec<SocketAddr> = Vec::with_capacity(n);
        for node in 0..n {
            let listener = TcpListener::bind(self.bind_addr)
                .map_err(|source| SetupError::Bind { node, source })?;
            let addr =
                listener.local_addr().map_err(|source| SetupError::LocalAddr { node, source })?;
            let _ = listener.set_nonblocking(true);
            bound.push(listener);
            addrs.push(addr);
        }

        let gateway_bind = SocketAddr::new(self.bind_addr.ip(), 0);
        let pipes = std::mem::take(&mut self.gateways);
        let mut fronts = Vec::with_capacity(n);
        for (node, pipe) in pipes.into_iter().enumerate() {
            match pipe {
                Some(pipe) => {
                    let listener = TcpListener::bind(gateway_bind)
                        .map_err(|source| SetupError::GatewayBind { node, source })?;
                    let addr = listener
                        .local_addr()
                        .map_err(|source| SetupError::GatewayBind { node, source })?;
                    let _ = listener.set_nonblocking(true);
                    pipe.set_addr(addr);
                    fronts.push(Some((listener, pipe)));
                }
                None => fronts.push(None),
            }
        }
        Ok(crate::reactor::run(self, bound, addrs, fronts))
    }
}

/// Rebinds a bounced listener on a fresh ephemeral port, retrying until
/// it succeeds or the run shuts down.
pub(crate) fn rebind(shutdown: &AtomicBool) -> Option<(TcpListener, SocketAddr)> {
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return None;
        }
        if let Ok(listener) = TcpListener::bind(("127.0.0.1", 0)) {
            if listener.set_nonblocking(true).is_ok() {
                if let Ok(addr) = listener.local_addr() {
                    return Some((listener, addr));
                }
            }
        }
        sleep_ms(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_types::Effect;

    struct Echo {
        id: NodeId,
        n: usize,
        heard: usize,
    }

    impl Process for Echo {
        type Msg = u64;
        type Output = usize;
        fn id(&self) -> NodeId {
            self.id
        }
        fn on_start(&mut self) -> Vec<Effect<u64, usize>> {
            vec![Effect::Broadcast { msg: self.id.index() as u64 }]
        }
        fn on_message(&mut self, _from: NodeId, _msg: &u64) -> Vec<Effect<u64, usize>> {
            self.heard += 1;
            if self.heard == self.n {
                vec![Effect::Output(self.heard), Effect::Halt]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn all_to_all_echo_completes_over_tcp() {
        let n = 3;
        let mut rt = NetRuntime::new(n).timeout(Duration::from_secs(20));
        for id in NodeId::all(n) {
            rt.add_process(Box::new(Echo { id, n, heard: 0 }));
        }
        let report = rt.run();
        assert!(!report.timed_out);
        assert!(report.all_correct_decided());
        assert_eq!(report.unanimous_output(), Some(n));
    }

    #[test]
    fn timeout_fires_for_stalled_clusters() {
        struct Stuck {
            id: NodeId,
        }
        impl Process for Stuck {
            type Msg = u64;
            type Output = usize;
            fn id(&self) -> NodeId {
                self.id
            }
            fn on_start(&mut self) -> Vec<Effect<u64, usize>> {
                Vec::new()
            }
            fn on_message(&mut self, _f: NodeId, _m: &u64) -> Vec<Effect<u64, usize>> {
                Vec::new()
            }
        }
        let mut rt = NetRuntime::new(2).timeout(Duration::from_millis(200));
        rt.add_process(Box::new(Stuck { id: NodeId::new(0) }));
        rt.add_process(Box::new(Stuck { id: NodeId::new(1) }));
        let report = rt.run();
        assert!(report.timed_out);
        assert!(!report.all_correct_decided());
    }

    #[test]
    fn echo_completes_under_chaos() {
        let n = 3;
        let chaos = ChaosConfig { seed: 11, delay_per_mille: 200, max_delay_ms: 2 };
        let mut rt = NetRuntime::new(n).timeout(Duration::from_secs(20)).chaos(chaos);
        for id in NodeId::all(n) {
            rt.add_process(Box::new(Echo { id, n, heard: 0 }));
        }
        let report = rt.run();
        assert!(!report.timed_out);
        assert_eq!(report.unanimous_output(), Some(n));
    }

    #[test]
    fn transport_events_are_stamped_at_emit_time() {
        use bft_obs::{SharedSink, VecSink};

        // Poison the shared clock with an absurd stamp before the run:
        // any emission path that reads the shared clock instead of the
        // runtime's monotonic clock would attach this stale value.
        let sink = SharedSink::new(VecSink::new());
        let obs = Obs::to(&sink);
        obs.set_now(u64::MAX);

        let n = 3;
        let mut rt = NetRuntime::new(n).timeout(Duration::from_secs(20)).observer(obs);
        for id in NodeId::all(n) {
            rt.add_process(Box::new(Echo { id, n, heard: 0 }));
        }
        let report = rt.run();
        assert!(!report.timed_out);

        // Every recorded event must carry a fresh monotonic stamp (the
        // whole run takes well under 10^9 us), never the poisoned one.
        let events = sink.lock().take();
        assert!(!events.is_empty());
        const FRESH_BOUND_US: u64 = 1_000_000_000;
        for (at, node, event) in &events {
            assert!(*at < FRESH_BOUND_US, "stale stamp {at} on {event:?} from node {node:?}");
        }
    }

    #[test]
    #[should_panic(expected = "never populated")]
    fn run_requires_all_slots() {
        let rt: NetRuntime<u64, usize> = NetRuntime::new(2);
        let _ = rt.run();
    }

    #[test]
    fn backoff_policy_is_capped_and_jittered() {
        let policy = BackoffPolicy { base_ms: 10, cap_ms: 100, jitter_ms: 0 };
        let mut rng = XorShift::new(1);
        assert_eq!(policy.delay_ms(1, &mut rng), 10);
        assert_eq!(policy.delay_ms(2, &mut rng), 20);
        assert_eq!(policy.delay_ms(5, &mut rng), 100, "capped");
        assert_eq!(policy.delay_ms(60, &mut rng), 100, "shift saturates");
    }
}
