//! The TCP transport runtime: `bft-runtime`'s API over real sockets.
//!
//! [`NetRuntime`] runs the *unmodified* sans-io processes over loopback
//! TCP, one listener + one actor thread per node and one writer + one
//! reader thread per directed link, and returns the same
//! [`RuntimeReport`] the thread runtime produces — the third execution
//! substrate next to `bft-sim` and `bft-runtime`.
//!
//! # Link discipline
//!
//! Bracha's model assumes authenticated, reliable, FIFO point-to-point
//! links. Here those properties come from TCP (FIFO, integrity within a
//! connection), the handshake (authenticated sender identity per
//! connection — see [`crate::handshake`]) and a replay/dedup layer that
//! extends them *across* connections:
//!
//! * every frame on link `u → v` carries a contiguous sequence number
//!   starting at 1;
//! * the writer keeps a per-link frame log for replay (bodies are
//!   `Arc`-shared with the broadcast fan-out, so the log stores
//!   pointers, not copies); after a reconnect it replays the log from
//!   its trimmed base;
//! * the receiver keeps a per-peer `next expected` counter that survives
//!   connections, so replayed and duplicated frames are discarded and
//!   exactly-once, in-order delivery holds end-to-end;
//! * the receiver acks every [`ACK_EVERY`]-th processed frame back on
//!   the same connection (a cumulative [`FrameKind::Ack`]), and the
//!   writer drains acks while idle and drops acked prefixes from the
//!   log — so resident log size is bounded by the ack cadence plus the
//!   in-flight window instead of growing with the run length.
//!
//! # Shutdown
//!
//! Threads block in `accept`/`read`/`write`/`recv`. The supervisor
//! flips a shutdown flag, sends one `Stop` per actor inbox, and then
//! severs every registered socket (`Shutdown::Both`), which unblocks
//! the I/O-bound threads; everything runs under `std::thread::scope`,
//! so `run` returns only after every thread has exited.

use crate::chaos::{ChaosConfig, LinkChaos, XorShift};
use crate::clock::{sleep_ms, Clock};
use crate::codec::Codec;
use crate::frame::{encode_frame, read_frame, FrameError, FrameKind, FRAME_OVERHEAD};
use crate::gateway::GatewayPipe;
use crate::handshake::{accept_handshake, dial_handshake, Secret};
use crate::reactor::ReactorWaker;
use bft_obs::{Event as ObsEvent, Obs};
use bft_runtime::{BoxedProcess, RuntimeReport};
use bft_types::{Effect, Envelope, NodeId};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

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

/// Sleeps in short slices until `wake_at_ms` on the runtime clock,
/// returning early (with `false`) the moment the shutdown flag flips —
/// chaos delays and retransmission timeouts must never stall teardown.
pub(crate) fn wait_until(clock: Clock, shutdown: &AtomicBool, wake_at_ms: u64) -> bool {
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return false;
        }
        let now = clock.now_ms();
        if now >= wake_at_ms {
            return true;
        }
        sleep_ms((wake_at_ms - now).clamp(1, 2));
    }
}

/// Control messages on a node's actor inbox.
pub(crate) enum Ctrl<M> {
    /// Deliver one authenticated protocol message.
    Deliver(Envelope<M>),
    /// Out-of-band input is queued (gateway intake): run `on_tick`.
    Tick,
    /// Tear the actor down.
    Stop,
}

/// An encoded frame body (shared between the links of one broadcast)
/// plus the causal-trace hint stamped into its frame header.
pub(crate) type FrameBody = (Arc<Vec<u8>>, u64);

/// A node's outbound fan-out: one frame queue per directed link, plus —
/// under the reactor driver — the waker that nudges the poll loop after
/// frames are enqueued (the thread driver's writers block on the queues
/// themselves and need no wakeup).
pub(crate) struct LinkFanout {
    /// `txs[i]` feeds the link to node `i`; `None` on the self slot.
    pub(crate) txs: Vec<Option<Sender<FrameBody>>>,
    /// The owning node's reactor waker, if one is attached.
    pub(crate) waker: Option<ReactorWaker>,
}

impl LinkFanout {
    /// Fan-out for the thread driver (no wakeups needed).
    fn local(txs: Vec<Option<Sender<FrameBody>>>) -> Self {
        LinkFanout { txs, waker: None }
    }

    /// Nudges the reactor that owns the links, if there is one, after
    /// frames were queued.
    fn wake(&self) {
        if let Some(waker) = &self.waker {
            waker.wake();
        }
    }
}

/// One directed link's writer input: `(from, to, queue of frame bodies)`.
type WriterSpec = (usize, usize, Receiver<FrameBody>);

/// The paired send/receive halves of every node's actor inbox.
pub(crate) type InboxChannels<M> = (Vec<Sender<Ctrl<M>>>, Vec<Receiver<Ctrl<M>>>);

/// Builds the replacement process for a scheduled node restart.
pub type RestartFactory<M, O> = Box<dyn FnOnce() -> BoxedProcess<M, O> + Send>;

/// A scheduled crash-and-restart of one node: at `crash_at_ms` the
/// node's actor drops its process state and discards deliveries (the
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
pub struct BackoffPolicy {
    /// First-retry delay, in milliseconds.
    pub base_ms: u64,
    /// Upper bound on the exponential component, in milliseconds.
    pub cap_ms: u64,
    /// Additional uniform jitter in `[0, jitter_ms]`, in milliseconds.
    pub jitter_ms: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy { base_ms: 5, cap_ms: 200, jitter_ms: 5 }
    }
}

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

/// Which I/O engine drives the TCP cluster.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NetDriver {
    /// The original thread-per-link engine: one blocking reader and one
    /// blocking writer thread per *directed link* (`2n(n-1)` threads for
    /// `n` nodes), plus one listener and one actor thread per node.
    /// Simple, but the thread count grows quadratically with the
    /// cluster size.
    Threads,
    /// The event-driven engine ([`crate::reactor`]): one `poll(2)` loop
    /// per node owning every socket the node touches, so the thread
    /// count per node is a small constant regardless of `n`. The only
    /// engine that serves client gateways.
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

/// Registered socket clones for a shutdown domain; severing them
/// unblocks any thread parked in `read`/`write` on the originals.
#[derive(Clone, Default)]
struct StreamRegistry(Arc<Mutex<Vec<TcpStream>>>);

impl StreamRegistry {
    fn register(&self, stream: &TcpStream) {
        if let Ok(clone) = stream.try_clone() {
            locked(&self.0).push(clone);
        }
    }

    fn shutdown_all(&self) {
        let mut streams = locked(&self.0);
        for s in streams.iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
        streams.clear();
    }
}

/// A thread-per-node runtime over loopback TCP sockets, mirroring
/// [`bft_runtime::Runtime`]'s builder API.
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
    pub(crate) backoff: BackoffPolicy,
    pub(crate) bounces: Vec<ListenerBounce>,
    pub(crate) restarts: Vec<RestartSpec<M, O>>,
    driver: NetDriver,
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
            backoff: BackoffPolicy::default(),
            bounces: Vec::new(),
            restarts: Vec::new(),
            driver: NetDriver::default(),
            bind_addr: SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0),
            gateways: (0..n).map(|_| None).collect(),
        }
    }

    /// Selects the I/O engine (default: [`NetDriver::Reactor`]).
    pub fn driver(mut self, driver: NetDriver) -> Self {
        self.driver = driver;
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

    /// Attaches a client gateway to `node`: the reactor driver binds a
    /// gateway listener for it and serves the framed submit/ack protocol
    /// over the pipe (see [`crate::gateway`]). The bound address is
    /// published via [`GatewayPipe::addr`] once [`NetRuntime::try_run`]
    /// has set the cluster up. Ignored by [`NetDriver::Threads`].
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

    /// Overrides the reconnect backoff policy.
    pub fn backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.backoff = backoff;
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
    /// completion under the configured [`NetDriver`].
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

        match self.driver {
            NetDriver::Threads => Ok(self.run_threads(bound, addrs)),
            NetDriver::Reactor => {
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
    }

    /// The thread-per-link engine (see [`NetDriver::Threads`]).
    fn run_threads(mut self, bound: Vec<TcpListener>, addrs: Vec<SocketAddr>) -> RuntimeReport<O> {
        let n = self.n;
        let clock = Clock::new();
        let obs = self.obs.clone();
        let secret = self.secret;
        let backoff = self.backoff;
        let addr_table = Arc::new(Mutex::new(addrs));

        // Actor inboxes and per-link writer queues.
        let (inbox_txs, inbox_rxs): InboxChannels<M> = (0..n).map(|_| mpsc::channel()).unzip();
        let mut link_txs: Vec<Vec<Option<Sender<FrameBody>>>> = Vec::with_capacity(n);
        let mut writer_specs: Vec<WriterSpec> = Vec::new();
        for from in 0..n {
            let mut row = Vec::with_capacity(n);
            for to in 0..n {
                if to == from {
                    row.push(None);
                } else {
                    let (tx, rx) = mpsc::channel();
                    row.push(Some(tx));
                    writer_specs.push((from, to, rx));
                }
            }
            link_txs.push(row);
        }

        let outputs: Arc<Mutex<BTreeMap<NodeId, O>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let ledger = PanicLedger::default();
        // Per-receiver `next expected seq` per peer: survives connection
        // churn, so replayed frames dedup exactly-once.
        let expected: Vec<Arc<Mutex<BTreeMap<usize, u64>>>> =
            (0..n).map(|_| Arc::new(Mutex::new(BTreeMap::new()))).collect();
        let inbound_regs: Vec<StreamRegistry> = (0..n).map(|_| StreamRegistry::default()).collect();
        let outbound_reg = StreamRegistry::default();

        let correct: Vec<NodeId> = self
            .procs
            .iter()
            .enumerate()
            // lint: allow(panic) — every slot was asserted populated at the top of run()
            .filter(|(_, p)| !p.as_ref().expect("slot populated").1)
            .map(|(i, _)| NodeId::new(i))
            .collect();

        let mut restart_specs: BTreeMap<usize, RestartSpec<M, O>> = BTreeMap::new();
        for spec in self.restarts.drain(..) {
            restart_specs.insert(spec.node.index(), spec);
        }

        let mut timed_out = false;
        std::thread::scope(|scope| {
            // Listener threads (each spawns one reader per accepted
            // connection).
            for (j, listener) in bound.into_iter().enumerate() {
                let me = NodeId::new(j);
                let bounce = self.bounces.iter().copied().find(|b| b.node == me);
                let inbound_reg = inbound_regs.get(j).cloned().unwrap_or_default();
                let shared = ReaderShared {
                    me,
                    n,
                    secret,
                    inbox: inbox_txs.get(j).cloned(),
                    expected: expected.get(j).cloned().unwrap_or_default(),
                    shutdown: Arc::clone(&shutdown),
                    obs: obs.clone(),
                    clock,
                };
                let addr_table = Arc::clone(&addr_table);
                let shutdown = Arc::clone(&shutdown);
                let ledger = ledger.clone();
                scope.spawn(move || {
                    let reader_ledger = ledger.clone();
                    supervised(&ledger, "listener", move || {
                        let mut listener_opt = Some(listener);
                        let mut pending_bounce = bounce;
                        loop {
                            if shutdown.load(Ordering::Relaxed) {
                                return;
                            }
                            if let Some(b) = pending_bounce {
                                if clock.now_ms() >= b.at_ms {
                                    pending_bounce = None;
                                    drop(listener_opt.take());
                                    inbound_reg.shutdown_all();
                                    let up_at = b.at_ms + b.down_ms;
                                    while clock.now_ms() < up_at {
                                        if shutdown.load(Ordering::Relaxed) {
                                            return;
                                        }
                                        sleep_ms(2);
                                    }
                                    let Some((l, addr)) = rebind(&shutdown) else { return };
                                    if let Some(slot) = locked(&addr_table).get_mut(j) {
                                        *slot = addr;
                                    }
                                    listener_opt = Some(l);
                                }
                            }
                            let Some(listener) = listener_opt.as_ref() else {
                                sleep_ms(1);
                                continue;
                            };
                            match listener.accept() {
                                Ok((stream, _)) => {
                                    let _ = stream.set_nodelay(true);
                                    inbound_reg.register(&stream);
                                    let shared = shared.clone();
                                    let ledger = reader_ledger.clone();
                                    scope.spawn(move || {
                                        supervised(&ledger, "reader", || {
                                            reader_loop(stream, shared)
                                        });
                                    });
                                }
                                Err(e) if e.kind() == io::ErrorKind::WouldBlock => sleep_ms(1),
                                Err(_) => sleep_ms(1),
                            }
                        }
                    });
                });
            }

            // Actor threads.
            for (idx, (slot, rx)) in self.procs.iter_mut().zip(inbox_rxs).enumerate() {
                // lint: allow(panic) — every slot was asserted populated at the top of run()
                let (mut proc_, _) = slot.take().expect("slot populated");
                let self_tx = inbox_txs.get(idx).cloned();
                let links = LinkFanout::local(
                    link_txs.get_mut(idx).map(std::mem::take).unwrap_or_default(),
                );
                let outputs = Arc::clone(&outputs);
                let obs = obs.clone();
                let restart = restart_specs.remove(&idx);
                let ledger = ledger.clone();
                scope.spawn(move || {
                    supervised(&ledger, "actor", move || {
                        if let Some(self_tx) = self_tx {
                            actor_loop(
                                &mut proc_, rx, &self_tx, &links, &outputs, &obs, clock, restart,
                            );
                        }
                    });
                });
            }

            // Writer threads, one per directed link.
            for (from, to, rx) in writer_specs {
                let ctx = WriterCtx {
                    me: NodeId::new(from),
                    peer: NodeId::new(to),
                    addr_table: Arc::clone(&addr_table),
                    outbound_reg: outbound_reg.clone(),
                    shutdown: Arc::clone(&shutdown),
                    obs: obs.clone(),
                    clock,
                    secret,
                    backoff,
                    chaos: self.chaos.link(NodeId::new(from), NodeId::new(to)),
                };
                let ledger = ledger.clone();
                scope.spawn(move || supervised(&ledger, "writer", || writer_loop(rx, ctx)));
            }

            // Completion monitor: poll until all correct nodes decided
            // or the timeout fires, then tear everything down.
            loop {
                obs.set_now(clock.now_us());
                {
                    let outs = locked(&outputs);
                    if correct.iter().all(|id| outs.contains_key(id)) {
                        break;
                    }
                }
                if clock.elapsed() > self.timeout {
                    timed_out = true;
                    break;
                }
                sleep_ms(1);
            }
            shutdown.store(true, Ordering::Relaxed);
            for tx in &inbox_txs {
                let _ = tx.send(Ctrl::Stop);
            }
            // Sever every socket: unblocks reads/writes so the scope can
            // join promptly.
            for reg in &inbound_regs {
                reg.shutdown_all();
            }
            outbound_reg.shutdown_all();
        });

        let outputs = Arc::try_unwrap(outputs)
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .unwrap_or_else(|arc| locked(&arc).clone());
        let poisoned = ledger.finish(&obs);
        RuntimeReport { outputs, correct, timed_out, elapsed: clock.elapsed(), poisoned }
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

/// Everything a per-connection reader thread needs.
struct ReaderShared<M> {
    me: NodeId,
    n: usize,
    secret: Secret,
    inbox: Option<Sender<Ctrl<M>>>,
    // lint: allow(unbounded-map) — keys are handshake-authenticated peer indices < n; the next-seq dedup floor must never be GC'd
    expected: Arc<Mutex<BTreeMap<usize, u64>>>,
    shutdown: Arc<AtomicBool>,
    obs: Obs,
    clock: Clock,
}

impl<M> Clone for ReaderShared<M> {
    fn clone(&self) -> Self {
        ReaderShared {
            me: self.me,
            n: self.n,
            secret: self.secret,
            inbox: self.inbox.clone(),
            expected: Arc::clone(&self.expected),
            shutdown: Arc::clone(&self.shutdown),
            obs: self.obs.clone(),
            clock: self.clock,
        }
    }
}

/// One inbound connection: authenticate the dialer, then deliver its
/// frames (deduplicated by sequence number) to the actor inbox.
fn reader_loop<M: Codec + Clone + fmt::Debug>(mut stream: TcpStream, ctx: ReaderShared<M>) {
    reader_session(&mut stream, ctx);
    // The inbound registry holds a cloned fd of this stream (for
    // shutdown severing), so merely dropping our handle does not close
    // the connection. Sever explicitly: without the FIN the dialer can
    // never learn we abandoned the link (e.g. on a sequence gap) and
    // would block forever writing into a connection nobody reads.
    let _ = stream.shutdown(Shutdown::Both);
}

/// The body of [`reader_loop`]; returning (on any path) abandons the
/// connection, which the caller then severs.
fn reader_session<M: Codec + Clone + fmt::Debug>(stream: &mut TcpStream, ctx: ReaderShared<M>) {
    let Some(inbox) = ctx.inbox else { return };
    let Ok(peer) = accept_handshake(stream, ctx.me, ctx.n, ctx.secret) else {
        // A failed handshake surfaces on the dialer side as backoff; the
        // accepter just drops the connection.
        return;
    };
    // First-ever connection from this peer ⇒ PeerConnected; later
    // accepts are reconnects, which the dialer side reports with its
    // attempt count.
    //
    // Reader threads stamp events with the monotonic clock *at emit
    // time* (`emit_at`): the shared `Obs` clock is only refreshed by
    // the actor and monitor loops, so reading it here would attach a
    // stale previous stamp to transport events.
    if !locked(&ctx.expected).contains_key(&peer.index()) {
        ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::PeerConnected { peer });
    }
    loop {
        if ctx.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match read_frame(stream) {
            Ok(frame) => {
                if frame.kind != FrameKind::Msg {
                    ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::FrameDecodeError {
                        reason: "unexpected_kind",
                    });
                    return;
                }
                {
                    let mut exp = locked(&ctx.expected);
                    let next = exp.entry(peer.index()).or_insert(1);
                    if frame.seq < *next {
                        // Duplicate (chaos) or replayed after reconnect.
                        continue;
                    }
                    if frame.seq > *next {
                        // Contiguity violation: drop the connection; the
                        // dialer will reconnect and replay. This is a
                        // transport-ordering fault, not a decode failure,
                        // so it gets its own event (and counter).
                        let expected = *next;
                        let got = frame.seq;
                        ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || {
                            ObsEvent::FrameSequenceGap { from: peer, expected, got }
                        });
                        return;
                    }
                    *next += 1;
                }
                // Cumulative ack back to the writer, on the same
                // connection, so it can trim its replay log. Write
                // failures are ignored: link death surfaces on the next
                // read, and the writer falls back to retaining its log.
                if frame.seq % ACK_EVERY == 0 {
                    if let Ok(ack) = encode_frame(FrameKind::Ack, frame.seq, 0, &[]) {
                        let _ = stream.write_all(&ack);
                    }
                }
                match M::from_bytes(&frame.payload) {
                    Ok(msg) => {
                        let env = Envelope::new(peer, ctx.me, msg);
                        if inbox.send(Ctrl::Deliver(env)).is_err() {
                            return;
                        }
                    }
                    Err(err) => {
                        ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || {
                            ObsEvent::FrameDecodeError { reason: err.label() }
                        });
                        return;
                    }
                }
            }
            Err(FrameError::Closed) => {
                if !ctx.shutdown.load(Ordering::Relaxed) {
                    ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::PeerDisconnected {
                        peer,
                        reason: "closed",
                    });
                }
                return;
            }
            Err(FrameError::Decode(err)) => {
                ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::FrameDecodeError {
                    reason: err.label(),
                });
                return;
            }
            Err(FrameError::Io(_)) => {
                if !ctx.shutdown.load(Ordering::Relaxed) {
                    ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::PeerDisconnected {
                        peer,
                        reason: "read_failed",
                    });
                }
                return;
            }
        }
    }
}

/// Everything a per-link writer thread needs.
struct WriterCtx {
    me: NodeId,
    peer: NodeId,
    addr_table: Arc<Mutex<Vec<SocketAddr>>>,
    outbound_reg: StreamRegistry,
    shutdown: Arc<AtomicBool>,
    obs: Obs,
    clock: Clock,
    secret: Secret,
    backoff: BackoffPolicy,
    chaos: LinkChaos,
}

/// How long the writer waits on its queue before re-checking shutdown.
const WRITER_POLL_MS: u64 = 10;
/// The receiver acks every `ACK_EVERY`-th processed frame (cumulative),
/// letting the writer trim its replay log. Small enough to bound the
/// log, large enough that ack traffic stays negligible.
pub(crate) const ACK_EVERY: u64 = 16;
/// Retransmission timeout after a chaos-dropped attempt.
pub(crate) const RETRANSMIT_RTO_MS: u64 = 2;
/// Cap on chaos retransmissions of a single frame: the chaos layer sits
/// *under* the reliable-link contract, so after the cap the frame is
/// sent anyway (mirroring a real link-layer giving way to delivery).
pub(crate) const MAX_RETRANSMIT: u32 = 64;

/// One directed link: drain the queue, keep the connection alive
/// (redialing with capped backoff), apply chaos, and write framed
/// messages with contiguous sequence numbers.
/// Whether an outbound stream's peer has gone away: a pending socket
/// error (e.g. a RST) or EOF on a non-blocking peek. The writer never
/// reads application data on this stream, so any readable EOF means the
/// receiver closed its end.
fn conn_dead(stream: &TcpStream) -> bool {
    if !matches!(stream.take_error(), Ok(None)) {
        return true;
    }
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let dead = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => e.kind() != io::ErrorKind::WouldBlock,
    };
    let _ = stream.set_nonblocking(false);
    dead
}

/// Nonblockingly consumes any *complete* ack frames buffered on the
/// writer's stream and returns the highest cumulative ack seen (`None`
/// if none arrived). A partial frame is left buffered for next time; a
/// non-ack frame or transport error is surfaced as `Err` so the caller
/// treats the connection as dead.
fn drain_acks(stream: &mut TcpStream) -> io::Result<Option<u64>> {
    // An ack is an empty-payload frame: header + trace hint + trailer.
    let mut best = None;
    loop {
        stream.set_nonblocking(true)?;
        let mut probe = [0u8; FRAME_OVERHEAD];
        let peeked = stream.peek(&mut probe);
        let _ = stream.set_nonblocking(false);
        match peeked {
            // A whole ack is buffered: this read cannot block.
            Ok(n) if n >= FRAME_OVERHEAD => match read_frame(stream) {
                Ok(f) if f.kind == FrameKind::Ack => {
                    best = Some(best.unwrap_or(0).max(f.seq));
                }
                _ => return Err(io::Error::from(io::ErrorKind::InvalidData)),
            },
            // EOF (0) or a partial frame: nothing (more) to consume now.
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        }
    }
    Ok(best)
}

fn writer_loop(rx: Receiver<FrameBody>, mut ctx: WriterCtx) {
    let me = ctx.me;
    let peer = ctx.peer;
    let mut jitter_rng = {
        let mut h = crate::hash::Fnv64::new();
        h.write(b"backoff-jitter");
        h.write(&(me.index() as u32).to_le_bytes());
        h.write(&(peer.index() as u32).to_le_bytes());
        XorShift::new(h.finish())
    };
    // The per-link frame log: seq of log[i] is i + 1. Bodies are shared
    // with the broadcast fan-out (Arc), so this stores pointers (plus
    // each body's trace hint for the frame header).
    let mut log: Vec<FrameBody> = Vec::new();
    // Sequence numbers already acked and dropped from the log's front:
    // `log[i]` carries seq `log_base + i + 1`, and replay after a
    // reconnect starts at `log_base + 1` (the receiver acked everything
    // at or below `log_base`, so nothing earlier can be needed).
    let mut log_base: u64 = 0;
    let mut peak: usize = 0;
    let mut conn: Option<TcpStream> = None;
    let mut sent = 0usize;
    let mut ever_connected = false;
    let mut draining = false;
    'main: loop {
        if ctx.shutdown.load(Ordering::Relaxed) {
            break;
        }
        if !draining {
            match rx.recv_timeout(Duration::from_millis(WRITER_POLL_MS)) {
                Ok(body) => {
                    log.push(body);
                    while let Ok(more) = rx.try_recv() {
                        log.push(more);
                    }
                    peak = peak.max(log.len());
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => draining = true,
            }
        }
        if sent == log.len() {
            // Consume cumulative acks first (they share the stream, so
            // buffered ack bytes must not be mistaken for peer liveness
            // data by the probe below) and drop the acked prefix.
            if let Some(stream) = conn.as_mut() {
                match drain_acks(stream) {
                    Ok(Some(acked)) if acked > log_base => {
                        let k = ((acked - log_base) as usize).min(sent);
                        log.drain(..k);
                        sent -= k;
                        log_base += k as u64;
                    }
                    Ok(_) => {}
                    Err(_) => {
                        conn = None;
                        sent = 0;
                        if !ctx.shutdown.load(Ordering::Relaxed) {
                            ctx.obs.emit_at(ctx.clock.now_us(), me, || {
                                ObsEvent::PeerDisconnected { peer, reason: "ack_failed" }
                            });
                        }
                        continue;
                    }
                }
            }
            // An idle link can die silently: a receiver that detected a
            // sequence gap (or was severed) closes its end, but with no
            // pending frames the writer would never hit a write error and
            // never redial — starving the peer of the replay it needs.
            // Probe the socket; on a dead link force a full replay.
            if conn.as_ref().is_some_and(conn_dead) {
                conn = None;
                sent = 0;
                if !ctx.shutdown.load(Ordering::Relaxed) {
                    // Writer threads, like readers, stamp transport
                    // events at emit time — the shared clock is not
                    // refreshed from this thread.
                    ctx.obs.emit_at(ctx.clock.now_us(), me, || ObsEvent::PeerDisconnected {
                        peer,
                        reason: "peer_closed",
                    });
                }
                continue;
            }
            if draining {
                break;
            }
            continue;
        }

        // Pending frames: make sure we hold an authenticated stream.
        if conn.is_none() {
            let mut attempt: u64 = 0;
            conn = loop {
                if ctx.shutdown.load(Ordering::Relaxed) {
                    break None;
                }
                let addr = locked(&ctx.addr_table).get(peer.index()).copied();
                let Some(addr) = addr else { break None };
                if let Ok(mut stream) = TcpStream::connect(addr) {
                    let _ = stream.set_nodelay(true);
                    if dial_handshake(&mut stream, me, peer, ctx.secret).is_ok() {
                        ctx.outbound_reg.register(&stream);
                        let was_reconnect = ever_connected;
                        let at = ctx.clock.now_us();
                        if was_reconnect {
                            let attempts = attempt;
                            ctx.obs
                                .emit_at(at, me, || ObsEvent::PeerReconnected { peer, attempts });
                        } else {
                            ctx.obs.emit_at(at, me, || ObsEvent::PeerConnected { peer });
                        }
                        ever_connected = true;
                        if was_reconnect && ctx.chaos.skip_replay_once() {
                            // Chaos: the writer "lost" its replay log and
                            // resumes from its send counter. Writes that
                            // died in the previous socket's buffers were
                            // counted as sent, so the receiver sees the
                            // stream jump ahead, reports a sequence gap
                            // and drops the connection; the next dial
                            // replays in full.
                        } else {
                            // Fresh connection ⇒ replay the whole log; the
                            // receiver dedups by sequence number.
                            sent = 0;
                        }
                        break Some(stream);
                    }
                }
                attempt += 1;
                let delay_ms = ctx.backoff.delay_ms(attempt, &mut jitter_rng);
                let shown_attempt = attempt;
                ctx.obs.emit_at(ctx.clock.now_us(), me, || ObsEvent::ReconnectBackoff {
                    peer,
                    attempt: shown_attempt,
                    delay_ms,
                });
                if !wait_until(ctx.clock, &ctx.shutdown, ctx.clock.now_ms() + delay_ms) {
                    break None;
                }
            };
            if conn.is_none() {
                break 'main; // only reachable on shutdown
            }
        }

        // Drain acks during sustained sends too, not just when idle: a
        // receiver blocked writing an ack into a full socket buffer
        // would stop reading and stall the link — and the log would
        // never trim under a one-way flood.
        if sent.is_multiple_of(ACK_EVERY as usize) {
            if let Some(stream) = conn.as_mut() {
                match drain_acks(stream) {
                    Ok(Some(acked)) if acked > log_base => {
                        let k = ((acked - log_base) as usize).min(sent);
                        log.drain(..k);
                        sent -= k;
                        log_base += k as u64;
                    }
                    Ok(_) => {}
                    Err(_) => {
                        conn = None;
                        sent = 0;
                        if !ctx.shutdown.load(Ordering::Relaxed) {
                            ctx.obs.emit_at(ctx.clock.now_us(), me, || {
                                ObsEvent::PeerDisconnected { peer, reason: "ack_failed" }
                            });
                        }
                        continue;
                    }
                }
            }
        }

        let seq = log_base + sent as u64 + 1;

        // Partition window: frames wait out the outage (they are not
        // lost — the reliable-link contract still holds).
        while let Some(until) = ctx.chaos.outage_until(ctx.clock.now_ms()) {
            if ctx.shutdown.load(Ordering::Relaxed) {
                break 'main;
            }
            let now = ctx.clock.now_ms();
            sleep_ms(until.saturating_sub(now).clamp(1, 5));
        }

        // Injected delay (head-of-line: per-link FIFO is preserved).
        // Waited out in shutdown-aware slices: a long chaos delay must
        // not outlive the run's teardown.
        let delay = ctx.chaos.delay_ms();
        if delay > 0 && !wait_until(ctx.clock, &ctx.shutdown, ctx.clock.now_ms() + delay) {
            break 'main;
        }

        // Wire loss: the attempt is dropped, and the *same* frame is
        // retransmitted after an RTO — sequence numbers stay contiguous.
        let mut attempts = 0u32;
        while attempts < MAX_RETRANSMIT && ctx.chaos.attempt_dropped() {
            ctx.obs.emit_at(ctx.clock.now_us(), me, || ObsEvent::FrameDropped { to: peer, seq });
            attempts += 1;
            if !wait_until(ctx.clock, &ctx.shutdown, ctx.clock.now_ms() + RETRANSMIT_RTO_MS) {
                break 'main;
            }
        }

        let Some((body, trace)) = log.get(sent) else { continue };
        let Ok(bytes) = encode_frame(FrameKind::Msg, seq, *trace, body) else {
            // Unreachable: oversize bodies are rejected at enqueue time in
            // `apply` and never enter the log. Skipping (rather than
            // spinning on the same frame forever) keeps the writer live if
            // that invariant is ever broken.
            ctx.obs.emit_at(ctx.clock.now_us(), me, || ObsEvent::FrameDecodeError {
                reason: "payload_too_large",
            });
            sent += 1;
            continue;
        };
        let duplicate = ctx.chaos.duplicate();
        let Some(stream) = conn.as_mut() else { continue };
        let ok =
            stream.write_all(&bytes).is_ok() && (!duplicate || stream.write_all(&bytes).is_ok());
        if ok {
            sent += 1;
        } else {
            conn = None;
            if !ctx.shutdown.load(Ordering::Relaxed) {
                ctx.obs.emit_at(ctx.clock.now_us(), me, || ObsEvent::PeerDisconnected {
                    peer,
                    reason: "write_failed",
                });
            }
        }
    }
    let frames = peak as u64;
    ctx.obs.emit_at(ctx.clock.now_us(), me, || ObsEvent::LinkLogPeak { peer, frames });
}

/// How many queued controls an actor handles before it wakes its reactor
/// and looks at the crash/restart deadlines again. Frames queued during
/// a burst reach a *parked* reactor together, so one pass and one write
/// per link carry them; a running reactor picks them up regardless.
const ACTOR_BURST: usize = 64;

/// The body of one actor thread (mirrors `bft-runtime`'s actor loop;
/// the only difference is where effects go — the net fan-out). Shared
/// verbatim by both drivers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn actor_loop<M, O>(
    proc_: &mut BoxedProcess<M, O>,
    rx: Receiver<Ctrl<M>>,
    self_tx: &Sender<Ctrl<M>>,
    links: &LinkFanout,
    outputs: &Mutex<BTreeMap<NodeId, O>>,
    obs: &Obs,
    clock: Clock,
    mut restart: Option<RestartSpec<M, O>>,
) where
    M: Codec + Clone + fmt::Debug + Send + Sync + 'static,
    O: Clone + fmt::Debug + PartialEq + Send + 'static,
{
    let me = proc_.id();
    let mut halted = false;
    let mut crashed = false;
    // Refresh the shared stamp before every protocol step so events
    // emitted from inside the process (spans included) carry the time
    // of *this* step, not whatever the monitor loop last wrote.
    obs.set_now(clock.now_us());
    let effects = proc_.on_start();
    if apply(me, effects, self_tx, links, outputs, &mut halted, obs) {
        links.wake();
    }

    // One loop until Stop: live deliveries are processed, post-halt and
    // post-crash deliveries are drained and dropped (same discipline as
    // bft-runtime), and a scheduled crash/restart fires by deadline.
    loop {
        if let Some(spec) = restart.as_ref() {
            let now = clock.now_ms();
            if !crashed && now >= spec.crash_at_ms {
                // The host dies: from here every delivery is dropped and
                // the process state is as good as gone.
                crashed = true;
                obs.set_now(clock.now_us());
                obs.emit(me, || ObsEvent::NodeHalted);
            }
            if crashed && now >= spec.restart_at_ms {
                if let Some(spec) = restart.take() {
                    *proc_ = (spec.factory)();
                    crashed = false;
                    halted = false;
                    // Any pre-crash output no longer reflects this
                    // node's state; the replacement must re-earn it.
                    locked(outputs).remove(&me);
                    obs.set_now(clock.now_us());
                    let effects = proc_.on_start();
                    if apply(me, effects, self_tx, links, outputs, &mut halted, obs) {
                        links.wake();
                    }
                }
            }
        }
        let first = if let Some(spec) = restart.as_ref() {
            // A crash or restart deadline is pending: wake for it even
            // if no delivery arrives.
            let deadline = if crashed { spec.restart_at_ms } else { spec.crash_at_ms };
            let wait = deadline.saturating_sub(clock.now_ms()).clamp(1, 50);
            match rx.recv_timeout(Duration::from_millis(wait)) {
                Ok(c) => c,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        } else {
            match rx.recv() {
                Ok(c) => c,
                Err(_) => break,
            }
        };
        // One burst: the control that ended the wait plus whatever else
        // is already queued, each handled exactly as if it had been
        // waited for, then a single wake-up for all the frames queued.
        let mut queued = false;
        let mut stop = false;
        let mut next = Some(first);
        let mut taken = 0;
        while let Some(ctrl) = next {
            obs.set_now(clock.now_us());
            let dead = crashed || halted || proc_.is_halted();
            let effects = match ctrl {
                Ctrl::Deliver(env) if dead => {
                    obs.emit(me, || ObsEvent::MessageDropped { from: env.from });
                    Vec::new()
                }
                Ctrl::Deliver(env) => {
                    obs.emit(me, || ObsEvent::MessageDelivered { from: env.from, kind: "net" });
                    proc_.on_message(env.from, &env.msg)
                }
                // Out-of-band input is queued (gateway intake): give the
                // process a turn even though no message arrived.
                Ctrl::Tick if dead => Vec::new(),
                Ctrl::Tick => proc_.on_tick(),
                Ctrl::Stop => {
                    stop = true;
                    break;
                }
            };
            queued |= apply(me, effects, self_tx, links, outputs, &mut halted, obs);
            taken += 1;
            next = if taken < ACTOR_BURST { rx.try_recv().ok() } else { None };
        }
        if queued {
            links.wake();
        }
        if stop {
            break;
        }
    }
}

/// Rejects bodies that cannot be framed ([`crate::frame::MAX_PAYLOAD`])
/// at the send boundary, before they are assigned a sequence number.
/// Letting one into a writer log would wedge the link: the frame can
/// never be transmitted, and skipping it would leave a permanent
/// sequence gap on replay.
fn oversize(me: NodeId, body: &[u8], obs: &Obs) -> bool {
    if body.len() > crate::frame::MAX_PAYLOAD as usize {
        let len = body.len() as u64;
        obs.emit(me, || ObsEvent::PayloadRejected { len });
        return true;
    }
    false
}

/// Carries out one step's effects. Returns whether a frame was queued
/// on a link — under the reactor driver the node's poll loop may be
/// parked, so the caller owes it one [`LinkFanout::wake`] per burst.
fn apply<M, O>(
    me: NodeId,
    effects: Vec<Effect<M, O>>,
    self_tx: &Sender<Ctrl<M>>,
    links: &LinkFanout,
    outputs: &Mutex<BTreeMap<NodeId, O>>,
    halted: &mut bool,
    obs: &Obs,
) -> bool
where
    M: Codec + Clone,
{
    let mut queued = false;
    for effect in effects {
        match effect {
            Effect::Send { to, msg } => {
                let body = msg.to_bytes();
                if oversize(me, &body, obs) {
                    continue;
                }
                let trace = msg.trace_hint();
                let bytes = (body.len() + FRAME_OVERHEAD) as u64;
                obs.emit(me, || ObsEvent::MessageSent { to, kind: "net", bytes });
                match links.txs.get(to.index()).and_then(Option::as_ref) {
                    Some(tx) => {
                        let _ = tx.send((Arc::new(body), trace));
                        queued = true;
                    }
                    None if to == me => {
                        // Self-delivery short-circuits in-process (the
                        // encoded size is still reported for parity).
                        let _ = self_tx.send(Ctrl::Deliver(Envelope::new(me, me, msg)));
                    }
                    None => {}
                }
            }
            Effect::Broadcast { msg } => {
                // Encode once: every remote link's log entry shares one
                // body allocation.
                let body = Arc::new(msg.to_bytes());
                if oversize(me, &body, obs) {
                    continue;
                }
                let trace = msg.trace_hint();
                let bytes = (body.len() + FRAME_OVERHEAD) as u64;
                for (i, link) in links.txs.iter().enumerate() {
                    let to = NodeId::new(i);
                    obs.emit(me, || ObsEvent::MessageSent { to, kind: "net", bytes });
                    match link {
                        Some(tx) => {
                            let _ = tx.send((Arc::clone(&body), trace));
                            queued = true;
                        }
                        None => {
                            let env = Envelope::new(me, to, msg.clone());
                            let _ = self_tx.send(Ctrl::Deliver(env));
                        }
                    }
                }
            }
            Effect::Output(o) => {
                locked(outputs).entry(me).or_insert(o);
            }
            Effect::Halt => {
                if !*halted {
                    *halted = true;
                    obs.emit(me, || ObsEvent::NodeHalted);
                }
            }
        }
    }
    queued
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_types::Process;

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
        let chaos = ChaosConfig {
            seed: 11,
            drop_per_mille: 150,
            dup_per_mille: 100,
            delay_per_mille: 200,
            max_delay_ms: 2,
            ..ChaosConfig::default()
        };
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
    fn backoff_policy_is_capped_and_jittered() {
        let policy = BackoffPolicy { base_ms: 10, cap_ms: 100, jitter_ms: 0 };
        let mut rng = XorShift::new(1);
        assert_eq!(policy.delay_ms(1, &mut rng), 10);
        assert_eq!(policy.delay_ms(2, &mut rng), 20);
        assert_eq!(policy.delay_ms(5, &mut rng), 100, "capped");
        assert_eq!(policy.delay_ms(60, &mut rng), 100, "shift saturates");
    }
}
