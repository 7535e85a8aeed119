//! Benchmark-side `Process` wrappers. They sit *around* the program's
//! state machines and touch nothing inside them:
//!
//! * [`Timed`] counts and times every step by the public message
//!   variant it handles (the traced run's per-layer busy shares);
//! * [`StopSnapshot`] ends a TCP run at a wall-clock instant instead of
//!   an epoch horizon, by surfacing the log as the node's output at the
//!   first step after a stop flag;
//! * [`EpochStamps`] stamps wall time on every epoch the wrapped
//!   replica commits (the simulator workload's latency);
//! * [`Silent`] is a node that never says anything.

use crate::procfs;
use async_bft::coin::CoinScheme;
use async_bft::order::gateway::GatewayProcess;
use async_bft::order::{OrderLog, OrderMessage};
use async_bft::smr::{SmrMessage, SmrOutput, SmrProcess};
use async_bft::types::{Effect, NodeId, Process};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which layer a step's work belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepClass {
    Start,
    /// `on_tick`: gateway intake on the TCP workloads.
    Tick,
    /// Batch dissemination: `OrderMessage::Batch` (the `rbc` layer).
    Rbc,
    /// Agreement: `OrderMessage::Aba` (the `core` engine + validator).
    Aba,
    /// Checkpoint and state-transfer messages of the `smr` layer.
    Smr,
    /// A variant added after this benchmark was written.
    Other,
}

pub const STEP_CLASSES: usize = 6;

/// Maps a wire message to its layer. Catch-all arms keep the benchmark
/// compiling when a later change adds a variant.
pub trait Classify {
    fn class(&self) -> StepClass;
}

impl Classify for OrderMessage {
    fn class(&self) -> StepClass {
        #[allow(unreachable_patterns)]
        match self {
            OrderMessage::Batch(_) => StepClass::Rbc,
            OrderMessage::Aba { .. } => StepClass::Aba,
            _ => StepClass::Other,
        }
    }
}

impl Classify for SmrMessage {
    fn class(&self) -> StepClass {
        #[allow(unreachable_patterns)]
        match self {
            SmrMessage::Order(m) => m.class(),
            SmrMessage::Ckpt(_)
            | SmrMessage::CkptQuery
            | SmrMessage::CkptInfo { .. }
            | SmrMessage::ChunkReq { .. }
            | SmrMessage::Chunk { .. } => StepClass::Smr,
            _ => StepClass::Other,
        }
    }
}

/// Per-class step counts and (sampled) step time of one node.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// Steps taken, every one counted.
    pub steps: [u64; STEP_CLASSES],
    /// Steps whose duration was measured.
    pub timed: [u64; STEP_CLASSES],
    /// Total duration of the measured steps.
    pub nanos: [u64; STEP_CLASSES],
}

impl StepStats {
    pub fn add(&mut self, other: &StepStats) {
        for i in 0..STEP_CLASSES {
            self.steps[i] += other.steps[i];
            self.timed[i] += other.timed[i];
            self.nanos[i] += other.nanos[i];
        }
    }

    pub fn since(&self, earlier: &StepStats) -> StepStats {
        let mut out = *self;
        for i in 0..STEP_CLASSES {
            out.steps[i] -= earlier.steps[i];
            out.timed[i] -= earlier.timed[i];
            out.nanos[i] -= earlier.nanos[i];
        }
        out
    }

    pub fn total_steps(&self) -> u64 {
        self.steps.iter().sum()
    }

    /// Share of measured step time spent in `class`.
    pub fn busy_share(&self, class: StepClass) -> f64 {
        let total: u64 = self.nanos.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.nanos[class as usize] as f64 / total as f64
        }
    }

    /// Mean measured microseconds per step of `class`.
    pub fn us_per_step(&self, class: StepClass) -> f64 {
        let timed = self.timed[class as usize];
        if timed == 0 {
            0.0
        } else {
            self.nanos[class as usize] as f64 / timed as f64 / 1_000.0
        }
    }
}

/// What the harness reads back from a [`Timed`] node.
#[derive(Clone, Debug, Default)]
pub struct TimedShared {
    pub stats: Arc<Mutex<StepStats>>,
    /// The tid of the thread that ran `on_start` — the node's actor.
    pub tid: Arc<Mutex<Option<u32>>>,
}

impl TimedShared {
    pub fn stats(&self) -> StepStats {
        *self.stats.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub fn tid(&self) -> Option<u32> {
        *self.tid.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Counts every step and times one in `sample_every` (1: all of them —
/// exact on the single-threaded simulator; 64 on TCP, where 2n+1 threads
/// share two cores and most wall time inside a step is preemption, so
/// only the *shares* between classes carry information).
pub struct Timed<P> {
    inner: P,
    shared: TimedShared,
    sample_every: u64,
    seen: u64,
}

impl<P> Timed<P> {
    pub fn new(inner: P, sample_every: u64) -> (Self, TimedShared) {
        let shared = TimedShared::default();
        (
            Timed { inner, shared: shared.clone(), sample_every: sample_every.max(1), seen: 0 },
            shared,
        )
    }

    fn step<T>(&mut self, class: StepClass, f: impl FnOnce(&mut P) -> T) -> T {
        self.seen += 1;
        let timed = self.seen.is_multiple_of(self.sample_every);
        let started = timed.then(Instant::now);
        let out = f(&mut self.inner);
        let nanos = started.map(|t| t.elapsed().as_nanos() as u64);
        let mut stats = self.shared.stats.lock().unwrap_or_else(|p| p.into_inner());
        stats.steps[class as usize] += 1;
        if let Some(nanos) = nanos {
            stats.timed[class as usize] += 1;
            stats.nanos[class as usize] += nanos;
        }
        out
    }
}

impl<P: Process> Process for Timed<P>
where
    P::Msg: Classify,
{
    type Msg = P::Msg;
    type Output = P::Output;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_start(&mut self) -> Vec<Effect<P::Msg, P::Output>> {
        *self.shared.tid.lock().unwrap_or_else(|p| p.into_inner()) = procfs::current_tid();
        self.step(StepClass::Start, |p| p.on_start())
    }

    fn on_message(&mut self, from: NodeId, msg: &P::Msg) -> Vec<Effect<P::Msg, P::Output>> {
        self.step(msg.class(), |p| p.on_message(from, msg))
    }

    fn on_tick(&mut self) -> Vec<Effect<P::Msg, P::Output>> {
        self.step(StepClass::Tick, |p| p.on_tick())
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }

    fn is_halted(&self) -> bool {
        self.inner.is_halted()
    }

    fn round(&self) -> u64 {
        self.inner.round()
    }
}

/// A gateway-fronted ordering node whose run ends when the harness says
/// so. The epoch horizon is set out of reach; at the first step after
/// `stop` is raised the node surfaces its log as its output — and keeps
/// running (no `Halt`), so peers still get their quorums until the
/// runtime has every correct node's output and tears the cluster down.
pub struct StopSnapshot<C> {
    inner: GatewayProcess<C>,
    stop: Arc<AtomicBool>,
    /// Epochs this node has appended, published after every step so the
    /// harness can read `order.epochs_per_s` without an observer.
    epochs: Arc<AtomicU64>,
    emitted: bool,
}

impl<C: CoinScheme> StopSnapshot<C> {
    pub fn new(inner: GatewayProcess<C>, stop: Arc<AtomicBool>) -> (Self, Arc<AtomicU64>) {
        let epochs = Arc::new(AtomicU64::new(0));
        (StopSnapshot { inner, stop, epochs: Arc::clone(&epochs), emitted: false }, epochs)
    }

    fn after(
        &mut self,
        mut out: Vec<Effect<OrderMessage, OrderLog>>,
    ) -> Vec<Effect<OrderMessage, OrderLog>> {
        self.epochs.store(self.inner.inner().committed_epochs(), Ordering::Relaxed);
        if !self.emitted && self.stop.load(Ordering::Relaxed) {
            self.emitted = true;
            out.push(Effect::Output(self.inner.inner().log().to_vec()));
        }
        out
    }
}

impl<C: CoinScheme> Process for StopSnapshot<C> {
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

    fn round(&self) -> u64 {
        self.inner.round()
    }
}

/// A node that is up (its sockets connect) and never sends: the
/// `tcp7_crash2` workload's two faulty nodes.
pub struct Silent(pub NodeId);

impl Process for Silent {
    type Msg = OrderMessage;
    type Output = OrderLog;

    fn id(&self) -> NodeId {
        self.0
    }

    fn on_start(&mut self) -> Vec<Effect<OrderMessage, OrderLog>> {
        Vec::new()
    }

    fn on_message(&mut self, _: NodeId, _: &OrderMessage) -> Vec<Effect<OrderMessage, OrderLog>> {
        Vec::new()
    }
}

/// What [`EpochStamps`] publishes about one replica.
#[derive(Debug, Default)]
pub struct ReplicaLog {
    /// Wall time (ns since the shared origin) at which the replica was
    /// seen to have appended epochs `0..=i`.
    pub committed_at_ns: Vec<u64>,
    /// Log slots folded into the replica's state so far.
    pub applied_slots: u64,
}

/// Stamps wall time on every epoch an [`SmrProcess`] commits. One getter
/// call per step; no observer, so it also runs in the untraced run.
pub struct EpochStamps<C> {
    inner: SmrProcess<C>,
    origin: Instant,
    seen: u64,
    log: Arc<Mutex<ReplicaLog>>,
}

impl<C: CoinScheme> EpochStamps<C> {
    pub fn new(inner: SmrProcess<C>, origin: Instant) -> (Self, Arc<Mutex<ReplicaLog>>) {
        let log = Arc::new(Mutex::new(ReplicaLog::default()));
        (EpochStamps { inner, origin, seen: 0, log: Arc::clone(&log) }, log)
    }

    fn after(&mut self) {
        let committed = self.inner.committed_epochs();
        if committed != self.seen {
            let now = self.origin.elapsed().as_nanos() as u64;
            let mut log = self.log.lock().unwrap_or_else(|p| p.into_inner());
            while self.seen < committed {
                log.committed_at_ns.push(now);
                self.seen += 1;
            }
            log.applied_slots = self.inner.state().applied_slots();
        }
    }
}

impl<C: CoinScheme> Process for EpochStamps<C> {
    type Msg = SmrMessage;
    type Output = SmrOutput;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_start(&mut self) -> Vec<Effect<SmrMessage, SmrOutput>> {
        let out = self.inner.on_start();
        self.after();
        out
    }

    fn on_message(&mut self, from: NodeId, msg: &SmrMessage) -> Vec<Effect<SmrMessage, SmrOutput>> {
        let out = self.inner.on_message(from, msg);
        self.after();
        out
    }

    fn output(&self) -> Option<SmrOutput> {
        self.inner.output()
    }

    fn is_halted(&self) -> bool {
        self.inner.is_halted()
    }

    fn round(&self) -> u64 {
        self.inner.round()
    }
}
