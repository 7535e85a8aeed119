//! `bft-order` — epoch-pipelined atomic broadcast over ACS.
//!
//! Bracha's primitives give us binary agreement; ACS composes `n`
//! reliable broadcasts with `n` agreement instances into set agreement.
//! This crate takes the last step to a *replicated log*: an
//! [`OrderProcess`] batches submitted payloads, runs one ACS instance
//! per **epoch**, and appends each epoch's agreed batches to a totally
//! ordered log, in proposer order and each as soon as it and every
//! earlier slot of its epoch have decided (**prefix commit**) — the
//! HoneyBadgerBFT construction, on Bracha's 1984 machinery.
//!
//! Pipelining: epoch `e + 1` may start while epoch `e` is still
//! deciding, up to a configured depth. Because each epoch's ACS is
//! independent (its RBC instances are tagged by epoch, its agreement
//! instances are per `(epoch, proposer)`), overlapping epochs costs no
//! safety: the log order is fixed by `(epoch, proposer)` regardless of
//! commit order. An epoch costs the same Θ(n⁴) messages whether it
//! carries `batch_max` payloads or none, so the pipeline is only as deep
//! as the load asks for — Nagle's rule applied to epochs: with room, a
//! node opens its next epoch when nothing of its own is in flight
//! (**idle**: epochs advance under any load), when a full batch is
//! waiting (**full**), or when a peer already opened it (**join**); see
//! [`OpenCounts`]. The pipeline gate applies **backpressure** at two
//! points: [`OrderProcess::submit`] refuses payloads once the mempool
//! covers every in-flight slot, and a node never *proposes* epoch `e`
//! until fewer than `pipeline_depth` of its own epochs are between
//! proposal and log append.
//!
//! Garbage collection: when an epoch's last slot is appended, its RBC
//! instances are dropped via [`RbcMux::retain`], and its agreement
//! state is dropped as soon as every instance has halted. Steady-state
//! memory is therefore bounded by the pipeline depth, not by the length
//! of the run — the property `tests/halting_and_memory.rs` pins.
//!
//! # Example
//!
//! ```
//! use bft_coin::CommonCoin;
//! use bft_order::{OrderOptions, OrderProcess};
//! use bft_sim::{UniformDelay, World, WorldConfig};
//! use bft_types::{Config, NodeId};
//!
//! # fn main() -> Result<(), bft_types::ConfigError> {
//! let cfg = Config::new(4, 1)?;
//! let opts = OrderOptions { batch_max: 2, pipeline_depth: 2, epochs: 3, ..OrderOptions::default() };
//! let mut world = World::new(WorldConfig::new(4), UniformDelay::new(1, 5, 7));
//! for id in cfg.nodes() {
//!     let workload = (0..6).map(|i| vec![id.index() as u8, i]).collect();
//!     world.add_process(Box::new(OrderProcess::new(cfg, id, opts, workload, |inst| {
//!         CommonCoin::new(9, inst)
//!     })));
//! }
//! let report = world.run();
//! assert!(report.all_correct_decided());
//! assert!(report.agreement_holds());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gateway;

use bft_coin::CoinScheme;
use bft_obs::{Event, Obs, TraceCtx, TracePhase};
use bft_rbc::{RbcKind, RbcMux, RbcMuxAction, RbcMuxMessage};
use bft_types::wire::{put_u32, put_u64, Codec, DecodeError, Reader};
use bft_types::{Config, Effect, NodeId, Process, Value};
use bracha::{BrachaNode, BrachaOptions, Transition, Wire};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Tuning knobs for the ordering engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderOptions {
    /// Maximum number of payloads drained from the mempool into one
    /// epoch's batch — and the mempool size at which a node opens another
    /// epoch beside the ones in flight. An idle node whose mempool is
    /// empty proposes an empty batch (epochs advance regardless of load).
    pub batch_max: usize,
    /// Maximum number of own epochs between proposal and log append.
    /// Depth 1 is strictly sequential ACS; deeper pipelines overlap the
    /// broadcast of epoch `e + 1` with the agreement of epoch `e` when a
    /// full batch is waiting or a peer opened `e + 1`.
    pub pipeline_depth: usize,
    /// Total number of epochs to run; the process outputs its log and
    /// winds down after epoch `epochs − 1` is appended.
    pub epochs: u64,
    /// Which reliable-broadcast implementation disseminates batches:
    /// [`RbcKind::Bracha`] sends every batch `O(n²)` times;
    /// [`RbcKind::Coded`] fragments it for `O(n)` bytes on the wire.
    pub rbc: RbcKind,
}

impl Default for OrderOptions {
    fn default() -> Self {
        OrderOptions { batch_max: 8, pipeline_depth: 2, epochs: 4, rbc: RbcKind::Bracha }
    }
}

/// `submit` refused a payload: every pipeline slot's batch is already
/// covered by the mempool. Retry after the next epoch commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backpressure {
    /// Payloads currently queued.
    pub pending: usize,
    /// The mempool bound that was hit (`batch_max × pipeline_depth`).
    pub capacity: usize,
}

impl fmt::Display for Backpressure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mempool full: {} pending payloads at capacity {}", self.pending, self.capacity)
    }
}

impl std::error::Error for Backpressure {}

/// Why a node opened its epochs: how many under each trigger of the
/// pipeline's opening rule (diagnostic; see [`OrderProcess::opened`]).
/// When several triggers hold the first in field order is counted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenCounts {
    /// Nothing of this node's own was in flight: the epoch that keeps the
    /// log advancing under any load, empty mempool included.
    pub idle: u64,
    /// A full batch (`batch_max` payloads) was waiting beside the epochs
    /// in flight.
    pub full: u64,
    /// A peer had opened the epoch: this node already held broadcast or
    /// agreement state for it.
    pub joined: u64,
}

impl OpenCounts {
    /// The counts behind the trigger labels `Event::EpochStarted` carries
    /// (`"idle"`, `"full"`, `"joined"`), each read by `count` — e.g. from
    /// a metrics sink's per-trigger counters.
    pub fn from_triggers(count: impl Fn(&str) -> u64) -> Self {
        OpenCounts { idle: count("idle"), full: count("full"), joined: count("joined") }
    }
}

impl fmt::Display for OpenCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} idle, {} full, {} joined", self.idle, self.full, self.joined)
    }
}

/// One entry of the totally ordered log: a payload with the slot that
/// carried it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// The epoch whose ACS included this payload.
    pub epoch: u64,
    /// The node that proposed the batch carrying this payload.
    pub proposer: NodeId,
    /// The application payload.
    pub tx: Vec<u8>,
}

/// The totally ordered log, one owned entry per payload: identical at
/// every correct node. What a process *outputs*; what it retains while
/// running is the slots behind [`OrderProcess::log`].
pub type OrderLog = Vec<LogEntry>;

/// One committed `(epoch, proposer)` slot of the log, retained as the
/// batch body reliable broadcast delivered — the payloads are read out of
/// it, never copied per payload. Holds at least one payload: empty
/// batches are not retained.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogSlot {
    epoch: u64,
    proposer: NodeId,
    /// Payloads in `body`, counted once at append so that truncation does
    /// not walk the bodies it frees.
    txs: u32,
    body: Vec<u8>,
}

impl LogSlot {
    /// The epoch whose ACS accepted this slot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The node that proposed the slot's batch.
    pub fn proposer(&self) -> NodeId {
        self.proposer
    }

    /// The slot's payloads in log order, borrowed from the batch body.
    pub fn txs(&self) -> BatchTxs<'_> {
        batch_txs(&self.body)
    }
}

/// A borrowed view of the log a process retains: committed slots in
/// `(epoch, proposer)` order, from the truncation floor to the append
/// cursor.
#[derive(Clone, Copy, Debug)]
pub struct LogView<'a> {
    slots: &'a [LogSlot],
    txs: usize,
}

impl<'a> LogView<'a> {
    /// Retained entries (payloads, not slots).
    pub fn len(&self) -> usize {
        self.txs
    }

    /// Whether no entry is retained.
    pub fn is_empty(&self) -> bool {
        self.txs == 0
    }

    /// The retained slots in log order. Slots whose batch was empty
    /// carry no entry and are not kept.
    pub fn slots(&self) -> &'a [LogSlot] {
        self.slots
    }

    /// The retained slots of epochs `epoch..`, in log order.
    pub fn slots_from(&self, epoch: u64) -> &'a [LogSlot] {
        &self.slots[self.slots.partition_point(|slot| slot.epoch < epoch)..]
    }

    /// The retained log as owned entries, one per payload.
    pub fn to_vec(&self) -> OrderLog {
        let mut entries = Vec::with_capacity(self.txs);
        for slot in self.slots {
            let (epoch, proposer) = (slot.epoch, slot.proposer);
            entries.extend(slot.txs().map(|tx| LogEntry { epoch, proposer, tx: tx.to_vec() }));
        }
        entries
    }
}

/// A wire message of the ordering protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OrderMessage {
    /// A reliable-broadcast message carrying an epoch batch; the RBC tag
    /// is the epoch number.
    Batch(RbcMuxMessage<u64, Vec<u8>>),
    /// A message of the agreement instance deciding whether proposer
    /// `index`'s batch joins epoch `epoch`.
    Aba {
        /// The epoch the instance belongs to.
        epoch: u64,
        /// Which proposer's inclusion is being agreed on.
        index: u32,
        /// The inner Bracha-consensus wire message.
        wire: Wire,
    },
}

impl fmt::Display for OrderMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderMessage::Batch(m) => write!(f, "batch[e{}] from {}", m.tag, m.sender),
            OrderMessage::Aba { epoch, index, .. } => write!(f, "aba[e{epoch}#{index}]"),
        }
    }
}

impl Codec for OrderMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            OrderMessage::Batch(m) => {
                out.push(0);
                m.encode(out);
            }
            OrderMessage::Aba { epoch, index, wire } => {
                out.push(1);
                put_u64(out, *epoch);
                put_u32(out, *index);
                wire.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(OrderMessage::Batch(RbcMuxMessage::decode(r)?)),
            1 => {
                let epoch = r.u64()?;
                let index = r.u32()?;
                let wire = Wire::decode(r)?;
                Ok(OrderMessage::Aba { epoch, index, wire })
            }
            got => {
                Err(DecodeError::Invalid { what: "order message discriminant", got: got as u64 })
            }
        }
    }

    fn trace_hint(&self) -> u64 {
        match self {
            OrderMessage::Batch(m) => TraceCtx::derive(m.sender, m.tag, m.tag).trace,
            OrderMessage::Aba { epoch, index, .. } => {
                TraceCtx::derive(NodeId::new(*index as usize), *epoch, *epoch).trace
            }
        }
    }
}

/// Encodes a batch of payloads into one RBC proposal body.
pub fn encode_batch(txs: &[Vec<u8>]) -> Vec<u8> {
    // Sized once: the proposer's own body stays in its log as allocated.
    let mut out = Vec::with_capacity(4 + txs.iter().map(|tx| 4 + tx.len()).sum::<usize>());
    put_u32(&mut out, txs.len() as u32);
    for tx in txs {
        put_u32(&mut out, tx.len() as u32);
        out.extend_from_slice(tx);
    }
    out
}

/// Decodes a batch body back into payloads.
///
/// Total: a malformed body (a Byzantine proposer controls these bytes,
/// and RBC agreement only guarantees everyone sees the *same* bytes)
/// decodes as a single opaque payload, so all correct nodes still
/// append identical entries.
pub fn decode_batch(bytes: &[u8]) -> Vec<Vec<u8>> {
    batch_txs(bytes).map(<[u8]>::to_vec).collect()
}

/// How many payloads [`decode_batch`] yields for `bytes`, without copying
/// any of them (a malformed body counts as its one opaque payload).
pub fn batch_tx_count(bytes: &[u8]) -> usize {
    batch_txs(bytes).len()
}

/// The payloads of a batch body, borrowed from it in order — what
/// [`decode_batch`] copies out.
pub fn batch_txs(bytes: &[u8]) -> BatchTxs<'_> {
    match framed_tx_count(bytes) {
        Some(left) => {
            BatchTxs { body: Reader::new(bytes.get(4..).unwrap_or_default()), left, framed: true }
        }
        None => BatchTxs { body: Reader::new(bytes), left: 1, framed: false },
    }
}

/// The one batch-body parser: the payload count of a well-formed body,
/// `None` if the body is malformed.
fn framed_tx_count(bytes: &[u8]) -> Option<usize> {
    let mut r = Reader::new(bytes);
    let count = r.u32().ok()? as usize;
    // Each entry costs at least its 4-byte length prefix, so a count
    // the remaining bytes cannot possibly hold is malformed — reject
    // before looping (a hostile count must not drive the loop).
    if count > r.remaining() / 4 {
        return None;
    }
    for _ in 0..count {
        let len = r.u32().ok()? as usize;
        r.take(len).ok()?;
    }
    r.finish().ok()?;
    Some(count)
}

/// Iterator over the payloads of one batch body (see [`batch_txs`]).
#[derive(Debug)]
pub struct BatchTxs<'a> {
    body: Reader<'a>,
    /// Payloads still to yield.
    left: usize,
    /// Whether `body` is length-prefixed payloads (a well-formed batch) or
    /// a malformed body to yield whole.
    framed: bool,
}

impl<'a> Iterator for BatchTxs<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let len = if self.framed { self.body.u32().ok()? as usize } else { self.body.remaining() };
        self.body.take(len).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for BatchTxs<'_> {}

/// Per-epoch ACS state: `n` agreement instances plus the RBC deliveries.
///
/// A batch body lives in exactly one place: `delivered` until its slot is
/// appended, its log slot after that. A slot is `ready` once its instance
/// decided 0, or decided 1 with the body delivered: nothing later in the
/// epoch can change it, so the head epoch appends it as soon as every
/// slot before it is ready too. `txs` counts the ready slots' payloads.
struct EpochState<C> {
    abas: Vec<BrachaNode<C>>,
    aba_started: Vec<bool>,
    delivered: BTreeMap<NodeId, Vec<u8>>,
    ready: Vec<bool>,
    txs: u64,
}

impl<C: CoinScheme> EpochState<C> {
    fn new(config: Config, me: NodeId, epoch: u64, coin_for: &mut dyn FnMut(u64) -> C) -> Self {
        let n = config.n();
        let mut abas = Vec::with_capacity(n);
        for i in 0..n {
            let coin = coin_for(epoch.wrapping_mul(n as u64).wrapping_add(i as u64));
            abas.push(BrachaNode::new(config, me, coin, BrachaOptions::default()));
        }
        EpochState {
            abas,
            aba_started: vec![false; n],
            delivered: BTreeMap::new(),
            ready: vec![false; n],
            txs: 0,
        }
    }

    fn all_halted(&self) -> bool {
        self.abas.iter().all(|a| a.is_halted())
    }

    fn accepted(&self, i: usize) -> bool {
        self.abas[i].decided() == Some(Value::One)
    }
}

type OrderEffect = Effect<OrderMessage, OrderLog>;

/// The trace context of every message of epoch-`e` slot `proposer`:
/// derivable from the RBC instance key alone, so all `n` nodes stamp
/// identical span ids without any coordination.
fn batch_trace(proposer: NodeId, epoch: &u64) -> Option<TraceCtx> {
    Some(TraceCtx::derive(proposer, *epoch, *epoch))
}

/// One node of the atomic-broadcast engine, packaged as a [`Process`]
/// so it runs unmodified on both substrates (`bft-sim`, `bft-net`).
///
/// `coin_for` supplies the coin for agreement instance
/// `epoch × n + proposer_index`; use [`bft_coin::CommonCoin`] keyed by
/// that instance number for constant expected epoch latency.
pub struct OrderProcess<C> {
    config: Config,
    me: NodeId,
    opts: OrderOptions,
    coin_for: Box<dyn FnMut(u64) -> C + Send>,
    pending: VecDeque<Vec<u8>>,
    /// Own non-empty proposals per epoch between proposal and log
    /// append: a batch whose slot the epoch's ACS left out goes back to
    /// the mempool instead of being lost. Bounded by the pipeline depth.
    proposed: BTreeMap<u64, Vec<Vec<u8>>>,
    rbc: RbcMux<u64, Vec<u8>>,
    epochs: BTreeMap<u64, EpochState<C>>,
    /// Next epoch this node will propose.
    next_epoch: u64,
    /// Appended slots in `(epoch, proposer)` order, each still the body
    /// RBC delivered; empty batches are dropped at append.
    log: Vec<LogSlot>,
    /// Payloads across `log` (what [`LogView::len`] reports).
    log_txs: usize,
    /// The append cursor: the head epoch (everything below is appended)
    /// and its next slot (its slots below that are appended).
    log_next: u64,
    log_slot: usize,
    output_emitted: bool,
    halted: bool,
    obs: Obs,
    /// Whether causal-trace spans are emitted (observer attached).
    trace_on: bool,
    /// When the mempool head entered the queue — the retroactive start
    /// of the next batch's `submit` / `batch_wait` spans.
    mempool_since: Option<u64>,
    /// Epochs this node proposed whose root `submit` span is still open.
    open_roots: BTreeSet<u64>,
    /// How many times the ACS fixpoint ([`Self::progress`]) ran.
    fixpoint_runs: u64,
    /// Epochs opened so far, by trigger.
    opened: OpenCounts,
}

impl<C: CoinScheme> OrderProcess<C> {
    /// Creates a participant with an initial mempool of `workload`
    /// payloads (drained `batch_max` at a time into epoch batches).
    ///
    /// # Panics
    ///
    /// Panics if `batch_max` or `pipeline_depth` is zero.
    pub fn new(
        config: Config,
        me: NodeId,
        opts: OrderOptions,
        workload: Vec<Vec<u8>>,
        coin_for: impl FnMut(u64) -> C + Send + 'static,
    ) -> Self {
        assert!(opts.batch_max >= 1, "batch_max must be at least 1");
        assert!(opts.pipeline_depth >= 1, "pipeline_depth must be at least 1");
        OrderProcess {
            config,
            me,
            opts,
            coin_for: Box::new(coin_for),
            pending: workload.into(),
            proposed: BTreeMap::new(),
            rbc: RbcMux::new(config, me, opts.rbc),
            epochs: BTreeMap::new(),
            next_epoch: 0,
            log: Vec::new(),
            log_txs: 0,
            log_next: 0,
            log_slot: 0,
            output_emitted: false,
            halted: false,
            obs: Obs::disabled(),
            trace_on: false,
            mempool_since: None,
            open_roots: BTreeSet::new(),
            fixpoint_runs: 0,
            opened: OpenCounts::default(),
        }
    }

    /// Attaches an observer: epoch lifecycle events are emitted here,
    /// batch dissemination events at the underlying RBC layer. The
    /// per-epoch agreement instances' *metrics* are deliberately not
    /// observed — the `n` instances of an epoch all share this node's id,
    /// so their per-round event streams would interleave
    /// indistinguishably and their per-instance `Decided` events would
    /// read as consensus disagreements — but they do emit `aba_round` /
    /// `coin_wait` trace spans, and the RBC layer emits `rbc_echo` /
    /// `rbc_ready` spans under the trace context derived from each
    /// instance's `(proposer, epoch)` key.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.rbc.set_obs(obs.clone());
        self.rbc.set_tracer(batch_trace);
        self.trace_on = obs.enabled();
        if self.trace_on && !self.pending.is_empty() {
            self.mempool_since = Some(obs.now());
        }
        self.obs = obs;
        self
    }

    /// Queues a payload for ordering, refusing once the mempool already
    /// covers every pipeline slot (`batch_max × pipeline_depth`). The
    /// payload rides in the next epoch this node opens; a submission can
    /// also complete a full batch, which opens one — follow a burst of
    /// submissions with [`poke`](Self::poke) so it does in that step.
    pub fn submit(&mut self, tx: Vec<u8>) -> Result<(), Backpressure> {
        let capacity = self.opts.batch_max.saturating_mul(self.opts.pipeline_depth);
        if self.pending.len() >= capacity {
            return Err(Backpressure { pending: self.pending.len(), capacity });
        }
        if self.trace_on && self.pending.is_empty() {
            self.mempool_since = Some(self.obs.now());
        }
        self.pending.push_back(tx);
        Ok(())
    }

    /// Drives the proposal/commit pipeline outside a message delivery
    /// and returns the resulting effects — the hook host transports use
    /// after out-of-band mempool activity ([`Process::on_tick`]
    /// submissions via [`gateway::GatewayProcess`]). A no-op after the
    /// process halts.
    pub fn poke(&mut self) -> Vec<OrderEffect> {
        let mut out = Vec::new();
        if !self.halted {
            self.progress(&mut out);
        }
        out
    }

    /// The configured per-epoch batch bound.
    pub fn batch_max(&self) -> usize {
        self.opts.batch_max
    }

    /// The configured pipeline depth: the most epochs in flight.
    pub fn pipeline_depth(&self) -> usize {
        self.opts.pipeline_depth
    }

    /// The ordered log as appended so far (and not yet truncated).
    pub fn log(&self) -> LogView<'_> {
        LogView { slots: &self.log, txs: self.log_txs }
    }

    /// Number of epochs fully appended to the log.
    pub fn committed_epochs(&self) -> u64 {
        self.log_next
    }

    /// The append cursor: the head epoch and its next slot to append
    /// (every slot before it is in the log, or was decided 0).
    pub fn append_cursor(&self) -> (u64, usize) {
        (self.log_next, self.log_slot)
    }

    /// Own epochs currently between proposal and log append.
    pub fn in_flight(&self) -> u64 {
        self.next_epoch.saturating_sub(self.log_next)
    }

    /// Payloads waiting in the mempool.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Live RBC instances across all un-collected epochs (bounded by
    /// `n × pipeline_depth` plus stragglers in steady state).
    pub fn rbc_instance_count(&self) -> usize {
        self.rbc.instance_count()
    }

    /// Epochs whose ACS state is still retained.
    pub fn live_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// Bytes of erasure-coded fragments buffered across live RBC
    /// instances (always zero under [`RbcKind::Bracha`]): an instance
    /// frees its own at delivery, and the per-epoch GC that collects
    /// instances drops those that never delivered.
    pub fn rbc_fragment_bytes(&self) -> usize {
        self.rbc.buffered_fragment_bytes()
    }

    /// Retained agreement-instance state across all live epochs.
    pub fn retained_aba_count(&self) -> usize {
        self.epochs.values().map(|s| s.abas.len()).sum()
    }

    /// Batch-body bytes held in per-epoch ACS state (delivered, not yet
    /// appended). Bounded by the epochs in flight: an appended slot's body
    /// has moved into the log.
    pub fn retained_batch_bytes(&self) -> usize {
        self.epochs.values().flat_map(|s| s.delivered.values()).map(Vec::len).sum()
    }

    /// Bytes the retained log holds: each slot's batch body plus its
    /// fixed-size header. Grows by a payload's length and 4-byte prefix
    /// per logged payload, falls with [`truncate_below`](Self::truncate_below).
    pub fn retained_log_bytes(&self) -> usize {
        self.log.iter().map(|slot| std::mem::size_of::<LogSlot>() + slot.body.len()).sum()
    }

    /// How many times the ACS fixpoint has run (diagnostic). It runs on
    /// start, on [`poke`](Self::poke) and [`fast_forward`](Self::fast_forward),
    /// and after the messages that can change a rule's input — a batch
    /// delivery, an agreement decision, an agreement halt, the first
    /// message of the next epoch to open — so it grows with the epochs
    /// appended (≈ 3n each), not with the messages handled.
    pub fn fixpoint_runs(&self) -> u64 {
        self.fixpoint_runs
    }

    /// How many epochs this node opened under each trigger (diagnostic):
    /// mostly `idle` means load below one batch an epoch, `full` a
    /// saturated mempool, `joined` that peers carry the load.
    pub fn opened(&self) -> OpenCounts {
        self.opened
    }

    /// Forgets log entries below `epoch`, returning how many were
    /// dropped. The append cursor is untouched: epochs below it stay
    /// appended, their *payloads* are simply no longer retained. This is
    /// the state machine's consume hook — once it has applied the epochs
    /// below `epoch`, their slots are dead weight (any peer that needs
    /// them catches up by state transfer from a certified snapshot, not
    /// replay). The head epoch's appended slots are always kept: `epoch`
    /// is clamped to the cursor.
    ///
    /// The log is in epoch order, so the dead slots are a prefix: the
    /// call costs one comparison when the floor has not moved and one
    /// prefix drain, freeing the dropped slots' batch bodies, when it has.
    pub fn truncate_below(&mut self, epoch: u64) -> usize {
        let epoch = epoch.min(self.log_next);
        if self.log.first().is_none_or(|slot| slot.epoch >= epoch) {
            return 0;
        }
        let cut = self.log.partition_point(|slot| slot.epoch < epoch);
        let dropped = self.log.drain(..cut).map(|slot| slot.txs as usize).sum();
        self.log_txs -= dropped;
        dropped
    }

    /// Jumps the append cursor forward to `epoch` (clamped to the
    /// configured horizon) without committing the skipped epochs — the
    /// state-transfer hook: a node that installed a certified snapshot
    /// at `epoch` must never replay the prefix, and peers have already
    /// garbage-collected it anyway. Skipped epochs' protocol state (RBC
    /// instances, agreement gadgets, retained log entries) is dropped,
    /// open trace spans for them are closed, and the pipeline resumes
    /// proposing from the cursor. Returns the effects of the resumed
    /// pipeline; a no-op (empty vec) when `epoch` is at or below the
    /// cursor.
    pub fn fast_forward(&mut self, epoch: u64) -> Vec<OrderEffect> {
        let mut out = Vec::new();
        if epoch <= self.log_next {
            return out;
        }
        let target = epoch.min(self.opts.epochs);
        (self.log_next, self.log_slot) = (target, 0);
        self.truncate_below(target);
        self.next_epoch = self.next_epoch.max(target);
        self.rbc.retain(move |_, tag| *tag >= target);
        // Whether a skipped epoch took our batch is unknowable from here;
        // re-proposing could order it twice, so it is dropped.
        self.proposed = self.proposed.split_off(&target);
        let kept = self.epochs.split_off(&target);
        for (e, state) in std::mem::replace(&mut self.epochs, kept) {
            // An accepted slot delivered but not appended holds an open
            // commit span; close it so the exported trace stays balanced.
            let open = state.delivered.keys().filter(|id| state.accepted(id.index()));
            for &id in open.filter(|_| self.trace_on) {
                self.obs.span_end(self.me, TraceCtx::derive(id, e, e), TracePhase::Commit);
            }
        }
        let kept = self.open_roots.split_off(&target);
        for e in std::mem::replace(&mut self.open_roots, kept) {
            self.obs.span_end(self.me, TraceCtx::derive(self.me, e, e), TracePhase::Submit);
        }
        self.progress(&mut out);
        out
    }

    /// Whether epoch `e` is one this node still accepts messages for:
    /// not yet appended (appended epochs are garbage-collected — RBC
    /// totality and the agreement halting gadget let the others finish
    /// without us) and within the configured run (a Byzantine peer must
    /// not be able to allocate state for epochs that will never run).
    fn accepts(&self, e: u64) -> bool {
        e >= self.log_next && e < self.opts.epochs
    }

    /// Agreement messages additionally flow for *appended* epochs whose
    /// state is still retained: the halting gadget runs past the commit
    /// point, and starving it would keep every node's final epochs
    /// pinned forever. Below-cursor epochs already collected stay
    /// rejected, so this cannot re-allocate state.
    fn accepts_aba(&self, e: u64) -> bool {
        self.accepts(e) || (e < self.opts.epochs && self.epochs.contains_key(&e))
    }

    fn ensure_epoch(&mut self, e: u64) -> &mut EpochState<C> {
        let config = self.config;
        let me = self.me;
        let coin_for = &mut self.coin_for;
        let obs = &self.obs;
        let trace_on = self.trace_on;
        self.epochs.entry(e).or_insert_with(|| {
            let mut state = EpochState::new(config, me, e, coin_for);
            if trace_on {
                for (i, aba) in state.abas.iter_mut().enumerate() {
                    aba.set_trace(obs.clone(), TraceCtx::derive(NodeId::new(i), e, e));
                }
            }
            state
        })
    }

    /// Lifts RBC actions into effects; returns whether a batch was
    /// delivered into an epoch's state (the one RBC outcome the ACS rules
    /// read).
    fn lift_rbc(
        &mut self,
        actions: Vec<RbcMuxAction<u64, Vec<u8>>>,
        out: &mut Vec<OrderEffect>,
    ) -> bool {
        let mut delivered = false;
        for a in actions {
            match a {
                RbcMuxAction::Broadcast(m) => {
                    out.push(Effect::Broadcast { msg: OrderMessage::Batch(m) });
                }
                RbcMuxAction::Send { to, msg } => {
                    out.push(Effect::Send { to, msg: OrderMessage::Batch(msg) });
                }
                RbcMuxAction::Deliver { sender, tag, payload } => {
                    if self.accepts(tag) {
                        self.ensure_epoch(tag).delivered.entry(sender).or_insert(payload);
                        delivered = true;
                    }
                }
            }
        }
        delivered
    }

    /// Lifts an agreement instance's broadcasts into effects; returns
    /// whether the instance decided or halted in this step. The values
    /// themselves are read through the node's getters by the ACS rules —
    /// the flag only says that those rules have something new to read.
    fn lift_aba(epoch: u64, index: usize, ts: Vec<Transition>, out: &mut Vec<OrderEffect>) -> bool {
        let mut decided_or_halted = false;
        for t in ts {
            match t {
                Transition::Broadcast(wire) => out.push(Effect::Broadcast {
                    msg: OrderMessage::Aba { epoch, index: index as u32, wire },
                }),
                Transition::Decide(_) | Transition::Halt => decided_or_halted = true,
            }
        }
        decided_or_halted
    }

    /// Whether the pipeline can take another of this node's epochs.
    fn has_room(&self) -> bool {
        self.next_epoch < self.opts.epochs && self.in_flight() < self.opts.pipeline_depth as u64
    }

    /// Whether a peer has opened epoch `e`: this node holds broadcast or
    /// agreement state for it. Asked of `next_epoch` only, whose state
    /// cannot be this node's own. Both maps are collected per epoch and
    /// accept nothing past the horizon, so the evidence is as bounded as
    /// they are, and what a faulty peer plants for a far epoch is read
    /// only once the pipeline has reached it.
    fn peer_opened(&self, e: u64) -> bool {
        self.epochs.contains_key(&e) || self.rbc.has_tag(&e)
    }

    /// Opens epochs while the pipeline has room and one is called for.
    ///
    /// An epoch costs its Θ(n⁴) messages whatever it carries, so with
    /// room the next one opens only if nothing of ours is in flight (the
    /// depth-1 pipeline: every correct node opens the oldest unappended
    /// epoch as soon as it has appended the one before, which is all
    /// liveness and a finite horizon's wind-down need), or a full batch
    /// is waiting (a saturated node fills the pipeline), or a peer opened
    /// it (it gets its n − f proposals one hop later). A faulty peer that
    /// opens every epoch as early as it may drives the others to exactly
    /// that schedule, never past `pipeline_depth`.
    fn maybe_propose(&mut self, out: &mut Vec<OrderEffect>) -> bool {
        let mut changed = false;
        while self.has_room() {
            let e = self.next_epoch;
            let trigger = if self.in_flight() == 0 {
                self.opened.idle += 1;
                "idle"
            } else if self.pending.len() >= self.opts.batch_max {
                self.opened.full += 1;
                "full"
            } else if self.peer_opened(e) {
                self.opened.joined += 1;
                "joined"
            } else {
                break;
            };
            self.next_epoch += 1;
            let submitted = self.mempool_since.unwrap_or_else(|| self.obs.now());
            let take = self.opts.batch_max.min(self.pending.len());
            let batch: Vec<Vec<u8>> = self.pending.drain(..take).collect();
            if self.pending.is_empty() {
                // Leftover payloads keep the original queue-entry stamp;
                // an emptied mempool re-stamps at the next `submit`.
                self.mempool_since = None;
            }
            let body = encode_batch(&batch);
            self.obs.emit(self.me, || Event::BatchSubmitted {
                epoch: e,
                txs: batch.len() as u64,
                bytes: body.len() as u64,
            });
            self.obs.emit(self.me, || Event::EpochStarted { epoch: e, trigger });
            if self.trace_on {
                // The trace root opens retroactively at submission time
                // and stays open until this epoch reaches our log; the
                // batch_wait child covers submission → proposal.
                let ctx = TraceCtx::derive(self.me, e, e);
                self.obs.span_start_at(submitted, self.me, ctx, TracePhase::Submit, 0);
                self.obs.span_start_at(submitted, self.me, ctx, TracePhase::BatchWait, ctx.root);
                self.obs.span_end(self.me, ctx, TracePhase::BatchWait);
                self.open_roots.insert(e);
            }
            if !batch.is_empty() {
                self.proposed.insert(e, batch);
            }
            self.ensure_epoch(e);
            let actions = self.rbc.broadcast(e, body);
            self.lift_rbc(actions, out);
            changed = true;
        }
        changed
    }

    /// Applies the ACS wiring rules to epoch `e`.
    fn epoch_rules(&mut self, e: u64, out: &mut Vec<OrderEffect>) -> bool {
        let quorum = self.config.quorum();
        let n = self.config.n();
        let Some(state) = self.epochs.get_mut(&e) else { return false };
        let mut changed = false;

        // Rule 1: vote 1 for every delivered proposal.
        for i in 0..n {
            if !state.aba_started[i] && state.delivered.contains_key(&NodeId::new(i)) {
                state.aba_started[i] = true;
                let ts = state.abas[i].start(Value::One);
                Self::lift_aba(e, i, ts, out);
                changed = true;
            }
        }

        // Rule 2: once n − f instances decided 1, vote 0 everywhere else.
        let ones = state.abas.iter().filter(|a| a.decided() == Some(Value::One)).count();
        if ones >= quorum {
            for i in 0..n {
                if !state.aba_started[i] {
                    state.aba_started[i] = true;
                    let ts = state.abas[i].start(Value::Zero);
                    Self::lift_aba(e, i, ts, out);
                    changed = true;
                }
            }
        }

        // Rule 3: a slot is ready once decided 0, or decided 1 and
        // delivered (an accepted slot's commit span runs from here to its
        // append); the epoch is committed once every slot is ready.
        let mut readied = false;
        for i in 0..n {
            let id = NodeId::new(i);
            match (state.ready[i], state.abas[i].decided(), state.delivered.get(&id)) {
                (false, Some(Value::Zero), _) => {}
                (false, Some(Value::One), Some(body)) => {
                    state.txs += batch_tx_count(body) as u64;
                    if self.trace_on {
                        let ctx = TraceCtx::derive(id, e, e);
                        self.obs.span_start(self.me, ctx, TracePhase::Commit, ctx.root);
                    }
                }
                _ => continue,
            }
            (state.ready[i], readied) = (true, true);
        }
        if readied && state.ready.iter().all(|&r| r) {
            let (slots, txs) = ((0..n).filter(|&i| state.accepted(i)).count() as u64, state.txs);
            self.obs.emit(self.me, || Event::EpochCommitted { epoch: e, slots, txs });
        }
        changed || readied
    }

    /// Appends the head epoch's ready slots in proposer order, completes
    /// the epoch once all `n` are in, and garbage-collects everything below
    /// the cursor.
    fn append_ready(&mut self) -> bool {
        let mut changed = false;
        while let Some(state) = self.epochs.get_mut(&self.log_next) {
            let e = self.log_next;
            while state.ready.get(self.log_slot) == Some(&true) {
                let id = NodeId::new(self.log_slot);
                self.log_slot += 1;
                changed = true;
                // Batches the ACS left out are dead from here on.
                let body = state.delivered.remove(&id).filter(|_| state.accepted(id.index()));
                let Some(body) = body else { continue };
                let txs = batch_tx_count(&body);
                if txs > 0 {
                    self.log_txs += txs;
                    // The count is a body's `u32` prefix, or 1.
                    self.log.push(LogSlot { epoch: e, proposer: id, txs: txs as u32, body });
                }
                if self.trace_on {
                    let ctx = TraceCtx::derive(id, e, e);
                    self.obs.span_end(self.me, ctx, TracePhase::Commit);
                    if id == self.me && self.open_roots.remove(&e) {
                        self.obs.span_end(self.me, ctx, TracePhase::Submit);
                    }
                }
            }
            if self.log_slot < state.ready.len() {
                break;
            }
            state.delivered.clear();
            let requeue = self.proposed.remove(&e).filter(|_| !state.accepted(self.me.index()));
            if let Some(batch) = requeue {
                // Our slot decided 0 (we lagged behind n − f others): the
                // batch is in no log, so it goes back to the *front* of the
                // mempool, ahead of younger payloads.
                if self.trace_on && self.pending.is_empty() {
                    self.mempool_since = Some(self.obs.now());
                }
                for tx in batch.into_iter().rev() {
                    self.pending.push_front(tx);
                }
            }
            (self.log_next, self.log_slot) = (e + 1, 0);
            // An epoch can commit before we ever proposed it (our own
            // pipeline lagged behind the cluster); never re-propose it.
            self.next_epoch = self.next_epoch.max(self.log_next);
            let (entries, total) = (state.txs, self.log_txs as u64);
            self.obs.emit(self.me, || Event::LogDelivered { epoch: e, entries, total });
            if self.open_roots.remove(&e) {
                // Our slot decided 0: the root ends with the epoch.
                self.obs.span_end(self.me, TraceCtx::derive(self.me, e, e), TracePhase::Submit);
            }
            let keep_from = self.log_next;
            self.rbc.retain(move |_, tag| *tag >= keep_from);
        }
        // Appended epochs linger only until their agreement instances
        // halt (the halting gadget needs a few more message rounds).
        let log_next = self.log_next;
        let before = self.epochs.len();
        self.epochs.retain(|&e, s| e >= log_next || !s.all_halted());
        changed || self.epochs.len() != before
    }

    /// Drives proposal, per-epoch ACS rules, log append and wind-down to
    /// a fixpoint — the only place the ACS rules live.
    ///
    /// The rules read `delivered` (Rule 1, Rule 3), the agreement
    /// instances' `decided()` (Rule 2, Rule 3) and `is_halted()` (epoch
    /// GC, wind-down), whether state exists for the next epoch to open
    /// and whether the mempool holds a full batch (opening), and the
    /// proposal/append cursors, which only the rules themselves move. A
    /// state that is a fixpoint therefore stays one until a batch is
    /// delivered, an instance decides or halts, or the next epoch's first
    /// message arrives — [`Process::on_message`] calls this after exactly
    /// those events, and every other message costs its one instance step
    /// — or a payload is submitted, after which the host calls
    /// [`poke`](Self::poke).
    fn progress(&mut self, out: &mut Vec<OrderEffect>) {
        self.fixpoint_runs += 1;
        loop {
            let mut changed = self.maybe_propose(out);
            let live: Vec<u64> = self.epochs.keys().copied().collect();
            for e in live {
                changed |= self.epoch_rules(e, out);
            }
            changed |= self.append_ready();
            if !changed {
                break;
            }
        }
        if !self.output_emitted && self.log_next >= self.opts.epochs {
            self.output_emitted = true;
            out.push(Effect::Output(self.log().to_vec()));
        }
        if self.output_emitted && !self.halted && self.epochs.is_empty() {
            self.halted = true;
            // Wind-down: close any spans a straggler RBC instance still
            // holds open so every start in the export finds its end.
            self.rbc.finish_spans();
            out.push(Effect::Halt);
        }
    }
}

impl<C> fmt::Debug for OrderProcess<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderProcess")
            .field("me", &self.me)
            .field("next_epoch", &self.next_epoch)
            .field("log_next", &self.log_next)
            .field("log_len", &self.log_txs)
            .field("pending", &self.pending.len())
            .field("live_epochs", &self.epochs.len())
            .finish_non_exhaustive()
    }
}

impl<C: CoinScheme> Process for OrderProcess<C> {
    type Msg = OrderMessage;
    type Output = OrderLog;

    fn id(&self) -> NodeId {
        self.me
    }

    fn on_start(&mut self) -> Vec<OrderEffect> {
        let mut out = Vec::new();
        self.progress(&mut out);
        out
    }

    fn on_message(&mut self, from: NodeId, msg: &OrderMessage) -> Vec<OrderEffect> {
        if self.halted {
            return Vec::new();
        }
        let mut out = Vec::new();
        // Whether the message changed something the ACS rules read (see
        // `progress`); if not, the state is still the fixpoint it was.
        let (epoch, mut rules_input_changed) = match msg {
            OrderMessage::Batch(m) if self.accepts(m.tag) => {
                let actions = self.rbc.on_message(from, m);
                (m.tag, self.lift_rbc(actions, &mut out))
            }
            OrderMessage::Aba { epoch, index, wire }
                if self.accepts_aba(*epoch) && (*index as usize) < self.config.n() =>
            {
                let i = *index as usize;
                let ts = self.ensure_epoch(*epoch).abas[i].on_message(from, wire);
                (*epoch, Self::lift_aba(*epoch, i, ts, &mut out))
            }
            // Not an epoch or slot this node keeps state for: dropped.
            _ => return out,
        };
        // The join trigger's event: the first state held for the next
        // epoch to open. Opening it moves `next_epoch` on, so this is one
        // comparison for every other message.
        rules_input_changed |=
            epoch == self.next_epoch && self.has_room() && self.peer_opened(epoch);
        if rules_input_changed {
            self.progress(&mut out);
        }
        out
    }

    fn output(&self) -> Option<OrderLog> {
        if self.output_emitted {
            Some(self.log().to_vec())
        } else {
            None
        }
    }

    fn is_halted(&self) -> bool {
        self.halted
    }

    fn round(&self) -> u64 {
        self.epochs.values().flat_map(|s| s.abas.iter().map(|a| a.round().get())).max().unwrap_or(0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A cluster pumped by hand in FIFO order: nodes past `nodes` never
    /// take a step.
    pub(crate) struct Fifo<P> {
        pub(crate) nodes: Vec<P>,
        queue: VecDeque<(NodeId, NodeId, OrderMessage)>,
    }

    impl<P: Process<Msg = OrderMessage>> Fifo<P> {
        pub(crate) fn start(nodes: Vec<P>) -> Fifo<P> {
            let mut fifo = Fifo { nodes, queue: VecDeque::new() };
            for i in 0..fifo.nodes.len() {
                let effects = fifo.nodes[i].on_start();
                fifo.send(NodeId::new(i), effects);
            }
            fifo
        }

        pub(crate) fn send(&mut self, me: NodeId, effects: Vec<Effect<OrderMessage, P::Output>>) {
            let live = self.nodes.len();
            for effect in effects {
                match effect {
                    Effect::Broadcast { msg } => {
                        let to = (0..live).map(NodeId::new);
                        self.queue.extend(to.map(|to| (me, to, msg.clone())));
                    }
                    Effect::Send { to, msg } if to.index() < live => {
                        self.queue.push_back((me, to, msg));
                    }
                    _ => {}
                }
            }
        }

        /// Delivers the oldest message; returns its recipient, or `None`
        /// once nothing is left.
        pub(crate) fn step(&mut self) -> Option<usize> {
            let (from, to, msg) = self.queue.pop_front()?;
            let effects = self.nodes[to.index()].on_message(from, &msg);
            self.send(to, effects);
            Some(to.index())
        }
    }

    /// Nodes `0..live` of an `n = 7` cluster with a full batch for each of
    /// `epochs` epochs; nodes `live..7` are silent.
    fn seven(live: usize, epochs: u64) -> Fifo<OrderProcess<bft_coin::CommonCoin>> {
        let Ok(cfg) = Config::new(7, 2) else { unreachable!("n = 7 tolerates f = 2") };
        let opts =
            OrderOptions { batch_max: 2, pipeline_depth: 2, epochs, ..OrderOptions::default() };
        let nodes = (0..live)
            .map(|i| {
                let workload = (0..2 * epochs as u8).map(|t| vec![i as u8, t]).collect();
                OrderProcess::new(cfg, NodeId::new(i), opts, workload, |inst| {
                    bft_coin::CommonCoin::new(3, inst)
                })
            })
            .collect();
        Fifo::start(nodes)
    }

    /// Pumps until node 0 holds part of a head epoch past the first.
    fn until_mid_epoch(fifo: &mut Fifo<OrderProcess<bft_coin::CommonCoin>>) -> u64 {
        loop {
            let (head, slot) = fifo.nodes[0].append_cursor();
            let holds = fifo.nodes[0].log().slots().last().is_some_and(|s| s.epoch == head);
            if head >= 1 && slot > 0 && holds {
                return head;
            }
            assert!(fifo.step().is_some(), "no partly appended head epoch at node 0");
        }
    }

    /// Node 1's retained slots of epochs `from..`: what a node that joined
    /// at `from` must end with.
    fn slots_from(fifo: &Fifo<OrderProcess<bft_coin::CommonCoin>>, from: u64) -> Vec<LogSlot> {
        fifo.nodes[1].log().slots_from(from).to_vec()
    }

    #[test]
    fn fast_forward_past_a_partly_appended_head_epoch_resets_the_slot_cursor() {
        let mut fifo = seven(6, 3);
        let head = until_mid_epoch(&mut fifo);
        let effects = fifo.nodes[0].fast_forward(head + 1);
        fifo.send(NodeId::new(0), effects);
        // The new head starts from its first slot: nothing of the old
        // head epoch's prefix is left, and none of the new one is skipped.
        assert_eq!(fifo.nodes[0].append_cursor().0, head + 1);
        assert!(fifo.nodes[0].log().slots().iter().all(|s| s.epoch > head));
        while fifo.step().is_some() {}
        assert_eq!(fifo.nodes[0].log().slots(), &slots_from(&fifo, head + 1)[..]);
        assert!(fifo.nodes[0].is_halted());
    }

    #[test]
    fn truncate_below_keeps_the_head_epochs_appended_prefix() {
        let mut fifo = seven(6, 3);
        let head = until_mid_epoch(&mut fifo);
        let node = &mut fifo.nodes[0];
        let before = node.log().to_vec();
        let below = before.iter().filter(|entry| entry.epoch < head).count();
        // A floor past the cursor is clamped to it.
        assert_eq!(node.truncate_below(head + 2), below);
        assert_eq!(node.log().to_vec(), before[below..]);
        assert!(!node.log().is_empty());
        while fifo.step().is_some() {}
        assert_eq!(fifo.nodes[0].log().slots(), &slots_from(&fifo, head)[..]);
    }

    #[test]
    fn batch_codec_round_trips() {
        let txs = vec![b"alpha".to_vec(), Vec::new(), vec![0u8; 300]];
        assert_eq!(decode_batch(&encode_batch(&txs)), txs);
        assert_eq!(decode_batch(&encode_batch(&[])), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn malformed_batch_decodes_as_one_opaque_payload() {
        // A count of 2 with only one short, truncated element.
        let mut bad = Vec::new();
        put_u32(&mut bad, 2);
        put_u32(&mut bad, 100);
        bad.push(7);
        assert_eq!(decode_batch(&bad), vec![bad.clone()]);
        // Trailing garbage after a well-formed batch is also opaque.
        let mut trailing = encode_batch(&[vec![1]]);
        trailing.push(9);
        assert_eq!(decode_batch(&trailing), vec![trailing.clone()]);
    }

    #[test]
    fn submit_applies_backpressure_at_the_pipeline_bound() {
        let Ok(cfg) = Config::new(4, 1) else { return };
        let opts =
            OrderOptions { batch_max: 2, pipeline_depth: 3, epochs: 8, ..OrderOptions::default() };
        let mut p = OrderProcess::new(cfg, NodeId::new(0), opts, Vec::new(), |i| {
            bft_coin::CommonCoin::new(1, i)
        });
        for i in 0..6u8 {
            assert_eq!(p.submit(vec![i]), Ok(()));
        }
        assert_eq!(p.submit(vec![9]), Err(Backpressure { pending: 6, capacity: 6 }));
    }

    #[test]
    fn order_message_codec_round_trips_and_rejects_bad_discriminants() {
        let aba = OrderMessage::Aba {
            epoch: 5,
            index: 2,
            wire: Wire {
                sender: NodeId::new(1),
                tag: bracha::StepTag::new(bft_types::Round::new(3), bft_types::Step::Echo),
                msg: bft_rbc::RbcMessage::Ready(bracha::StepPayload::Initial(Value::One)),
            },
        };
        let bytes = aba.to_bytes();
        assert_eq!(OrderMessage::from_bytes(&bytes), Ok(aba));
        assert!(matches!(
            OrderMessage::from_bytes(&[7]),
            Err(DecodeError::Invalid { what: "order message discriminant", .. })
        ));
    }

    /// Byte-exact encodings of both variants: a change here is a wire
    /// break and must bump `frame::VERSION`.
    #[test]
    fn golden_order_message_encoding() {
        let batch = OrderMessage::Batch(RbcMuxMessage {
            sender: NodeId::new(2),
            tag: 7,
            msg: bft_rbc::RbcMessage::Send(vec![0xAA, 0xBB]),
        });
        #[rustfmt::skip]
        let batch_bytes = vec![
            0,                      // OrderMessage discriminant: Batch
            2, 0, 0, 0,             // sender: NodeId 2, u32 LE
            7, 0, 0, 0, 0, 0, 0, 0, // tag: epoch 7, u64 LE
            0,                      // RbcMessage discriminant: Send
            2, 0, 0, 0, 0xAA, 0xBB, // batch body: u32 LE length, bytes
        ];
        let aba = OrderMessage::Aba {
            epoch: 5,
            index: 3,
            wire: Wire {
                sender: NodeId::new(1),
                tag: bracha::StepTag::new(bft_types::Round::new(2), bft_types::Step::Echo),
                msg: bft_rbc::RbcMessage::Ready(bracha::StepPayload::Ready {
                    value: Value::One,
                    flagged: false,
                }),
            },
        };
        #[rustfmt::skip]
        let aba_bytes = vec![
            1,                      // OrderMessage discriminant: Aba
            5, 0, 0, 0, 0, 0, 0, 0, // epoch 5, u64 LE
            3, 0, 0, 0,             // proposer index 3, u32 LE
            1, 0, 0, 0,             // wire sender: NodeId 1
            2, 0, 0, 0, 0, 0, 0, 0, // wire round 2
            1,                      // wire step: Echo
            2,                      // RbcMessage discriminant: Ready
            2,                      // StepPayload discriminant: Ready
            1,                      // value bit: One
            0,                      // flagged: false
        ];
        for (msg, bytes) in [(batch, batch_bytes), (aba, aba_bytes)] {
            assert_eq!(msg.to_bytes(), bytes);
            assert_eq!(OrderMessage::from_bytes(&bytes), Ok(msg));
        }
    }

    #[test]
    fn traced_sim_run_assembles_complete_balanced_trace_trees() {
        use bft_obs::{Obs, TraceSink};
        use bft_sim::{UniformDelay, World, WorldConfig};
        let Ok(cfg) = Config::new(4, 1) else { return };
        let opts =
            OrderOptions { batch_max: 2, pipeline_depth: 2, epochs: 3, ..OrderOptions::default() };
        let (obs, sink) = Obs::new(TraceSink::new());
        let mut world = World::new(WorldConfig::new(4), UniformDelay::new(1, 5, 7));
        world.set_observer(obs.clone());
        for id in cfg.nodes() {
            let workload = (0..6).map(|i| vec![id.index() as u8, i]).collect();
            world.add_process(Box::new(
                OrderProcess::new(cfg, id, opts, workload, |inst| {
                    bft_coin::CommonCoin::new(9, inst)
                })
                .with_obs(obs.clone()),
            ));
        }
        let report = world.run();
        assert!(report.all_correct_decided());

        let sink = sink.lock();
        let asm = sink.assembler();
        assert_eq!(asm.duplicate_starts(), 0);
        assert_eq!(asm.unmatched_ends(), 0);
        let open: Vec<_> = asm.spans().filter(|s| s.end.is_none()).collect();
        assert!(open.is_empty(), "all spans must be closed, open: {open:?}");
        // One trace per (epoch, proposer) slot: every slot runs an ABA.
        assert_eq!(asm.trace_count(), 3 * 4);
        // Every proposer's own trace has a closed root with a critical
        // path that accounts for the full submit → commit latency.
        for id in cfg.nodes() {
            for e in 0..3u64 {
                let ctx = TraceCtx::derive(id, e, e);
                let root = asm.root(ctx.trace).expect("root span exists");
                let end = root.end.expect("root span closed");
                let parts = asm.critical_path(ctx.trace).expect("critical path");
                let total: u64 = parts.iter().map(|(_, d)| *d).sum();
                assert_eq!(total, end - root.start, "path must sum to root duration");
            }
        }
    }

    #[test]
    fn fast_forward_jumps_the_cursor_and_resumes_the_pipeline_ahead() {
        let Ok(cfg) = Config::new(4, 1) else { return };
        let opts =
            OrderOptions { batch_max: 2, pipeline_depth: 2, epochs: 6, ..OrderOptions::default() };
        let workload = (0..8u8).map(|i| vec![i]).collect();
        let mut p = OrderProcess::new(cfg, NodeId::new(0), opts, workload, |i| {
            bft_coin::CommonCoin::new(1, i)
        });
        let _ = p.on_start(); // proposes epochs 0 and 1, filling the pipeline
        assert_eq!(p.in_flight(), 2);
        let effects = p.fast_forward(3);
        assert_eq!(p.committed_epochs(), 3);
        // The skipped epochs' RBC state is gone and the pipeline resumed
        // proposing from the new cursor.
        let proposed: Vec<u64> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Broadcast { msg: OrderMessage::Batch(m) } if m.sender == NodeId::new(0) => {
                    Some(m.tag)
                }
                _ => None,
            })
            .collect();
        assert!(proposed.iter().all(|&t| t >= 3), "only post-cursor proposals: {proposed:?}");
        assert!(!proposed.is_empty(), "pipeline must resume after the jump");
        // Re-entrant and backward jumps are no-ops.
        assert!(p.fast_forward(3).is_empty());
        assert!(p.fast_forward(1).is_empty());
    }

    #[test]
    fn fast_forward_past_the_horizon_clamps_and_emits_the_truncated_log() {
        let Ok(cfg) = Config::new(4, 1) else { return };
        let opts =
            OrderOptions { batch_max: 2, pipeline_depth: 2, epochs: 4, ..OrderOptions::default() };
        let mut p = OrderProcess::new(cfg, NodeId::new(0), opts, vec![vec![1]], |i| {
            bft_coin::CommonCoin::new(1, i)
        });
        let _ = p.on_start();
        let effects = p.fast_forward(9);
        assert_eq!(p.committed_epochs(), 4);
        assert!(effects.iter().any(|e| matches!(e, Effect::Output(log) if log.is_empty())));
        assert!(p.is_halted());
        assert_eq!(p.truncate_below(4), 0);
    }

    #[test]
    fn zero_epoch_run_outputs_an_empty_log_immediately() {
        let Ok(cfg) = Config::new(4, 1) else { return };
        let opts = OrderOptions { epochs: 0, ..OrderOptions::default() };
        let mut p = OrderProcess::new(cfg, NodeId::new(0), opts, Vec::new(), |i| {
            bft_coin::CommonCoin::new(1, i)
        });
        let effects = p.on_start();
        assert!(effects.iter().any(|e| matches!(e, Effect::Output(log) if log.is_empty())));
        assert!(p.is_halted());
    }
}
