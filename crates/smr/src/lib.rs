//! `bft-smr` — a replicated key-value state machine over atomic
//! broadcast, with RBC-agreed checkpoints, log truncation and peer
//! state transfer.
//!
//! [`bft_order::OrderProcess`] gives every correct node the same totally
//! ordered log; this crate makes the log *useful* and keeps it *finite*:
//!
//! * **Deterministic apply** — each committed `(epoch, proposer)` slot
//!   carries a canonically-encoded [`KvOp`] (put / del / cas). Every
//!   correct node folds the slot into a [`KvState`] the same way, so the
//!   FNV-chained state hash is identical cluster-wide. Malformed
//!   payloads (a Byzantine proposer controls those bytes) are folded
//!   into the hash chain but applied as no-ops, keeping all correct
//!   nodes byte-identical without trusting the payload.
//! * **A consumed log** — a replica needs the state, not the log that
//!   produced it, so each epoch's slots are dropped from the ordered log
//!   as soon as they are applied ([`OrderProcess::truncate_below`]): the
//!   log holds only what is committed and not yet applied, zero once
//!   apply has caught up.
//! * **Checkpoints** — every `checkpoint_interval` epochs (and at the
//!   run horizon) a node snapshots its state, RBC-broadcasts the
//!   snapshot hash, and waits for `2f + 1` *matching* delivered hashes —
//!   a checkpoint certificate. A snapshot is a [`KvState`] clone whose
//!   values are shared with the live map (`Arc`s that apply replaces,
//!   never mutates), so it costs the keys, not a serialised copy; older
//!   snapshots and checkpoint-RBC state are dropped at certification,
//!   bounding retained state by the checkpoint interval instead of the
//!   run length.
//! * **State transfer** — a node that restarts (or falls behind a
//!   certified checkpoint it can no longer replay to, because its peers
//!   consumed that history) fetches the snapshot from its peers in
//!   erasure-coded chunks: each peer sends its own Reed–Solomon fragment
//!   of the snapshot, `k = n − 2f` verified fragments reconstruct it,
//!   and the restored state's hash is checked against the certificate
//!   before the state is installed and the order cursor fast-forwarded
//!   ([`OrderProcess::fast_forward`]). Catch-up therefore costs
//!   `O(n · B)` bytes for a `B`-byte snapshot — the coded-RBC
//!   dissemination bound, not full-log replay.
//!
//! The whole machine is a sans-io [`Process`], so it runs unmodified on
//! the deterministic simulator and the TCP transport; [`SmrMessage`] carries the wire arms through the v2 codec.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bft_coin::CoinScheme;
use bft_ec::{encode as ec_encode, reconstruct_verified, Fragment, VerifiedFragment};
use bft_obs::{Event, Obs, TraceCtx, TracePhase};
use bft_order::{
    Backpressure, LogEntry, LogView, OrderLog, OrderMessage, OrderOptions, OrderProcess,
};
use bft_rbc::{RbcKind, RbcMux, RbcMuxAction, RbcMuxMessage};
use bft_types::hash::{Fnv64, Fnv64x4};
use bft_types::wire::{put_u32, put_u64, Codec, DecodeError, Reader};
use bft_types::{Config, Effect, NodeId, Process};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// One operation of the replicated key-value service, with a canonical
/// binary encoding (discriminant byte, then `u32`-length-prefixed
/// fields).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Bind `key` to `value`.
    Put {
        /// The key to bind.
        key: Vec<u8>,
        /// The value to store.
        value: Vec<u8>,
    },
    /// Remove `key` if present.
    Del {
        /// The key to remove.
        key: Vec<u8>,
    },
    /// Compare-and-swap: bind `key` to `value` only if it is currently
    /// bound to `expect`.
    Cas {
        /// The key to conditionally rebind.
        key: Vec<u8>,
        /// The value the key must currently hold.
        expect: Vec<u8>,
        /// The replacement value.
        value: Vec<u8>,
    },
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// A `u32`-length-prefixed field, borrowed. `take` checks the length
/// against the buffer, so a hostile prefix never drives an allocation.
fn take_bytes<'a>(r: &mut Reader<'a>) -> Option<&'a [u8]> {
    let len = r.u32().ok()? as usize;
    r.take(len).ok()
}

/// A decoded [`KvOp`] whose fields borrow the payload: what apply reads,
/// so that a put's value is copied once, straight into the map.
enum OpRef<'a> {
    Put { key: &'a [u8], value: &'a [u8] },
    Del { key: &'a [u8] },
    Cas { key: &'a [u8], expect: &'a [u8], value: &'a [u8] },
}

impl<'a> OpRef<'a> {
    fn decode(bytes: &'a [u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let op = match r.u8().ok()? {
            0 => OpRef::Put { key: take_bytes(&mut r)?, value: take_bytes(&mut r)? },
            1 => OpRef::Del { key: take_bytes(&mut r)? },
            2 => OpRef::Cas {
                key: take_bytes(&mut r)?,
                expect: take_bytes(&mut r)?,
                value: take_bytes(&mut r)?,
            },
            _ => return None,
        };
        r.finish().ok()?;
        Some(op)
    }
}

impl KvOp {
    /// Canonical encoding (the transaction payload submitted for
    /// ordering).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            KvOp::Put { key, value } => {
                out.push(0);
                put_bytes(&mut out, key);
                put_bytes(&mut out, value);
            }
            KvOp::Del { key } => {
                out.push(1);
                put_bytes(&mut out, key);
            }
            KvOp::Cas { key, expect, value } => {
                out.push(2);
                put_bytes(&mut out, key);
                put_bytes(&mut out, expect);
                put_bytes(&mut out, value);
            }
        }
        out
    }

    /// Total decoder: any malformed payload — hostile discriminant, bad
    /// length prefix, trailing bytes — is `None`, which the state
    /// machine applies as a deterministic no-op.
    pub fn decode(bytes: &[u8]) -> Option<KvOp> {
        Some(match OpRef::decode(bytes)? {
            OpRef::Put { key, value } => KvOp::Put { key: key.to_vec(), value: value.to_vec() },
            OpRef::Del { key } => KvOp::Del { key: key.to_vec() },
            OpRef::Cas { key, expect, value } => {
                KvOp::Cas { key: key.to_vec(), expect: expect.to_vec(), value: value.to_vec() }
            }
        })
    }
}

/// A deterministic seeded KV workload for one node: a put/cas/del mix
/// over a small shared key space, encoded with [`KvOp::encode`]. The
/// same `(seed, node, count)` always yields the same payloads, so runs
/// on different substrates submit byte-identical transactions — the
/// basis of the sim-vs-TCP differential tests and the `--kv-workload`
/// mode of the binaries.
pub fn seeded_workload(seed: u64, node: NodeId, count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let x = Fnv64::new()
                .update_u64(seed)
                .update_u64(node.index() as u64)
                .update_u64(i as u64)
                .finish();
            let key = format!("k{}", x % 16).into_bytes();
            let value = x.to_le_bytes().to_vec();
            match x % 4 {
                0 | 1 => KvOp::Put { key, value },
                2 => KvOp::Cas { key, expect: value.clone(), value: vec![b'c'] },
                _ => KvOp::Del { key },
            }
            .encode()
        })
        .collect()
}

/// The striped hash ([`Fnv64x4`]) of one value's bytes: what the tx chain
/// and the state digest fold in place of the bytes.
fn value_digest(bytes: &[u8]) -> u64 {
    Fnv64x4::new().update(bytes).finish()
}

/// A bound value: an immutable shared buffer and its digest, computed
/// from the same bytes when they were bound.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Value {
    bytes: Arc<[u8]>,
    digest: u64,
}

/// What the canonical walk emits for each value.
#[derive(Clone, Copy)]
enum ValueForm {
    /// The value's bytes: the snapshot.
    Bytes,
    /// The value's digest: the state hash.
    Digest,
}

/// The deterministic key-value state: the map, an FNV hash chain folded
/// over every applied slot (well-formed or not), and the apply cursor.
///
/// Two correct nodes that applied the same log prefix are byte-identical
/// here — the property the checkpoint certificates rest on.
///
/// Values are immutable shared buffers: a put or cas binds a fresh `Arc`
/// and never writes through an existing one, so a clone (a checkpoint)
/// copies the keys, shares every value, and stays the state it was when
/// taken whatever is applied afterwards. Each value keeps its digest
/// beside it, so neither the chain nor the state hash reads value bytes
/// twice.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvState {
    map: BTreeMap<Vec<u8>, Value>,
    chain: u64,
    applied_epoch: u64,
    applied_slots: u64,
}

impl KvState {
    /// The empty state at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Next epoch to apply (epochs `0..applied_epoch` are folded in).
    pub fn applied_epoch(&self) -> u64 {
        self.applied_epoch
    }

    /// Total log slots folded into the chain.
    pub fn applied_slots(&self) -> u64 {
        self.applied_slots
    }

    /// The running FNV hash chain over applied slots.
    pub fn chain(&self) -> u64 {
        self.chain
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The value currently bound to `key`.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(|value| &*value.bytes)
    }

    /// Binds `key` to a copy of `value`, whose digest is `digest`,
    /// replacing (not mutating) any value a snapshot may share.
    fn bind(&mut self, key: &[u8], value: &[u8], digest: u64) {
        let value = Value { bytes: Arc::from(value), digest };
        match self.map.get_mut(key) {
            Some(slot) => *slot = value,
            None => {
                self.map.insert(key.to_vec(), value);
            }
        }
    }

    /// Folds one committed log entry into the state. The hash chain
    /// folds the epoch, the proposer and the op's digest form: its kind
    /// byte, its key (length-prefixed) and the digest ([`Fnv64x4`]) of
    /// each value field — or, for a payload that does not parse, the kind
    /// byte `0xff` and the digest of the raw tx. Each tx byte is hashed
    /// once, and a value's digest is the one its binding keeps. Byzantine
    /// garbage cannot make correct nodes diverge — it just wastes a slot.
    ///
    /// Entries must arrive in log order within `applied_epoch`; the caller
    /// ([`SmrProcess`]) seals epochs with [`KvState::seal_epoch`].
    pub fn apply_tx(&mut self, epoch: u64, proposer: NodeId, tx: &[u8]) {
        let mut link = Fnv64::resume(self.chain);
        link.update_u64(epoch).update_u64(proposer.index() as u64);
        let keyed = |link: &mut Fnv64, kind: u8, key: &[u8]| {
            link.update(&[kind]).update_u64(key.len() as u64).update(key);
        };
        match OpRef::decode(tx) {
            Some(OpRef::Put { key, value }) => {
                let digest = value_digest(value);
                keyed(&mut link, 0, key);
                link.update_u64(digest);
                self.bind(key, value, digest);
            }
            Some(OpRef::Del { key }) => {
                keyed(&mut link, 1, key);
                self.map.remove(key);
            }
            Some(OpRef::Cas { key, expect, value }) => {
                let digest = value_digest(value);
                keyed(&mut link, 2, key);
                link.update_u64(value_digest(expect)).update_u64(digest);
                if self.get(key) == Some(expect) {
                    self.bind(key, value, digest);
                }
            }
            None => {
                link.update(&[0xff]).update_u64(value_digest(tx));
            }
        }
        self.chain = link.finish();
        self.applied_slots += 1;
    }

    /// [`apply_tx`](Self::apply_tx) for an owned log entry.
    pub fn apply_slot(&mut self, entry: &LogEntry) {
        self.apply_tx(entry.epoch, entry.proposer, &entry.tx);
    }

    /// Marks the current epoch fully applied and advances the cursor.
    pub fn seal_epoch(&mut self) {
        self.applied_epoch += 1;
    }

    /// Feeds the canonical walk to `emit` piece by piece: the cursor, slot
    /// count, chain and key count, then each entry in key order as its
    /// length-prefixed key, its value length and the value in `form`. The
    /// one definition [`snapshot`](Self::snapshot) collects and
    /// [`state_hash`](Self::state_hash) folds.
    fn canonical(&self, form: ValueForm, mut emit: impl FnMut(&[u8])) {
        emit(&self.applied_epoch.to_le_bytes());
        emit(&self.applied_slots.to_le_bytes());
        emit(&self.chain.to_le_bytes());
        emit(&(self.map.len() as u32).to_le_bytes());
        for (k, v) in &self.map {
            emit(&(k.len() as u32).to_le_bytes());
            emit(k);
            emit(&(v.bytes.len() as u32).to_le_bytes());
            match form {
                ValueForm::Bytes => emit(&v.bytes),
                ValueForm::Digest => emit(&v.digest.to_le_bytes()),
            }
        }
    }

    /// The canonical snapshot: cursor, slot count, hash chain, then the
    /// sorted key-value pairs with `u32` length prefixes. Identical
    /// states serialize byte-identically (the map iterates in key
    /// order).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.canonical(ValueForm::Bytes, |bytes| out.extend_from_slice(bytes));
        out
    }

    /// Total decoder for [`KvState::snapshot`] bytes; each value's digest
    /// is computed from the bytes read. State transfer checks the
    /// restored state's [`state_hash`](Self::state_hash) against the
    /// checkpoint certificate before installing it, so a `None` here, or
    /// a hash that does not match, means a corrupt reconstruction.
    pub fn restore(bytes: &[u8]) -> Option<KvState> {
        let mut r = Reader::new(bytes);
        let applied_epoch = r.u64().ok()?;
        let applied_slots = r.u64().ok()?;
        let chain = r.u64().ok()?;
        let count = r.u32().ok()? as usize;
        // Each entry costs at least its two 4-byte length prefixes, so a
        // count the remaining bytes cannot hold is malformed — reject
        // before looping.
        if count > r.remaining() / 8 {
            return None;
        }
        let mut map = BTreeMap::new();
        for _ in 0..count {
            let k = take_bytes(&mut r)?;
            let v = take_bytes(&mut r)?;
            map.insert(k.to_vec(), Value { bytes: Arc::from(v), digest: value_digest(v) });
        }
        r.finish().ok()?;
        Some(KvState { map, chain, applied_epoch, applied_slots })
    }

    /// The state fingerprint checkpoints certify: the striped hash of the
    /// canonical walk with each value's digest in place of its bytes, so
    /// it costs O(keys), not O(state bytes).
    pub fn state_hash(&self) -> u64 {
        let mut hash = Fnv64x4::new();
        self.canonical(ValueForm::Digest, |bytes| {
            hash.update(bytes);
        });
        hash.finish()
    }
}

/// Tuning knobs for the replicated state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmrOptions {
    /// The underlying atomic-broadcast options (epoch horizon, batch
    /// size, pipeline depth, RBC kind).
    pub order: OrderOptions,
    /// Checkpoint every this many epochs. A checkpoint is also always
    /// taken at the run horizon, so a restarting node can always catch
    /// up to the final state by fetching certified snapshots.
    pub checkpoint_interval: u64,
}

impl Default for SmrOptions {
    fn default() -> Self {
        SmrOptions { order: OrderOptions::default(), checkpoint_interval: 4 }
    }
}

/// A wire message of the replicated-service layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmrMessage {
    /// An atomic-broadcast message (batch RBC or slot agreement).
    Order(OrderMessage),
    /// A checkpoint-hash RBC message; the tag is the checkpoint epoch,
    /// the payload the 8-byte state hash.
    Ckpt(RbcMuxMessage<u64, Vec<u8>>),
    /// "What is the latest certified checkpoint?" — sent by a
    /// recovering node; receivers reply with [`SmrMessage::CkptInfo`]
    /// now and after every future certification.
    CkptQuery,
    /// A peer's view of the latest certified checkpoint.
    CkptInfo {
        /// The certified checkpoint epoch.
        epoch: u64,
        /// The certified state hash.
        hash: u64,
    },
    /// "Send me your erasure-coded fragment of the snapshot at `epoch`."
    ChunkReq {
        /// The certified checkpoint epoch being fetched.
        epoch: u64,
    },
    /// One peer's Reed–Solomon fragment of a certified snapshot (the
    /// fragment at the peer's own codeword index).
    Chunk {
        /// The checkpoint epoch the snapshot covers.
        epoch: u64,
        /// The Merkle commitment the fragment verifies under.
        root: u64,
        /// The fragment itself (index, shard, inclusion proof).
        fragment: Fragment,
    },
}

impl fmt::Display for SmrMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmrMessage::Order(m) => write!(f, "order/{m}"),
            SmrMessage::Ckpt(m) => write!(f, "ckpt[e{}] from {}", m.tag, m.sender),
            SmrMessage::CkptQuery => f.write_str("ckpt-query"),
            SmrMessage::CkptInfo { epoch, hash } => write!(f, "ckpt-info[e{epoch}] {hash:016x}"),
            SmrMessage::ChunkReq { epoch } => write!(f, "chunk-req[e{epoch}]"),
            SmrMessage::Chunk { epoch, fragment, .. } => {
                write!(f, "chunk[e{epoch}]#{}", fragment.index)
            }
        }
    }
}

impl Codec for SmrMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SmrMessage::Order(m) => {
                out.push(0);
                m.encode(out);
            }
            SmrMessage::Ckpt(m) => {
                out.push(1);
                m.encode(out);
            }
            SmrMessage::CkptQuery => out.push(2),
            SmrMessage::CkptInfo { epoch, hash } => {
                out.push(3);
                put_u64(out, *epoch);
                put_u64(out, *hash);
            }
            SmrMessage::ChunkReq { epoch } => {
                out.push(4);
                put_u64(out, *epoch);
            }
            SmrMessage::Chunk { epoch, root, fragment } => {
                out.push(5);
                put_u64(out, *epoch);
                put_u64(out, *root);
                fragment.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(SmrMessage::Order(OrderMessage::decode(r)?)),
            1 => Ok(SmrMessage::Ckpt(RbcMuxMessage::decode(r)?)),
            2 => Ok(SmrMessage::CkptQuery),
            3 => Ok(SmrMessage::CkptInfo { epoch: r.u64()?, hash: r.u64()? }),
            4 => Ok(SmrMessage::ChunkReq { epoch: r.u64()? }),
            5 => Ok(SmrMessage::Chunk {
                epoch: r.u64()?,
                root: r.u64()?,
                fragment: Fragment::decode(r)?,
            }),
            got => Err(DecodeError::Invalid { what: "smr message discriminant", got: got as u64 }),
        }
    }

    fn trace_hint(&self) -> u64 {
        match self {
            SmrMessage::Order(m) => m.trace_hint(),
            _ => 0,
        }
    }
}

/// The terminal result of one node's run: the state fingerprint after
/// every epoch up to the horizon is folded in. Identical at all correct
/// nodes — whether they applied every slot live or installed certified
/// snapshots along the way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmrOutput {
    /// The final snapshot hash.
    pub state_hash: u64,
    /// Epochs folded into the state (the run horizon).
    pub epochs: u64,
    /// Live keys in the final map.
    pub keys: u64,
}

/// An in-progress snapshot fetch: the certified target and the per-peer
/// verified fragments collected so far (each peer's first, keyed by
/// sender, with the root it claimed).
struct FetchState {
    epoch: u64,
    hash: u64,
    frags: BTreeMap<NodeId, (u64, VerifiedFragment)>,
}

/// A checkpoint: the state at a boundary together with its
/// [`KvState::state_hash`], computed once when the snapshot is taken (or
/// verified, for a fetched one). The state is a [`KvState`] clone that
/// shares its values with the live map, so a checkpoint costs its keys
/// and map nodes; the canonical bytes are built only to serve a fetch.
struct Snapshot {
    hash: u64,
    state: KvState,
}

type SmrEffect = Effect<SmrMessage, SmrOutput>;

/// One node of the replicated key-value service, packaged as a
/// [`Process`] so it runs unmodified on both substrates.
///
/// A fresh node starts applying from epoch 0. A *recovering* replacement
/// (see [`SmrProcess::recovering`]) instead suppresses live apply,
/// queries its peers for the latest certified checkpoint, installs it by
/// erasure-coded state transfer, and only then resumes applying — it
/// never replays epochs below the checkpoint it installed.
pub struct SmrProcess<C> {
    config: Config,
    me: NodeId,
    opts: SmrOptions,
    order: OrderProcess<C>,
    state: KvState,
    /// Checkpoint-hash RBC, of the Bracha kind.
    ckpt: RbcMux<u64, Vec<u8>>,
    /// Checkpoint-hash deliveries per `(epoch, hash)` above the current
    /// certificate, tallied as their `Deliver`s arrive.
    ckpt_votes: BTreeMap<(u64, u64), usize>,
    /// Own snapshots by checkpoint epoch; pruned below the latest
    /// certificate once one exists.
    snapshots: BTreeMap<u64, Snapshot>,
    /// The highest boundary already proposed (or skipped by a restore).
    ckpt_cursor: u64,
    /// The latest checkpoint certificate `(epoch, hash)` this node
    /// holds, from `2f + 1` matching checkpoint-hash deliveries.
    cert: Option<(u64, u64)>,
    /// Latest `CkptInfo` per peer (for `f + 1` bootstrap certification).
    peer_info: BTreeMap<NodeId, (u64, u64)>,
    /// Peers that asked to be notified of future certifications.
    subscribers: BTreeSet<NodeId>,
    recovering: bool,
    fetch: Option<FetchState>,
    output_emitted: bool,
    obs: Obs,
    trace_on: bool,
}

impl<C: CoinScheme> SmrProcess<C> {
    /// Creates a participant whose mempool holds `workload` encoded
    /// [`KvOp`] payloads.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_interval` is zero (the order layer asserts
    /// its own knobs).
    pub fn new(
        config: Config,
        me: NodeId,
        opts: SmrOptions,
        workload: Vec<Vec<u8>>,
        coin_for: impl FnMut(u64) -> C + Send + 'static,
    ) -> Self {
        assert!(opts.checkpoint_interval >= 1, "checkpoint_interval must be at least 1");
        let order = OrderProcess::new(config, me, opts.order, workload, coin_for);
        SmrProcess {
            config,
            me,
            opts,
            order,
            state: KvState::new(),
            ckpt: RbcMux::new(config, me, RbcKind::Bracha),
            ckpt_votes: BTreeMap::new(),
            snapshots: BTreeMap::new(),
            ckpt_cursor: 0,
            cert: None,
            peer_info: BTreeMap::new(),
            subscribers: BTreeSet::new(),
            recovering: false,
            fetch: None,
            output_emitted: false,
            obs: Obs::disabled(),
            trace_on: false,
        }
    }

    /// Marks this node a recovering replacement: it will not apply any
    /// slot until it has installed a certified checkpoint from its
    /// peers, so it provably never replays truncated history. Because a
    /// checkpoint is always taken at the run horizon, recovery always
    /// terminates.
    pub fn recovering(mut self, on: bool) -> Self {
        self.recovering = on;
        if on {
            // Span ids are deterministic in (trace, node, phase), so a
            // replacement's spans would collide with whatever its
            // pre-crash incarnation already emitted: observe events
            // only. Works in either builder order w.r.t. `with_obs`.
            self.trace_on = false;
            if self.obs.enabled() {
                self.order = self.order.with_obs(self.obs.sans_spans());
            }
        }
        self
    }

    /// Attaches an observer: state-machine lifecycle events are emitted
    /// here and ordering/RBC events at the wrapped layers. The
    /// checkpoint-hash RBC is deliberately *not* observed — its spans
    /// would collide with the batch RBC's (both derive from
    /// `(proposer, epoch)`), and its metrics would double-count the
    /// broadcast layer.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        let order_obs = if self.recovering { obs.sans_spans() } else { obs.clone() };
        self.order = self.order.with_obs(order_obs);
        self.trace_on = obs.enabled() && !self.recovering;
        self.obs = obs;
        self
    }

    /// Queues an encoded operation for ordering (see
    /// [`OrderProcess::submit`]).
    pub fn submit(&mut self, tx: Vec<u8>) -> Result<(), Backpressure> {
        self.order.submit(tx)
    }

    /// The replicated state as applied so far.
    pub fn state(&self) -> &KvState {
        &self.state
    }

    /// The latest checkpoint certificate this node holds.
    pub fn certificate(&self) -> Option<(u64, u64)> {
        self.cert
    }

    /// Epochs the order layer has fully appended.
    pub fn committed_epochs(&self) -> u64 {
        self.order.committed_epochs()
    }

    /// The order layer's retained log: the entries appended but not yet
    /// applied, since apply consumes the log epoch by epoch. Whenever
    /// apply has caught up with the order layer only the appended prefix
    /// of the unfinished head epoch is left; a recovering node retains
    /// what it commits until the state transfer lands.
    pub fn log(&self) -> LogView<'_> {
        self.order.log()
    }

    /// Live RBC instances across the batch and checkpoint muxes.
    pub fn rbc_instance_count(&self) -> usize {
        self.order.rbc_instance_count() + self.ckpt.instance_count()
    }

    /// Bytes of erasure-coded fragments buffered across live RBC
    /// instances.
    pub fn rbc_fragment_bytes(&self) -> usize {
        self.order.rbc_fragment_bytes()
    }

    /// Epochs whose ACS state the order layer still retains.
    pub fn live_epochs(&self) -> usize {
        self.order.live_epochs()
    }

    /// Retained agreement-instance state across all live epochs.
    pub fn retained_aba_count(&self) -> usize {
        self.order.retained_aba_count()
    }

    /// Whether `e` is a checkpoint boundary (a positive multiple of the
    /// interval within the horizon, or the horizon itself).
    fn is_boundary(&self, e: u64) -> bool {
        let horizon = self.opts.order.epochs;
        e > 0 && e <= horizon && (e == horizon || e.is_multiple_of(self.opts.checkpoint_interval))
    }

    /// The smallest checkpoint boundary strictly above `after`.
    fn next_boundary_after(&self, after: u64) -> Option<u64> {
        let horizon = self.opts.order.epochs;
        if after >= horizon {
            return None;
        }
        let next_multiple = (after / self.opts.checkpoint_interval + 1)
            .saturating_mul(self.opts.checkpoint_interval);
        Some(next_multiple.min(horizon))
    }

    fn lift_order(
        &mut self,
        effects: Vec<Effect<OrderMessage, OrderLog>>,
        out: &mut Vec<SmrEffect>,
    ) {
        for e in effects {
            match e {
                Effect::Send { to, msg } => {
                    out.push(Effect::Send { to, msg: SmrMessage::Order(msg) });
                }
                Effect::Broadcast { msg } => {
                    out.push(Effect::Broadcast { msg: SmrMessage::Order(msg) });
                }
                // The service layer owns both the terminal output and
                // liveness: peers must stay responsive after their own
                // horizon to serve checkpoint queries and chunks.
                Effect::Output(_) | Effect::Halt => {}
            }
        }
    }

    fn lift_ckpt(&mut self, actions: Vec<RbcMuxAction<u64, Vec<u8>>>, out: &mut Vec<SmrEffect>) {
        for a in actions {
            match a {
                RbcMuxAction::Broadcast(m) => {
                    out.push(Effect::Broadcast { msg: SmrMessage::Ckpt(m) });
                }
                RbcMuxAction::Send { to, msg } => {
                    out.push(Effect::Send { to, msg: SmrMessage::Ckpt(msg) });
                }
                // A collected instance can be re-created by a late message
                // and deliver again: only epochs above the certificate
                // count.
                RbcMuxAction::Deliver { tag, payload, .. } => {
                    let floor = self.cert.map_or(0, |(e, _)| e);
                    let Ok(bytes) = <[u8; 8]>::try_from(payload.as_slice()) else { continue };
                    if tag > floor {
                        *self.ckpt_votes.entry((tag, u64::from_le_bytes(bytes))).or_insert(0) += 1;
                    }
                }
            }
        }
    }

    /// Applies every epoch the order layer has appended, sealing epochs
    /// in order, snapshotting at checkpoint boundaries and consuming the
    /// applied slots from the log.
    fn apply_committed(&mut self) {
        if self.recovering {
            return;
        }
        while self.state.applied_epoch() < self.order.committed_epochs() {
            let e = self.state.applied_epoch();
            // The log is in epoch order: epoch `e` is one contiguous run
            // of slots, each applied straight out of its batch body.
            let slots = self.order.log().slots_from(e);
            for slot in slots.iter().take_while(|slot| slot.epoch() == e) {
                let proposer = slot.proposer();
                for (i, tx) in slot.txs().enumerate() {
                    self.state.apply_tx(e, proposer, tx);
                    let bytes = tx.len() as u64;
                    self.obs.emit(self.me, || Event::SlotApplied { epoch: e, proposer, bytes });
                    if self.trace_on && i == 0 {
                        // One instantaneous apply span per (epoch, proposer)
                        // slot, anchored in the batch's causal trace.
                        let ctx = TraceCtx::derive(proposer, e, e);
                        self.obs.span_start(self.me, ctx, TracePhase::Apply, ctx.root);
                        self.obs.span_end(self.me, ctx, TracePhase::Apply);
                    }
                }
            }
            self.state.seal_epoch();
            let sealed = self.state.applied_epoch();
            if self.is_boundary(sealed) {
                let state = self.state.clone();
                self.snapshots.insert(sealed, Snapshot { hash: state.state_hash(), state });
            }
            // Applied slots are dead: the state (and, at a boundary, the
            // snapshot a lagging peer fetches) is all anyone reads again.
            self.order.truncate_below(sealed);
        }
    }

    /// RBC-broadcasts the state hash for every boundary the apply cursor
    /// has crossed.
    fn maybe_checkpoint(&mut self, out: &mut Vec<SmrEffect>) {
        while let Some(c) = self.next_boundary_after(self.ckpt_cursor) {
            if c > self.state.applied_epoch() {
                break;
            }
            self.ckpt_cursor = c;
            let Some(hash) = self.snapshots.get(&c).map(|snap| snap.hash) else { continue };
            self.obs.emit(self.me, || Event::CheckpointProposed { epoch: c, hash });
            let actions = self.ckpt.broadcast(c, hash.to_le_bytes().to_vec());
            self.lift_ckpt(actions, out);
        }
    }

    /// Adopts a certificate once `2f + 1` checkpoint-hash deliveries
    /// agree on one hash for a boundary newer than the current
    /// certificate.
    fn maybe_certify(&mut self, out: &mut Vec<SmrEffect>) {
        let need = self.config.decide_threshold();
        let Some((&(epoch, hash), &support)) =
            self.ckpt_votes.iter().filter(|&(_, &c)| c >= need).max_by_key(|&(&(e, _), _)| e)
        else {
            return;
        };
        self.adopt_certificate(epoch, hash, support as u64, out);
    }

    fn adopt_certificate(&mut self, epoch: u64, hash: u64, support: u64, out: &mut Vec<SmrEffect>) {
        self.cert = Some((epoch, hash));
        self.obs.emit(self.me, || Event::CheckpointCertified { epoch, hash, support });
        if let Some(own) = self.snapshots.get(&epoch) {
            if own.hash != hash {
                // The cluster certified a state this node does not hold
                // — with a deterministic apply this is unreachable for a
                // correct node, so surface it instead of serving a
                // snapshot that contradicts the certificate.
                self.obs.emit(self.me, || Event::InvariantViolated {
                    round: 0,
                    detail: format!("own snapshot at epoch {epoch} contradicts certificate"),
                });
                self.snapshots.remove(&epoch);
            }
        }
        // Certified history is dead: prune snapshots and checkpoint RBC
        // state below the certificate.
        self.snapshots.retain(|&b, _| b >= epoch);
        self.ckpt.retain(move |_, tag| *tag >= epoch);
        self.ckpt_votes.retain(|&(e, _), _| e > epoch);
        for peer in self.subscribers.iter().copied().filter(|&p| p != self.me) {
            out.push(Effect::Send { to: peer, msg: SmrMessage::CkptInfo { epoch, hash } });
        }
    }

    /// Starts (or retargets) a snapshot fetch when a certificate covers
    /// epochs this node can no longer commit live.
    fn maybe_fetch(&mut self, out: &mut Vec<SmrEffect>) {
        let Some((target, hash)) = self.best_target() else { return };
        if target <= self.state.applied_epoch() {
            return;
        }
        if !self.recovering && self.order.committed_epochs() >= target {
            // The gap is already committed locally; live apply covers it.
            return;
        }
        if self.fetch.as_ref().is_some_and(|f| f.epoch >= target) {
            return;
        }
        self.fetch = Some(FetchState { epoch: target, hash, frags: BTreeMap::new() });
        self.obs.emit(self.me, || Event::StateTransferStarted { epoch: target });
        out.push(Effect::Broadcast { msg: SmrMessage::ChunkReq { epoch: target } });
    }

    /// The newest checkpoint this node can trust: its own `2f + 1`
    /// certificate, or a boundary `f + 1` distinct peers report
    /// identically (at least one of them is correct).
    fn best_target(&self) -> Option<(u64, u64)> {
        let amplify = self.config.bv_amplify_threshold();
        let mut counts: BTreeMap<(u64, u64), usize> = BTreeMap::new();
        for &(e, h) in self.peer_info.values() {
            *counts.entry((e, h)).or_insert(0) += 1;
        }
        let peer_best = counts
            .into_iter()
            .filter(|&(_, c)| c >= amplify)
            .map(|(eh, _)| eh)
            .max_by_key(|&(e, _)| e);
        [self.cert, peer_best].into_iter().flatten().max_by_key(|&(e, _)| e)
    }

    fn on_query(&mut self, from: NodeId, out: &mut Vec<SmrEffect>) {
        if from == self.me {
            return;
        }
        self.subscribers.insert(from);
        if let Some((epoch, hash)) = self.cert {
            out.push(Effect::Send { to: from, msg: SmrMessage::CkptInfo { epoch, hash } });
        }
    }

    fn on_info(&mut self, from: NodeId, epoch: u64, hash: u64) {
        if from == self.me || !self.is_boundary(epoch) {
            return;
        }
        let entry = self.peer_info.entry(from).or_insert((epoch, hash));
        if epoch >= entry.0 {
            *entry = (epoch, hash);
        }
    }

    fn on_chunk_req(&mut self, from: NodeId, epoch: u64, out: &mut Vec<SmrEffect>) {
        if from == self.me {
            return;
        }
        self.subscribers.insert(from);
        let Some((ce, ch)) = self.cert else { return };
        if epoch != ce {
            // Stale target — point the requester at the newest
            // certificate instead.
            out.push(Effect::Send { to: from, msg: SmrMessage::CkptInfo { epoch: ce, hash: ch } });
            return;
        }
        let Some(snap) = self.snapshots.get(&ce) else { return };
        let (n, k) = (self.config.n(), self.config.reconstruct_threshold());
        let Ok(coded) = ec_encode(&snap.state.snapshot(), n, k) else { return };
        let Some(fragment) = coded.fragments.into_iter().nth(self.me.index()) else { return };
        out.push(Effect::Send {
            to: from,
            msg: SmrMessage::Chunk { epoch, root: coded.root, fragment },
        });
    }

    fn on_chunk(
        &mut self,
        from: NodeId,
        epoch: u64,
        root: u64,
        fragment: &Fragment,
        out: &mut Vec<SmrEffect>,
    ) {
        let (n, k) = (self.config.n(), self.config.reconstruct_threshold());
        let installed = {
            let Some(fetch) = self.fetch.as_mut() else { return };
            // One chunk per peer per target, first wins: a replay must
            // not buy a shard hash and a reconstruction attempt per copy.
            if fetch.epoch != epoch
                || fragment.index as usize != from.index()
                || fetch.frags.contains_key(&from)
            {
                return;
            }
            let Some(verified) = VerifiedFragment::check(root, n, k, fragment) else { return };
            fetch.frags.insert(from, (root, verified));
            // Group collected fragments by claimed root; the first root
            // with k fragments whose reconstruction matches the
            // certified hash wins. A Byzantine peer lying about the root
            // only isolates its own fragment in a group that can never
            // both reconstruct and match the certificate.
            let roots: BTreeSet<u64> = fetch.frags.values().map(|&(r, _)| r).collect();
            let mut found = None;
            for r in roots {
                let frags = || fetch.frags.values().filter(|(fr, _)| *fr == r).map(|(_, f)| f);
                if frags().count() < k {
                    continue;
                }
                let Ok(decoded) = reconstruct_verified(r, n, k, frags()) else { continue };
                let bytes = decoded.payload;
                let Some(state) = KvState::restore(&bytes) else { continue };
                if state.state_hash() != fetch.hash || state.applied_epoch() != fetch.epoch {
                    continue;
                }
                found = Some((Snapshot { hash: fetch.hash, state }, bytes.len() as u64));
                break;
            }
            found
        };
        let Some((snapshot, size)) = installed else { return };
        let target = epoch;
        self.fetch = None;
        self.state = snapshot.state.clone();
        self.recovering = false;
        self.snapshots.insert(target, snapshot);
        self.ckpt_cursor = self.ckpt_cursor.max(target);
        let effects = self.order.fast_forward(target);
        self.lift_order(effects, out);
        self.obs.emit(self.me, || Event::StateTransferCompleted { epoch: target, bytes: size });
    }

    fn maybe_output(&mut self, out: &mut Vec<SmrEffect>) {
        if !self.output_emitted && self.state.applied_epoch() >= self.opts.order.epochs {
            self.output_emitted = true;
            out.push(Effect::Output(self.snapshot_output()));
        }
    }

    fn snapshot_output(&self) -> SmrOutput {
        // The horizon is a checkpoint boundary, so the snapshot taken (or
        // installed) at this applied epoch holds this very state and has
        // hashed it already. Only a snapshot `adopt_certificate` dropped
        // as contradicting is streamed again.
        let epoch = self.state.applied_epoch();
        let state_hash =
            self.snapshots.get(&epoch).map_or_else(|| self.state.state_hash(), |snap| snap.hash);
        SmrOutput { state_hash, epochs: self.state.applied_epoch(), keys: self.state.len() as u64 }
    }

    /// Drives apply (and with it truncation), checkpointing,
    /// certification and fetch after any batch of order effects or
    /// service messages.
    fn advance(&mut self, out: &mut Vec<SmrEffect>) {
        self.apply_committed();
        self.maybe_checkpoint(out);
        self.maybe_certify(out);
        self.maybe_fetch(out);
        self.maybe_output(out);
    }
}

impl<C> fmt::Debug for SmrProcess<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmrProcess")
            .field("me", &self.me)
            .field("applied_epoch", &self.state.applied_epoch())
            .field("applied_slots", &self.state.applied_slots())
            .field("cert", &self.cert)
            .field("recovering", &self.recovering)
            .finish_non_exhaustive()
    }
}

impl<C: CoinScheme> Process for SmrProcess<C> {
    type Msg = SmrMessage;
    type Output = SmrOutput;

    fn id(&self) -> NodeId {
        self.me
    }

    fn on_start(&mut self) -> Vec<SmrEffect> {
        let mut out = Vec::new();
        if self.recovering {
            out.push(Effect::Broadcast { msg: SmrMessage::CkptQuery });
        }
        let effects = self.order.on_start();
        self.lift_order(effects, &mut out);
        self.advance(&mut out);
        out
    }

    fn on_message(&mut self, from: NodeId, msg: &SmrMessage) -> Vec<SmrEffect> {
        let mut out = Vec::new();
        match msg {
            SmrMessage::Order(m) => {
                let committed = self.order.committed_epochs();
                let effects = self.order.on_message(from, m);
                self.lift_order(effects, &mut out);
                // Apply, checkpoint, certify, fetch and output read
                // nothing else an order message can move, and `advance`
                // already ran after the last event.
                if self.order.committed_epochs() == committed {
                    return out;
                }
            }
            SmrMessage::Ckpt(m) => {
                // Only valid boundaries may allocate checkpoint-RBC
                // state — a Byzantine tag must not grow the mux.
                if self.is_boundary(m.tag) {
                    let actions = self.ckpt.on_message(from, m);
                    self.lift_ckpt(actions, &mut out);
                }
            }
            SmrMessage::CkptQuery => self.on_query(from, &mut out),
            SmrMessage::CkptInfo { epoch, hash } => self.on_info(from, *epoch, *hash),
            SmrMessage::ChunkReq { epoch } => self.on_chunk_req(from, *epoch, &mut out),
            SmrMessage::Chunk { epoch, root, fragment } => {
                self.on_chunk(from, *epoch, *root, fragment, &mut out);
            }
        }
        self.advance(&mut out);
        out
    }

    fn output(&self) -> Option<SmrOutput> {
        if self.output_emitted {
            Some(self.snapshot_output())
        } else {
            None
        }
    }

    fn is_halted(&self) -> bool {
        // Never: a node that halted could not serve checkpoint queries
        // or snapshot chunks to a recovering peer. Substrates end runs
        // on output completion, not halts.
        false
    }

    fn round(&self) -> u64 {
        self.order.round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_coin::CommonCoin;
    use bft_sim::{UniformDelay, World, WorldConfig};

    fn entry(epoch: u64, proposer: usize, tx: Vec<u8>) -> LogEntry {
        LogEntry { epoch, proposer: NodeId::new(proposer), tx }
    }

    #[test]
    fn kv_op_codec_round_trips_and_rejects_garbage() {
        let ops = [
            KvOp::Put { key: b"k".to_vec(), value: b"v".to_vec() },
            KvOp::Del { key: Vec::new() },
            KvOp::Cas { key: b"k".to_vec(), expect: b"v".to_vec(), value: vec![0; 300] },
        ];
        for op in ops {
            assert_eq!(KvOp::decode(&op.encode()), Some(op));
        }
        assert_eq!(KvOp::decode(&[]), None);
        assert_eq!(KvOp::decode(&[9]), None);
        // Hostile length prefix far beyond the buffer.
        let mut bad = vec![1];
        put_u32(&mut bad, u32::MAX);
        assert_eq!(KvOp::decode(&bad), None);
        // Trailing garbage after a well-formed op.
        let mut trailing = KvOp::Del { key: b"k".to_vec() }.encode();
        trailing.push(0);
        assert_eq!(KvOp::decode(&trailing), None);
    }

    #[test]
    fn apply_is_deterministic_and_malformed_slots_are_hash_only_noops() {
        let slots = vec![
            entry(0, 0, KvOp::Put { key: b"a".to_vec(), value: b"1".to_vec() }.encode()),
            entry(0, 1, vec![0xff, 0xee]), // malformed: must not diverge
            entry(
                0,
                2,
                KvOp::Cas { key: b"a".to_vec(), expect: b"1".to_vec(), value: b"2".to_vec() }
                    .encode(),
            ),
            entry(
                0,
                3,
                KvOp::Cas { key: b"a".to_vec(), expect: b"9".to_vec(), value: b"3".to_vec() }
                    .encode(),
            ),
            entry(0, 3, KvOp::Del { key: b"gone".to_vec() }.encode()),
        ];
        let mut a = KvState::new();
        let mut b = KvState::new();
        for s in &slots {
            a.apply_slot(s);
            b.apply_slot(s);
        }
        a.seal_epoch();
        b.seal_epoch();
        assert_eq!(a, b);
        assert_eq!(a.state_hash(), b.state_hash());
        assert_eq!(a.get(b"a"), Some(b"2".as_slice()), "cas applies only on match");
        assert_eq!(a.applied_slots(), 5, "malformed slots still consume the chain");
        // Dropping the malformed slot changes the chain: the hash covers
        // raw bytes, not just well-formed ops.
        let mut c = KvState::new();
        for s in slots.iter().filter(|s| KvOp::decode(&s.tx).is_some()) {
            c.apply_slot(s);
        }
        c.seal_epoch();
        assert_ne!(a.state_hash(), c.state_hash());
    }

    /// Serial FNV-1a from `state`, one byte at a time.
    fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            state = (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        state
    }

    /// Serial FNV-1a from `state` over one little-endian word.
    fn word(state: u64, w: u64) -> u64 {
        fnv1a(state, &w.to_le_bytes())
    }

    /// The striped FNV-1a definition, one byte at a time and without
    /// `Fnv64x4`: lane `i % 4` takes byte `i`, then one serial chain folds
    /// the four lanes and the length.
    fn striped(bytes: &[u8]) -> u64 {
        let basis = 0xcbf2_9ce4_8422_2325;
        let mut lanes = [basis; 4];
        for (i, &b) in bytes.iter().enumerate() {
            lanes[i % 4] = fnv1a(lanes[i % 4], &[b]);
        }
        let folded = lanes.iter().fold(basis, |h, lane| word(h, *lane));
        word(folded, bytes.len() as u64)
    }

    /// The chain after one tx, by the definition: serial FNV-1a from
    /// `chain` over the epoch, the proposer and the op's digest form —
    /// kind byte, key length and key, then the striped hash of each value
    /// field — or `0xff` and the striped hash of a tx that does not parse.
    fn chain_link(chain: u64, epoch: u64, proposer: NodeId, tx: &[u8]) -> u64 {
        let h = word(word(chain, epoch), proposer.index() as u64);
        let keyed = |kind: u8, key: &[u8]| fnv1a(word(fnv1a(h, &[kind]), key.len() as u64), key);
        match KvOp::decode(tx) {
            Some(KvOp::Put { key, value }) => word(keyed(0, &key), striped(&value)),
            Some(KvOp::Del { key }) => keyed(1, &key),
            Some(KvOp::Cas { key, expect, value }) => {
                word(word(keyed(2, &key), striped(&expect)), striped(&value))
            }
            None => word(fnv1a(h, &[0xff]), striped(tx)),
        }
    }

    /// The state digest by the definition, read off snapshot bytes: the
    /// striped hash of the 28-byte header and, per entry, the key length,
    /// the key, the value length and the striped hash of the value.
    fn digest_of_snapshot(bytes: &[u8]) -> u64 {
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let mut stream = bytes[..28].to_vec();
        let mut at = 28;
        while at < bytes.len() {
            let key_len = u32_at(at);
            stream.extend_from_slice(&bytes[at..at + 4 + key_len + 4]);
            at += 4 + key_len;
            let value_len = u32_at(at);
            let value = &bytes[at + 4..at + 4 + value_len];
            stream.extend_from_slice(&striped(value).to_le_bytes());
            at += 4 + value_len;
        }
        striped(&stream)
    }

    #[test]
    fn snapshot_restore_round_trips_and_rejects_corruption() {
        let mut s = KvState::new();
        for i in 0..10u8 {
            s.apply_slot(&entry(0, 0, KvOp::Put { key: vec![i], value: vec![i, i] }.encode()));
        }
        s.seal_epoch();
        let snap = s.snapshot();
        // The restored state — map, chain, cursor and every value's
        // recomputed digest — is the live one.
        assert_eq!(KvState::restore(&snap), Some(s.clone()));
        assert_eq!(digest_of_snapshot(&snap), s.state_hash());
        assert_eq!(KvState::restore(&snap[..snap.len() - 1]), None, "truncated");
        let mut trailing = snap.clone();
        trailing.push(0);
        assert_eq!(KvState::restore(&trailing), None, "trailing bytes");
        // One value byte altered still parses, but not to this state.
        let mut altered = snap.clone();
        if let Some(b) = altered.last_mut() {
            *b ^= 1;
        }
        let restored = KvState::restore(&altered).expect("well-formed");
        assert_ne!(restored.state_hash(), s.state_hash(), "value byte altered");
        // Hostile entry count.
        let mut hostile = Vec::new();
        put_u64(&mut hostile, 1);
        put_u64(&mut hostile, 1);
        put_u64(&mut hostile, 7);
        put_u32(&mut hostile, u32::MAX);
        assert_eq!(KvState::restore(&hostile), None);
    }

    #[test]
    fn streamed_state_hash_equals_the_hash_of_the_snapshot_bytes() {
        for seed in 0..8u64 {
            let mut s = KvState::new();
            assert_eq!(s.state_hash(), digest_of_snapshot(&s.snapshot()));
            let workload = seeded_workload(seed, NodeId::new(seed as usize % 4), 64);
            for (i, tx) in workload.iter().enumerate() {
                s.apply_tx(s.applied_epoch(), NodeId::new(i % 4), tx);
                if i % 8 == 7 {
                    s.seal_epoch();
                }
                let bytes = s.snapshot();
                assert_eq!(s.state_hash(), digest_of_snapshot(&bytes), "seed {seed}, op {i}");
                // Restored digests are the live ones.
                assert_eq!(KvState::restore(&bytes).as_ref(), Some(&s), "seed {seed}, op {i}");
            }
            assert!(!s.is_empty(), "seed {seed}: the mix must leave keys to hash");
        }
    }

    #[test]
    fn snapshot_hash_and_tx_chain_follow_the_striped_definition() {
        let me = NodeId::new(2);
        let mut s = KvState::new();
        assert_eq!(s.state_hash(), digest_of_snapshot(&s.snapshot()));
        let mut txs = seeded_workload(5, me, 16);
        // A malformed tx, and a value whose length ends mid-lane.
        txs.insert(3, vec![0xff, 0xee]);
        let odd: Vec<u8> = (0..1001).map(|i| (i * 7) as u8).collect();
        txs.push(KvOp::Put { key: b"odd".to_vec(), value: odd }.encode());
        for (i, tx) in txs.iter().enumerate() {
            let before = s.chain;
            let epoch = s.applied_epoch();
            s.apply_tx(epoch, me, tx);
            assert_eq!(s.chain, chain_link(before, epoch, me, tx), "op {i}: the chain link");
            if i % 4 == 3 {
                s.seal_epoch();
            }
            assert_eq!(s.state_hash(), digest_of_snapshot(&s.snapshot()), "op {i}");
        }
    }

    #[test]
    fn state_transfer_rejects_a_snapshot_with_one_value_byte_altered() {
        let Ok(cfg) = Config::new(4, 1) else { return };
        let (n, k) = (cfg.n(), cfg.reconstruct_threshold());
        let mut certified = KvState::new();
        for tx in seeded_workload(9, NodeId::new(1), 32) {
            certified.apply_tx(certified.applied_epoch(), NodeId::new(1), &tx);
        }
        let epoch = 4;
        for _ in 0..epoch {
            certified.seal_epoch();
        }
        assert!(!certified.is_empty());
        let good = certified.snapshot();
        let mut altered = good.clone();
        if let Some(b) = altered.last_mut() {
            *b ^= 1;
        }
        // Feeds `k` peers' fragments of `bytes` to a node fetching the
        // certified checkpoint; returns the epoch it then has applied.
        let fetch = |bytes: &[u8]| {
            let mut p =
                SmrProcess::new(cfg, NodeId::new(0), SmrOptions::default(), Vec::new(), |i| {
                    CommonCoin::new(1, i)
                });
            let hash = certified.state_hash();
            p.fetch = Some(FetchState { epoch, hash, frags: BTreeMap::new() });
            let coded = ec_encode(bytes, n, k).expect("valid geometry");
            for peer in (1..=k).map(NodeId::new) {
                let fragment = coded.fragments[peer.index()].clone();
                let _ =
                    p.on_message(peer, &SmrMessage::Chunk { epoch, root: coded.root, fragment });
            }
            p.state().applied_epoch()
        };
        assert_eq!(fetch(&good), epoch, "the certified snapshot installs");
        assert_eq!(fetch(&altered), 0, "a snapshot one value byte off is rejected");
    }

    #[test]
    fn a_snapshot_keeps_its_bytes_through_later_overwrites_and_deletes() {
        let me = NodeId::new(0);
        let put = |key: &[u8], value: &[u8]| {
            KvOp::Put { key: key.to_vec(), value: value.to_vec() }.encode()
        };
        let mut s = KvState::new();
        for i in 0..4u8 {
            s.apply_tx(0, me, &put(&[i], &[i; 8]));
        }
        s.seal_epoch();
        let snap = s.clone();
        let (bytes, hash) = (snap.snapshot(), snap.state_hash());

        // Every way a live value can change: put over it, a matching cas,
        // a delete, and a new key.
        s.apply_tx(1, me, &put(&[0], b"new"));
        let cas = KvOp::Cas { key: vec![1], expect: vec![1; 8], value: b"swapped".to_vec() };
        s.apply_tx(1, me, &cas.encode());
        s.apply_tx(1, me, &KvOp::Del { key: vec![2] }.encode());
        s.apply_tx(1, me, &put(&[9], b"added"));
        s.seal_epoch();
        assert_eq!(s.get(&[1]), Some(b"swapped".as_slice()), "the cas must match");
        assert_ne!(s.snapshot(), bytes);

        assert_eq!(snap.snapshot(), bytes, "the snapshot moved with the live state");
        assert_eq!(snap.state_hash(), hash);
        assert_eq!(snap.get(&[0]), Some([0u8; 8].as_slice()));
        assert_eq!(KvState::restore(&bytes), Some(snap));
    }

    #[test]
    fn smr_message_codec_round_trips_and_rejects_bad_discriminants() {
        let msgs = [
            SmrMessage::CkptQuery,
            SmrMessage::CkptInfo { epoch: 8, hash: 0xdead_beef },
            SmrMessage::ChunkReq { epoch: 4 },
            SmrMessage::Chunk {
                epoch: 4,
                root: 99,
                fragment: Fragment {
                    index: 2,
                    total_len: 32,
                    shard: vec![1, 2, 3].into(),
                    proof: vec![5, 6],
                },
            },
        ];
        for m in msgs {
            assert_eq!(SmrMessage::from_bytes(&m.to_bytes()), Ok(m));
        }
        assert!(matches!(
            SmrMessage::from_bytes(&[9]),
            Err(DecodeError::Invalid { what: "smr message discriminant", .. })
        ));
    }

    /// Byte-exact encodings of all six variants: a change here is a wire
    /// break and must bump `frame::VERSION`.
    #[test]
    fn golden_smr_message_encoding() {
        let ckpt = RbcMuxMessage {
            sender: NodeId::new(1),
            tag: 4,
            msg: bft_rbc::RbcMessage::Echo(vec![9]),
        };
        let fragment =
            Fragment { index: 2, total_len: 300, shard: vec![7, 8].into(), proof: vec![6] };
        #[rustfmt::skip]
        let cases = [
            (SmrMessage::Order(OrderMessage::Batch(ckpt.clone())), vec![
                0,                      // SmrMessage discriminant: Order
                0,                      // OrderMessage discriminant: Batch
                1, 0, 0, 0,             // sender: NodeId 1, u32 LE
                4, 0, 0, 0, 0, 0, 0, 0, // tag: epoch 4, u64 LE
                1,                      // RbcMessage discriminant: Echo
                1, 0, 0, 0, 9,          // payload: u32 LE length, bytes
            ]),
            (SmrMessage::Ckpt(ckpt), vec![
                1,                      // SmrMessage discriminant: Ckpt
                1, 0, 0, 0,             // sender: NodeId 1
                4, 0, 0, 0, 0, 0, 0, 0, // tag: checkpoint epoch 4
                1,                      // RbcMessage discriminant: Echo
                1, 0, 0, 0, 9,          // payload: u32 LE length, bytes
            ]),
            (SmrMessage::CkptQuery, vec![2]),
            (SmrMessage::CkptInfo { epoch: 8, hash: 0x0102_0304_0506_0708 }, vec![
                3,                      // SmrMessage discriminant: CkptInfo
                8, 0, 0, 0, 0, 0, 0, 0, // epoch 8, u64 LE
                8, 7, 6, 5, 4, 3, 2, 1, // hash, u64 LE
            ]),
            (SmrMessage::ChunkReq { epoch: 4 }, vec![
                4,                      // SmrMessage discriminant: ChunkReq
                4, 0, 0, 0, 0, 0, 0, 0, // epoch 4, u64 LE
            ]),
            (SmrMessage::Chunk { epoch: 4, root: 0xAB, fragment }, vec![
                5,                         // SmrMessage discriminant: Chunk
                4, 0, 0, 0, 0, 0, 0, 0,    // epoch 4, u64 LE
                0xAB, 0, 0, 0, 0, 0, 0, 0, // Merkle root, u64 LE
                2, 0,                      // fragment index 2, u16 LE
                44, 1, 0, 0,               // total_len 300, u32 LE
                2, 0, 0, 0, 7, 8,          // shard: u32 LE length, bytes
                1, 0,                      // proof count 1, u16 LE
                6, 0, 0, 0, 0, 0, 0, 0,    // proof hash 6, u64 LE
            ]),
        ];
        for (msg, bytes) in cases {
            assert_eq!(msg.to_bytes(), bytes);
            assert_eq!(SmrMessage::from_bytes(&bytes), Ok(msg));
        }
    }

    #[test]
    fn repeated_chunk_from_one_peer_keeps_the_first_and_is_not_reverified() {
        let Ok(cfg) = Config::new(4, 1) else { return };
        let mut p = SmrProcess::new(cfg, NodeId::new(0), SmrOptions::default(), Vec::new(), |i| {
            CommonCoin::new(1, i)
        });
        let (n, k) = (cfg.n(), cfg.reconstruct_threshold());
        let Ok(first) = ec_encode(b"one snapshot", n, k) else { return };
        let Ok(second) = ec_encode(b"another snapshot", n, k) else { return };
        p.fetch = Some(FetchState { epoch: 4, hash: 0, frags: BTreeMap::new() });
        let peer = NodeId::new(2);
        let chunk = |coded: &bft_ec::Coded| SmrMessage::Chunk {
            epoch: 4,
            root: coded.root,
            fragment: coded.fragments[peer.index()].clone(),
        };
        let held = |p: &SmrProcess<CommonCoin>| -> Vec<(NodeId, u64)> {
            p.fetch.iter().flat_map(|f| f.frags.iter().map(|(id, (r, _))| (*id, *r))).collect()
        };
        let _ = p.on_message(peer, &chunk(&first));
        assert_eq!(held(&p), vec![(peer, first.root)]);
        // A replay, and a different (valid) chunk from the same peer, are
        // both dropped before verification: the first one stands.
        let _ = p.on_message(peer, &chunk(&first));
        let _ = p.on_message(peer, &chunk(&second));
        assert_eq!(held(&p), vec![(peer, first.root)]);
    }

    #[test]
    fn checkpoint_tally_counts_deliveries_above_the_certificate_only() {
        let Ok(cfg) = Config::new(4, 1) else { return };
        let order = OrderOptions { epochs: 8, ..OrderOptions::default() };
        let opts = SmrOptions { order, checkpoint_interval: 2 };
        let mut p =
            SmrProcess::new(cfg, NodeId::new(0), opts, Vec::new(), |i| CommonCoin::new(1, i));
        // Three peers' Readys make node 0 deliver `sender`'s `tag` instance.
        let deliver = |p: &mut SmrProcess<CommonCoin>, sender: usize, tag: u64, payload: &[u8]| {
            for from in 1..4 {
                let msg = bft_rbc::RbcMessage::Ready(payload.to_vec());
                let m = RbcMuxMessage { sender: NodeId::new(sender), tag, msg };
                let _ = p.on_message(NodeId::new(from), &SmrMessage::Ckpt(m));
            }
        };
        let (h, other) = (0x1122_3344_5566_7788u64, 0x99u64);
        deliver(&mut p, 1, 3, &h.to_le_bytes());
        assert!(p.ckpt_votes.is_empty(), "epoch 3 is not a boundary");
        deliver(&mut p, 1, 2, &[7; 7]);
        assert!(p.ckpt_votes.is_empty(), "a hash is 8 bytes");
        deliver(&mut p, 1, 4, &h.to_le_bytes());
        deliver(&mut p, 1, 6, &other.to_le_bytes());
        let tally =
            |p: &SmrProcess<CommonCoin>| p.ckpt_votes.clone().into_iter().collect::<Vec<_>>();
        assert_eq!(tally(&p), vec![((4, h), 1), ((6, other), 1)]);
        assert_eq!(p.certificate(), None);
        deliver(&mut p, 2, 4, &h.to_le_bytes());
        deliver(&mut p, 3, 4, &h.to_le_bytes());
        assert_eq!(p.certificate(), Some((4, h)));
        assert_eq!(tally(&p), vec![((6, other), 1)], "certification at 4 prunes the tally to it");
        // Deliveries at or below the certificate, including by instances
        // a late message re-creates after collection, count for nothing.
        deliver(&mut p, 1, 2, &other.to_le_bytes());
        deliver(&mut p, 1, 4, &other.to_le_bytes());
        deliver(&mut p, 0, 4, &other.to_le_bytes());
        assert_eq!(tally(&p), vec![((6, other), 1)]);
        assert_eq!(p.certificate(), Some((4, h)));
    }

    fn kv_workload(id: NodeId, count: usize) -> Vec<Vec<u8>> {
        (0..count)
            .map(|i| {
                let key = vec![b'k', (i % 5) as u8];
                match (id.index() + i) % 3 {
                    0 => KvOp::Put { key, value: vec![id.index() as u8, i as u8] }.encode(),
                    1 => KvOp::Cas { key, expect: vec![id.index() as u8, i as u8], value: vec![7] }
                        .encode(),
                    _ => KvOp::Del { key }.encode(),
                }
            })
            .collect()
    }

    #[test]
    fn sim_cluster_agrees_on_state_and_certifies_checkpoints() {
        let Ok(cfg) = Config::new(4, 1) else { return };
        let opts = SmrOptions {
            order: OrderOptions {
                batch_max: 2,
                pipeline_depth: 2,
                epochs: 6,
                ..OrderOptions::default()
            },
            checkpoint_interval: 2,
        };
        let mut world = World::new(WorldConfig::new(4), UniformDelay::new(1, 9, 11));
        for id in cfg.nodes() {
            world.add_process(Box::new(SmrProcess::new(cfg, id, opts, kv_workload(id, 12), |i| {
                CommonCoin::new(3, i)
            })));
        }
        let report = world.run();
        assert!(report.all_correct_decided(), "all nodes must output");
        assert!(report.agreement_holds(), "state hashes must match");
        let output = report.unanimous_output().expect("unanimous output");
        assert_eq!(output.epochs, 6);
    }

    type Node = SmrProcess<CommonCoin>;

    fn node(cfg: Config, id: NodeId, opts: SmrOptions) -> Node {
        SmrProcess::new(cfg, id, opts, kv_workload(id, 12), |i| CommonCoin::new(3, i))
    }

    /// Starts the `start` nodes and delivers messages in FIFO order until
    /// none is left; messages to a node not in `live` are dropped.
    /// Returns the output each node emitted, when it emitted it.
    fn pump(nodes: &mut [Node], start: &[usize], live: &[usize]) -> BTreeMap<usize, SmrOutput> {
        let mut queue = std::collections::VecDeque::new();
        let mut emitted = BTreeMap::new();
        let mut steps: Vec<(usize, Vec<SmrEffect>)> =
            start.iter().map(|&i| (i, nodes[i].on_start())).collect();
        loop {
            for (from, effects) in steps.drain(..) {
                for e in effects {
                    match e {
                        Effect::Send { to, msg } => queue.push_back((from, to.index(), msg)),
                        Effect::Broadcast { msg } => {
                            queue.extend(live.iter().map(|&to| (from, to, msg.clone())));
                        }
                        Effect::Output(output) => {
                            emitted.insert(from, output);
                        }
                        Effect::Halt => {}
                    }
                }
            }
            let Some((from, to, msg)) = queue.pop_front() else { return emitted };
            if live.contains(&to) {
                steps.push((to, nodes[to].on_message(NodeId::new(from), &msg)));
            }
        }
    }

    /// The output's state hash — as emitted at the horizon, when older
    /// snapshots may still be held, and as read back at the end — against
    /// the state's own streamed one.
    fn assert_output_hash_is_fresh(node: &Node, emitted: Option<&SmrOutput>, horizon: u64) {
        let output = node.output().expect("the node reached the horizon");
        assert_eq!(Some(&output), emitted, "node {:?}", node.me);
        assert_eq!(output.epochs, horizon);
        assert_eq!(output.state_hash, node.state().state_hash(), "node {:?}", node.me);
    }

    #[test]
    fn output_hash_equals_a_fresh_state_hash_at_every_horizon() {
        let Ok(cfg) = Config::new(4, 1) else { return };
        // A horizon on a multiple of the interval, and one between two.
        for (epochs, interval) in [(6, 2), (5, 2), (3, 4)] {
            let opts = SmrOptions {
                order: OrderOptions {
                    batch_max: 2,
                    pipeline_depth: 2,
                    epochs,
                    ..OrderOptions::default()
                },
                checkpoint_interval: interval,
            };
            let mut nodes: Vec<Node> = cfg.nodes().map(|id| node(cfg, id, opts)).collect();
            let emitted = pump(&mut nodes, &[0, 1, 2, 3], &[0, 1, 2, 3]);
            for (i, node) in nodes.iter().enumerate() {
                assert!(node.snapshots.contains_key(&epochs), "the horizon is a boundary");
                assert_output_hash_is_fresh(node, emitted.get(&i), epochs);
            }
        }
    }

    #[test]
    fn output_hash_equals_a_fresh_state_hash_after_state_transfer() {
        let Ok(cfg) = Config::new(4, 1) else { return };
        let opts = SmrOptions {
            order: OrderOptions {
                batch_max: 2,
                pipeline_depth: 2,
                epochs: 5,
                ..OrderOptions::default()
            },
            checkpoint_interval: 2,
        };
        let mut nodes: Vec<Node> = cfg.nodes().map(|id| node(cfg, id, opts)).collect();
        let mut emitted = pump(&mut nodes, &[0, 1, 2], &[0, 1, 2]);
        // Node 3 was never live: its replacement installs the horizon
        // checkpoint from its peers and outputs straight from it.
        nodes[3] = node(cfg, NodeId::new(3), opts).recovering(true);
        emitted.extend(pump(&mut nodes, &[3], &[0, 1, 2, 3]));
        assert_eq!(nodes[3].state().applied_epoch(), 5, "installed, not replayed");
        for (i, node) in nodes.iter().enumerate() {
            assert_output_hash_is_fresh(node, emitted.get(&i), 5);
        }
        assert_eq!(nodes[3].output(), nodes[0].output());
    }

    #[test]
    fn output_hash_is_streamed_once_a_contradicted_snapshot_is_dropped() {
        let Ok(cfg) = Config::new(4, 1) else { return };
        let opts = SmrOptions {
            order: OrderOptions {
                batch_max: 2,
                pipeline_depth: 2,
                epochs: 4,
                ..OrderOptions::default()
            },
            checkpoint_interval: 2,
        };
        let mut nodes: Vec<Node> = cfg.nodes().map(|id| node(cfg, id, opts)).collect();
        let emitted = pump(&mut nodes, &[0, 1, 2, 3], &[0, 1, 2, 3]);
        let before = nodes[0].output();
        let own = nodes[0].snapshots.get(&4).map(|snap| snap.hash).expect("horizon snapshot");
        // A certificate contradicting the node's own horizon snapshot:
        // the snapshot goes, and the output must stream the state.
        nodes[0].adopt_certificate(4, own ^ 1, 3, &mut Vec::new());
        assert!(!nodes[0].snapshots.contains_key(&4));
        assert_output_hash_is_fresh(&nodes[0], emitted.get(&0), 4);
        assert_eq!(nodes[0].output(), before);
    }

    #[test]
    fn crashed_node_recovers_by_state_transfer_without_replaying_truncated_history() {
        use bft_obs::VecSink;
        use bft_sim::SimTime;

        let Ok(cfg) = Config::new(4, 1) else { return };
        let opts = SmrOptions {
            order: OrderOptions {
                batch_max: 2,
                pipeline_depth: 2,
                epochs: 8,
                ..OrderOptions::default()
            },
            checkpoint_interval: 2,
        };
        let crash_at = 30;
        let restart_at = 400;
        let victim = NodeId::new(3);
        let (obs, sink) = Obs::new(VecSink::new());
        let mut world = World::new(WorldConfig::new(4), UniformDelay::new(1, 9, 21));
        for id in cfg.nodes() {
            world.add_process(Box::new(
                SmrProcess::new(cfg, id, opts, kv_workload(id, 16), |i| CommonCoin::new(3, i))
                    .with_obs(obs.clone()),
            ));
        }
        world.schedule_crash(victim, SimTime::from_ticks(crash_at));
        let obs_replacement = obs.clone();
        world.schedule_restart(
            victim,
            SimTime::from_ticks(restart_at),
            Box::new(move || {
                Box::new(
                    SmrProcess::new(cfg, victim, opts, kv_workload(victim, 16), |i| {
                        CommonCoin::new(3, i)
                    })
                    .recovering(true)
                    .with_obs(obs_replacement),
                )
            }),
        );
        let report = world.run();
        assert!(report.all_correct_decided(), "the restarted node must catch up and output");
        assert!(report.agreement_holds(), "recovered state must match the cluster");

        let events = sink.lock().take();
        let transfers: Vec<u64> = events
            .iter()
            .filter(|(_, node, _)| *node == victim)
            .filter_map(|(_, _, e)| match e {
                Event::StateTransferCompleted { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .collect();
        assert!(!transfers.is_empty(), "recovery must go through peer state transfer");
        let first_fetched = transfers[0];
        assert!(first_fetched >= opts.checkpoint_interval, "must land on a certified boundary");
        // The replacement never replays epochs below the checkpoint it
        // installed: every slot it applies is at or above it.
        let replayed: Vec<u64> = events
            .iter()
            .filter(|(at, node, _)| *node == victim && *at >= restart_at)
            .filter_map(|(_, _, e)| match e {
                Event::SlotApplied { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .filter(|&e| e < first_fetched)
            .collect();
        assert!(replayed.is_empty(), "replayed truncated epochs: {replayed:?}");
    }
}
