//! The process-side half of the client gateway: per-client sequencing
//! over [`OrderProcess`]'s mempool.
//!
//! `bft_net::gateway` owns the sockets: its reactor decodes `Submit`
//! frames, parks them in a [`GatewayPipe`], and forwards completion
//! notices back to client connections. This module owns the *policy*:
//!
//! * [`GatewayCore`] — a pure state machine enforcing the per-client
//!   contract (contiguous sequence numbers from 1, backpressure never
//!   advances the window, committed submissions re-acknowledge
//!   idempotently). Pure so it can be property-tested without sockets.
//! * [`GatewayProcess`] — wraps an [`OrderProcess`], draining the pipe
//!   on [`Process::on_tick`] and whenever a message completes an epoch
//!   (poking the inner process if the drain admitted anything: a full
//!   batch opens an epoch), stamping each accepted payload with its
//!   `(client, seq)` identity, and reading each newly appended log slot
//!   for the stamped payloads to surface commit acks as soon as the slot
//!   is in. A message that appends nothing costs the inner process's
//!   step and one cursor comparison. While the intake is open the inner
//!   process opens an idle epoch only for payloads, so a cluster with no
//!   client traffic sends nothing; once the host calls
//!   [`GatewayPipe::finish`] the process winds down to its horizon like a
//!   bare one.
//!
//! The stamp is `0xC3 ‖ client ‖ seq ‖ body` (little-endian words).
//! Stamping happens *before* ordering, so the identity rides through
//! batching, erasure coding, and the log untouched; any node that
//! orders the payload can recognise it, but only the node whose
//! cursor table knows the client answers for it.

use crate::{Backpressure, OrderLog, OrderMessage, OrderProcess};
use bft_coin::CoinScheme;
use bft_net::{ClientSubmit, GatewayNotice, GatewayPipe, NackReason};
use bft_obs::{Event, Obs};
use bft_types::wire::MAX_PAYLOAD;
use bft_types::{Effect, NodeId, Process};
use std::collections::BTreeMap;
use std::fmt;

/// Leading byte of a gateway-stamped payload.
const STAMP_TAG: u8 = 0xC3;
/// Bytes the stamp adds in front of the client's payload.
const STAMP_LEN: usize = 17;

/// Prefixes `body` with the `(client, seq)` stamp.
pub fn stamp_tx(client: u64, seq: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(STAMP_LEN + body.len());
    out.push(STAMP_TAG);
    out.extend_from_slice(&client.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Splits a stamped payload back into `(client, seq, body)`; `None` for
/// payloads that did not come through a gateway (direct workload
/// entries, other nodes' formats).
pub fn parse_stamp(tx: &[u8]) -> Option<(u64, u64, &[u8])> {
    if tx.first() != Some(&STAMP_TAG) || tx.len() < STAMP_LEN {
        return None;
    }
    let client = u64::from_le_bytes(tx.get(1..9)?.try_into().ok()?);
    let seq = u64::from_le_bytes(tx.get(9..17)?.try_into().ok()?);
    Some((client, seq, tx.get(STAMP_LEN..)?))
}

/// Where an offered submission landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OfferOutcome {
    /// In sequence and admitted to the mempool; the window advanced.
    Accepted,
    /// In sequence but the mempool refused it; the window did **not**
    /// advance — the client retries the same seq.
    Backpressured(Backpressure),
    /// At or below the client's committed high-water mark; the caller
    /// should re-acknowledge (commit acks may have been lost).
    DuplicateCommitted,
    /// Already admitted and still in flight; ignore (the commit ack is
    /// coming).
    DuplicateInFlight,
    /// Skipped ahead of the contiguous window.
    Gap {
        /// The seq the gateway will accept next.
        expected: u64,
    },
}

/// Per-client cursor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Cursor {
    /// Highest seq admitted to the mempool (next expected is `+ 1`).
    admitted: u64,
    /// Highest seq seen committed in the log.
    committed: u64,
}

/// The pure per-client sequencing state machine.
///
/// Invariant (pinned by the proptest in `tests/net_reactor.rs`): for
/// every client, the set of admitted seqs is exactly `1..=admitted`,
/// admitted never decreases, and a [`OfferOutcome::Backpressured`]
/// outcome leaves it unchanged.
#[derive(Debug, Default)]
pub struct GatewayCore {
    /// One cursor per client ever seen: two u64 counters per distinct
    /// client id. Clients are external identities that must survive
    /// their TCP connections (reconnecting clients resume their
    /// window), so the table has no safe eviction point short of a
    /// session-expiry policy out of scope here.
    // lint: allow(unbounded-map) — reconnecting clients must resume their window; no safe eviction short of a session-expiry policy
    clients: BTreeMap<u64, Cursor>,
}

impl GatewayCore {
    /// Creates an empty table (every client's next expected seq is 1).
    pub fn new() -> Self {
        GatewayCore::default()
    }

    /// Offers `(client, seq)`; `admit` performs the actual mempool
    /// insertion and is called only when the seq is next in line.
    pub fn offer(
        &mut self,
        client: u64,
        seq: u64,
        admit: impl FnOnce() -> Result<(), Backpressure>,
    ) -> OfferOutcome {
        let cursor = self.clients.entry(client).or_default();
        if seq <= cursor.committed {
            return OfferOutcome::DuplicateCommitted;
        }
        if seq <= cursor.admitted {
            return OfferOutcome::DuplicateInFlight;
        }
        if seq != cursor.admitted + 1 {
            return OfferOutcome::Gap { expected: cursor.admitted + 1 };
        }
        match admit() {
            Ok(()) => {
                cursor.admitted = seq;
                OfferOutcome::Accepted
            }
            Err(bp) => OfferOutcome::Backpressured(bp),
        }
    }

    /// Records that `(client, seq)` reached the log; `true` when the
    /// client is one this table has ever admitted (i.e. ours to
    /// acknowledge).
    pub fn mark_committed(&mut self, client: u64, seq: u64) -> bool {
        match self.clients.get_mut(&client) {
            Some(cursor) => {
                cursor.committed = cursor.committed.max(seq);
                // A log entry can only surface for seqs we admitted, but
                // be defensive: never let committed outrun admitted.
                cursor.admitted = cursor.admitted.max(cursor.committed);
                true
            }
            None => false,
        }
    }

    /// The next seq expected from `client`.
    pub fn expected(&self, client: u64) -> u64 {
        self.clients.get(&client).map_or(1, |c| c.admitted + 1)
    }

    /// Distinct clients tracked.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }
}

/// An [`OrderProcess`] with a client gateway in front of its mempool.
///
/// Runs wherever `OrderProcess` runs; the gateway path only activates
/// on hosts that deliver [`Process::on_tick`] with a connected
/// [`GatewayPipe`] (the `bft-net` reactor driver, which also ticks every
/// node on a pass that found nothing to read). Under `bft-sim`, which
/// never ticks, no payload arrives: the process opens an epoch only for
/// what its inner mempool held at construction or for a peer's opening.
pub struct GatewayProcess<C> {
    inner: OrderProcess<C>,
    pipe: GatewayPipe,
    core: GatewayCore,
    /// The engine's append cursor at the last scan for commit acks.
    scanned: (u64, usize),
    /// Largest stamped payload accepted (keeps batches under the frame
    /// layer's hard cap with headroom for the batch encoding).
    max_tx: usize,
    obs: Obs,
}

impl<C: CoinScheme> GatewayProcess<C> {
    /// Wraps `inner`, draining client submissions from `pipe`. Until the
    /// pipe is [finished](GatewayPipe::finish), `inner` serves: it opens
    /// an epoch for payloads or a peer's opening, never for a heartbeat.
    pub fn new(mut inner: OrderProcess<C>, pipe: GatewayPipe) -> Self {
        let per_slot = MAX_PAYLOAD as usize / inner.batch_max().max(1);
        inner.serving = true;
        GatewayProcess {
            inner,
            pipe,
            core: GatewayCore::new(),
            scanned: (0, 0),
            max_tx: per_slot.saturating_sub(64),
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observer for gateway lifecycle events (accepted /
    /// nacked / committed). The inner process's observer is separate —
    /// attach it via [`OrderProcess::with_obs`] before wrapping.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The wrapped ordering engine.
    pub fn inner(&self) -> &OrderProcess<C> {
        &self.inner
    }

    /// Submissions acknowledged as committed so far.
    pub fn core(&self) -> &GatewayCore {
        &self.core
    }

    /// Drains every queued client submission into the mempool, NACKing
    /// what the sequencing contract or the mempool refuses; returns
    /// whether the mempool took any. One pass empties the intake (itself
    /// bounded by the pipe): the next pass may be an append or a tick
    /// away, and after wind-down never comes.
    fn drain_clients(&mut self) -> bool {
        let mut admitted = false;
        let capacity = self.inner.batch_max().saturating_mul(self.inner.pipeline_depth()).max(1);
        for ClientSubmit { client, seq, tx } in self.pipe.drain_intake() {
            if tx.len() > self.max_tx {
                self.pipe.push_notice(GatewayNotice::Rejected {
                    client,
                    seq,
                    reason: NackReason::Oversize { len: tx.len() as u64 },
                });
                self.obs.emit(self.inner.id(), || Event::GatewayNacked {
                    client,
                    seq,
                    reason: "oversize",
                });
                continue;
            }
            let inner = &mut self.inner;
            let outcome = if inner.is_halted() {
                // Wind-down: the engine accepts nothing more; surface it
                // as backpressure so clients retry against a live node.
                OfferOutcome::Backpressured(Backpressure { pending: inner.pending_len(), capacity })
            } else {
                self.core.offer(client, seq, || inner.submit(stamp_tx(client, seq, &tx)))
            };
            match outcome {
                OfferOutcome::Accepted => {
                    admitted = true;
                    self.obs.emit(self.inner.id(), || Event::GatewayAccepted { client, seq });
                }
                OfferOutcome::Backpressured(bp) => {
                    self.pipe.push_notice(GatewayNotice::Rejected {
                        client,
                        seq,
                        reason: NackReason::Backpressure {
                            pending: bp.pending as u64,
                            capacity: bp.capacity as u64,
                        },
                    });
                    self.obs.emit(self.inner.id(), || Event::GatewayNacked {
                        client,
                        seq,
                        reason: "backpressure",
                    });
                }
                OfferOutcome::DuplicateCommitted => {
                    // The commit ack was lost; re-acknowledge.
                    self.pipe.push_notice(GatewayNotice::Committed { client, seq });
                }
                OfferOutcome::DuplicateInFlight => {}
                OfferOutcome::Gap { expected } => {
                    self.pipe.push_notice(GatewayNotice::Rejected {
                        client,
                        seq,
                        reason: NackReason::SequenceGap { expected },
                    });
                    self.obs.emit(self.inner.id(), || Event::GatewayNacked {
                        client,
                        seq,
                        reason: "sequence_gap",
                    });
                }
            }
        }
        admitted
    }

    /// Once the host has finished the intake, ends the inner process's
    /// service, so it winds down to its horizon; returns whether that
    /// happened in this call (the caller pokes). Callers drain the intake
    /// first, so what the pipe held when the host finished it is ordered.
    fn wind_down_if_finished(&mut self) -> bool {
        let finished = self.inner.serving && self.pipe.is_finished();
        if finished {
            self.inner.serving = false;
        }
        finished
    }

    /// Scans the newly appended log slots for stamped payloads and
    /// acknowledges the ones belonging to this node's clients.
    fn scan_log(&mut self) {
        let me = self.inner.id();
        let slots = self.inner.log().slots();
        let new = slots.partition_point(|s| (s.epoch(), s.proposer().index()) < self.scanned);
        for slot in &slots[new..] {
            let epoch = slot.epoch();
            for (client, seq, _) in slot.txs().filter_map(parse_stamp) {
                if self.core.mark_committed(client, seq) {
                    self.pipe.push_notice(GatewayNotice::Committed { client, seq });
                    self.obs.emit(me, || Event::GatewayCommitted { client, seq, epoch });
                }
            }
        }
        self.scanned = self.inner.append_cursor();
    }
}

impl<C> fmt::Debug for GatewayProcess<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GatewayProcess")
            .field("inner", &self.inner)
            .field("clients", &self.core.client_count())
            .field("scanned", &self.scanned)
            .finish_non_exhaustive()
    }
}

impl<C: CoinScheme> Process for GatewayProcess<C> {
    type Msg = OrderMessage;
    type Output = OrderLog;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_start(&mut self) -> Vec<Effect<OrderMessage, OrderLog>> {
        let out = self.inner.on_start();
        self.scan_log();
        out
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: &OrderMessage,
    ) -> Vec<Effect<OrderMessage, OrderLog>> {
        let cursor = self.inner.append_cursor();
        let mut out = self.inner.on_message(from, msg);
        // The gateway's own work hangs off the append cursor: a new slot
        // has payloads to acknowledge; a completed epoch makes mempool room
        // for waiting clients (the proposal after it empties the mempool).
        // Payloads admitted here can complete a full batch, which opens the
        // next epoch — in this step, not at the next tick. A completed
        // epoch is also where a busy node notices that its host finished
        // the intake (a quiet one does at its next tick).
        if self.inner.append_cursor() != cursor {
            self.scan_log();
            if self.inner.committed_epochs() != cursor.0 {
                let admitted = self.drain_clients();
                if self.wind_down_if_finished() || admitted {
                    out.extend(self.inner.poke());
                    self.scan_log();
                }
            }
        }
        out
    }

    fn on_tick(&mut self) -> Vec<Effect<OrderMessage, OrderLog>> {
        self.drain_clients();
        self.wind_down_if_finished();
        let out = self.inner.poke();
        self.scan_log();
        out
    }

    fn output(&self) -> Option<OrderLog> {
        self.inner.output()
    }

    fn is_halted(&self) -> bool {
        self.inner.is_halted()
    }

    fn round(&self) -> u64 {
        self.inner.round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_coin::CommonCoin;
    use bft_types::Config;

    #[test]
    fn stamp_round_trips_and_rejects_foreign_payloads() {
        let tx = stamp_tx(7, 3, b"body");
        assert_eq!(parse_stamp(&tx), Some((7, 3, &b"body"[..])));
        assert_eq!(parse_stamp(b"plain"), None);
        assert_eq!(parse_stamp(&[STAMP_TAG, 1, 2]), None, "truncated stamp");
        assert_eq!(parse_stamp(&stamp_tx(1, 2, b"")), Some((1, 2, &b""[..])));
    }

    #[test]
    fn core_enforces_the_contiguous_window() {
        let mut core = GatewayCore::new();
        assert_eq!(core.offer(1, 2, || Ok(())), OfferOutcome::Gap { expected: 1 });
        assert_eq!(core.offer(1, 1, || Ok(())), OfferOutcome::Accepted);
        assert_eq!(core.offer(1, 2, || Ok(())), OfferOutcome::Accepted);
        assert_eq!(core.offer(1, 2, || Ok(())), OfferOutcome::DuplicateInFlight);
        assert_eq!(core.expected(1), 3);
        // Another client's window is independent.
        assert_eq!(core.offer(2, 1, || Ok(())), OfferOutcome::Accepted);
    }

    #[test]
    fn backpressure_does_not_advance_and_commit_reacks() {
        let bp = Backpressure { pending: 4, capacity: 4 };
        let mut core = GatewayCore::new();
        assert_eq!(core.offer(9, 1, || Err(bp)), OfferOutcome::Backpressured(bp));
        assert_eq!(core.expected(9), 1, "refused seq stays expected");
        assert_eq!(core.offer(9, 1, || Ok(())), OfferOutcome::Accepted);
        assert!(core.mark_committed(9, 1));
        assert_eq!(core.offer(9, 1, || Ok(())), OfferOutcome::DuplicateCommitted);
        assert!(!core.mark_committed(42, 1), "unknown client is not ours");
    }

    #[test]
    fn gateway_process_admits_stamps_and_acks_through_the_pipe() {
        let Ok(cfg) = Config::new(4, 1) else { return };
        let opts = crate::OrderOptions {
            batch_max: 2,
            pipeline_depth: 2,
            epochs: 4,
            ..crate::OrderOptions::default()
        };
        let pipe = GatewayPipe::new();
        let inner =
            OrderProcess::new(cfg, NodeId::new(0), opts, Vec::new(), |i| CommonCoin::new(1, i));
        let mut gp = GatewayProcess::new(inner, pipe.clone());

        // In-sequence submission is admitted and stamped.
        assert!(pipe.push_intake(ClientSubmit { client: 5, seq: 1, tx: b"tx-a".to_vec() }));
        // Out-of-sequence submission is NACKed with the expected seq.
        assert!(pipe.push_intake(ClientSubmit { client: 5, seq: 3, tx: b"tx-b".to_vec() }));
        let effects = gp.on_tick();
        assert!(!effects.is_empty(), "admission must drive a proposal");
        assert_eq!(gp.inner().pending_len(), 0, "payload drained into epoch 0's batch");
        let notices = pipe.drain_notices();
        assert_eq!(
            notices,
            vec![GatewayNotice::Rejected {
                client: 5,
                seq: 3,
                reason: NackReason::SequenceGap { expected: 2 },
            }]
        );
        assert_eq!(gp.core().expected(5), 2, "seq 1 admitted, seq 3 refused");
    }

    #[test]
    fn one_tick_empties_an_over_capacity_intake() {
        let Ok(cfg) = Config::new(4, 1) else { return };
        let opts = crate::OrderOptions {
            batch_max: 2,
            pipeline_depth: 2,
            epochs: 4,
            ..crate::OrderOptions::default()
        };
        let capacity = (opts.batch_max * opts.pipeline_depth) as u64;
        let pipe = GatewayPipe::new();
        let inner =
            OrderProcess::new(cfg, NodeId::new(0), opts, Vec::new(), |i| CommonCoin::new(1, i));
        let mut gp = GatewayProcess::new(inner, pipe.clone());

        // 3 × capacity submissions: clients 1 and 2 fill the mempool with
        // two seqs each, then 2 × capacity more clients find it full.
        for client in 1..=2 {
            for seq in 1..=capacity / 2 {
                assert!(pipe.push_intake(ClientSubmit { client, seq, tx: vec![seq as u8] }));
            }
        }
        let late = 3..3 + 2 * capacity;
        for client in late.clone() {
            assert!(pipe.push_intake(ClientSubmit { client, seq: 1, tx: vec![0] }));
        }
        let _ = gp.on_tick();

        assert!(pipe.drain_intake().is_empty(), "one pass must leave no tail");
        for client in 1..=2 {
            assert_eq!(gp.core().expected(client), capacity / 2 + 1, "admitted 1..=capacity/2");
        }
        let refused: Vec<u64> = pipe
            .drain_notices()
            .into_iter()
            .map(|notice| match notice {
                GatewayNotice::Rejected {
                    client,
                    seq: 1,
                    reason: NackReason::Backpressure { pending, capacity: cap },
                } if pending == capacity && cap == capacity => client,
                other => panic!("only backpressure NACKs are due, got {other:?}"),
            })
            .collect();
        assert_eq!(refused, late.clone().collect::<Vec<_>>(), "every late client, in order");
        for client in late {
            assert_eq!(gp.core().expected(client), 1, "a refused seq stays expected");
        }
    }

    /// A state machine truncates the log below every epoch it applied;
    /// the scan cursor is the engine's append cursor, not a log index, so
    /// each stamped payload is acknowledged once, however much of the log
    /// went before the scan.
    #[test]
    fn the_scan_cursor_acks_every_stamped_payload_once_across_truncations() {
        let Ok(cfg) = Config::new(7, 2) else { return };
        let opts = crate::OrderOptions {
            batch_max: 2,
            pipeline_depth: 2,
            epochs: 5,
            ..crate::OrderOptions::default()
        };
        let pipe = GatewayPipe::new();
        let nodes = (0..6)
            .map(|i| {
                let inner = OrderProcess::new(cfg, NodeId::new(i), opts, Vec::new(), |inst| {
                    CommonCoin::new(2, inst)
                });
                GatewayProcess::new(inner, if i == 0 { pipe.clone() } else { GatewayPipe::new() })
            })
            .collect();
        let mut fifo = crate::tests::Fifo::start(nodes);
        // Two full batches, what the mempool takes: epochs 0 and 1 carry
        // them (a gateway opens no epoch before its first payload).
        let submitted: Vec<(u64, u64)> =
            (1..=2).flat_map(|c| (1..=2).map(move |s| (c, s))).collect();
        for &(client, seq) in &submitted {
            assert!(pipe.push_intake(ClientSubmit {
                client,
                seq,
                tx: vec![client as u8, seq as u8]
            }));
        }
        let effects = fifo.nodes[0].on_tick();
        fifo.send(NodeId::new(0), effects);
        let mut acks = Vec::new();
        let mut truncated = 0;
        while fifo.step().is_some() {
            let inner = &mut fifo.nodes[0].inner;
            truncated += inner.truncate_below(inner.committed_epochs());
            for notice in pipe.drain_notices() {
                match notice {
                    GatewayNotice::Committed { client, seq } => acks.push((client, seq)),
                    other => panic!("only commit acks are due, got {other:?}"),
                }
            }
        }
        assert!(truncated > 0, "the log was never truncated under the scan");
        acks.sort_unstable();
        assert_eq!(acks, submitted, "every stamped payload acknowledged exactly once");
    }

    #[test]
    fn oversize_submissions_are_rejected_before_the_mempool() {
        let Ok(cfg) = Config::new(4, 1) else { return };
        let pipe = GatewayPipe::new();
        let inner = OrderProcess::new(
            cfg,
            NodeId::new(0),
            crate::OrderOptions::default(),
            Vec::new(),
            |i| CommonCoin::new(1, i),
        );
        let mut gp = GatewayProcess::new(inner, pipe.clone());
        let huge = vec![0u8; gp.max_tx + 1];
        assert!(pipe.push_intake(ClientSubmit { client: 1, seq: 1, tx: huge }));
        let _ = gp.on_tick();
        assert_eq!(gp.inner().pending_len(), 0);
        assert!(matches!(
            pipe.drain_notices().first(),
            Some(GatewayNotice::Rejected { reason: NackReason::Oversize { .. }, .. })
        ));
    }
}
