//! An erasure-coded reliable-broadcast instance (AVID-style).
//!
//! Bracha's protocol re-broadcasts the full payload in every Echo, so a
//! B-byte payload costs O(n²·B) on the wire. This variant disseminates
//! Reed–Solomon fragments instead:
//!
//! 1. The sender encodes the payload into `n` fragments (`k = n − 2f` data
//!    shards) committed under a Merkle root, and **unicasts** fragment `i`
//!    to node `i` (`CodedSend`).
//! 2. On a valid own-index fragment from the designated sender, a node
//!    broadcasts it (`CodedEcho`) — O(B/k) bytes instead of O(B).
//! 3. On `n − f` distinct valid echoes for one root, or `f + 1` Readys:
//!    broadcast `CodedReady(root)` (once).
//! 4. On `2f + 1` Readys for a root **and** `n − 2f` verified fragments of
//!    it: reconstruct, check the commitment, and deliver. The sender
//!    delivers the bytes it encoded under that root instead: decoding
//!    them back could only return them.
//!
//! Totals: one O(n·B/k)·k = O(n·B) dissemination plus n fragment
//! broadcasts of O(n·B/k) = O(n²·B/k) ≈ O(n·B) for f = Θ(n), plus O(n²)
//! constant-size Readys — against Bracha's O(n²·B).
//!
//! Safety matches Bracha's: the Merkle commitment pins the sender to one
//! fragment set per root, two roots can never both reach the `n − f` echo
//! quorum (correct nodes echo once), and the re-encode check in
//! [`bft_ec::reconstruct`] fails uniformly across fragment subsets when a
//! Byzantine sender commits to a non-codeword — in that case every correct
//! node delivers the canonical empty fallback instead, keeping agreement
//! and totality intact.

use crate::vote::Votes;
use crate::{RbcAction, RbcMessage};
use bft_ec::{self as ec, Fragment, VerifiedFragment};
use bft_obs::{Event as ObsEvent, RbcPhase, TracePhase};
use bft_types::{Config, NodeId};
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;

/// A payload type that can cross the erasure-coding boundary: coded
/// instances fragment the byte form and rebuild the payload from decoded
/// bytes at delivery.
///
/// The two functions must round-trip (`from_coded_bytes(to_coded_bytes(p))
/// == p`); `from_coded_bytes` must be total, since a Byzantine sender
/// controls the bytes a receiver decodes.
pub trait CodedPayload: Sized {
    /// The byte form that gets erasure-coded.
    fn to_coded_bytes(&self) -> Vec<u8>;
    /// Rebuilds a payload from decoded bytes (total — never fails).
    fn from_coded_bytes(bytes: Vec<u8>) -> Self;
}

impl CodedPayload for Vec<u8> {
    fn to_coded_bytes(&self) -> Vec<u8> {
        self.clone()
    }
    fn from_coded_bytes(bytes: Vec<u8>) -> Self {
        bytes
    }
}

impl CodedPayload for String {
    fn to_coded_bytes(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }
    fn from_coded_bytes(bytes: Vec<u8>) -> Self {
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// One peer's echo as buffered: held unhashed until its root's quorum is
/// in reach, or verified.
#[derive(Clone, Debug)]
enum Echo {
    Held(Fragment),
    Verified(VerifiedFragment),
}

impl Echo {
    fn fragment(&self) -> &Fragment {
        match self {
            Echo::Held(frag) => frag,
            Echo::Verified(v) => v.fragment(),
        }
    }

    fn verified(&self) -> Option<&VerifiedFragment> {
        match self {
            Echo::Held(_) => None,
            Echo::Verified(v) => Some(v),
        }
    }

    fn into_held(self) -> Option<Fragment> {
        match self {
            Echo::Held(frag) => Some(frag),
            Echo::Verified(_) => None,
        }
    }
}

/// The state machine of one erasure-coded reliable-broadcast instance at
/// one node. Runs the vote rule of [`RbcInstance`](crate::RbcInstance) —
/// the shared core, keyed by Merkle root instead of payload, with the
/// same action surface and events — but speaks the coded message
/// variants and buffers fragments instead of full payload copies. What it
/// adds is dissemination: fragment verification and settling, the
/// sender's own-bytes shortcut, decode, and the `rbc_reconstruct` span.
///
/// Byzantine-resistance notes:
///
/// * A `CodedSend` is honoured only from the designated sender, only for
///   this node's own fragment index, and only when the commitment proof
///   verifies; the first valid one wins.
/// * An echo from peer `p` must carry fragment index `p` and verify
///   against its root. At most one echo and one ready per peer are
///   counted (first valid wins, like Bracha).
/// * A peer's echo is held unhashed until it can matter, and each peer
///   has at most one held echo: its next echo settles the held one
///   first. So a Byzantine peer buffers at most one junk fragment here —
///   state stays O(n) fragments — and pays for each replay with at most
///   the one hash its held echo would have cost anyway.
///
/// Delivery frees the fragments and keeps no copy of the payload: the
/// payload moves out in [`RbcAction::Deliver`], and nothing buffered can
/// change an output already delivered. What remains is the vote core's
/// flags and Ready bookkeeping, until the host collects the instance. The
/// sender alone holds a payload before delivery: the bytes it encoded.
#[derive(Clone, Debug)]
pub struct CodedInstance<P> {
    pub(crate) votes: Votes<u64>,
    /// This node's own fragment as verified on `CodedSend`, with its root,
    /// until the echo of it loops back: the bytes were hashed then.
    own: Option<(u64, VerifiedFragment)>,
    /// At the sender, the bytes it encoded and their root, until delivery:
    /// delivering that root needs no reconstruction.
    sent: Option<(u64, Vec<u8>)>,
    /// Echo fragments grouped by commitment root then keyed by fragment
    /// index (≡ echoing peer), until delivery: verified ones with the leaf
    /// hash their verification computed, and at most one held, unhashed
    /// echo per peer. BTree for replay-stable order.
    echoes: BTreeMap<u64, BTreeMap<u16, Echo>>,
    /// Root that reached the delivery quorum; delivery then waits only on
    /// the `n − 2f`-th verified fragment.
    deliver_root: Option<u64>,
    /// The payload type delivered; only its coded bytes are ever stored
    /// (`sent`).
    payload: PhantomData<fn() -> P>,
    /// Whether this node's `rbc_reconstruct` trace span is open: from the
    /// delivery quorum to delivery.
    reconstruct_span_open: bool,
}

impl<P> CodedInstance<P>
where
    P: CodedPayload + Clone + Eq + fmt::Debug,
{
    /// Creates the instance state for node `me` with designated `sender`.
    pub fn new(config: Config, me: NodeId, sender: NodeId) -> Self {
        CodedInstance {
            votes: Votes::new(config, me, sender),
            own: None,
            sent: None,
            echoes: BTreeMap::new(),
            deliver_root: None,
            payload: PhantomData,
            reconstruct_span_open: false,
        }
    }

    /// Closes any still-open trace spans at the current observer time:
    /// the core's echo and ready spans, then the reconstruct span.
    pub(crate) fn finish_spans(&mut self) {
        self.votes.finish_spans();
        if std::mem::take(&mut self.reconstruct_span_open) {
            self.votes.end_span(TracePhase::RbcReconstruct);
        }
    }

    /// Fragment bytes currently referenced — the coded instance's analogue
    /// of Bracha's per-payload Echo copies, used by memory-bound tests.
    /// A shard shares its buffer with the message it arrived in (and with
    /// every other holder of that message), so this counts the bytes the
    /// instance keeps alive, not bytes it copied. Zero once delivered.
    pub fn buffered_fragment_bytes(&self) -> usize {
        let own = self.own.iter().map(|(_, v)| v.fragment().weight());
        let echoes = self.echoes.values().flat_map(|frags| frags.values());
        echoes.map(|v| v.fragment().weight()).chain(own).sum()
    }

    fn k(&self) -> usize {
        self.votes.config.reconstruct_threshold()
    }

    /// Starts the broadcast: encodes the payload and unicasts fragment
    /// `i` to node `i` (processing our own fragment locally, so hosts
    /// whose transports have no self-unicast path still work). The encoded
    /// bytes stay here until delivery.
    ///
    /// Only meaningful at the designated sender; elsewhere (or on a
    /// repeat call, or if the geometry is unusable) it returns no actions.
    pub fn start(&mut self, payload: P) -> Vec<RbcAction<P>> {
        if !self.votes.start() {
            return Vec::new();
        }
        let bytes = payload.to_coded_bytes();
        let n = self.votes.config.n();
        let Ok(coded) = ec::encode(&bytes, n, self.k()) else {
            // Unusable geometry (n > 255) or oversize payload: nothing to
            // disseminate. The instance stays silent, which is safe — no
            // correct node will ever deliver it.
            return Vec::new();
        };
        let root = coded.root;
        self.sent = Some((root, bytes));
        let mut actions = Vec::with_capacity(n);
        for (i, fragment) in coded.fragments.into_iter().enumerate() {
            let to = NodeId::new(i);
            let msg = RbcMessage::CodedSend { root, fragment };
            if to == self.votes.me {
                // Local self-delivery: triggers our own echo immediately.
                actions.extend(self.on_message(to, &msg));
            } else {
                actions.push(RbcAction::Send { to, msg });
            }
        }
        actions
    }

    /// Processes one instance message from (authenticated) peer `from`.
    /// Bracha-variant messages belong to an
    /// [`RbcInstance`](crate::RbcInstance) and are ignored here.
    pub fn on_message(&mut self, from: NodeId, msg: &RbcMessage<P>) -> Vec<RbcAction<P>> {
        if !self.votes.config.contains(from) {
            return Vec::new();
        }
        let mut actions = Vec::new();
        match msg {
            RbcMessage::CodedSend { root, fragment } => {
                self.on_send(from, *root, fragment, &mut actions);
            }
            RbcMessage::CodedEcho { root, fragment } => {
                self.on_echo(from, *root, fragment, &mut actions);
            }
            RbcMessage::CodedReady { root } => {
                if self.votes.on_ready(from, root, Self::ready, &mut actions)
                    && self.deliver_root.is_none()
                {
                    self.deliver_root = Some(*root);
                    self.reconstruct_span_open = self.votes.open_span(TracePhase::RbcReconstruct);
                    self.maybe_deliver(&mut actions);
                }
            }
            RbcMessage::Send(_) | RbcMessage::Echo(_) | RbcMessage::Ready(_) => {}
        }
        actions
    }

    fn on_send(&mut self, from: NodeId, root: u64, frag: &Fragment, out: &mut Vec<RbcAction<P>>) {
        if !self.votes.awaits_send(from) {
            return;
        }
        let Some(verified) = self.check(root, frag, self.votes.me) else {
            self.emit_fragment(frag.index, false);
            return;
        };
        self.own = Some((root, verified));
        self.votes.echo();
        out.push(RbcAction::Broadcast(RbcMessage::CodedEcho { root, fragment: frag.clone() }));
    }

    /// Takes in an echo. A peer's echo is held unhashed until its root's
    /// held and verified echoes together reach the `n − f` Ready quorum,
    /// or `k` at the delivery root ([`Self::settle_if_due`]): before that,
    /// no verdict on it could change an outcome. Then the held echoes are
    /// verified together, so every Ready and Deliver fires at the message
    /// it would if each echo were verified on arrival; only the
    /// `RbcFragment` verdicts move later.
    fn on_echo(&mut self, from: NodeId, root: u64, frag: &Fragment, out: &mut Vec<RbcAction<P>>) {
        // Echoes that can no longer matter are dropped unread: a peer's
        // echo counts once, and after delivery the Ready is out and
        // nothing reads fragments any more.
        if self.votes.delivered() || self.votes.echoed(from) {
            return;
        }
        // A second echo from a peer settles its held one, which may fill
        // the peer's slot: a replay costs the held echo's hash at most and
        // is never hashed itself.
        self.settle_held_of(from);
        if self.votes.echoed(from) {
            return;
        }
        // An echo must carry the echoing peer's own fragment and verify
        // against its commitment. The peer's slot is taken only after
        // verification, so junk cannot burn a correct peer's slot.
        let echo = if from == self.votes.me {
            // A self-echo is checked at once. Our own echo looping back,
            // byte for byte what `on_send` verified under this root, keeps
            // that verdict and leaf.
            let verified = match self.own.take() {
                Some((own_root, own)) if own_root == root && own.fragment() == frag => Some(own),
                _ => self.check(root, frag, from),
            };
            let Some(verified) = verified else {
                self.emit_fragment(frag.index, false);
                return;
            };
            self.votes.count_echo(from);
            self.emit_fragment(frag.index, true);
            Echo::Verified(verified)
        } else if usize::from(frag.index) == from.index() {
            Echo::Held(frag.clone())
        } else {
            self.emit_fragment(frag.index, false);
            return;
        };
        self.echoes.entry(root).or_default().entry(frag.index).or_insert(echo);
        self.settle_if_due(root);
        let support = self
            .echoes
            .get(&root)
            .map_or(0, |frags| frags.values().filter(|echo| echo.verified().is_some()).count());
        if support >= self.votes.config.quorum() {
            self.votes.maybe_send_ready(&root, RbcPhase::Echo, support, Self::ready, out);
        }
        self.maybe_deliver(out);
    }

    /// Verifies `root`'s held echoes together once held and verified echoes
    /// reach the `n − f` Ready quorum, or `k` at the delivery root. Before
    /// that even all of them passing would change no outcome; from then on
    /// every echo of that root is settled the moment it arrives.
    fn settle_if_due(&mut self, root: u64) {
        let (quorum, k) = (self.votes.config.quorum(), self.k());
        let at_delivery = self.deliver_root == Some(root);
        let Some(frags) = self.echoes.get_mut(&root) else { return };
        if frags.len() < quorum && !(at_delivery && frags.len() >= k) {
            return;
        }
        let held = frags.extract_if(.., |_, echo| echo.verified().is_none());
        let held = held.filter_map(|(index, echo)| Some((index, echo.into_held()?))).collect();
        self.settle(root, held);
    }

    /// Settles `peer`'s held echo, if it has one, on its own.
    fn settle_held_of(&mut self, peer: NodeId) {
        let Ok(index) = u16::try_from(peer.index()) else { return };
        let held = self.echoes.iter_mut().find_map(|(&root, frags)| {
            let mut held = frags.extract_if(index..=index, |_, echo| echo.verified().is_none());
            Some((root, held.next()?.1.into_held()?))
        });
        if let Some((root, frag)) = held {
            self.settle(root, vec![(index, frag)]);
        }
    }

    /// Verifies `held` echoes of `root` in one batch: a valid one is
    /// counted for its peer, an invalid one is dropped and leaves the
    /// peer's slot open. A root left with no echo is forgotten, so junk
    /// roots cannot pile up.
    fn settle(&mut self, root: u64, held: Vec<(u16, Fragment)>) {
        let (indices, frags): (Vec<u16>, Vec<Fragment>) = held.into_iter().unzip();
        let verdicts = VerifiedFragment::check_many(root, self.votes.config.n(), self.k(), frags);
        for (index, verdict) in indices.into_iter().zip(verdicts) {
            self.emit_fragment(index, verdict.is_some());
            if let Some(verified) = verdict {
                self.votes.count_echo(NodeId::new(usize::from(index)));
                self.echoes.entry(root).or_default().insert(index, Echo::Verified(verified));
            }
        }
        if self.echoes.get(&root).is_some_and(BTreeMap::is_empty) {
            self.echoes.remove(&root);
        }
    }

    /// Delivers once both conditions hold: a root reached `2f + 1` Readys
    /// and `n − 2f` verified fragments of it are buffered. Delivery frees
    /// every buffered fragment and hands the payload over by move.
    ///
    /// The sender delivering the root it committed to hands over the bytes
    /// it encoded: it built that commitment from exactly those bytes, so
    /// every other correct node's reconstruction yields them too. The
    /// condition, and with it every message, is the same as elsewhere.
    fn maybe_deliver(&mut self, out: &mut Vec<RbcAction<P>>) {
        if self.votes.delivered() {
            return;
        }
        let Some(root) = self.deliver_root else { return };
        self.settle_if_due(root);
        let Some(frags) = self.echoes.get(&root) else { return };
        let verified: Vec<&VerifiedFragment> = frags.values().filter_map(Echo::verified).collect();
        if verified.len() < self.k() {
            return;
        }
        let bytes = match self.sent.take() {
            Some((sent_root, bytes)) if sent_root == root => bytes,
            _ => self.reconstruct(root, verified),
        };
        // Nothing buffered can change the output from here on (later
        // echoes are dropped unread), so the fragments go now.
        self.echoes.clear();
        self.own = None;
        self.votes.deliver(&root);
        if std::mem::take(&mut self.reconstruct_span_open) {
            self.votes.end_span(TracePhase::RbcReconstruct);
        }
        out.push(RbcAction::Deliver(P::from_coded_bytes(bytes)));
    }

    /// Decodes `root`'s payload from `verified` fragments and reports it.
    /// A sender that committed to a non-codeword (or to inconsistent
    /// geometry) fails every subset alike, so every correct node gets the
    /// canonical empty fallback, which preserves totality.
    fn reconstruct(&self, root: u64, verified: Vec<&VerifiedFragment>) -> Vec<u8> {
        let fragments = verified.len() as u64;
        let decoded = ec::reconstruct_verified(root, self.votes.config.n(), self.k(), verified);
        let (bytes, hashed_shards, consistent) = match decoded {
            Ok(decoded) => (decoded.payload, decoded.hashed_shards as u64, true),
            Err(_) => (Vec::new(), 0, false),
        };
        self.votes.emit(|origin, tag| ObsEvent::RbcReconstructed {
            origin,
            tag,
            fragments,
            bytes: bytes.len() as u64,
            hashed_shards,
            consistent,
        });
        bytes
    }

    /// Verifies `frag` as `owner`'s fragment under `root`: it must sit at
    /// the owner's codeword index and check out against the commitment.
    fn check(&self, root: u64, frag: &Fragment, owner: NodeId) -> Option<VerifiedFragment> {
        if frag.index as usize != owner.index() {
            return None;
        }
        VerifiedFragment::check(root, self.votes.config.n(), self.k(), frag)
    }

    fn emit_fragment(&self, index: u16, verified: bool) {
        let index = u64::from(index);
        self.votes.emit(|origin, tag| ObsEvent::RbcFragment { origin, tag, index, verified });
    }

    fn ready(&root: &u64) -> RbcMessage<P> {
        RbcMessage::CodedReady { root }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_obs::{Obs, TraceCtx};

    fn cfg() -> Config {
        Config::new(4, 1).unwrap()
    }

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    type Inst = CodedInstance<Vec<u8>>;

    fn payload() -> Vec<u8> {
        (0..100u8).collect()
    }

    /// Encodes `payload()` as the designated sender n(0) would.
    fn coded() -> ec::Coded {
        ec::encode(&payload(), 4, 2).unwrap()
    }

    fn echo(root: u64, frag: &Fragment) -> RbcMessage<Vec<u8>> {
        RbcMessage::CodedEcho { root, fragment: frag.clone() }
    }

    #[test]
    fn sender_unicasts_fragments_and_echoes_its_own() {
        let mut inst = Inst::new(cfg(), n(0), n(0));
        let actions = inst.start(payload());
        let sends: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                RbcAction::Send { to, msg: RbcMessage::CodedSend { fragment, .. } } => {
                    Some((to.index(), fragment.index))
                }
                _ => None,
            })
            .collect();
        assert_eq!(sends, vec![(1, 1), (2, 2), (3, 3)], "fragment i goes to node i");
        assert!(
            actions.iter().any(
                |a| matches!(a, RbcAction::Broadcast(RbcMessage::CodedEcho { fragment, .. }) if fragment.index == 0)
            ),
            "the sender echoes its own fragment without a self-unicast: {actions:?}"
        );
        assert!(inst.start(payload()).is_empty(), "second start ignored");
    }

    #[test]
    fn non_sender_cannot_start() {
        let mut inst = Inst::new(cfg(), n(1), n(0));
        assert!(inst.start(payload()).is_empty());
    }

    #[test]
    fn valid_send_triggers_echo_of_own_fragment() {
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        let msg = RbcMessage::CodedSend { root: c.root, fragment: c.fragments[1].clone() };
        let a = inst.on_message(n(0), &msg);
        assert_eq!(
            a,
            vec![RbcAction::Broadcast(RbcMessage::CodedEcho {
                root: c.root,
                fragment: c.fragments[1].clone()
            })]
        );
        // A second send (even valid) is ignored.
        assert!(inst.on_message(n(0), &msg).is_empty());
    }

    #[test]
    fn send_with_wrong_index_or_bad_proof_is_rejected() {
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        let wrong_index = RbcMessage::CodedSend { root: c.root, fragment: c.fragments[2].clone() };
        assert!(inst.on_message(n(0), &wrong_index).is_empty());
        let corrupted = corrupt(&c.fragments[1]);
        let bad = RbcMessage::CodedSend { root: c.root, fragment: corrupted };
        assert!(inst.on_message(n(0), &bad).is_empty());
        let not_sender = RbcMessage::CodedSend { root: c.root, fragment: c.fragments[1].clone() };
        assert!(inst.on_message(n(2), &not_sender).is_empty());
    }

    #[test]
    fn echo_quorum_triggers_ready() {
        // n=4, f=1: echo quorum is n−f = 3 distinct valid fragments.
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        assert!(inst.on_message(n(0), &echo(c.root, &c.fragments[0])).is_empty());
        assert!(inst.on_message(n(2), &echo(c.root, &c.fragments[2])).is_empty());
        let a = inst.on_message(n(3), &echo(c.root, &c.fragments[3]));
        assert_eq!(a, vec![RbcAction::Broadcast(RbcMessage::CodedReady { root: c.root })]);
    }

    #[test]
    fn echo_must_match_peer_index() {
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        // Peer 2 echoing fragment 3 is a forgery regardless of validity.
        assert!(inst.on_message(n(2), &echo(c.root, &c.fragments[3])).is_empty());
        assert_eq!(inst.buffered_fragment_bytes(), 0);
    }

    #[test]
    fn invalid_echo_does_not_burn_the_peers_slot() {
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        let corrupted = corrupt(&c.fragments[2]);
        assert!(inst.on_message(n(2), &echo(c.root, &corrupted)).is_empty());
        // The same peer's valid echo still counts afterwards.
        let _ = inst.on_message(n(0), &echo(c.root, &c.fragments[0]));
        let _ = inst.on_message(n(2), &echo(c.root, &c.fragments[2]));
        let a = inst.on_message(n(3), &echo(c.root, &c.fragments[3]));
        assert_eq!(a.len(), 1, "quorum reached with the re-sent valid echo");
    }

    #[test]
    fn duplicate_echoes_from_same_peer_ignored() {
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        assert!(inst.on_message(n(2), &echo(c.root, &c.fragments[2])).is_empty());
        assert!(inst.on_message(n(2), &echo(c.root, &c.fragments[2])).is_empty());
        assert!(inst.on_message(n(0), &echo(c.root, &c.fragments[0])).is_empty());
        // Still only two distinct echoers.
        let a = inst.on_message(n(3), &echo(c.root, &c.fragments[3]));
        assert_eq!(a.len(), 1);
    }

    /// How many `RbcFragment` verdicts the sink collected since last asked.
    fn fragment_events(sink: &bft_obs::SharedSink<bft_obs::VecSink>) -> usize {
        let events = sink.lock().take();
        events.iter().filter(|(_, _, e)| matches!(e, ObsEvent::RbcFragment { .. })).count()
    }

    #[test]
    fn replayed_echo_from_a_counted_peer_is_dropped_unhashed() {
        use bft_obs::VecSink;
        let (obs, sink) = Obs::new(VecSink::new());
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        inst.votes.set_obs(obs, "t".into());
        let one = c.fragments[2].weight();
        assert!(inst.on_message(n(2), &echo(c.root, &c.fragments[2])).is_empty());
        assert_eq!(fragment_events(&sink), 0, "the first echo is held, not yet hashed");
        assert_eq!(inst.buffered_fragment_bytes(), one);
        // The first replay settles the held echo: one hash, one verdict,
        // and the peer is counted. The replay itself is not hashed.
        assert!(inst.on_message(n(2), &echo(c.root, &c.fragments[2])).is_empty());
        let events = sink.lock().take();
        let verdicts: Vec<_> = events
            .iter()
            .filter_map(|(_, _, e)| match e {
                ObsEvent::RbcFragment { index, verified, .. } => Some((*index, *verified)),
                _ => None,
            })
            .collect();
        assert_eq!(verdicts, vec![(2, true)], "the held echo's verdict, alone");
        assert_eq!(inst.buffered_fragment_bytes(), one);
        // Further replays — byte-identical or corrupted — are neither
        // verified (no fragment event, so no shard hash) nor acted on.
        let corrupted = corrupt(&c.fragments[2]);
        for replay in [&c.fragments[2], &corrupted] {
            assert!(inst.on_message(n(2), &echo(c.root, replay)).is_empty());
            assert_eq!(fragment_events(&sink), 0);
            assert_eq!(inst.buffered_fragment_bytes(), one);
        }
    }

    #[test]
    fn a_replay_from_a_held_peer_costs_only_the_held_echos_hash() {
        use bft_obs::VecSink;
        let (obs, sink) = Obs::new(VecSink::new());
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        inst.votes.set_obs(obs, "t".into());
        let corrupted = corrupt(&c.fragments[2]);
        // Junk, then its replay: the replay settles the junk (one hash, a
        // rejection, the slot stays open) and is itself held, unhashed.
        assert!(inst.on_message(n(2), &echo(c.root, &corrupted)).is_empty());
        assert_eq!(fragment_events(&sink), 0);
        assert!(inst.on_message(n(2), &echo(c.root, &corrupted)).is_empty());
        assert_eq!(fragment_events(&sink), 1);
        // A valid echo settles the held replay — again exactly one hash —
        // and is held in its place.
        assert!(inst.on_message(n(2), &echo(c.root, &c.fragments[2])).is_empty());
        assert_eq!(fragment_events(&sink), 1);
        assert!(!inst.votes.echoed(n(2)), "no junk took the peer's slot");
        // Its replay settles it: the peer is counted, the replay unhashed.
        assert!(inst.on_message(n(2), &echo(c.root, &c.fragments[2])).is_empty());
        assert_eq!(fragment_events(&sink), 1);
        assert!(inst.votes.echoed(n(2)));
        assert_eq!(inst.buffered_fragment_bytes(), c.fragments[2].weight());
    }

    #[test]
    fn a_junk_flood_from_one_peer_buffers_at_most_one_fragment() {
        let c = ec::encode(&payload(), 7, 3).unwrap();
        let mut inst = Inst::new(cfg7(), n(1), n(0));
        let one = c.fragments[2].weight();
        for i in 0..40u64 {
            // Corrupted shards under the real root and under junk roots.
            let mut junk = c.fragments[2].clone();
            std::sync::Arc::make_mut(&mut junk.shard)[(i % 7) as usize] ^= 1 + i as u8;
            let root = if i % 2 == 0 { c.root } else { c.root ^ (i + 1) };
            assert!(inst.on_message(n(2), &echo(root, &junk)).is_empty());
            assert!(inst.buffered_fragment_bytes() <= one, "flood message {i}");
            assert!(inst.echoes.len() <= 1, "no junk root outlives its echo");
        }
        // The flood burned nothing: the peer's valid echo still counts.
        assert!(inst.on_message(n(2), &echo(c.root, &c.fragments[2])).is_empty());
        assert!(inst.on_message(n(2), &echo(c.root, &c.fragments[2])).is_empty());
        assert!(inst.votes.echoed(n(2)));
        assert_eq!(inst.buffered_fragment_bytes(), one);
    }

    #[test]
    fn own_echo_looping_back_reuses_the_send_verification() {
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        let send = RbcMessage::CodedSend { root: c.root, fragment: c.fragments[1].clone() };
        assert_eq!(inst.on_message(n(0), &send).len(), 1);
        assert!(inst.own.is_some());
        // The loop-back consumes the remembered fragment and counts it.
        assert!(inst.on_message(n(1), &echo(c.root, &c.fragments[1])).is_empty());
        assert!(inst.own.is_none());
        assert_eq!(inst.buffered_fragment_bytes(), c.fragments[1].weight());
        // A self-echo that is not what was verified takes the normal path.
        let mut other = Inst::new(cfg(), n(1), n(0));
        assert_eq!(other.on_message(n(0), &send).len(), 1);
        let corrupted = corrupt(&c.fragments[1]);
        assert!(other.on_message(n(1), &echo(c.root, &corrupted)).is_empty());
        assert_eq!(other.buffered_fragment_bytes(), 0, "a corrupted self-echo is rejected");
    }

    /// Whether `frag`'s shard is the very buffer `msg`'s fragment carries.
    fn shares_shard(frag: &Fragment, msg: &RbcMessage<Vec<u8>>) -> bool {
        match msg {
            RbcMessage::CodedSend { fragment, .. } | RbcMessage::CodedEcho { fragment, .. } => {
                std::sync::Arc::ptr_eq(&frag.shard, &fragment.shard)
            }
            _ => false,
        }
    }

    #[test]
    fn buffered_fragments_share_the_incoming_shard() {
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        let send = RbcMessage::CodedSend { root: c.root, fragment: c.fragments[1].clone() };
        let acts = inst.on_message(n(0), &send);
        // The own verified fragment and the echo of it hold the send's shard.
        let Some((_, own)) = &inst.own else { panic!("the send verified") };
        assert!(shares_shard(own.fragment(), &send));
        let [RbcAction::Broadcast(own_echo)] = acts.as_slice() else { panic!("{acts:?}") };
        let RbcMessage::CodedEcho { fragment, .. } = own_echo else { panic!("{own_echo:?}") };
        assert!(shares_shard(fragment, &send));
        // A peer's held echo holds the shard its message carried.
        let peer = echo(c.root, &c.fragments[2]);
        assert!(inst.on_message(n(2), &peer).is_empty());
        let held = &inst.echoes[&c.root][&2];
        assert!(held.verified().is_none() && shares_shard(held.fragment(), &peer));
        // The own echo looping back is counted on the send's buffer still.
        assert!(inst.on_message(n(1), own_echo).is_empty());
        let counted = &inst.echoes[&c.root][&1];
        assert!(counted.verified().is_some() && shares_shard(counted.fragment(), &send));
    }

    #[test]
    fn ready_amplification_at_f_plus_one() {
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        let ready = RbcMessage::CodedReady { root: c.root };
        assert!(inst.on_message(n(2), &ready).is_empty());
        let a = inst.on_message(n(3), &ready);
        assert_eq!(a, vec![RbcAction::Broadcast(RbcMessage::CodedReady { root: c.root })]);
    }

    #[test]
    fn delivery_needs_readys_and_fragments() {
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        let ready = RbcMessage::CodedReady { root: c.root };
        // 2f+1 = 3 readys, but no fragments yet: no delivery.
        let mut a = inst.on_message(n(0), &ready);
        a.extend(inst.on_message(n(2), &ready));
        a.extend(inst.on_message(n(3), &ready));
        let amplified = RbcAction::Broadcast(RbcMessage::CodedReady { root: c.root });
        assert_eq!(a, vec![amplified], "the amplified own ready alone, no Deliver");
        // k = n−2f = 2 verified fragments complete the delivery.
        assert!(inst.on_message(n(0), &echo(c.root, &c.fragments[0])).is_empty());
        let a = inst.on_message(n(2), &echo(c.root, &c.fragments[2]));
        assert_eq!(a, vec![RbcAction::Deliver(payload())]);
    }

    #[test]
    fn delivery_happens_once() {
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        let ready = RbcMessage::CodedReady { root: c.root };
        for i in [0usize, 2, 3] {
            let _ = inst.on_message(n(i), &ready);
        }
        let _ = inst.on_message(n(0), &echo(c.root, &c.fragments[0]));
        let a = inst.on_message(n(2), &echo(c.root, &c.fragments[2]));
        assert_eq!(a, vec![RbcAction::Deliver(payload())]);
        assert!(inst.on_message(n(3), &echo(c.root, &c.fragments[3])).is_empty());
        assert!(inst.on_message(n(3), &ready).is_empty());
    }

    #[test]
    fn a_delivered_instance_holds_no_fragment_and_no_payload() {
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        // Our own fragment, awaiting its echo's loop-back, plus two echoes.
        let send = RbcMessage::CodedSend { root: c.root, fragment: c.fragments[1].clone() };
        assert_eq!(inst.on_message(n(0), &send).len(), 1);
        let _ = inst.on_message(n(0), &echo(c.root, &c.fragments[0]));
        let _ = inst.on_message(n(2), &echo(c.root, &c.fragments[2]));
        let held = [0, 1, 2].map(|i| c.fragments[i].weight()).iter().sum::<usize>();
        assert_eq!(inst.buffered_fragment_bytes(), held);

        let mut delivered = Vec::new();
        for i in [0usize, 2, 3] {
            for a in inst.on_message(n(i), &RbcMessage::CodedReady { root: c.root }) {
                if let RbcAction::Deliver(p) = a {
                    delivered.push(p);
                }
            }
        }
        // The payload left in the action; the instance kept a flag only.
        assert_eq!(delivered, vec![payload()]);
        assert_eq!(inst.buffered_fragment_bytes(), 0);
        assert!(inst.own.is_none() && inst.echoes.is_empty());
        // The own echo looping back late is dropped unread.
        assert!(inst.on_message(n(1), &echo(c.root, &c.fragments[1])).is_empty());
        assert_eq!(inst.buffered_fragment_bytes(), 0);
    }

    #[test]
    fn readies_for_conflicting_roots_cannot_both_win() {
        let mut inst = Inst::new(cfg(), n(1), n(0));
        let a: Vec<_> = [(0, 1), (2, 2), (3, 1), (1, 2)]
            .into_iter()
            .flat_map(|(from, root)| inst.on_message(n(from), &RbcMessage::CodedReady { root }))
            .collect();
        assert!(!a.iter().any(|a| matches!(a, RbcAction::Deliver(_))), "{a:?}");
        assert_eq!(inst.deliver_root, None);
    }

    #[test]
    fn full_four_node_run_delivers_everywhere() {
        let mut insts: Vec<Inst> = (0..4).map(|i| Inst::new(cfg(), n(i), n(0))).collect();
        let mut unicasts: Vec<(NodeId, NodeId, RbcMessage<Vec<u8>>)> = Vec::new();
        let mut broadcasts: Vec<(NodeId, RbcMessage<Vec<u8>>)> = Vec::new();
        let mut delivered: Vec<Option<Vec<u8>>> = vec![None; 4];
        let mut sink =
            |from: NodeId,
             actions: Vec<RbcAction<Vec<u8>>>,
             unicasts: &mut Vec<(NodeId, NodeId, RbcMessage<Vec<u8>>)>,
             broadcasts: &mut Vec<(NodeId, RbcMessage<Vec<u8>>)>| {
                for a in actions {
                    match a {
                        RbcAction::Send { to, msg } => unicasts.push((from, to, msg)),
                        RbcAction::Broadcast(msg) => broadcasts.push((from, msg)),
                        RbcAction::Deliver(p) => delivered[from.index()] = Some(p),
                    }
                }
            };
        let start = insts[0].start(payload());
        sink(n(0), start, &mut unicasts, &mut broadcasts);
        // Synchronous pump until quiescent.
        while !unicasts.is_empty() || !broadcasts.is_empty() {
            for (from, to, msg) in std::mem::take(&mut unicasts) {
                let acts = insts[to.index()].on_message(from, &msg);
                sink(to, acts, &mut unicasts, &mut broadcasts);
            }
            for (from, msg) in std::mem::take(&mut broadcasts) {
                for (i, inst) in insts.iter_mut().enumerate() {
                    let acts = inst.on_message(from, &msg);
                    sink(n(i), acts, &mut unicasts, &mut broadcasts);
                }
            }
        }
        for (i, got) in delivered.iter().enumerate() {
            assert_eq!(got.as_ref(), Some(&payload()), "node {i}");
        }
    }

    /// Runs one broadcast from sender 0 to quiescence, every message
    /// delivered in send order, and returns what each node delivered and
    /// the `RbcReconstructed` events each emitted.
    fn run_to_quiescence(
        cfg: Config,
        payload: &[u8],
    ) -> (Vec<Option<Vec<u8>>>, Vec<Vec<ObsEvent>>) {
        use bft_obs::VecSink;
        let nodes = cfg.n();
        let (obs, sink) = Obs::new(VecSink::new());
        let mut insts: Vec<Inst> = (0..nodes)
            .map(|i| {
                let mut inst = Inst::new(cfg, n(i), n(0));
                inst.votes.set_obs(obs.clone(), "t".into());
                inst
            })
            .collect();
        let mut delivered: Vec<Option<Vec<u8>>> = vec![None; nodes];
        let mut queue: std::collections::VecDeque<(NodeId, RbcAction<Vec<u8>>)> =
            insts[0].start(payload.to_vec()).into_iter().map(|a| (n(0), a)).collect();
        while let Some((from, action)) = queue.pop_front() {
            let targets: Vec<(NodeId, RbcMessage<Vec<u8>>)> = match action {
                RbcAction::Send { to, msg } => vec![(to, msg)],
                RbcAction::Broadcast(msg) => (0..nodes).map(|i| (n(i), msg.clone())).collect(),
                RbcAction::Deliver(p) => {
                    assert!(delivered[from.index()].replace(p).is_none(), "one delivery");
                    continue;
                }
            };
            for (to, msg) in targets {
                let acts = insts[to.index()].on_message(from, &msg);
                queue.extend(acts.into_iter().map(|a| (to, a)));
            }
        }
        let mut reconstructed = vec![Vec::new(); nodes];
        for (_, node, e) in sink.lock().take() {
            if matches!(e, ObsEvent::RbcReconstructed { .. }) {
                reconstructed[node.index()].push(e);
            }
        }
        (delivered, reconstructed)
    }

    #[test]
    fn the_sender_delivers_what_it_encoded_and_every_other_node_decodes_it() {
        for nodes in [4usize, 7, 10] {
            let cfg = Config::new(nodes, (nodes - 1) / 3).unwrap();
            let sent: Vec<u8> = (0..1000u32).map(|i| (i * 7 + nodes as u32) as u8).collect();
            let (delivered, reconstructed) = run_to_quiescence(cfg, &sent);
            for (i, got) in delivered.iter().enumerate() {
                assert_eq!(got.as_ref(), Some(&sent), "n={nodes}: node {i}'s bytes");
            }
            assert!(reconstructed[0].is_empty(), "n={nodes}: the sender reconstructed");
            for (i, events) in reconstructed.iter().enumerate().skip(1) {
                let [ObsEvent::RbcReconstructed { bytes, consistent, .. }] = events.as_slice()
                else {
                    panic!("n={nodes}: node {i} must reconstruct once: {events:?}");
                };
                assert_eq!((*bytes, *consistent), (sent.len() as u64, true), "n={nodes} node {i}");
            }
        }
    }

    #[test]
    fn byzantine_non_codeword_commitment_delivers_empty_fallback() {
        // Forge a commitment over mixed shards of two payloads (as in the
        // bft-ec test) and run the instance to delivery: the re-encode
        // check fails and the canonical empty payload is delivered.
        let a = ec::encode(&payload(), 4, 2).unwrap();
        let b = ec::encode(&[9u8; 100], 4, 2).unwrap();
        let mixed: Vec<std::sync::Arc<[u8]>> = (0..4)
            .map(|i| {
                if i % 2 == 0 {
                    a.fragments[i].shard.clone()
                } else {
                    b.fragments[i].shard.clone()
                }
            })
            .collect();
        let leaves: Vec<u64> =
            mixed.iter().enumerate().map(|(i, s)| ec::merkle::leaf_hash(i as u16, s)).collect();
        let frags: Vec<Fragment> = mixed
            .iter()
            .enumerate()
            .map(|(i, shard)| Fragment {
                index: i as u16,
                total_len: 100,
                shard: shard.clone(),
                proof: ec::merkle::proof(&leaves, i),
            })
            .collect();
        // Rebind the forged Merkle root exactly as the encoder does — via
        // a fragment's successful verification against it. There is no
        // public constructor for a forged commitment, so recover it by
        // encoding a payload whose fragments we then swap out… simpler:
        // search the 64-bit space is impossible, so recompute through the
        // crate's own building blocks.
        let root = {
            // ec::encode commits as commitment(merkle_root, total_len, n, k);
            // replicate via a probe: encode any payload, then reuse the
            // same binding by checking verify() against candidate roots is
            // not possible — instead use the internal layout, pinned by
            // the cross-check below.
            let mut h = bft_types::hash::Fnv64::new();
            h.update(b"ec-commit")
                .update_u64(ec::merkle::root(&leaves))
                .update_u64(100)
                .update(&[4u8, 2u8]);
            h.finish()
        };
        for f in &frags {
            assert!(ec::verify(root, 4, 2, f), "forged commitment layout drifted");
        }

        let mut inst = Inst::new(cfg(), n(1), n(0));
        let ready = RbcMessage::CodedReady { root };
        for i in [0usize, 2, 3] {
            let _ = inst.on_message(n(i), &ready);
        }
        let _ = inst.on_message(n(0), &echo(root, &frags[0]));
        let acts = inst.on_message(n(2), &echo(root, &frags[2]));
        assert_eq!(acts, vec![RbcAction::Deliver(Vec::new())], "canonical fallback");
    }

    #[test]
    fn buffered_bytes_track_fragments() {
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        assert_eq!(inst.buffered_fragment_bytes(), 0);
        let _ = inst.on_message(n(2), &echo(c.root, &c.fragments[2]));
        assert_eq!(inst.buffered_fragment_bytes(), c.fragments[2].weight());
    }

    #[test]
    fn traced_instance_balances_all_spans() {
        use bft_obs::VecSink;
        let (obs, sink) = Obs::new(VecSink::new());
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        inst.votes.set_obs(obs.clone(), "t".into());
        let ctx = TraceCtx::derive(n(0), 0, 0);
        inst.votes.set_trace(Some(ctx));
        let _ = inst.on_message(
            n(0),
            &RbcMessage::CodedSend { root: c.root, fragment: c.fragments[1].clone() },
        );
        for i in [0usize, 2, 3] {
            let _ = inst.on_message(n(i), &echo(c.root, &c.fragments[i].clone()));
        }
        let delivered = [0usize, 2, 3]
            .into_iter()
            .flat_map(|i| inst.on_message(n(i), &RbcMessage::CodedReady { root: c.root }))
            .filter(|a| matches!(a, RbcAction::Deliver(_)))
            .count();
        assert_eq!(delivered, 1);
        let events = sink.lock().take();
        let mut open = 0i64;
        let mut starts = 0;
        for (_, _, e) in &events {
            match e {
                ObsEvent::SpanStart { .. } => {
                    open += 1;
                    starts += 1;
                }
                ObsEvent::SpanEnd { .. } => open -= 1,
                _ => {}
            }
        }
        assert_eq!(open, 0, "all spans closed");
        assert_eq!(starts, 3, "echo + ready + reconstruct spans");
    }

    #[test]
    fn finish_spans_closes_reconstruct_span() {
        use bft_obs::VecSink;
        let (obs, sink) = Obs::new(VecSink::new());
        let c = coded();
        let mut inst = Inst::new(cfg(), n(1), n(0));
        inst.votes.set_obs(obs.clone(), "t".into());
        inst.votes.set_trace(Some(TraceCtx::derive(n(0), 0, 0)));
        // Reach the ready quorum without fragments: reconstruct span opens.
        for i in [0usize, 2, 3] {
            let _ = inst.on_message(n(i), &RbcMessage::CodedReady { root: c.root });
        }
        inst.finish_spans();
        inst.finish_spans();
        let events = sink.lock().take();
        let starts =
            events.iter().filter(|(_, _, e)| matches!(e, ObsEvent::SpanStart { .. })).count();
        let ends = events.iter().filter(|(_, _, e)| matches!(e, ObsEvent::SpanEnd { .. })).count();
        assert_eq!(starts, ends, "balanced after GC: {events:?}");
    }

    /// n = 7, f = 2: Ready at 5 valid echoes or 3 Readys, Deliver at 5
    /// Readys and 3 verified fragments.
    fn cfg7() -> Config {
        Config::new(7, 2).unwrap()
    }

    fn corrupt(frag: &Fragment) -> Fragment {
        let mut bad = frag.clone();
        std::sync::Arc::make_mut(&mut bad.shard)[0] ^= 1;
        bad
    }

    /// Feeds `script` to node 1 of an n = 7 instance with sender 0 and
    /// returns the indices of the messages whose actions broadcast a Ready
    /// and deliver.
    fn ready_and_deliver_indices(
        script: &[(usize, RbcMessage<Vec<u8>>)],
    ) -> (Vec<usize>, Vec<usize>) {
        let mut inst = Inst::new(cfg7(), n(1), n(0));
        let (mut ready, mut deliver) = (Vec::new(), Vec::new());
        for (i, (from, msg)) in script.iter().enumerate() {
            for a in inst.on_message(n(*from), msg) {
                match a {
                    RbcAction::Broadcast(RbcMessage::CodedReady { .. }) => ready.push(i),
                    RbcAction::Deliver(_) => deliver.push(i),
                    _ => {}
                }
            }
        }
        (ready, deliver)
    }

    fn junk_then_valid_script() -> Vec<(usize, RbcMessage<Vec<u8>>)> {
        let c = ec::encode(&payload(), 7, 3).unwrap();
        let (root, f) = (c.root, &c.fragments);
        let ready = || RbcMessage::CodedReady { root };
        vec![
            (2, echo(root, &corrupt(&f[2]))),
            (3, echo(root, &f[3])),
            (2, echo(root, &f[2])),
            (4, echo(root, &corrupt(&f[4]))),
            (0, echo(root, &f[0])),
            (4, echo(root, &corrupt(&f[4]))),
            (5, ready()),
            (6, echo(root, &corrupt(&f[6]))),
            (4, echo(root, &f[4])),
            (4, echo(root, &f[4])),
            (6, echo(root, &f[6])),
            (6, ready()),
            (2, ready()),
            (3, ready()),
            (5, echo(root, &f[5])),
            (4, ready()),
            (0, ready()),
        ]
    }

    fn equivocating_roots_script() -> Vec<(usize, RbcMessage<Vec<u8>>)> {
        let a = ec::encode(&payload(), 7, 3).unwrap();
        let b = ec::encode(&[7u8; 80], 7, 3).unwrap();
        let (ra, rb, fa, fb) = (a.root, b.root, &a.fragments, &b.fragments);
        vec![
            (0, echo(ra, &fa[0])),
            (2, echo(rb, &fb[2])),
            (3, echo(ra, &corrupt(&fa[3]))),
            (3, echo(rb, &fb[3])),
            (4, echo(ra, &fa[4])),
            (2, echo(ra, &fa[2])),
            (5, echo(rb, &corrupt(&fb[5]))),
            (5, echo(ra, &fa[5])),
            (2, RbcMessage::CodedReady { root: rb }),
            (6, echo(rb, &fb[6])),
            (3, RbcMessage::CodedReady { root: ra }),
            (4, RbcMessage::CodedReady { root: ra }),
            (5, RbcMessage::CodedReady { root: ra }),
            (6, RbcMessage::CodedReady { root: ra }),
            (0, RbcMessage::CodedReady { root: ra }),
            (1, RbcMessage::CodedReady { root: ra }),
        ]
    }

    fn readys_first_script() -> Vec<(usize, RbcMessage<Vec<u8>>)> {
        let c = ec::encode(&payload(), 7, 3).unwrap();
        let (root, f) = (c.root, &c.fragments);
        let mut script: Vec<_> =
            [2, 3, 4, 5, 6].map(|i| (i, RbcMessage::CodedReady { root })).to_vec();
        script.extend([
            (2, echo(root, &corrupt(&f[2]))),
            (3, echo(root, &f[3])),
            (2, echo(root, &f[2])),
            (4, echo(root, &corrupt(&f[4]))),
            (4, echo(root, &f[4])),
            (5, echo(root, &f[5])),
        ]);
        script
    }

    /// The message indices at which Ready and Deliver fire on these
    /// scripts were recorded from the implementation that verified every
    /// echo on arrival; holding echoes must not move them.
    #[test]
    fn held_echoes_move_no_ready_and_no_deliver() {
        assert_eq!(ready_and_deliver_indices(&junk_then_valid_script()), (vec![10], vec![15]));
        assert_eq!(ready_and_deliver_indices(&equivocating_roots_script()), (vec![12], vec![14]));
        assert_eq!(ready_and_deliver_indices(&readys_first_script()), (vec![2], vec![9]));
    }
}
