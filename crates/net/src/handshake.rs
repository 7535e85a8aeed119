//! Preshared-key challenge–response handshake.
//!
//! Bracha's model assumes *authenticated* point-to-point links: when `v`
//! receives a message, it knows which node sent it. In-process transports
//! get this for free (the router stamps envelopes); over TCP the peer
//! manager must establish the sender identity once per connection, after
//! which every frame on that connection is attributed to the
//! authenticated dialer.
//!
//! Three-way exchange over handshake frames (`seq = 0`, never subject to
//! the chaos layer):
//!
//! ```text
//! dialer (u)                              accepter (v)
//!   | -- Hello     { u, nonce_u } ----------> |
//!   | <- Challenge { v, nonce_v,              |
//!   |        tag_v = MAC(K, "s->c", nonce_u, v) }
//!   |  verify tag_v                           |
//!   | -- Auth { tag_u = MAC(K, "c->s", nonce_v, u) } -> |
//!   |                                verify tag_u; link is now
//!   |                                authenticated as coming from u
//! ```
//!
//! `MAC` here is keyed FNV-1a (see [`bft_types::hash`]) — a documented
//! placeholder for a real MAC, sufficient against misconfiguration but
//! not against a cryptographic adversary. Nonces come from a process-wide
//! counter: uniqueness (not unpredictability) is what the placeholder
//! construction consumes.

use bft_types::hash::{fnv1a64, Fnv64};
use bft_types::wire::{put_u64, Codec, DecodeError, Reader};
use bft_types::NodeId;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The cluster's preshared key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Secret(u64);

impl Secret {
    /// Derives a key from a passphrase (FNV-1a of its bytes).
    pub fn from_passphrase(phrase: &str) -> Self {
        Secret(fnv1a64(phrase.as_bytes()))
    }

    /// Wraps a raw 64-bit key.
    pub const fn from_raw(key: u64) -> Self {
        Secret(key)
    }
}

impl Default for Secret {
    fn default() -> Self {
        Secret::from_passphrase("bft-net default cluster key")
    }
}

/// Process-wide nonce counter; uniqueness is all the placeholder MAC
/// needs (see module docs).
static NONCE: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_nonce() -> u64 {
    // Spread the counter so consecutive nonces don't share prefixes.
    let n = NONCE.fetch_add(1, Ordering::Relaxed);
    n.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The keyed tag: FNV-1a over (direction label, key, nonce, claimed id).
fn tag(secret: Secret, direction: &'static [u8], nonce: u64, id: NodeId) -> u64 {
    let mut h = Fnv64::new();
    h.update(direction);
    h.update_u64(secret.0);
    h.update_u64(nonce);
    h.update(&(id.index() as u32).to_le_bytes());
    h.finish()
}

const DIR_ACCEPTER: &[u8] = b"s->c";
const DIR_DIALER: &[u8] = b"c->s";

/// A handshake failure.
#[derive(Debug)]
pub enum HandshakeError {
    /// A handshake payload failed to decode.
    Decode(DecodeError),
    /// The peer presented a tag that does not verify under the preshared
    /// key (wrong key, wrong identity, or tampering).
    BadTag,
    /// The peer claimed an identity outside the cluster (or the dialed
    /// node answered with an unexpected id).
    BadPeer(u32),
}

impl fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandshakeError::Decode(e) => write!(f, "handshake payload error: {e}"),
            HandshakeError::BadTag => f.write_str("handshake tag verification failed"),
            HandshakeError::BadPeer(id) => write!(f, "peer claimed invalid identity {id}"),
        }
    }
}

impl std::error::Error for HandshakeError {}

impl From<DecodeError> for HandshakeError {
    fn from(e: DecodeError) -> Self {
        HandshakeError::Decode(e)
    }
}

// ---- pure handshake steps -------------------------------------------------
//
// The reactor's nonblocking handshake state machines (the dialer's link,
// the accepter's inbound connection) build and check every payload with
// these; framing and frame-kind checks stay with the reactor.

/// Builds the Hello body: `me ‖ nonce_me`.
pub(crate) fn hello_payload(me: NodeId, nonce_me: u64) -> Vec<u8> {
    let mut hello = Vec::new();
    me.encode(&mut hello);
    put_u64(&mut hello, nonce_me);
    hello
}

/// Parses a Hello body into `(peer, nonce_peer)`, enforcing cluster
/// membership for an accepter at node `me` in an `n`-node cluster.
pub(crate) fn parse_hello(
    payload: &[u8],
    me: NodeId,
    n: usize,
) -> Result<(NodeId, u64), HandshakeError> {
    let mut r = Reader::new(payload);
    let peer = NodeId::decode(&mut r)?;
    let nonce = r.u64()?;
    r.finish()?;
    if peer.index() >= n || peer == me {
        return Err(HandshakeError::BadPeer(peer.index() as u32));
    }
    Ok((peer, nonce))
}

/// Builds the Challenge body: `me ‖ nonce_me ‖ tag(K, "s->c", nonce_peer, me)`.
pub(crate) fn challenge_payload(
    secret: Secret,
    me: NodeId,
    nonce_me: u64,
    nonce_peer: u64,
) -> Vec<u8> {
    let mut challenge = Vec::new();
    me.encode(&mut challenge);
    put_u64(&mut challenge, nonce_me);
    put_u64(&mut challenge, tag(secret, DIR_ACCEPTER, nonce_peer, me));
    challenge
}

/// Parses and verifies a Challenge body for a dialer that sent
/// `nonce_me` and expects to be talking to `expect`; returns the
/// accepter's nonce.
pub(crate) fn parse_challenge(
    payload: &[u8],
    secret: Secret,
    expect: NodeId,
    nonce_me: u64,
) -> Result<u64, HandshakeError> {
    let mut r = Reader::new(payload);
    let peer = NodeId::decode(&mut r)?;
    let nonce_peer = r.u64()?;
    let tag_peer = r.u64()?;
    r.finish()?;
    if peer != expect {
        return Err(HandshakeError::BadPeer(peer.index() as u32));
    }
    if tag_peer != tag(secret, DIR_ACCEPTER, nonce_me, peer) {
        return Err(HandshakeError::BadTag);
    }
    Ok(nonce_peer)
}

/// Builds the Auth body: `tag(K, "c->s", nonce_peer, me)`.
pub(crate) fn auth_payload(secret: Secret, nonce_peer: u64, me: NodeId) -> Vec<u8> {
    let mut auth = Vec::new();
    put_u64(&mut auth, tag(secret, DIR_DIALER, nonce_peer, me));
    auth
}

/// Parses and verifies an Auth body for an accepter that sent `nonce_me`
/// to a dialer claiming to be `peer`.
pub(crate) fn parse_auth(
    payload: &[u8],
    secret: Secret,
    peer: NodeId,
    nonce_me: u64,
) -> Result<(), HandshakeError> {
    let mut r = Reader::new(payload);
    let tag_peer = r.u64()?;
    r.finish()?;
    if tag_peer != tag(secret, DIR_DIALER, nonce_me, peer) {
        return Err(HandshakeError::BadTag);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_keys_authenticate() {
        let secret = Secret::from_passphrase("test cluster");
        let (dialer, accepter) = (NodeId::new(2), NodeId::new(1));
        let nonce_d = next_nonce();
        let hello = hello_payload(dialer, nonce_d);
        let (peer, nonce_seen) = parse_hello(&hello, accepter, 4).expect("accepter reads Hello");
        assert_eq!((peer, nonce_seen), (dialer, nonce_d));
        let nonce_a = next_nonce();
        let challenge = challenge_payload(secret, accepter, nonce_a, nonce_seen);
        let nonce_peer = parse_challenge(&challenge, secret, accepter, nonce_d).expect("dial side");
        assert_eq!(nonce_peer, nonce_a);
        let auth = auth_payload(secret, nonce_peer, dialer);
        assert!(parse_auth(&auth, secret, peer, nonce_a).is_ok(), "accept side");
    }

    #[test]
    fn wrong_key_is_rejected_by_dialer_and_accepter() {
        let (key_a, key_d) = (Secret::from_raw(1), Secret::from_raw(2));
        let (dialer, accepter) = (NodeId::new(1), NodeId::new(0));
        let (nonce_d, nonce_a) = (next_nonce(), next_nonce());
        let challenge = challenge_payload(key_a, accepter, nonce_a, nonce_d);
        let got = parse_challenge(&challenge, key_d, accepter, nonce_d);
        assert!(matches!(got, Err(HandshakeError::BadTag)));
        // A dialer that pressed on regardless fails at the accepter.
        let auth = auth_payload(key_d, nonce_a, dialer);
        assert!(matches!(parse_auth(&auth, key_a, dialer, nonce_a), Err(HandshakeError::BadTag)));
    }

    #[test]
    fn out_of_cluster_identity_is_rejected() {
        // Claim node id 9 in a 4-node cluster.
        let hello = hello_payload(NodeId::new(9), next_nonce());
        assert!(matches!(parse_hello(&hello, NodeId::new(0), 4), Err(HandshakeError::BadPeer(9))));
    }

    #[test]
    fn dialer_claiming_the_accepters_own_id_is_rejected() {
        let hello = hello_payload(NodeId::new(2), next_nonce());
        assert!(matches!(parse_hello(&hello, NodeId::new(2), 4), Err(HandshakeError::BadPeer(2))));
    }

    #[test]
    fn nonces_are_unique() {
        let a = next_nonce();
        let b = next_nonce();
        assert_ne!(a, b);
    }
}
