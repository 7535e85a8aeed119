//! Adversarial-length wire-safety properties: every length/count prefix
//! a Byzantine peer controls is mutated to extreme values, and each
//! decoder must reject with a *typed* error — no panic, no allocation
//! sized by the hostile claim. These pin the decode-time caps
//! (`MAX_WIRE_NODE_INDEX`, the frame-payload cap on shard/byte-string
//! lengths, the batch count bound, and `ec::MAX_TOTAL_LEN`).

use async_bft::ec::{self, EcError, Fragment, MAX_TOTAL_LEN};
use async_bft::order::{decode_batch, encode_batch};
use async_bft::smr::{KvOp, SmrMessage};
use async_bft::types::wire::{Codec, DecodeError, Reader, MAX_PAYLOAD, MAX_WIRE_NODE_INDEX};
use async_bft::types::NodeId;
use proptest::prelude::*;

/// Encodes a value through the wire codec into a fresh byte buffer.
fn to_bytes<T: Codec>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a full buffer, requiring it to be consumed exactly.
fn from_bytes<T: Codec>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Fragment wire layout: `index: u16 | total_len: u32 | shard_len: u32 |
/// shard bytes | proof_len: u16 | proof u64s`. Byte offset of the shard
/// length prefix.
const SHARD_LEN_OFFSET: usize = 2 + 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A hostile shard-length prefix past the frame cap is rejected as
    /// `Oversize` *before* any allocation sized by the claim; a claim
    /// the cap permits but the buffer cannot hold fails as a typed
    /// error too (truncation, never a panic).
    #[test]
    fn hostile_shard_length_is_typed(
        shard_len in 0usize..64,
        claim in MAX_PAYLOAD + 1..=u32::MAX,
    ) {
        let frag = Fragment {
            index: 3,
            total_len: 96,
            shard: vec![0x5A; shard_len].into(),
            proof: vec![1, 2, 3],
        };
        let mut bytes = to_bytes(&frag);
        bytes[SHARD_LEN_OFFSET..SHARD_LEN_OFFSET + 4].copy_from_slice(&claim.to_le_bytes());
        prop_assert_eq!(from_bytes::<Fragment>(&bytes), Err(DecodeError::Oversize(claim)));
        // A within-cap claim larger than the buffer is a typed error.
        let truncating = MAX_PAYLOAD; // far beyond the 64-byte shard area
        bytes[SHARD_LEN_OFFSET..SHARD_LEN_OFFSET + 4].copy_from_slice(&truncating.to_le_bytes());
        prop_assert!(matches!(
            from_bytes::<Fragment>(&bytes),
            Err(DecodeError::Truncated { .. })
        ));
    }

    /// A node index above `MAX_WIRE_NODE_INDEX` is a typed `Invalid`
    /// error (downstream bitsets size per-node state by index).
    #[test]
    fn hostile_node_index_is_invalid(index in MAX_WIRE_NODE_INDEX as u32 + 1..=u32::MAX) {
        let bytes = index.to_le_bytes().to_vec();
        prop_assert!(matches!(
            from_bytes::<NodeId>(&bytes),
            Err(DecodeError::Invalid { what: "node index", .. })
        ));
        // The cap itself and everything below it round-trips.
        let ok = NodeId::new((index as usize) % (MAX_WIRE_NODE_INDEX + 1));
        prop_assert_eq!(from_bytes::<NodeId>(&to_bytes(&ok)), Ok(ok));
    }

    /// Byte-string and string length prefixes past the frame cap are
    /// `Oversize`; claims beyond the buffer are `Truncated`. Never a
    /// panic, never an allocation sized by the claim.
    #[test]
    fn hostile_byte_string_length_is_typed(
        len in 0usize..48,
        claim in 0u32..=u32::MAX,
    ) {
        let value: Vec<u8> = vec![0xC3; len];
        let mut bytes = to_bytes(&value);
        bytes[..4].copy_from_slice(&claim.to_le_bytes());
        match from_bytes::<Vec<u8>>(&bytes) {
            Ok(back) => prop_assert_eq!(back, value), // claim == len
            Err(DecodeError::Oversize(got)) => prop_assert!(got > MAX_PAYLOAD),
            Err(DecodeError::Truncated { .. }) => {
                prop_assert!(claim as usize > len && claim <= MAX_PAYLOAD)
            }
            Err(DecodeError::Trailing { .. }) => prop_assert!((claim as usize) < len),
            Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
        }

        let text = "x".repeat(len);
        let mut bytes = to_bytes(&text);
        bytes[..4].copy_from_slice(&claim.to_le_bytes());
        match from_bytes::<String>(&bytes) {
            Ok(back) => prop_assert_eq!(back, text),
            Err(DecodeError::Oversize(got)) => prop_assert!(got > MAX_PAYLOAD),
            Err(_) => {}
        }
    }

    /// A hostile batch count or entry length makes `decode_batch` fall
    /// back to the single-opaque-payload path — totality holds (all
    /// correct nodes decode the same bytes to the same entries) and the
    /// count never drives a loop or allocation.
    #[test]
    fn hostile_batch_prefixes_fall_back_to_opaque(
        txs in proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..16), 1..8),
        claim in 0u32..=u32::MAX,
    ) {
        let good = encode_batch(&txs);
        prop_assert_eq!(decode_batch(&good), txs);

        // Mutate the count prefix.
        let mut evil = good.clone();
        evil[..4].copy_from_slice(&claim.to_le_bytes());
        let decoded = decode_batch(&evil);
        if claim as usize == decode_batch(&good).len() {
            prop_assert_eq!(decoded.len(), claim as usize);
        } else {
            // Any other claim is malformed: one opaque entry, byte-equal
            // to the (mutated) body.
            prop_assert_eq!(decoded, vec![evil.clone()]);
        }

        // Mutate the first entry's length prefix to an extreme value.
        let mut evil = good;
        evil[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        prop_assert_eq!(decode_batch(&evil), vec![evil.clone()]);
    }

    /// Random garbage never panics any of the length-prefixed decoders.
    #[test]
    fn garbage_never_panics_decoders(bytes in proptest::collection::vec(0u8..=255, 0..96)) {
        let _ = from_bytes::<Fragment>(&bytes);
        let _ = from_bytes::<NodeId>(&bytes);
        let _ = from_bytes::<Vec<u8>>(&bytes);
        let _ = from_bytes::<String>(&bytes);
        let _ = decode_batch(&bytes);
        let _ = from_bytes::<SmrMessage>(&bytes);
        let _ = KvOp::decode(&bytes);
    }

    /// A hostile state-machine message discriminant is a typed
    /// `Invalid` error, never a panic, whatever bytes follow it.
    #[test]
    fn hostile_smr_discriminant_is_invalid(
        disc in 6u8..=u8::MAX,
        tail in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut bytes = vec![disc];
        bytes.extend_from_slice(&tail);
        prop_assert!(matches!(
            from_bytes::<SmrMessage>(&bytes),
            Err(DecodeError::Invalid { what: "smr message discriminant", .. })
        ));
    }

    /// Hostile length prefixes inside a `CkptInfo`/`ChunkReq` body (the
    /// fixed-width state-transfer arms) and truncations of any SMR
    /// message are typed errors; intact encodings round-trip.
    #[test]
    fn smr_message_truncation_is_typed(
        epoch in 0u64..=u64::MAX,
        hash in 0u64..=u64::MAX,
        cut in 0usize..17,
    ) {
        let msg = SmrMessage::CkptInfo { epoch, hash };
        let bytes = to_bytes(&msg);
        prop_assert_eq!(from_bytes::<SmrMessage>(&bytes).as_ref(), Ok(&msg));
        let cut = cut.min(bytes.len() - 1);
        if cut > 0 {
            prop_assert!(matches!(
                from_bytes::<SmrMessage>(&bytes[..bytes.len() - cut]),
                Err(DecodeError::Truncated { .. })
            ));
        }

        let msg = SmrMessage::ChunkReq { epoch };
        let bytes = to_bytes(&msg);
        prop_assert_eq!(from_bytes::<SmrMessage>(&bytes), Ok(msg));
    }
}

proptest! {
    // Fewer cases: each runs a real erasure-coding round.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fragments claiming a `total_len` past `MAX_TOTAL_LEN` are
    /// rejected by `reconstruct` with a typed error before the claim
    /// sizes shard interpolation or the output buffer.
    #[test]
    fn hostile_total_len_is_rejected_by_reconstruct(
        payload in proptest::collection::vec(0u8..=255, 1..64),
        excess in 1u32..=u32::MAX - MAX_TOTAL_LEN,
    ) {
        let (n, k) = (4usize, 2usize);
        let coded = ec::encode(&payload, n, k).expect("valid geometry");
        // Honest fragments reconstruct the payload.
        let back = ec::reconstruct(coded.root, n, k, &coded.fragments[..k]);
        prop_assert_eq!(back, Ok(payload));

        // A Byzantine sender rewrites every total_len to a hostile claim.
        let claim = MAX_TOTAL_LEN + excess;
        let evil: Vec<Fragment> = coded
            .fragments
            .iter()
            .map(|f| Fragment { total_len: claim, ..f.clone() })
            .collect();
        prop_assert_eq!(
            ec::reconstruct(coded.root, n, k, &evil[..k]),
            Err(EcError::PayloadTooLarge { len: claim as usize })
        );
    }
}

/// The boundary itself: a fragment set claiming exactly `MAX_TOTAL_LEN`
/// is *not* rejected for size (it fails later checks instead), while
/// one byte more is.
#[test]
fn total_len_cap_is_exact() {
    let coded = ec::encode(&[1, 2, 3, 4], 4, 2).unwrap();
    let at_cap: Vec<Fragment> = coded
        .fragments
        .iter()
        .map(|f| Fragment { total_len: MAX_TOTAL_LEN, ..f.clone() })
        .collect();
    assert_ne!(
        ec::reconstruct(coded.root, 4, 2, &at_cap[..2]),
        Err(EcError::PayloadTooLarge { len: MAX_TOTAL_LEN as usize })
    );
    let over: Vec<Fragment> = coded
        .fragments
        .iter()
        .map(|f| Fragment { total_len: MAX_TOTAL_LEN + 1, ..f.clone() })
        .collect();
    assert_eq!(
        ec::reconstruct(coded.root, 4, 2, &over[..2]),
        Err(EcError::PayloadTooLarge { len: MAX_TOTAL_LEN as usize + 1 })
    );
}
