//! Layer drives: each calls one layer's public entry points directly,
//! single-threaded, on seeded inputs, for a fraction of a second. They
//! run at the end of the traced run and say what a layer costs in
//! isolation; the in-situ metrics say how much of it a workload uses.

use crate::rng::Rng;
use async_bft::coin::CommonCoin;
use async_bft::ec::{self, merkle};
use async_bft::net::frame::decode_prefix;
use async_bft::net::{encode_frame, fnv1a64, Codec, FrameKind};
use async_bft::order::gateway::GatewayCore;
use async_bft::order::{LogEntry, OrderMessage, OrderOptions, OrderProcess};
use async_bft::smr::{KvOp, KvState};
use async_bft::types::{Config, Effect, NodeId, Process};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long each drive loops.
const DRIVE_TIME: Duration = Duration::from_millis(150);

/// Calls `op` until [`DRIVE_TIME`] is used, reading the clock once per
/// batch (batches grow until one takes a millisecond); returns mean
/// nanoseconds per call.
fn ns_per_call(mut op: impl FnMut()) -> f64 {
    let started = Instant::now();
    let (mut calls, mut batch) = (0u64, 1u64);
    loop {
        let batch_started = Instant::now();
        for _ in 0..batch {
            op();
        }
        calls += batch;
        if started.elapsed() >= DRIVE_TIME {
            return started.elapsed().as_nanos() as f64 / calls as f64;
        }
        if batch_started.elapsed() < Duration::from_millis(1) {
            batch *= 2;
        }
    }
}

fn mib_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / (1 << 20) as f64 / (ns / 1e9)
}

/// Reed–Solomon + Merkle at the `sim7_bulk` geometry (n = 7, k = 3) on
/// a 256 KiB payload.
fn ec(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    const N: usize = 7;
    const K: usize = 3;
    let mut payload = vec![0u8; 256 << 10];
    Rng::fork(seed, "drive/ec").fill(&mut payload);
    let Ok(coded) = ec::encode(&payload, N, K) else { return };
    out.push((
        "ec.encode_mib_per_s",
        mib_per_s(
            payload.len(),
            ns_per_call(|| {
                black_box(ec::encode(black_box(&payload), N, K).is_ok());
            }),
        ),
    ));
    // Two parity shards and one data shard: interpolation does real work.
    let picked: Vec<ec::Fragment> =
        [2usize, 4, 6].iter().filter_map(|&i| coded.fragments.get(i).cloned()).collect();
    out.push((
        "ec.reconstruct_mib_per_s",
        mib_per_s(
            payload.len(),
            ns_per_call(|| {
                black_box(ec::reconstruct(coded.root, N, K, black_box(&picked)).is_ok());
            }),
        ),
    ));
    let leaves: Vec<u64> =
        coded.fragments.iter().map(|f| merkle::leaf_hash(f.index, &f.shard)).collect();
    let root = merkle::root(&leaves);
    let path = merkle::proof(&leaves, 5);
    out.push((
        "ec.merkle_verify_ns",
        ns_per_call(|| {
            black_box(merkle::verify(root, N, 5, black_box(leaves[5]), black_box(&path)));
        }),
    ));
}

/// The first agreement message a 4-node ordering cluster broadcasts,
/// obtained by stepping four `OrderProcess`es by hand — 97% of wire
/// traffic has this shape.
fn first_aba_message(seed: u64) -> Option<OrderMessage> {
    let cfg = Config::new(4, 1).ok()?;
    let opts =
        OrderOptions { batch_max: 4, pipeline_depth: 1, epochs: 1, ..OrderOptions::default() };
    let mut nodes: Vec<OrderProcess<CommonCoin>> = cfg
        .nodes()
        .map(|id| {
            OrderProcess::new(cfg, id, opts, vec![vec![id.index() as u8; 32]], move |inst| {
                CommonCoin::new(seed, inst)
            })
        })
        .collect();
    let mut queue: VecDeque<(NodeId, NodeId, OrderMessage)> = VecDeque::new();
    let enqueue = |from: NodeId, effects: Vec<Effect<OrderMessage, _>>, queue: &mut VecDeque<_>| {
        for effect in effects {
            match effect {
                Effect::Broadcast { msg } => {
                    for to in cfg.nodes() {
                        queue.push_back((from, to, msg.clone()));
                    }
                }
                Effect::Send { to, msg } => queue.push_back((from, to, msg)),
                _ => {}
            }
        }
    };
    for (i, node) in nodes.iter_mut().enumerate() {
        enqueue(NodeId::new(i), node.on_start(), &mut queue);
    }
    while let Some((from, to, msg)) = queue.pop_front() {
        if matches!(msg, OrderMessage::Aba { .. }) {
            return Some(msg);
        }
        let effects = nodes[to.index()].on_message(from, &msg);
        enqueue(to, effects, &mut queue);
    }
    None
}

fn frame_and_codec(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let mut small = [0u8; 64];
    Rng::fork(seed, "drive/frame").fill(&mut small);
    let Ok(encoded) = encode_frame(FrameKind::Msg, 7, 0, &small) else { return };
    out.push((
        "frame.encode_ns_64b",
        ns_per_call(|| {
            black_box(encode_frame(FrameKind::Msg, 7, 0, black_box(&small)).is_ok());
        }),
    ));
    out.push((
        "frame.decode_ns_64b",
        ns_per_call(|| {
            black_box(decode_prefix(black_box(&encoded)).is_ok());
        }),
    ));
    let mut big = vec![0u8; 16 << 10];
    Rng::fork(seed, "drive/checksum").fill(&mut big);
    out.push((
        "frame.checksum_ns_per_kib",
        ns_per_call(|| {
            black_box(fnv1a64(black_box(&big)));
        }) / 16.0,
    ));
    if let Some(msg) = first_aba_message(seed) {
        out.push((
            "codec.order_msg_roundtrip_ns",
            ns_per_call(|| {
                let bytes = black_box(&msg).to_bytes();
                black_box(OrderMessage::from_bytes(&bytes).is_ok());
            }),
        ));
    }
}

/// `GatewayCore::offer` + `mark_committed`: the per-request policy work
/// of the gateway, 64 clients in turn.
fn gateway(out: &mut Vec<(&'static str, f64)>) {
    let mut core = GatewayCore::new();
    let mut next = [1u64; 64];
    let mut turn = 0usize;
    out.push((
        "gateway.offer_ns",
        ns_per_call(|| {
            let client = turn % 64;
            turn += 1;
            let seq = next[client];
            next[client] += 1;
            black_box(core.offer(client as u64, seq, || Ok(())));
            black_box(core.mark_committed(client as u64, seq));
        }),
    ));
}

/// `KvState`: applying 4 KiB puts over a 4096-key space, then
/// snapshotting and restoring the resulting ~16 MiB state.
fn smr(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = Rng::fork(seed, "drive/smr");
    let entries: Vec<LogEntry> = (0..4096u64)
        .map(|i| {
            let mut value = vec![0u8; 4 << 10];
            rng.fill(&mut value);
            let key = format!("k{:04}", rng.below(4096)).into_bytes();
            LogEntry {
                epoch: i / 64,
                proposer: NodeId::new(0),
                tx: KvOp::Put { key, value }.encode(),
            }
        })
        .collect();
    let mut state = KvState::new();
    let mut i = 0usize;
    out.push((
        "smr.apply_us_per_op",
        ns_per_call(|| {
            state.apply_slot(black_box(&entries[i % entries.len()]));
            i += 1;
        }) / 1e3,
    ));
    let snapshot = state.snapshot();
    out.push((
        "smr.snapshot_mib_per_s",
        mib_per_s(
            snapshot.len(),
            ns_per_call(|| {
                let bytes = black_box(&state).snapshot();
                black_box(KvState::restore(&bytes).is_some());
            }),
        ),
    ));
}

/// Every drive's metrics, by name.
pub fn run(seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    ec(seed, &mut out);
    frame_and_codec(seed, &mut out);
    gateway(&mut out);
    smr(seed, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_hand_stepped_cluster_reaches_agreement_traffic() {
        let msg = first_aba_message(1).expect("an Aba message is broadcast");
        let bytes = msg.to_bytes();
        assert_eq!(OrderMessage::from_bytes(&bytes).ok(), Some(msg));
    }
}
