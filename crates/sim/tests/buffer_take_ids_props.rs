//! Property test: `Buffer::take_ids` against a reference built from
//! ordered sets and maps.
//!
//! The reference is the buffer's earlier implementation, written over the
//! public API: it drains the whole buffer, sets the wanted envelopes aside
//! in a `BTreeMap` keyed by id, pushes the rest back (`take_all` yields
//! (source, send) order and `push` appends per source, so the remainder
//! keeps its order) and returns the wanted ones in the requested order.
//! On seeded random buffers (several sources, interleaved ids) and id lists
//! with unknown ids, repeats and any order, both must return the same
//! envelopes, leave the same `len()` and the same remaining `iter()` order.

use std::collections::{BTreeMap, BTreeSet};

use kset_sim::{Buffer, Envelope, MsgId, ProcessId, Time};

fn reference_take_ids(buf: &mut Buffer<u32>, ids: &[MsgId]) -> Vec<Envelope<u32>> {
    let wanted: BTreeSet<MsgId> = ids.iter().copied().collect();
    let mut extracted: BTreeMap<MsgId, Envelope<u32>> = BTreeMap::new();
    let mut all = Vec::new();
    buf.take_all(&mut all);
    for env in all {
        if wanted.contains(&env.id) {
            extracted.insert(env.id, env);
        } else {
            buf.push(env);
        }
    }
    ids.iter().filter_map(|id| extracted.remove(id)).collect()
}

/// SplitMix64: a seeded, dependency-free draw sequence.
struct Draws(u64);

impl Draws {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound.max(1)
    }
}

/// A buffer of `len` messages from up to `sources` senders, ids ascending
/// in send order with random gaps (so unknown ids fall between known ones).
fn random_buffer(draws: &mut Draws) -> (Buffer<u32>, Vec<MsgId>) {
    let sources = 1 + draws.below(6) as usize;
    let len = draws.below(40);
    let mut buf = Buffer::new();
    let mut ids = Vec::new();
    let mut next = draws.below(3);
    for payload in 0..len as u32 {
        let id = MsgId::new(next);
        next += 1 + draws.below(3);
        let src = ProcessId::new(draws.below(sources as u64) as usize);
        buf.push(Envelope::new(
            id,
            src,
            ProcessId::new(0),
            Time::new(id.raw()),
            payload,
        ));
        ids.push(id);
    }
    (buf, ids)
}

/// An id list over `known`: unknown ids, repeats and any order, or (one
/// time in three) strictly ascending.
fn random_request(draws: &mut Draws, known: &[MsgId]) -> Vec<MsgId> {
    let max = known.last().map_or(0, |id| id.raw());
    let len = draws.below(known.len() as u64 + 6);
    let mut out: Vec<MsgId> = Vec::new();
    for _ in 0..len {
        let id = match draws.below(4) {
            0 => MsgId::new(draws.below(max + 8)),
            1 if !out.is_empty() => out[draws.below(out.len() as u64) as usize],
            _ if !known.is_empty() => known[draws.below(known.len() as u64) as usize],
            _ => MsgId::new(draws.below(8)),
        };
        out.push(id);
    }
    if draws.below(3) == 0 {
        out.sort_unstable();
        out.dedup();
    }
    out
}

fn remaining(buf: &Buffer<u32>) -> Vec<(MsgId, ProcessId, u32)> {
    buf.iter().map(|e| (e.id, e.src, e.payload)).collect()
}

#[test]
fn take_ids_matches_the_ordered_map_reference() {
    let mut draws = Draws(0x07a4_e1d5);
    let mut nonempty = 0;
    for case in 0..2_000 {
        let (mut fast, known) = random_buffer(&mut draws);
        let mut reference = fast.clone();
        // Two rounds, so the second request meets a buffer with holes.
        for round in 0..2 {
            let request = random_request(&mut draws, &known);
            let mut got = Vec::new();
            fast.take_ids(&request, &mut got);
            let want = reference_take_ids(&mut reference, &request);
            let tag = format!("case {case} round {round}: request {request:?}");
            assert_eq!(got, want, "{tag}: taken envelopes");
            assert_eq!(fast.len(), reference.len(), "{tag}: len");
            assert_eq!(remaining(&fast), remaining(&reference), "{tag}: iter order");
            nonempty += usize::from(!got.is_empty());
        }
    }
    assert!(nonempty > 1_000, "only {nonempty} requests took anything");
}
