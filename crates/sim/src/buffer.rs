//! Per-process message buffers.
//!
//! The model keeps one buffer per process containing messages sent to it but
//! not yet received (Section II of the paper). The buffer is a *multiset*:
//! the same payload may be enqueued many times. Our representation
//! additionally maintains FIFO order **per source**, which lets schedulers
//! express deliveries as "the oldest `c` messages from source `q`" — the key
//! primitive used to replay a partition-local schedule inside a larger
//! system when pasting runs (Lemmas 11/12 of the paper).
//!
//! Note that FIFO-per-source is a property of the *representation*, not of
//! the *model*: schedulers remain free to deliver any subset in any order by
//! selecting explicit [`MsgId`]s, so the asynchronous model's full
//! reordering power is preserved.
//!
//! Internally the buffer is a dense `Vec` of per-source FIFO queues indexed
//! by sender id — source ids are always drawn from `0..n`, so the dense
//! layout replaces the former `BTreeMap<ProcessId, VecDeque>` with direct
//! indexing on the receive hot path.

use std::collections::VecDeque;

use crate::ids::{MsgId, ProcessId, ProcessSet};
use crate::message::Envelope;

/// The message buffer of one process.
///
/// # Examples
///
/// ```
/// use kset_sim::{Buffer, Envelope, MsgId, ProcessId, Time};
///
/// let mut buf: Buffer<&'static str> = Buffer::new();
/// buf.push(Envelope::new(MsgId::new(0), ProcessId::new(1), ProcessId::new(0), Time::new(1), "a"));
/// assert_eq!(buf.len(), 1);
/// let mut taken = Vec::new();
/// buf.take_oldest_from(ProcessId::new(1), 1, &mut taken);
/// assert_eq!(taken.len(), 1);
/// assert!(buf.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Buffer<M> {
    /// Pending messages, indexed by source id, FIFO within each source.
    by_src: Vec<VecDeque<Envelope<M>>>,
    /// Total number of pending messages.
    len: usize,
}

impl<M> Default for Buffer<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Buffer<M> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Buffer {
            by_src: Vec::new(),
            len: 0,
        }
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no pending messages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues a message.
    pub fn push(&mut self, env: Envelope<M>) {
        let idx = env.src.index();
        if idx >= self.by_src.len() {
            self.by_src.resize_with(idx + 1, VecDeque::new);
        }
        self.by_src[idx].push_back(env);
        self.len += 1;
    }

    /// Iterates over all pending messages in (source id, send order).
    pub fn iter(&self) -> impl Iterator<Item = &Envelope<M>> {
        self.by_src.iter().flatten()
    }

    /// The distinct sources with at least one pending message, ascending.
    pub fn sources(&self) -> ProcessSet {
        self.by_src
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .map(|(i, _)| ProcessId::new(i))
            .collect()
    }

    /// Number of pending messages from `src`.
    pub fn pending_from(&self, src: ProcessId) -> usize {
        self.by_src.get(src.index()).map_or(0, VecDeque::len)
    }

    /// Moves the oldest `count` messages from `src` (fewer if fewer are
    /// pending) to the end of `out`, preserving their send order.
    pub fn take_oldest_from(&mut self, src: ProcessId, count: usize, out: &mut Vec<Envelope<M>>) {
        let Some(queue) = self.by_src.get_mut(src.index()) else {
            return;
        };
        let take = count.min(queue.len());
        out.extend(queue.drain(..take));
        self.len -= take;
    }

    /// Moves every pending message to the end of `out`, ordered by (source,
    /// send order).
    pub fn take_all(&mut self, out: &mut Vec<Envelope<M>>) {
        out.reserve(self.len);
        for queue in &mut self.by_src {
            out.extend(queue.drain(..));
        }
        self.len = 0;
    }

    /// Moves every pending message whose source is in `allowed` to the end
    /// of `out`, ordered by (source, send order). Messages from other
    /// sources remain.
    pub fn take_all_from(&mut self, allowed: ProcessSet, out: &mut Vec<Envelope<M>>) {
        let before = out.len();
        for (i, queue) in self.by_src.iter_mut().enumerate() {
            if allowed.contains(ProcessId::new(i)) {
                out.extend(queue.drain(..));
            }
        }
        self.len -= out.len() - before;
    }

    /// Moves the messages with the given ids to the end of `out`, in the
    /// order the ids are listed (a repeated id counts at its first
    /// position). Ids not present in the buffer are silently skipped; the
    /// remaining messages keep their per-source send order.
    pub fn take_ids(&mut self, ids: &[MsgId], out: &mut Vec<Envelope<M>>) {
        // Each wanted id with its first position in `ids`, sorted by id.
        let mut firsts: Vec<(MsgId, usize)> = ids.iter().copied().zip(0..).collect();
        firsts.sort_unstable();
        firsts.dedup_by_key(|&mut (id, _)| id);
        let mut taken: Vec<(usize, Envelope<M>)> = Vec::with_capacity(firsts.len());
        for queue in &mut self.by_src {
            if taken.len() == firsts.len() {
                break;
            }
            // Rotate the queue once, setting the wanted messages aside.
            for _ in 0..queue.len() {
                let Some(env) = queue.pop_front() else { break };
                match firsts.binary_search_by_key(&env.id, |&(id, _)| id) {
                    Ok(i) => taken.push((firsts[i].1, env)),
                    Err(_) => queue.push_back(env),
                }
            }
        }
        self.len -= taken.len();
        taken.sort_unstable_by_key(|&(first, _)| first);
        out.extend(taken.into_iter().map(|(_, env)| env));
    }

    /// Ids of all pending messages, ordered by (source, send order).
    pub fn pending_ids(&self) -> Vec<MsgId> {
        self.iter().map(|e| e.id).collect()
    }

    /// Puts taken messages back, each at its send-order position within its
    /// source (ids grow within a source): the inverse of any `take_*`,
    /// whatever order the messages come in.
    pub(crate) fn restore(&mut self, envs: impl IntoIterator<Item = Envelope<M>>) {
        for env in envs {
            let queue = &mut self.by_src[env.src.index()];
            let at = queue.partition_point(|e| e.id < env.id);
            queue.insert(at, env);
            self.len += 1;
        }
    }

    /// Drops the newest pending message from `src`: the inverse of the
    /// [`Buffer::push`] that appended it.
    pub(crate) fn drop_newest_from(&mut self, src: ProcessId) {
        if self.by_src[src.index()].pop_back().is_some() {
            self.len -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Time;

    fn env(id: u64, src: usize, payload: u32) -> Envelope<u32> {
        Envelope::new(
            MsgId::new(id),
            ProcessId::new(src),
            ProcessId::new(0),
            Time::new(id),
            payload,
        )
    }

    #[test]
    fn push_and_len() {
        let mut b = Buffer::new();
        assert!(b.is_empty());
        b.push(env(0, 1, 10));
        b.push(env(1, 2, 20));
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn take_oldest_preserves_fifo_per_source() {
        let mut b = Buffer::new();
        b.push(env(0, 1, 10));
        b.push(env(1, 1, 11));
        b.push(env(2, 1, 12));
        let mut got = Vec::new();
        b.take_oldest_from(ProcessId::new(1), 2, &mut got);
        assert_eq!(
            got.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![10, 11]
        );
        assert_eq!(b.len(), 1);
        b.take_oldest_from(ProcessId::new(1), 5, &mut got);
        assert_eq!(got.len(), 3, "appended after the first two");
        assert_eq!(got[2].payload, 12);
    }

    #[test]
    fn take_oldest_from_absent_source_is_empty() {
        let mut b: Buffer<u32> = Buffer::new();
        let mut got = Vec::new();
        b.take_oldest_from(ProcessId::new(9), 3, &mut got);
        assert!(got.is_empty());
    }

    #[test]
    fn take_all_orders_by_source_then_send() {
        let mut b = Buffer::new();
        b.push(env(5, 2, 25));
        b.push(env(1, 1, 11));
        b.push(env(3, 2, 23));
        let mut all = Vec::new();
        b.take_all(&mut all);
        assert_eq!(
            all.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![11, 25, 23]
        );
        assert!(b.is_empty());
    }

    #[test]
    fn take_all_from_filters_sources() {
        let mut b = Buffer::new();
        b.push(env(0, 1, 10));
        b.push(env(1, 2, 20));
        b.push(env(2, 3, 30));
        let allowed: ProcessSet = [ProcessId::new(1), ProcessId::new(3)].into();
        let mut got = Vec::new();
        b.take_all_from(allowed, &mut got);
        assert_eq!(
            got.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![10, 30]
        );
        assert_eq!(b.len(), 1);
        assert_eq!(b.pending_from(ProcessId::new(2)), 1);
    }

    #[test]
    fn take_ids_in_requested_order() {
        let mut b = Buffer::new();
        b.push(env(0, 1, 10));
        b.push(env(1, 2, 20));
        b.push(env(2, 1, 12));
        let mut got = Vec::new();
        b.take_ids(&[MsgId::new(2), MsgId::new(1)], &mut got);
        assert_eq!(
            got.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![12, 20]
        );
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn take_ids_skips_unknown_ids() {
        let mut b = Buffer::new();
        b.push(env(0, 1, 10));
        let mut got = Vec::new();
        b.take_ids(&[MsgId::new(7), MsgId::new(0)], &mut got);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 10);
    }

    #[test]
    fn sources_reports_distinct_pending_sources() {
        let mut b = Buffer::new();
        b.push(env(0, 3, 1));
        b.push(env(1, 1, 2));
        b.push(env(2, 3, 3));
        let sources: Vec<_> = b.sources().iter().collect();
        assert_eq!(sources, vec![ProcessId::new(1), ProcessId::new(3)]);
    }

    #[test]
    fn pending_ids_ordering() {
        let mut b = Buffer::new();
        b.push(env(9, 2, 1));
        b.push(env(4, 1, 2));
        assert_eq!(b.pending_ids(), vec![MsgId::new(4), MsgId::new(9)]);
    }
}
