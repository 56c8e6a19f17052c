//! The deterministic event heap: `(VirtualTime, seq, Wake)` wake-ups.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::VirtualTime;
use crate::ids::ProcessId;

/// What a heap entry wakes: one of the engine's four parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Wake {
    /// A process's clock: the process takes a step.
    Process(ProcessId),
    /// The link fabric: in-flight messages arrive.
    Fabric,
    /// The timed crash schedule: processes are struck.
    Crashes,
    /// The failure-detector cadence: undecided processes are woken.
    Cadence,
}

/// A min-heap of wake-ups with a **total**, seed-reproducible order.
///
/// Every push is stamped with a monotonically increasing sequence number,
/// so entries at the same [`VirtualTime`] pop in insertion order — the
/// tie-break never depends on `BinaryHeap` internals, allocator state or
/// anything else outside the push sequence (and never on the [`Wake`]
/// kind, since no two entries share a stamp). That totality is what makes
/// a discrete-event run a pure function of its seeds.
///
/// Stale entries are handled by *lazy deletion*: the engine pushes a fresh
/// entry whenever a part's earliest wake-up changes, and on pop acts only
/// if the popped time still equals that part's next wake. Superseded
/// entries are skipped, never searched for.
#[derive(Debug, Default)]
pub(super) struct EventHeap {
    entries: BinaryHeap<Reverse<(VirtualTime, u64, Wake)>>,
    next_seq: u64,
}

impl EventHeap {
    /// Schedules `wake` at `at`, stamping it with the next sequence
    /// number. Returns the stamp.
    pub(super) fn push(&mut self, at: VirtualTime, wake: Wake) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(Reverse((at, seq, wake)));
        seq
    }

    /// Removes and returns the earliest entry — ties broken by sequence
    /// number, i.e. insertion order.
    pub(super) fn pop(&mut self) -> Option<(VirtualTime, u64, Wake)> {
        self.entries.pop().map(|Reverse(e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_time_entries_pop_in_insertion_order() {
        let mut heap = EventHeap::default();
        let t = VirtualTime::new(9);
        // Push process ids in *descending* order so a heap that
        // tie-broke on the wake kind (or on nothing) would pop differently.
        for i in (0..32).rev() {
            heap.push(t, Wake::Process(ProcessId::new(i)));
        }
        let order: Vec<usize> = std::iter::from_fn(|| heap.pop())
            .map(|(at, _, wake)| {
                assert_eq!(at, t);
                match wake {
                    Wake::Process(pid) => pid.index(),
                    other => panic!("only process wakes were pushed: {other:?}"),
                }
            })
            .collect();
        let expected: Vec<usize> = (0..32).rev().collect();
        assert_eq!(order, expected, "insertion order, not id order");
    }

    #[test]
    fn sequence_numbers_are_monotonic_across_interleaved_pops() {
        let mut heap = EventHeap::default();
        assert_eq!(heap.push(VirtualTime::new(3), Wake::Cadence), 0);
        assert_eq!(heap.push(VirtualTime::new(1), Wake::Fabric), 1);
        assert_eq!(heap.pop().map(|(t, s, _)| (t.raw(), s)), Some((1, 1)));
        // Popping must not recycle stamps: later pushes keep counting up,
        // so an entry pushed after a pop still loses same-time ties to
        // everything pushed before it.
        assert_eq!(heap.push(VirtualTime::new(3), Wake::Crashes), 2);
        assert_eq!(heap.pop().map(|(_, s, w)| (s, w)), Some((0, Wake::Cadence)));
        assert_eq!(heap.pop().map(|(_, s, w)| (s, w)), Some((2, Wake::Crashes)));
        assert_eq!(heap.pop(), None);
    }
}
