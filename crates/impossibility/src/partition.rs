//! Partition layouts: the sets `D1, …, D(k−1)` and `D̄` of Theorem 1 as
//! used by the concrete instantiations.
//!
//! * **Theorem 2 layout** — `Di = {p_{(i−1)ℓ+1}, …, p_{iℓ}}` with
//!   `ℓ = n − f`, and `D̄ = Π \ D` (Lemma 3 guarantees `|D̄| ≥ ℓ + 1`).
//! * **Theorem 10 layout** — `D̄ = {p1, …, pj}` with `j = n − k + 1 ≥ 3`,
//!   and `D1, …, D(k−1)` the singletons of the remaining processes.
//! * **Theorem 8 borderline layout** — `k + 1` equal groups of
//!   `n/(k+1) = n − f` processes (the classic partitioning argument at
//!   `kn = (k+1)f`).

use kset_sim::{ProcessId, ProcessSet};

use crate::borders::{theorem2_layout_ell, theorem8_borderline};

/// A partition specification for Theorem 1: the blocks `D1, …, D(k−1)` plus
/// the reduction set `D̄`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    n: usize,
    /// The decision blocks `D1, …, D(k−1)`.
    blocks: Vec<ProcessSet>,
    /// The consensus-reduction set `D̄`.
    dbar: ProcessSet,
}

impl PartitionSpec {
    /// Creates a specification from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if the parts are empty, overlap, or leave processes
    /// unassigned (the paper allows `D ∪ D̄ ⊊ Π` in general, but the
    /// concrete layouts always cover Π, and covering keeps the partition
    /// failure detector of Definition 7 well-formed).
    pub fn new(n: usize, blocks: Vec<ProcessSet>, dbar: ProcessSet) -> Self {
        assert!(!dbar.is_empty(), "D̄ must be nonempty");
        let mut seen = ProcessSet::new();
        for b in blocks.iter().chain(std::iter::once(&dbar)) {
            assert!(!b.is_empty(), "blocks must be nonempty");
            for p in b {
                assert!(p.index() < n, "block member out of range");
                assert!(seen.insert(p), "blocks must be disjoint ({p} repeated)");
            }
        }
        assert_eq!(seen.len(), n, "blocks ∪ D̄ must cover Π");
        PartitionSpec { n, blocks, dbar }
    }

    /// The Theorem 2 layout, if the failure bound `k ≤ (n−1)/(n−f)` admits
    /// it.
    pub fn theorem2(n: usize, f: usize, k: usize) -> Option<Self> {
        let ell = theorem2_layout_ell(n, f, k)?;
        let mut blocks = Vec::with_capacity(k - 1);
        for i in 0..k - 1 {
            let block: ProcessSet = (i * ell..(i + 1) * ell).map(ProcessId::new).collect();
            blocks.push(block);
        }
        let dbar: ProcessSet = ((k - 1) * ell..n).map(ProcessId::new).collect();
        Some(PartitionSpec::new(n, blocks, dbar))
    }

    /// The Theorem 10 layout for `2 ≤ k ≤ n − 2`: `D̄ = {p1, …, pj}` with
    /// `j = n − k + 1`, singletons for the rest.
    pub fn theorem10(n: usize, k: usize) -> Option<Self> {
        if !(2..=n.saturating_sub(2)).contains(&k) {
            return None;
        }
        let j = n - k + 1; // j ≥ 3
        let dbar: ProcessSet = (0..j).map(ProcessId::new).collect();
        let blocks: Vec<ProcessSet> = (j..n)
            // kset-lint: allow(unchecked-capacity): ids stay below n, and PartitionSpec::new re-validates the layout against the system size
            .map(|i| ProcessSet::singleton(ProcessId::new(i)))
            .collect();
        Some(PartitionSpec::new(n, blocks, dbar))
    }

    /// The Theorem 8 borderline layout (`kn = (k+1)f`): `k + 1` equal
    /// groups `Π0, …, Πk`, each of size `n − f`. Here every group plays a
    /// "decision block"; the last group doubles as `D̄`.
    pub fn theorem8_border(n: usize, f: usize, k: usize) -> Option<Self> {
        if !theorem8_borderline(n, f, k) || f == 0 {
            return None;
        }
        let size = n - f; // = n / (k+1)
        let mut groups: Vec<ProcessSet> = (0..=k)
            .map(|i| (i * size..(i + 1) * size).map(ProcessId::new).collect())
            .collect();
        // kset-lint: allow(panic-in-library): invariant — the collect above builds exactly k+1 ≥ 1 groups, so the pop always succeeds
        let dbar = groups.pop().expect("k+1 ≥ 1 groups");
        Some(PartitionSpec::new(n, groups, dbar))
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The `k` of the layout: number of decision blocks + 1.
    pub fn k(&self) -> usize {
        self.blocks.len() + 1
    }

    /// The decision blocks `D1, …, D(k−1)`.
    pub fn blocks(&self) -> &[ProcessSet] {
        &self.blocks
    }

    /// The reduction set `D̄`.
    pub fn dbar(&self) -> ProcessSet {
        self.dbar
    }

    /// All parts in order `D1, …, D(k−1), D̄` — the block list handed to the
    /// partition scheduler and the partition failure detector.
    pub fn all_parts(&self) -> Vec<ProcessSet> {
        let mut parts = self.blocks.clone();
        parts.push(self.dbar);
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn theorem2_layout_shapes() {
        // n = 7, f = 5, ℓ = 2, k = 3: D1 = {p1,p2}, D2 = {p3,p4},
        // D̄ = {p5,p6,p7}.
        let spec = PartitionSpec::theorem2(7, 5, 3).unwrap();
        assert_eq!(spec.k(), 3);
        assert_eq!(spec.blocks()[0], [pid(0), pid(1)].into());
        assert_eq!(spec.blocks()[1], [pid(2), pid(3)].into());
        assert_eq!(spec.dbar(), [pid(4), pid(5), pid(6)].into());
        // Lemma 3: |D̄| ≥ ℓ + 1 = 3, |Di| = ℓ = 2.
        assert!(spec.dbar().len() >= 3);
    }

    #[test]
    fn theorem2_layout_absent_when_solvable() {
        assert!(
            PartitionSpec::theorem2(5, 3, 3).is_none(),
            "k > (n−1)/(n−f)"
        );
        assert!(PartitionSpec::theorem2(7, 5, 3).is_some());
    }

    #[test]
    fn theorem10_layout_shapes() {
        // n = 6, k = 3: j = 4, D̄ = {p1..p4}, D1 = {p5}, D2 = {p6}.
        let spec = PartitionSpec::theorem10(6, 3).unwrap();
        assert_eq!(spec.k(), 3);
        assert_eq!(spec.dbar().len(), 4);
        assert_eq!(spec.blocks().len(), 2);
        assert!(spec.blocks().iter().all(|b| b.len() == 1));
        assert!(spec.dbar().len() >= 3, "j ≥ 3 as the proof requires");
    }

    #[test]
    fn theorem10_layout_bounds() {
        assert!(
            PartitionSpec::theorem10(6, 1).is_none(),
            "k = 1 is solvable"
        );
        assert!(
            PartitionSpec::theorem10(6, 5).is_none(),
            "k = n−1 is solvable"
        );
        for k in 2..=4 {
            assert!(PartitionSpec::theorem10(6, k).is_some());
        }
    }

    #[test]
    fn theorem8_border_layout() {
        // n = 6, k = 2, f = 4: three groups of two.
        let spec = PartitionSpec::theorem8_border(6, 4, 2).unwrap();
        assert_eq!(spec.k(), 3, "k+1 = 3 groups (the last is D̄)");
        assert_eq!(spec.all_parts().len(), 3);
        assert!(spec.all_parts().iter().all(|g| g.len() == 2));
        assert!(
            PartitionSpec::theorem8_border(6, 3, 2).is_none(),
            "12 ≠ 9: not borderline"
        );
    }

    #[test]
    fn parts_cover_and_do_not_overlap() {
        let spec = PartitionSpec::theorem10(7, 3).unwrap();
        let mut seen = ProcessSet::new();
        for part in spec.all_parts() {
            for p in part {
                assert!(seen.insert(p));
            }
        }
        assert_eq!(seen.len(), 7);
    }

    #[test]
    #[should_panic(expected = "cover")]
    fn uncovered_processes_rejected() {
        let _ = PartitionSpec::new(3, vec![[pid(0)].into()], [pid(1)].into());
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_parts_rejected() {
        let _ = PartitionSpec::new(2, vec![[pid(0)].into()], [pid(0), pid(1)].into());
    }
}
