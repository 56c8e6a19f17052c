//! Core identifier newtypes and compact per-process containers: process
//! identifiers, message identifiers, the global logical clock, the
//! width-generic [`WideSet`] bitset (and its workspace-wide alias
//! [`ProcessSet`]), and the [`SenderMap`] dense map.
//!
//! The paper (Section II) considers a system `Π = {p1, …, pn}` of `n`
//! processes with unique ids `{1, …, n}`, and defines *time* as the index of
//! a step in a run: the `i`-th step of a run occurs at time `i`. Processes do
//! **not** have access to time; it exists only in the meta-level analysis
//! (failure patterns, failure-detector histories).
//!
//! Internally we use 0-based indices for processes; [`ProcessId::display_id`]
//! recovers the paper's 1-based numbering.
//!
//! Every set of processes in the workspace — partition blocks, quorum and
//! leader samples, faulty/correct sets, delivery filters — is a
//! [`ProcessSet`]: a fixed-capacity bitset over [`ProcessId`] whose set
//! algebra is branch-free word arithmetic over `[u64; W]` limbs. The width
//! `W` is generic ([`WideSet`]); the workspace pins one width for all
//! simulator state via the [`ProcessSet`] alias ([`PSET_LIMBS`] limbs, i.e.
//! capacity [`ProcessSet::CAPACITY`]). Per-sender round state
//! (synchronous-round inboxes, stage-2 info tables, promise ledgers) uses
//! [`SenderMap`], a dense `Vec<Option<M>>` keyed by sender index.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, Sub, SubAssign};

/// Identifier of a process in the system `Π = {p1, …, pn}`.
///
/// Wraps a 0-based index. The `Display` impl prints the paper-style 1-based
/// name (`p1`, `p2`, …).
///
/// # Examples
///
/// ```
/// use kset_sim::ProcessId;
///
/// let p = ProcessId::new(0);
/// assert_eq!(p.index(), 0);
/// assert_eq!(p.display_id(), 1);
/// assert_eq!(p.to_string(), "p1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(usize);

impl ProcessId {
    /// Creates a process identifier from a 0-based index.
    pub const fn new(index: usize) -> Self {
        ProcessId(index)
    }

    /// Returns the 0-based index of this process.
    pub const fn index(self) -> usize {
        self.0
    }

    /// Returns the paper-style 1-based identifier.
    pub const fn display_id(self) -> usize {
        self.0 + 1
    }

    /// Iterates over all process ids of a system of size `n`, in id order.
    ///
    /// # Examples
    ///
    /// ```
    /// use kset_sim::ProcessId;
    ///
    /// let ids: Vec<_> = ProcessId::all(3).collect();
    /// assert_eq!(ids, vec![ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)]);
    /// ```
    pub fn all(n: usize) -> impl DoubleEndedIterator<Item = ProcessId> + ExactSizeIterator {
        (0..n).map(ProcessId)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.display_id())
    }
}

impl From<usize> for ProcessId {
    fn from(index: usize) -> Self {
        ProcessId(index)
    }
}

/// Globally unique identifier of a message instance.
///
/// Every send produces a fresh `MsgId`; identifiers are assigned in send
/// order by the simulation engine and are therefore deterministic for a
/// deterministic schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(u64);

impl MsgId {
    /// Creates a message id from a raw counter value.
    pub const fn new(raw: u64) -> Self {
        MsgId(raw)
    }

    /// Returns the raw counter value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Global logical time: the index of a step in a run (Section II-C).
///
/// `Time(0)` is the instant of the initial configuration; the first step of
/// a run occurs at `Time(1)`.
///
/// # Examples
///
/// ```
/// use kset_sim::Time;
///
/// let t = Time::ZERO;
/// assert_eq!(t.next(), Time::new(1));
/// assert!(t < t.next());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The instant of the initial configuration.
    pub const ZERO: Time = Time(0);

    /// Creates a time from a raw step index.
    pub const fn new(raw: u64) -> Self {
        Time(raw)
    }

    /// Returns the raw step index.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The immediately following instant.
    #[must_use]
    pub const fn next(self) -> Time {
        Time(self.0 + 1)
    }

    /// Saturating difference `self - earlier` in steps.
    #[must_use]
    pub const fn since(self, earlier: Time) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u64> for Time {
    fn from(raw: u64) -> Self {
        Time(raw)
    }
}

/// Number of 64-bit limbs in the workspace-wide [`ProcessSet`] alias.
///
/// The simulator, failure-detector, agreement and impossibility layers are
/// all written against the width-generic [`WideSet`] API; this constant pins
/// the one width they are compiled at. `8` limbs ⇒ systems of up to
/// `8 × 64 = 512` processes. Bumping it (and recompiling) is the entire
/// migration story for larger systems.
pub const PSET_LIMBS: usize = 8;

/// A set of processes: the workspace-wide instantiation of [`WideSet`] at
/// [`PSET_LIMBS`] limbs (capacity [`ProcessSet::CAPACITY`] = 512 processes).
///
/// Everything documented on [`WideSet`] applies; this alias exists so the
/// rest of the workspace states "a set of processes" without naming a width.
pub type ProcessSet = WideSet<PSET_LIMBS>;

/// Iterator over the members of a [`ProcessSet`], ascending by id.
pub type ProcessSetIter = WideSetIter<PSET_LIMBS>;

/// Error returned when a process id (or a system size) does not fit in a
/// set's fixed capacity.
///
/// Produced by the fallible constructors [`WideSet::try_insert`],
/// [`WideSet::try_singleton`] and [`WideSet::try_full`], and surfaced by the
/// simulator's construction paths (`Simulation::try_new`,
/// `LockStep::try_new`) so oversized systems are rejected at the boundary
/// with a typed error instead of a panic deep inside a set operation.
///
/// # Examples
///
/// ```
/// use kset_sim::{ProcessId, ProcessSet};
///
/// let err = ProcessSet::try_full(ProcessSet::CAPACITY + 1).unwrap_err();
/// assert_eq!(err.requested(), ProcessSet::CAPACITY + 1);
/// assert_eq!(err.capacity(), ProcessSet::CAPACITY);
/// assert!(err.to_string().contains("capacity"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError {
    requested: usize,
    capacity: usize,
}

impl CapacityError {
    /// Creates a capacity error for a requested id/size against a capacity.
    pub const fn new(requested: usize, capacity: usize) -> Self {
        CapacityError {
            requested,
            capacity,
        }
    }

    /// The 0-based process index (or requested system size) that did not
    /// fit.
    pub const fn requested(self) -> usize {
        self.requested
    }

    /// The capacity that was exceeded.
    pub const fn capacity(self) -> usize {
        self.capacity
    }
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} exceeds the ProcessSet capacity of {}",
            self.requested, self.capacity
        )
    }
}

impl std::error::Error for CapacityError {}

/// A set of small integers (process indices), stored as `W` 64-bit limbs.
///
/// Bit `i` of the concatenated limbs is set iff `ProcessId::new(i)` is a
/// member (limb `i / 64`, bit `i % 64`). All set algebra — union,
/// intersection, difference, subset and disjointness tests — is branch-free
/// word arithmetic over the limb array, which LLVM auto-vectorizes at the
/// widths the workspace uses; the type is `Copy`, which is what makes it
/// viable in the simulator's hot paths (buffer delivery filters, failure
/// patterns, explorer state, failure-detector samples).
///
/// Capacity is `W × 64` members. The *capacity invariant*: a `WideSet<W>`
/// never holds an index ≥ `W × 64` — the panicking mutators enforce it with
/// the message of a [`CapacityError`], and the `try_` constructors surface
/// the error for callers that validate sizes at a system boundary.
///
/// Iteration yields members in ascending id order, and `Ord` compares sets
/// as the big integers their bits spell (most-significant limb first), so a
/// `WideSet<2>` orders exactly like the `u128` bitset it generalizes.
///
/// # Examples
///
/// ```
/// use kset_sim::{ProcessId, WideSet};
///
/// // Four limbs ⇒ room for 256 processes.
/// let mut s: WideSet<4> = WideSet::new();
/// assert_eq!(WideSet::<4>::CAPACITY, 256);
/// s.insert(ProcessId::new(200));
/// s.insert(ProcessId::new(3));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(ProcessId::new(200)));
/// assert_eq!(s.to_string(), "{p4, p201}");
///
/// // Ids beyond the capacity are a typed error on the `try_` API:
/// assert!(s.try_insert(ProcessId::new(256)).is_err());
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct WideSet<const W: usize> {
    limbs: [u64; W],
}

impl<const W: usize> Hash for WideSet<W> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Feed only the limbs up to the highest non-zero one. Equal sets
        // have identical limb arrays, so the (count, prefix) encoding is
        // Eq-consistent — and a set confined to the first 128 ids hashes at
        // the cost of the old `u128` representation instead of paying for
        // all W limbs. State fingerprinting in the simulator hot loop hashes
        // several sets per step, which is what makes this worth it.
        let mut hi = W;
        while hi > 0 && self.limbs[hi - 1] == 0 {
            hi -= 1;
        }
        state.write_usize(hi);
        for &limb in &self.limbs[..hi] {
            state.write_u64(limb);
        }
    }
}

impl<const W: usize> WideSet<W> {
    /// The maximum system size representable: `W × 64`.
    pub const CAPACITY: usize = W * 64;

    /// The empty set.
    pub const EMPTY: WideSet<W> = WideSet { limbs: [0; W] };

    /// Creates an empty set.
    pub const fn new() -> Self {
        Self::EMPTY
    }

    /// The singleton `{p}`.
    ///
    /// # Panics
    ///
    /// Panics if `p.index() >= CAPACITY`; [`WideSet::try_singleton`] is the
    /// fallible form.
    pub fn singleton(p: ProcessId) -> Self {
        match Self::try_singleton(p) {
            Ok(s) => s,
            // kset-lint: allow(panic-in-library): documented panicking convenience wrapper over try_singleton
            Err(e) => panic!("{e}"),
        }
    }

    /// The singleton `{p}`, or a [`CapacityError`] if `p` does not fit.
    pub fn try_singleton(p: ProcessId) -> Result<Self, CapacityError> {
        let mut s = Self::EMPTY;
        s.try_insert(p)?;
        Ok(s)
    }

    /// The full system `Π = {p1, …, pn}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > CAPACITY`; [`WideSet::try_full`] is the fallible form.
    pub fn full(n: usize) -> Self {
        match Self::try_full(n) {
            Ok(s) => s,
            // kset-lint: allow(panic-in-library): documented panicking convenience wrapper over try_full
            Err(e) => panic!("{e}"),
        }
    }

    /// The full system `Π = {p1, …, pn}`, or a [`CapacityError`] if `n`
    /// exceeds the capacity.
    ///
    /// # Examples
    ///
    /// ```
    /// use kset_sim::WideSet;
    ///
    /// assert_eq!(WideSet::<8>::try_full(512).unwrap().len(), 512);
    /// assert!(WideSet::<8>::try_full(513).is_err());
    /// ```
    pub fn try_full(n: usize) -> Result<Self, CapacityError> {
        if n > Self::CAPACITY {
            return Err(CapacityError::new(n, Self::CAPACITY));
        }
        let mut limbs = [0u64; W];
        let mut i = 0;
        let mut rem = n;
        while rem >= 64 {
            limbs[i] = u64::MAX;
            rem -= 64;
            i += 1;
        }
        if rem > 0 {
            limbs[i] = (1u64 << rem) - 1;
        }
        let s = WideSet { limbs };
        debug_assert_eq!(
            s.len(),
            n,
            "WideSet::try_full must set exactly the first n bits and no stragglers above n"
        );
        Ok(s)
    }

    /// Builds a set directly from a `u128` bit pattern (bit `i` ⇔ `p_{i+1}`),
    /// the pre-wide-set interchange format.
    ///
    /// # Panics
    ///
    /// Panics if `W == 1` and `bits` has a one above bit 63 (the pattern
    /// does not fit). For `W ≥ 2` every `u128` fits.
    pub const fn from_bits(bits: u128) -> Self {
        let mut limbs = [0u64; W];
        limbs[0] = bits as u64;
        let hi = (bits >> 64) as u64;
        if W >= 2 {
            limbs[1] = hi;
        } else {
            assert!(hi == 0, "bit pattern exceeds the set capacity");
        }
        WideSet { limbs }
    }

    /// The raw bit pattern as a `u128`, for sets confined to the first 128
    /// ids.
    ///
    /// # Panics
    ///
    /// Panics if the set has a member ≥ 128; use [`WideSet::limbs`] for a
    /// width-agnostic view.
    pub fn bits(self) -> u128 {
        let mut i = 2;
        while i < W {
            assert!(
                self.limbs[i] == 0,
                "set has members ≥ 128 and does not fit in u128; use limbs()"
            );
            i += 1;
        }
        let lo = self.limbs[0] as u128;
        if W >= 2 {
            lo | (self.limbs[1] as u128) << 64
        } else {
            lo
        }
    }

    /// The raw limb array (limb `i` holds ids `64·i .. 64·(i+1)`).
    #[inline]
    pub const fn limbs(&self) -> &[u64; W] {
        &self.limbs
    }

    /// Builds a set directly from its limb array.
    #[inline]
    pub const fn from_limbs(limbs: [u64; W]) -> Self {
        WideSet { limbs }
    }

    /// Number of members.
    ///
    /// Two interleaved accumulators break the serial `add` dependency
    /// chain over the popcounts; at `W = 8` the loop fully unrolls into
    /// straight-line `popcnt` pairs (see the `e7_wide_sets` bench group).
    #[inline]
    pub const fn len(self) -> usize {
        let mut a = 0usize;
        let mut b = 0usize;
        let mut i = 0;
        while i + 1 < W {
            a += self.limbs[i].count_ones() as usize;
            b += self.limbs[i + 1].count_ones() as usize;
            i += 2;
        }
        if i < W {
            a += self.limbs[i].count_ones() as usize;
        }
        a + b
    }

    /// Whether the set has no members.
    ///
    /// OR-accumulates the limbs and tests once, instead of branching per
    /// limb.
    #[inline]
    pub const fn is_empty(self) -> bool {
        let mut acc = 0u64;
        let mut i = 0;
        while i < W {
            acc |= self.limbs[i];
            i += 1;
        }
        acc == 0
    }

    /// Whether `p` is a member.
    #[inline]
    pub const fn contains(self, p: ProcessId) -> bool {
        let limb = p.index() / 64;
        limb < W && self.limbs[limb] >> (p.index() % 64) & 1 == 1
    }

    /// Inserts `p`; returns whether it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `p.index() >= CAPACITY`; [`WideSet::try_insert`] is the
    /// fallible form.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        match self.try_insert(p) {
            Ok(fresh) => fresh,
            // kset-lint: allow(panic-in-library): documented panicking convenience wrapper over try_insert
            Err(e) => panic!("{e}"),
        }
    }

    /// Inserts `p` if it fits, returning whether it was newly added, or a
    /// [`CapacityError`] if `p.index() >= CAPACITY` (the set is unchanged).
    ///
    /// # Examples
    ///
    /// ```
    /// use kset_sim::{ProcessId, WideSet};
    ///
    /// let mut s: WideSet<2> = WideSet::new();
    /// assert_eq!(s.try_insert(ProcessId::new(127)), Ok(true));
    /// assert_eq!(s.try_insert(ProcessId::new(127)), Ok(false));
    /// assert!(s.try_insert(ProcessId::new(128)).is_err());
    /// ```
    #[inline]
    pub fn try_insert(&mut self, p: ProcessId) -> Result<bool, CapacityError> {
        if p.index() >= Self::CAPACITY {
            return Err(CapacityError::new(p.index(), Self::CAPACITY));
        }
        let bit = 1u64 << (p.index() % 64);
        let limb = &mut self.limbs[p.index() / 64];
        let fresh = *limb & bit == 0;
        *limb |= bit;
        Ok(fresh)
    }

    /// Removes `p`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, p: ProcessId) -> bool {
        if p.index() >= Self::CAPACITY {
            return false;
        }
        let bit = 1u64 << (p.index() % 64);
        let limb = &mut self.limbs[p.index() / 64];
        let present = *limb & bit != 0;
        *limb &= !bit;
        present
    }

    /// The smallest member, if any.
    pub fn first(self) -> Option<ProcessId> {
        let mut i = 0;
        while i < W {
            if self.limbs[i] != 0 {
                return Some(ProcessId::new(
                    i * 64 + self.limbs[i].trailing_zeros() as usize,
                ));
            }
            i += 1;
        }
        None
    }

    /// `self ∪ other`.
    #[inline]
    #[must_use]
    pub const fn union(self, other: WideSet<W>) -> WideSet<W> {
        let mut limbs = [0u64; W];
        let mut i = 0;
        while i < W {
            limbs[i] = self.limbs[i] | other.limbs[i];
            i += 1;
        }
        WideSet { limbs }
    }

    /// `self ∩ other`.
    #[inline]
    #[must_use]
    pub const fn intersection(self, other: WideSet<W>) -> WideSet<W> {
        let mut limbs = [0u64; W];
        let mut i = 0;
        while i < W {
            limbs[i] = self.limbs[i] & other.limbs[i];
            i += 1;
        }
        WideSet { limbs }
    }

    /// `self \ other`.
    #[inline]
    #[must_use]
    pub const fn difference(self, other: WideSet<W>) -> WideSet<W> {
        let mut limbs = [0u64; W];
        let mut i = 0;
        while i < W {
            limbs[i] = self.limbs[i] & !other.limbs[i];
            i += 1;
        }
        WideSet { limbs }
    }

    /// `Π \ self` for a system of size `n`.
    #[must_use]
    pub fn complement(self, n: usize) -> WideSet<W> {
        let out = Self::full(n).difference(self);
        debug_assert!(
            out.is_subset(Self::full(n)),
            "complement(n) must stay confined to the first n ids"
        );
        out
    }

    /// Whether every member of `self` is in `other`.
    ///
    /// Branch-free: the straggler limbs are OR-accumulated and tested
    /// once, so the fixed-`W` loop unrolls with no per-limb exit.
    #[inline]
    pub const fn is_subset(self, other: WideSet<W>) -> bool {
        let mut acc = 0u64;
        let mut i = 0;
        while i < W {
            acc |= self.limbs[i] & !other.limbs[i];
            i += 1;
        }
        acc == 0
    }

    /// Whether the sets share no member.
    ///
    /// Branch-free, like [`WideSet::is_subset`].
    #[inline]
    pub const fn is_disjoint(self, other: WideSet<W>) -> bool {
        let mut acc = 0u64;
        let mut i = 0;
        while i < W {
            acc |= self.limbs[i] & other.limbs[i];
            i += 1;
        }
        acc == 0
    }

    /// Iterates over the members in ascending id order.
    pub fn iter(self) -> WideSetIter<W> {
        WideSetIter {
            limbs: self.limbs,
            limb: 0,
        }
    }

    /// Enumerates every **non-empty** subset of `self`, starting with
    /// `self` itself and descending in the bit-pattern order of the classic
    /// `sub = (sub - 1) & mask` walk, generalized to multi-limb sets by
    /// multi-precision borrow propagation.
    ///
    /// The exhaustive explorer uses this to build per-process delivery
    /// menus; there are `2^len − 1` subsets, so callers bound `len` first.
    ///
    /// # Examples
    ///
    /// ```
    /// use kset_sim::{ProcessId, ProcessSet};
    ///
    /// let s: ProcessSet = [ProcessId::new(0), ProcessId::new(2)].into();
    /// let subs: Vec<String> = s.subsets().map(|t| t.to_string()).collect();
    /// assert_eq!(subs, vec!["{p1, p3}", "{p3}", "{p1}"]);
    /// ```
    pub fn subsets(self) -> SubsetIter<W> {
        SubsetIter {
            mask: self.limbs,
            next: (!self.is_empty()).then_some(self.limbs),
        }
    }
}

impl<const W: usize> Default for WideSet<W> {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl<const W: usize> Ord for WideSet<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare as the big integer the bits spell: most-significant limb
        // first. For W = 2 this is exactly the old u128 numeric order.
        let mut i = W;
        while i > 0 {
            i -= 1;
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        Ordering::Equal
    }
}

impl<const W: usize> PartialOrd for WideSet<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const W: usize> fmt::Debug for WideSet<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `{p1, p3}` in both Debug and Display: debug output appears in
        // assertion messages, where the paper-style names read best.
        fmt::Display::fmt(self, f)
    }
}

impl<const W: usize> fmt::Display for WideSet<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

impl<const W: usize> BitOr for WideSet<W> {
    type Output = WideSet<W>;

    fn bitor(self, rhs: WideSet<W>) -> WideSet<W> {
        self.union(rhs)
    }
}

impl<const W: usize> BitOrAssign for WideSet<W> {
    fn bitor_assign(&mut self, rhs: WideSet<W>) {
        *self = self.union(rhs);
    }
}

impl<const W: usize> BitAnd for WideSet<W> {
    type Output = WideSet<W>;

    fn bitand(self, rhs: WideSet<W>) -> WideSet<W> {
        self.intersection(rhs)
    }
}

impl<const W: usize> BitAndAssign for WideSet<W> {
    fn bitand_assign(&mut self, rhs: WideSet<W>) {
        *self = self.intersection(rhs);
    }
}

impl<const W: usize> Sub for WideSet<W> {
    type Output = WideSet<W>;

    fn sub(self, rhs: WideSet<W>) -> WideSet<W> {
        self.difference(rhs)
    }
}

impl<const W: usize> SubAssign for WideSet<W> {
    fn sub_assign(&mut self, rhs: WideSet<W>) {
        *self = self.difference(rhs);
    }
}

/// Iterator over the members of a [`WideSet`], ascending by id.
#[derive(Debug, Clone)]
pub struct WideSetIter<const W: usize> {
    limbs: [u64; W],
    limb: usize,
}

impl<const W: usize> Iterator for WideSetIter<W> {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        while self.limb < W {
            let bits = self.limbs[self.limb];
            if bits != 0 {
                let idx = bits.trailing_zeros() as usize;
                self.limbs[self.limb] = bits & (bits - 1);
                return Some(ProcessId::new(self.limb * 64 + idx));
            }
            self.limb += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n: usize = self.limbs[self.limb..]
            .iter()
            .map(|l| l.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl<const W: usize> ExactSizeIterator for WideSetIter<W> {}

/// Iterator over the non-empty subsets of a [`WideSet`], in descending
/// bit-pattern order (see [`WideSet::subsets`]).
#[derive(Debug, Clone)]
pub struct SubsetIter<const W: usize> {
    mask: [u64; W],
    next: Option<[u64; W]>,
}

impl<const W: usize> Iterator for SubsetIter<W> {
    type Item = WideSet<W>;

    fn next(&mut self) -> Option<WideSet<W>> {
        let cur = self.next?;
        // Multi-precision `(cur - 1) & mask`: borrow ripples through zero
        // limbs; `cur != 0` (invariant of `next`) bounds the ripple.
        let mut prev = cur;
        let mut i = 0;
        loop {
            let (v, borrow) = prev[i].overflowing_sub(1);
            prev[i] = v;
            if !borrow {
                break;
            }
            i += 1;
        }
        let mut nonzero = false;
        for (p, m) in prev.iter_mut().zip(&self.mask) {
            *p &= m;
            nonzero |= *p != 0;
        }
        self.next = nonzero.then_some(prev);
        Some(WideSet { limbs: cur })
    }
}

impl<const W: usize> IntoIterator for WideSet<W> {
    type Item = ProcessId;
    type IntoIter = WideSetIter<W>;

    fn into_iter(self) -> WideSetIter<W> {
        self.iter()
    }
}

impl<const W: usize> IntoIterator for &WideSet<W> {
    type Item = ProcessId;
    type IntoIter = WideSetIter<W>;

    fn into_iter(self) -> WideSetIter<W> {
        self.iter()
    }
}

impl<const W: usize> FromIterator<ProcessId> for WideSet<W> {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut s = WideSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl<const W: usize> Extend<ProcessId> for WideSet<W> {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl<const W: usize, const N: usize> From<[ProcessId; N]> for WideSet<W> {
    fn from(ids: [ProcessId; N]) -> Self {
        ids.into_iter().collect()
    }
}

/// A dense map from sender to `M`: `Vec<Option<M>>` keyed by
/// [`ProcessId::index`].
///
/// The workspace's round-structured state — synchronous-round inboxes,
/// stage-2 info tables, Paxos promise/accept ledgers — is always keyed by
/// sender, with keys drawn from `0..n`. A dense vector turns every lookup
/// into an index operation and every iteration into a linear scan, replacing
/// the pointer-chasing `BTreeMap<ProcessId, M>` these paths used before.
///
/// Equality and hashing consider only the *present* entries, so maps that
/// differ merely in trailing capacity compare (and fingerprint) equal.
/// Iteration yields entries in ascending sender order.
///
/// # Examples
///
/// ```
/// use kset_sim::{ProcessId, SenderMap};
///
/// let mut m: SenderMap<&'static str> = SenderMap::new();
/// m.insert(ProcessId::new(2), "hello");
/// assert_eq!(m.get(ProcessId::new(2)), Some(&"hello"));
/// assert_eq!(m.len(), 1);
/// assert_eq!(m.senders().len(), 1);
/// ```
#[derive(Debug)]
pub struct SenderMap<M> {
    slots: Vec<Option<M>>,
    len: usize,
}

/// Both methods destructure every field, so a new field is a compile error
/// here rather than a stale copy.
impl<M: Clone> Clone for SenderMap<M> {
    fn clone(&self) -> Self {
        let SenderMap { slots, len } = self;
        SenderMap {
            slots: slots.clone(),
            len: *len,
        }
    }

    /// Copies `source` into `self`'s slots, value by value with
    /// `clone_from`: the slot vector allocates only when `source` has more
    /// slots than `self` has room for.
    fn clone_from(&mut self, source: &Self) {
        let SenderMap { slots, len } = source;
        self.slots.clone_from(slots);
        self.len = *len;
        self.debug_check_density();
    }
}

impl<M> Default for SenderMap<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> SenderMap<M> {
    /// Creates an empty map.
    pub fn new() -> Self {
        SenderMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty map with room for senders `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        SenderMap { slots, len: 0 }
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Removes every entry, keeping the allocated slots — so a round
    /// executor can reuse one inbox across rounds instead of allocating
    /// `n` maps per round.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.len = 0;
        self.debug_check_density();
    }

    /// Whether no entry is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `sender` has an entry.
    pub fn contains(&self, sender: ProcessId) -> bool {
        self.slots.get(sender.index()).is_some_and(Option::is_some)
    }

    /// The entry of `sender`, if present.
    pub fn get(&self, sender: ProcessId) -> Option<&M> {
        self.slots.get(sender.index()).and_then(Option::as_ref)
    }

    /// Inserts (or replaces) the entry of `sender`, returning the previous
    /// value.
    pub fn insert(&mut self, sender: ProcessId, value: M) -> Option<M> {
        if sender.index() >= self.slots.len() {
            self.slots.resize_with(sender.index() + 1, || None);
        }
        let prev = self.slots[sender.index()].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        self.debug_check_density();
        prev
    }

    /// Inserts `value` only if `sender` has no entry yet; returns a
    /// reference to the entry.
    pub fn entry_or_insert_with(&mut self, sender: ProcessId, value: impl FnOnce() -> M) -> &M {
        if sender.index() >= self.slots.len() {
            self.slots.resize_with(sender.index() + 1, || None);
        }
        let idx = sender.index();
        if self.slots[idx].is_none() {
            self.slots[idx] = Some(value());
            self.len += 1;
        }
        self.debug_check_density();
        let Some(entry) = self.slots[idx].as_ref() else {
            // kset-lint: allow(panic-in-library): the slot was filled two lines above
            unreachable!("slot {idx} filled above")
        };
        entry
    }

    /// Removes and returns the entry of `sender`.
    pub fn remove(&mut self, sender: ProcessId) -> Option<M> {
        let prev = self.slots.get_mut(sender.index()).and_then(Option::take);
        if prev.is_some() {
            self.len -= 1;
        }
        self.debug_check_density();
        prev
    }

    /// Iterates over present `(sender, value)` entries, ascending by sender.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &M)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (ProcessId::new(i), v)))
    }

    /// Iterates over the present values, ascending by sender.
    pub fn values(&self) -> impl Iterator<Item = &M> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// The set of senders with an entry.
    pub fn senders(&self) -> ProcessSet {
        self.iter().map(|(p, _)| p).collect()
    }

    /// Density invariant: the cached `len` must equal the number of present
    /// slots. Every mutator re-establishes this before returning; a drift
    /// would silently corrupt `Eq`/`Hash` (both trust `len`) and the
    /// round-termination checks built on `len()`.
    #[inline]
    fn debug_check_density(&self) {
        debug_assert_eq!(
            self.len,
            self.slots.iter().filter(|s| s.is_some()).count(),
            "SenderMap density invariant violated: cached len disagrees with present slots"
        );
    }
}

impl<M: PartialEq> PartialEq for SenderMap<M> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<M: Eq> Eq for SenderMap<M> {}

impl<M: Hash> Hash for SenderMap<M> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash only present entries so trailing capacity is irrelevant:
        // fingerprint-comparable across differently grown maps.
        self.len.hash(state);
        for (p, v) in self.iter() {
            p.hash(state);
            v.hash(state);
        }
    }
}

impl<M> FromIterator<(ProcessId, M)> for SenderMap<M> {
    fn from_iter<I: IntoIterator<Item = (ProcessId, M)>>(iter: I) -> Self {
        let mut m = SenderMap::new();
        for (p, v) in iter {
            m.insert(p, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn process_id_roundtrip() {
        for i in 0..10 {
            let p = ProcessId::new(i);
            assert_eq!(p.index(), i);
            assert_eq!(p.display_id(), i + 1);
        }
    }

    #[test]
    fn process_id_display_is_one_based() {
        assert_eq!(ProcessId::new(0).to_string(), "p1");
        assert_eq!(ProcessId::new(7).to_string(), "p8");
    }

    #[test]
    fn process_id_all_enumerates_in_order() {
        let ids: Vec<_> = ProcessId::all(4).collect();
        assert_eq!(ids.len(), 4);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn process_id_all_empty_system() {
        assert_eq!(ProcessId::all(0).count(), 0);
    }

    #[test]
    fn process_ids_are_ordered_and_hashable() {
        let set: BTreeSet<_> = [2usize, 0, 1].into_iter().map(ProcessId::new).collect();
        let sorted: Vec<_> = set.into_iter().collect();
        assert_eq!(
            sorted,
            vec![ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)]
        );
    }

    #[test]
    fn time_ordering_and_arithmetic() {
        let t0 = Time::ZERO;
        let t5 = Time::new(5);
        assert!(t0 < t5);
        assert_eq!(t5.since(t0), 5);
        assert_eq!(t0.since(t5), 0, "since is saturating");
        assert_eq!(t5.next(), Time::new(6));
    }

    #[test]
    fn msg_id_display() {
        assert_eq!(MsgId::new(42).to_string(), "m42");
        assert_eq!(MsgId::new(42).raw(), 42);
    }

    #[test]
    fn conversions_from_usize_and_u64() {
        assert_eq!(ProcessId::from(3), ProcessId::new(3));
        assert_eq!(Time::from(9), Time::new(9));
    }

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn process_set_algebra() {
        let a: ProcessSet = [pid(0), pid(1), pid(5)].into();
        let b: ProcessSet = [pid(1), pid(5), pid(7)].into();
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersection(b), [pid(1), pid(5)].into());
        assert_eq!(a.difference(b), ProcessSet::singleton(pid(0)));
        assert_eq!(a | b, a.union(b));
        assert_eq!(a & b, a.intersection(b));
        assert_eq!(a - b, a.difference(b));
        assert!(a.intersection(b).is_subset(a));
        assert!(!a.is_disjoint(b));
        assert!(a.difference(b).is_disjoint(b));
    }

    #[test]
    fn process_set_iterates_in_ascending_order() {
        let s: ProcessSet = [pid(9), pid(0), pid(4)].into();
        let order: Vec<usize> = s.iter().map(ProcessId::index).collect();
        assert_eq!(order, vec![0, 4, 9]);
        assert_eq!(s.first(), Some(pid(0)));
        assert_eq!(s.iter().len(), 3);
    }

    #[test]
    fn process_set_full_and_complement() {
        let full = ProcessSet::full(5);
        assert_eq!(full.len(), 5);
        let s: ProcessSet = [pid(1), pid(3)].into();
        assert_eq!(s.complement(5), [pid(0), pid(2), pid(4)].into());
        assert_eq!(
            ProcessSet::full(ProcessSet::CAPACITY).len(),
            ProcessSet::CAPACITY
        );
    }

    #[test]
    fn process_set_insert_remove_roundtrip() {
        let mut s = ProcessSet::new();
        assert!(s.insert(pid(3)));
        assert!(!s.insert(pid(3)), "second insert is a no-op");
        assert!(s.contains(pid(3)));
        assert!(s.remove(pid(3)));
        assert!(!s.remove(pid(3)));
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn process_set_rejects_oversized_ids() {
        let mut s = ProcessSet::new();
        s.insert(pid(ProcessSet::CAPACITY));
    }

    #[test]
    fn process_set_display_matches_btree_convention() {
        let s: ProcessSet = [pid(0), pid(2)].into();
        assert_eq!(s.to_string(), "{p1, p3}");
        assert_eq!(format!("{s:?}"), "{p1, p3}");
    }

    #[test]
    fn capacity_is_512_and_errors_are_typed() {
        assert_eq!(ProcessSet::CAPACITY, 512);
        let mut s = ProcessSet::new();
        assert!(s.insert(pid(511)), "top id fits");
        let err = s.try_insert(pid(512)).unwrap_err();
        assert_eq!(err.requested(), 512);
        assert_eq!(err.capacity(), 512);
        assert!(err.to_string().contains("exceeds the ProcessSet capacity"));
        assert_eq!(s.len(), 1, "failed try_insert leaves the set unchanged");
        assert!(ProcessSet::try_singleton(pid(512)).is_err());
        assert_eq!(ProcessSet::try_full(512).unwrap().len(), 512);
        assert!(ProcessSet::try_full(513).is_err());
    }

    #[test]
    fn wide_ops_cross_limb_boundaries() {
        // Members straddling all limbs of the width; algebra must treat the
        // limb array as one long bit string.
        let a: ProcessSet = [pid(0), pid(63), pid(64), pid(200), pid(511)].into();
        let b: ProcessSet = [pid(63), pid(64), pid(65), pid(450)].into();
        assert_eq!(a.union(b).len(), 7);
        assert_eq!(a.intersection(b), [pid(63), pid(64)].into());
        assert_eq!(a.difference(b), [pid(0), pid(200), pid(511)].into());
        assert!(a.intersection(b).is_subset(b));
        assert!(!a.is_disjoint(b));
        let order: Vec<usize> = a.iter().map(ProcessId::index).collect();
        assert_eq!(order, vec![0, 63, 64, 200, 511]);
        assert_eq!(a.complement(512).len(), 512 - 5);
        assert_eq!(a.first(), Some(pid(0)));
    }

    #[test]
    fn widths_agree_on_shared_prefix() {
        // The same members produce observationally equal sets at every
        // width that can hold them.
        let members = [0usize, 1, 63, 64, 100, 127];
        let w2: WideSet<2> = members.iter().copied().map(pid).collect();
        let w4: WideSet<4> = members.iter().copied().map(pid).collect();
        let w8: WideSet<8> = members.iter().copied().map(pid).collect();
        assert_eq!(w2.len(), w4.len());
        assert_eq!(w4.len(), w8.len());
        assert_eq!(w2.to_string(), w8.to_string());
        assert_eq!(w2.iter().collect::<Vec<_>>(), w8.iter().collect::<Vec<_>>());
        assert_eq!(w2.bits(), w8.bits());
    }

    #[test]
    fn u128_interchange_roundtrips() {
        let bits: u128 = (1 << 0) | (1 << 64) | (1 << 127);
        let s = ProcessSet::from_bits(bits);
        assert_eq!(s.len(), 3);
        assert_eq!(s.bits(), bits);
        assert_eq!(WideSet::<2>::from_bits(bits).bits(), bits);
    }

    #[test]
    #[should_panic(expected = "does not fit in u128")]
    fn bits_rejects_wide_members() {
        let s: ProcessSet = [pid(300)].into();
        let _ = s.bits();
    }

    #[test]
    fn ord_matches_u128_numeric_order() {
        // For sets within the u128 window, Ord must agree with the numeric
        // order of the old u128 representation (BTreeSet layouts, sorted
        // partition blocks and explorer tie-breaks all depend on it).
        let patterns: [u128; 6] = [0, 1, 2, 1 << 64, (1 << 64) | 1, u128::MAX];
        for &x in &patterns {
            for &y in &patterns {
                let sx = ProcessSet::from_bits(x);
                let sy = ProcessSet::from_bits(y);
                assert_eq!(sx.cmp(&sy), x.cmp(&y), "{x:#x} vs {y:#x}");
            }
        }
        // And above the window: a member in a higher limb dominates.
        assert!(ProcessSet::singleton(pid(128)) > ProcessSet::from_bits(u128::MAX));
    }

    #[test]
    fn subsets_match_classic_u128_walk() {
        let mask: u128 = 0b1_0110_1001;
        let s = ProcessSet::from_bits(mask);
        // Reference: the classic descending sub = (sub - 1) & mask walk.
        let mut expect = Vec::new();
        let mut sub = mask;
        while sub != 0 {
            expect.push(sub);
            sub = (sub - 1) & mask;
        }
        let got: Vec<u128> = s.subsets().map(|t| t.bits()).collect();
        assert_eq!(got, expect);
        assert_eq!(got.len(), (1 << s.len()) - 1);
    }

    #[test]
    fn subsets_cross_limb_boundaries() {
        // 3 members spread over 3 limbs: 7 non-empty subsets, the full set
        // first, every subset within the mask.
        let s: ProcessSet = [pid(10), pid(70), pid(140)].into();
        let subs: Vec<ProcessSet> = s.subsets().collect();
        assert_eq!(subs.len(), 7);
        assert_eq!(subs[0], s);
        let distinct: BTreeSet<ProcessSet> = subs.iter().copied().collect();
        assert_eq!(distinct.len(), 7, "subsets are distinct");
        for sub in subs {
            assert!(!sub.is_empty());
            assert!(sub.is_subset(s));
        }
        assert_eq!(ProcessSet::new().subsets().count(), 0);
    }

    #[test]
    fn sender_map_dense_semantics() {
        let mut m: SenderMap<u32> = SenderMap::with_capacity(4);
        assert!(m.is_empty());
        assert_eq!(m.insert(pid(2), 20), None);
        assert_eq!(m.insert(pid(2), 21), Some(20));
        m.insert(pid(0), 10);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(pid(2)), Some(&21));
        assert_eq!(m.get(pid(3)), None);
        let entries: Vec<(usize, u32)> = m.iter().map(|(p, v)| (p.index(), *v)).collect();
        assert_eq!(entries, vec![(0, 10), (2, 21)]);
        assert_eq!(m.senders(), [pid(0), pid(2)].into());
        assert_eq!(m.remove(pid(0)), Some(10));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn sender_map_eq_and_hash_ignore_capacity() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut a: SenderMap<u32> = SenderMap::with_capacity(16);
        let mut b: SenderMap<u32> = SenderMap::new();
        a.insert(pid(1), 7);
        b.insert(pid(1), 7);
        assert_eq!(a, b);
        let hash = |m: &SenderMap<u32>| {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn sender_map_entry_or_insert_keeps_first() {
        let mut m: SenderMap<u32> = SenderMap::new();
        assert_eq!(*m.entry_or_insert_with(pid(0), || 1), 1);
        assert_eq!(*m.entry_or_insert_with(pid(0), || 2), 1, "first value wins");
    }

    #[test]
    fn sender_map_clone_from_equals_clone() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |m: &SenderMap<u32>| {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        // Sources and targets of 0, 2, 4 and 8 slots, so a target has more,
        // fewer or equally many slots than its source, with entries at
        // either end and in between.
        let map = |slots: usize, entries: &[usize]| {
            let mut m: SenderMap<u32> = SenderMap::with_capacity(slots);
            for &i in entries {
                m.insert(pid(i), 100 + i as u32);
            }
            m
        };
        let maps = [
            map(0, &[]),
            map(2, &[1]),
            map(4, &[0, 3]),
            map(8, &[]),
            map(8, &[2, 5, 7]),
        ];
        for source in &maps {
            for target in &maps {
                let mut copy = target.clone();
                copy.clone_from(source);
                assert_eq!(copy, *source);
                assert_eq!(copy, source.clone());
                assert_eq!(hash(&copy), hash(source));
                assert_eq!(copy.len(), source.len());
                assert_eq!(copy.slots.len(), source.slots.len());
                assert_eq!(copy.len, copy.slots.iter().flatten().count(), "density");
            }
        }
    }

    #[test]
    fn sender_map_clear_keeps_slots() {
        let mut m: SenderMap<u32> = SenderMap::with_capacity(4);
        m.insert(pid(1), 11);
        m.insert(pid(3), 33);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(pid(1)), None);
        m.insert(pid(2), 22);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(pid(2)), Some(&22));
    }
}
