//! Canonical abstract states for the state-graph checkers.
//!
//! The concrete machine is infinite-state: store values strictly increase,
//! `now` grows without bound, and entry ids are monotonic. None of that
//! matters to the control dynamics — the machine never branches on data —
//! so the checkers quotient it away:
//!
//! * **Value blindness.** Every concrete word is classified relative to a
//!   [`ShadowTracker`] (the architectural "freshest value" map fed by
//!   `StoreAccepted` events): *fresh* if it equals the freshest value for
//!   its address, *stale* otherwise, *invalid* for an absent word. This is
//!   sound because store values strictly increase: a stale word can never
//!   *become* fresh again, so two states with the same classification have
//!   the same future classifications (and the same violations) under every
//!   op sequence.
//! * **Time-shift invariance.** The snapshot carries countdowns
//!   (`done_at − now`), never absolute cycles — valid exactly for the
//!   configuration class the reachability checker gates on (`RCH003`),
//!   where no policy consults absolute time.
//! * **Line symmetry.** The two universe lines are interchangeable (the op
//!   universe is closed under swapping them and the datapath treats them
//!   identically), so the canonical key is the smaller of the packed
//!   encodings under the identity and under the swap.
//! * **Completion commutation.** The non-blocking machine's MSHR file is
//!   abstracted as queued misses (in issue order — the port serves them in
//!   that order) followed by in-flight misses sorted by countdown: once
//!   issued, an MSHR's allocation order is never consulted again, and
//!   fills to distinct lines commute, so the sorted form is a sound
//!   partial-order reduction.
//!
//! The quotient is finite: at most `depth` entries × 2 lines × 3 word
//! classes per word × bounded countdowns × at most `mshrs` outstanding
//! misses.
//!
//! # The packed key
//!
//! An abstract state is one byte string, written in a single pass
//! straight from a [`MachineSnapshot`] under both line permutations at
//! once (`KeyBuf`, whose buffers the checkers reuse across edges).
//! In order:
//!
//! 1. the write-buffer entry count, then per entry in FIFO order: its line
//!    index (0 or 1 under the permutation), its sub-line block, its
//!    retiring flag, its word count and one class byte per word;
//! 2. the retirement countdown (`0` for none, else `1` and the countdown)
//!    and the port countdown;
//! 3. the MSHR count, then the queued MSHRs in issue order (`0`, line),
//!    then the issued ones sorted by (countdown, renamed line)
//!    (`1`, countdown, line);
//! 4. both universe lines in permuted order: the L1 copy (`0` when not
//!    resident, else `1`, the word count and the classes), then the
//!    memory-side word count and classes.
//!
//! Integers are LEB128 varints and every list carries its length, so the
//! encoding is prefix-free: distinct abstract states encode differently,
//! and so do concatenations of encodings (the refinement checker's pair
//! key).

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

use wbsim_sim::{LineSnapshot, MachineSnapshot};
use wbsim_types::addr::{Geometry, LineAddr, WordHasher, WordMap};

/// Class byte of an absent word (valid-bit clear, line not resident, …).
const INVALID: u8 = 0;
/// Class byte of a word holding the freshest value for its address.
const FRESH: u8 = 1;
/// Class byte of a word holding a superseded value.
const STALE: u8 = 2;

/// A set of canonical keys. Keys are simulator-made, not adversarial, so
/// [`WordHasher`]'s 8-bytes-per-step mix replaces SipHash.
pub(crate) type KeySet<K> = HashSet<K, BuildHasherDefault<WordHasher>>;

/// A map from canonical keys, hashed like [`KeySet`].
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// The architectural "freshest value" map the word classification is
/// relative to. Fed one `StoreAccepted` event at a time: the machine
/// assigns the k-th accepted store the value k, so the tracker's counter
/// mirrors the machine's value sequence exactly.
#[derive(Debug, Clone, Default)]
pub struct ShadowTracker {
    map: WordMap<u64>,
    count: u64,
}

impl ShadowTracker {
    /// Records one accepted store to `word_addr` (in geometry word-address
    /// units). Must be called for every `StoreAccepted` event, in order.
    pub fn record_store(&mut self, word_addr: u64) {
        self.count += 1;
        self.map.insert(word_addr, self.count);
    }

    /// The architecturally freshest value for `word_addr` (0 for a
    /// never-written word — main memory's reset value).
    #[must_use]
    pub fn expected(&self, word_addr: u64) -> u64 {
        self.map.get(&word_addr).copied().unwrap_or(0)
    }

    /// Whether a present concrete `value` at `word_addr` is the freshest
    /// (otherwise it is stale).
    #[must_use]
    pub fn is_fresh(&self, word_addr: u64, value: u64) -> bool {
        value == self.expected(word_addr)
    }

    fn class(&self, word_addr: u64, value: u64) -> u8 {
        if self.is_fresh(word_addr, value) {
            FRESH
        } else {
            STALE
        }
    }
}

/// Appends `v` as an LEB128 varint.
fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends a word count and one class byte per word of a line.
fn put_words(out: &mut Vec<u8>, g: &Geometry, shadow: &ShadowTracker, line: u64, words: &[u64]) {
    let la = LineAddr::new(line);
    put(out, words.len() as u64);
    out.extend(
        words
            .iter()
            .enumerate()
            .map(|(w, &v)| shadow.class(g.word_addr_in_line(la, w), v)),
    );
}

/// Appends one universe line's memory-side state.
fn put_line(out: &mut Vec<u8>, g: &Geometry, shadow: &ShadowTracker, ls: &LineSnapshot) {
    match &ls.l1 {
        None => out.push(0),
        Some(words) => {
            out.push(1);
            put_words(out, g, shadow, ls.line, words);
        }
    }
    put_words(out, g, shadow, ls.line, &ls.mem);
}

/// Canonical-key buffers, reused across snapshots: the packed encodings
/// under the identity and under the line swap (see the module docs), plus
/// the scratch the issued-MSHR sort needs. [`KeyBuf::push`] appends, so
/// several snapshots can be keyed jointly under the same permutation.
#[derive(Debug, Default)]
pub(crate) struct KeyBuf {
    id: Vec<u8>,
    swap: Vec<u8>,
    issued: Vec<(u64, u64)>,
}

impl KeyBuf {
    /// Empties both encodings.
    pub(crate) fn clear(&mut self) {
        self.id.clear();
        self.swap.clear();
    }

    /// Appends the encoding of `snap` under the identity to one buffer and
    /// under the line swap to the other.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not cover exactly two lines, or if a
    /// write-buffer entry or an outstanding miss lies outside them.
    pub(crate) fn push(&mut self, g: &Geometry, snap: &MachineSnapshot, shadow: &ShadowTracker) {
        assert_eq!(snap.lines.len(), 2, "the bounded universe has two lines");
        let KeyBuf { id, swap, issued } = self;
        let line_index = |line: u64, what: &str| -> u64 {
            match snap.lines.iter().position(|l| l.line == line) {
                Some(i) => i as u64,
                None => panic!("{what} outside the bounded universe"),
            }
        };
        let both = |id: &mut Vec<u8>, swap: &mut Vec<u8>, v: u64| {
            put(id, v);
            put(swap, v);
        };

        both(id, swap, snap.wb.len() as u64);
        for e in &snap.wb {
            // Blocks are aligned `width`-word groups: block b covers word
            // addresses b·width .. (b+1)·width, so with sub-line entries
            // the owning line is b / blocks_per_line.
            let width = e.words.len() as u64;
            let bpl = g.words_per_line() as u64 / width;
            let line = line_index(e.block / bpl, "write-buffer entry");
            put(id, line);
            put(swap, 1 - line);
            both(id, swap, e.block % bpl);
            both(id, swap, u64::from(e.retiring));
            both(id, swap, width);
            for (w, v) in (0..).zip(&e.words) {
                let class = match *v {
                    None => INVALID,
                    Some(v) => shadow.class(e.block * width + w, v),
                };
                id.push(class);
                swap.push(class);
            }
        }

        match snap.retire_countdown {
            None => both(id, swap, 0),
            Some(c) => {
                both(id, swap, 1);
                both(id, swap, c);
            }
        }
        both(id, swap, snap.port_countdown);

        both(id, swap, snap.mshrs.len() as u64);
        issued.clear();
        for m in &snap.mshrs {
            let line = line_index(m.line, "outstanding miss");
            match m.countdown {
                None => {
                    both(id, swap, 0);
                    put(id, line);
                    put(swap, 1 - line);
                }
                Some(c) => issued.push((c, line)),
            }
        }
        let put_issued = |out: &mut Vec<u8>, issued: &mut [(u64, u64)]| {
            issued.sort_unstable();
            for &(c, line) in &*issued {
                put(out, 1);
                put(out, c);
                put(out, line);
            }
        };
        put_issued(id, issued);
        // Renaming perturbs the issued suffix's sort key, so the swap
        // re-sorts it by (countdown, renamed line).
        for m in issued.iter_mut() {
            m.1 = 1 - m.1;
        }
        put_issued(swap, issued);

        let start = id.len();
        put_line(id, g, shadow, &snap.lines[0]);
        let mid = id.len();
        put_line(id, g, shadow, &snap.lines[1]);
        swap.extend_from_slice(&id[mid..]);
        swap.extend_from_slice(&id[start..mid]);
    }

    /// The encodings under the identity and under the line swap.
    pub(crate) fn both(&self) -> (&[u8], &[u8]) {
        (&self.id, &self.swap)
    }

    /// The canonical key: the smaller of the two encodings.
    pub(crate) fn canonical(&self) -> &[u8] {
        self.id.as_slice().min(self.swap.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::CheckGrid;
    use crate::reach::{universe_lines, OP_CYCLE_BUDGET};
    use crate::refine::refine_universe;
    use proptest::prelude::*;
    use wbsim_sim::{Event, Machine, MachineKind, NonBlockingMachine, Observer, SimMachine};
    use wbsim_types::config::MachineConfig;
    use wbsim_types::op::Op;
    use wbsim_types::testutil::a;

    /// The nested abstraction the packed key replaced, kept as the
    /// reference the key's injectivity is checked against.
    mod reference {
        use super::super::ShadowTracker;
        use wbsim_sim::MachineSnapshot;
        use wbsim_types::addr::{Geometry, LineAddr};

        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum WordAbs {
            Invalid,
            Fresh,
            Stale,
        }

        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
        pub struct AbsEntry {
            pub line: usize,
            pub sub: usize,
            pub retiring: bool,
            pub words: Vec<WordAbs>,
        }

        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub struct AbsMshr {
            pub countdown: Option<u64>,
            pub line: usize,
        }

        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
        pub struct AbsLine {
            pub l1: Option<Vec<WordAbs>>,
            pub mem: Vec<WordAbs>,
        }

        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
        pub struct AbsState {
            pub wb: Vec<AbsEntry>,
            pub retire_countdown: Option<u64>,
            pub port_countdown: u64,
            pub mshrs: Vec<AbsMshr>,
            pub lines: Vec<AbsLine>,
        }

        fn classify(shadow: &ShadowTracker, word_addr: u64, value: u64) -> WordAbs {
            if shadow.is_fresh(word_addr, value) {
                WordAbs::Fresh
            } else {
                WordAbs::Stale
            }
        }

        fn abstract_snapshot(
            g: &Geometry,
            snap: &MachineSnapshot,
            shadow: &ShadowTracker,
        ) -> AbsState {
            let classify_line = |line: u64, words: &[u64]| -> Vec<WordAbs> {
                let la = LineAddr::new(line);
                words
                    .iter()
                    .enumerate()
                    .map(|(w, &v)| classify(shadow, g.word_addr_in_line(la, w), v))
                    .collect()
            };
            let index = |line: u64| snap.lines.iter().position(|l| l.line == line).unwrap();
            let wb = snap
                .wb
                .iter()
                .map(|e| {
                    let width = e.words.len();
                    let bpl = (g.words_per_line() / width) as u64;
                    AbsEntry {
                        line: index(e.block / bpl),
                        sub: (e.block % bpl) as usize,
                        retiring: e.retiring,
                        words: e
                            .words
                            .iter()
                            .enumerate()
                            .map(|(w, v)| match v {
                                None => WordAbs::Invalid,
                                Some(v) => classify(shadow, e.block * width as u64 + w as u64, *v),
                            })
                            .collect(),
                    }
                })
                .collect();
            let mut queued = Vec::new();
            let mut issued = Vec::new();
            for m in &snap.mshrs {
                let am = AbsMshr {
                    countdown: m.countdown,
                    line: index(m.line),
                };
                if m.countdown.is_some() {
                    issued.push(am);
                } else {
                    queued.push(am);
                }
            }
            issued.sort_unstable();
            queued.extend(issued);
            AbsState {
                wb,
                retire_countdown: snap.retire_countdown,
                port_countdown: snap.port_countdown,
                mshrs: queued,
                lines: snap
                    .lines
                    .iter()
                    .map(|ls| AbsLine {
                        l1: ls.l1.as_deref().map(|ws| classify_line(ls.line, ws)),
                        mem: classify_line(ls.line, &ls.mem),
                    })
                    .collect(),
            }
        }

        /// The lexicographic minimum of the nested abstraction under the
        /// identity and under the line swap.
        pub fn canonical_state(
            g: &Geometry,
            snap: &MachineSnapshot,
            shadow: &ShadowTracker,
        ) -> AbsState {
            let a = abstract_snapshot(g, snap, shadow);
            let mut b = a.clone();
            b.lines.swap(0, 1);
            for e in &mut b.wb {
                e.line = 1 - e.line;
            }
            for m in &mut b.mshrs {
                m.line = 1 - m.line;
            }
            let first_issued = b
                .mshrs
                .iter()
                .position(|m| m.countdown.is_some())
                .unwrap_or(b.mshrs.len());
            b.mshrs[first_issued..].sort_unstable();
            a.min(b)
        }
    }

    /// Feeds accepted stores to a shadow tracker.
    struct ShadowObserver<'a> {
        g: Geometry,
        shadow: &'a mut ShadowTracker,
    }

    impl Observer for ShadowObserver<'_> {
        fn event(&mut self, ev: &Event) {
            if let Event::StoreAccepted { addr, .. } = *ev {
                self.shadow.record_store(self.g.word_addr(addr));
            }
        }
    }

    /// The canonical key of one snapshot, in a fresh buffer.
    fn canonical_key(g: &Geometry, snap: &MachineSnapshot, shadow: &ShadowTracker) -> Vec<u8> {
        let mut keys = KeyBuf::default();
        keys.push(g, snap, shadow);
        keys.canonical().to_vec()
    }

    /// The packed key and the reference abstraction after every prefix of
    /// `ops` (the empty prefix included), stopping at the first op that
    /// exceeds `budget` cycles.
    fn trajectory<M: SimMachine>(
        cfg: &MachineConfig,
        mshrs: Option<usize>,
        ops: &[Op],
        budget: u64,
    ) -> Vec<(Vec<u8>, reference::AbsState)> {
        let g = cfg.geometry;
        let lines = universe_lines(cfg);
        let mut m = M::build(cfg.clone(), mshrs).expect("valid configuration");
        let mut shadow = ShadowTracker::default();
        let mut out = Vec::new();
        for op in std::iter::once(None).chain(ops.iter().map(Some)) {
            if let Some(&op) = op {
                let mut obs = ShadowObserver {
                    g,
                    shadow: &mut shadow,
                };
                if m.run_op_bounded(op, budget, &mut obs).is_none() {
                    break;
                }
            }
            let snap = m.snapshot(&lines);
            out.push((
                canonical_key(&g, &snap, &shadow),
                reference::canonical_state(&g, &snap, &shadow),
            ));
        }
        out
    }

    /// The canonical key after running every op of `ops`; panics if one
    /// does not complete, so a wedged op cannot shorten the comparison.
    fn state_after(ops: &[Op]) -> Vec<u8> {
        let mut cfg = MachineConfig::baseline();
        cfg.check_data = false;
        let mut states = trajectory::<Machine>(&cfg, None, ops, 10_000);
        assert_eq!(
            states.len(),
            ops.len() + 1,
            "an op of {ops:?} did not complete"
        );
        states.pop().expect("the empty prefix is always there").0
    }

    #[test]
    fn classification_tracks_the_freshest_value() {
        let mut s = ShadowTracker::default();
        assert!(s.is_fresh(0x40, 0), "unwritten words are 0");
        s.record_store(0x40);
        assert_eq!(s.expected(0x40), 1);
        assert!(s.is_fresh(0x40, 1));
        assert!(!s.is_fresh(0x40, 0));
        s.record_store(0x41);
        s.record_store(0x40);
        assert_eq!(s.expected(0x40), 3, "values strictly increase");
        assert!(!s.is_fresh(0x40, 1), "stale never recovers");
    }

    #[test]
    fn varints_are_prefix_free() {
        let mut out = Vec::new();
        for v in [0, 1, 0x7f, 0x80, 0x3fff, 0x4000, u64::MAX] {
            out.clear();
            put(&mut out, v);
            assert!(out[..out.len() - 1].iter().all(|b| b & 0x80 != 0), "{v}");
            assert_eq!(out.last().map(|b| b & 0x80), Some(0), "{v}");
            let decoded = out
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, b)| acc | (u64::from(b & 0x7f) << (7 * i)));
            assert_eq!(decoded, v);
        }
    }

    #[test]
    fn line_swap_canonicalizes_symmetric_states() {
        // A store to line 0 and a store to line 1 reach line-swapped
        // concrete states; the canonical key must coincide.
        assert_eq!(
            state_after(&[Op::Store(a(0, 0))]),
            state_after(&[Op::Store(a(1, 0))])
        );
        // Sanity: storing a different *word* is not symmetric.
        assert_ne!(
            state_after(&[Op::Store(a(0, 0))]),
            state_after(&[Op::Store(a(0, 1))])
        );
    }

    #[test]
    fn idle_time_does_not_change_the_state() {
        assert_eq!(
            state_after(&[Op::Store(a(0, 0))]),
            state_after(&[Op::Store(a(0, 0)), Op::Compute(17)]),
        );
    }

    #[test]
    fn fresh_and_stale_words_are_distinguished() {
        // Store word 0 twice: the write buffer's entry coalesces to the
        // newer value, staying Fresh; the state differs from a single
        // store only through the shadow — and must still canonicalize
        // identically, since both leave one Fresh buffered word.
        assert_eq!(
            state_after(&[Op::Store(a(0, 0))]),
            state_after(&[Op::Store(a(0, 0)), Op::Store(a(0, 0))]),
        );
    }

    /// The same op with its line renamed (the universe's two lines are
    /// `line_bytes` apart).
    fn swap_line(op: Op, line_bytes: u64) -> Op {
        let flip = |addr: wbsim_types::addr::Addr| {
            let a = addr.as_u64();
            wbsim_types::addr::Addr::new(if a < line_bytes {
                a + line_bytes
            } else {
                a - line_bytes
            })
        };
        match op {
            Op::Load(addr) => Op::Load(flip(addr)),
            Op::Store(addr) => Op::Store(flip(addr)),
            other => other,
        }
    }

    fn assert_keys_match_reference<M: SimMachine>(
        cfg: &MachineConfig,
        mshrs: Option<usize>,
        first: &[Op],
        second: &[Op],
    ) -> Result<(), TestCaseError> {
        let mut states = trajectory::<M>(cfg, mshrs, first, OP_CYCLE_BUDGET);
        states.extend(trajectory::<M>(cfg, mshrs, second, OP_CYCLE_BUDGET));
        for (i, (ki, ri)) in states.iter().enumerate() {
            for (kj, rj) in &states[i + 1..] {
                prop_assert_eq!(
                    ki == kj,
                    ri == rj,
                    "{:?} width {} mshrs {:?}: key equality disagrees with the reference \
                     on {:?} vs {:?}",
                    M::KIND,
                    cfg.write_buffer.width_words,
                    mshrs,
                    ri,
                    rj
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Key injectivity oracle: on states reached by random op
        /// sequences — at grid points of both machines and at entry widths
        /// 1, 2 and 4 — two packed keys are equal exactly when the nested
        /// reference abstractions (each minimized over identity and swap)
        /// are. Half the cases replay the first sequence with its lines
        /// renamed, so swapped states meet.
        #[test]
        fn packed_keys_are_equal_iff_reference_abstractions_are(
            nonblocking in any::<bool>(),
            point in 0usize..40,
            width in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
            first in proptest::collection::vec(0usize..10, 0..12),
            second in proptest::collection::vec(0usize..10, 0..12),
            mirror in any::<bool>(),
        ) {
            let kind = if nonblocking { MachineKind::NonBlocking } else { MachineKind::Blocking };
            let grid = CheckGrid::new(kind, None, None).expect("full grid");
            let (mut cfg, mshrs) = grid.points()[point].clone();
            cfg.write_buffer.width_words = width;
            prop_assert!(cfg.validate().is_ok());
            let universe = refine_universe(&cfg);
            let line_bytes = u64::from(cfg.geometry.line_bytes());
            let first: Vec<Op> = first.iter().map(|&i| universe[i]).collect();
            let second: Vec<Op> = if mirror {
                first.iter().map(|&op| swap_line(op, line_bytes)).collect()
            } else {
                second.iter().map(|&i| universe[i]).collect()
            };
            match kind {
                MachineKind::Blocking => {
                    assert_keys_match_reference::<Machine>(&cfg, mshrs, &first, &second)?;
                }
                MachineKind::NonBlocking => {
                    assert_keys_match_reference::<NonBlockingMachine>(
                        &cfg, mshrs, &first, &second,
                    )?;
                }
            }
        }
    }
}
