//! Property tests for the address geometry: decomposition roundtrips for
//! every valid line/word shape.

use proptest::prelude::*;
use wbsim_types::addr::{Addr, Geometry, WordMask};

fn geometry_strategy() -> impl Strategy<Value = Geometry> {
    (3u32..=9, 0u32..=3).prop_filter_map("valid geometry", |(line_log, word_gap)| {
        let line = 1u32 << line_log;
        let word = 1u32 << (line_log.saturating_sub(word_gap)).max(2);
        Geometry::new(line, word.min(line))
    })
}

/// The 64-step definitions `WordMask::iter` and `WordMask::count` replaced:
/// test every bit position in turn.
fn stepped_iter(bits: u64) -> Vec<usize> {
    (0..64).filter(|i| (bits >> i) & 1 == 1).collect()
}

fn mask_of(bits: u64) -> WordMask {
    let mut m = WordMask::empty();
    for i in stepped_iter(bits) {
        m.set(i);
    }
    m
}

#[test]
fn word_mask_set_bit_walk_matches_stepped_walk_on_full_masks() {
    for n in 0..=64 {
        let m = WordMask::full(n);
        let want = stepped_iter(m.bits());
        assert_eq!(want, (0..n).collect::<Vec<_>>());
        assert_eq!(m.iter().collect::<Vec<_>>(), want, "full({n})");
        assert_eq!(m.count() as usize, want.len(), "full({n})");
    }
}

proptest! {
    #[test]
    fn word_mask_set_bit_walk_matches_stepped_walk(bits in any::<u64>(), shift in 0u32..64) {
        // `shift` thins the mask so sparse and dense patterns both occur.
        for raw in [bits, bits >> shift, bits & (bits >> shift)] {
            let m = mask_of(raw);
            prop_assert_eq!(m.bits(), raw);
            let want = stepped_iter(raw);
            prop_assert_eq!(m.iter().collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(m.count() as usize, want.len());
        }
    }

    #[test]
    fn line_word_decomposition_roundtrips(g in geometry_strategy(), raw in any::<u64>()) {
        // Align to the word size (addresses in the simulator are
        // word-aligned).
        let a = Addr::new(raw - raw % u64::from(g.word_bytes()));
        let line = g.line_of(a);
        let word = g.word_index(a);
        prop_assert!(word < g.words_per_line());
        let back = g.addr_of_word(line, word);
        prop_assert_eq!(back, a);
        prop_assert_eq!(g.word_addr(back), g.word_addr_in_line(line, word));
    }

    #[test]
    fn line_base_is_lowest_address_of_line(g in geometry_strategy(), raw in any::<u64>()) {
        let a = Addr::new(raw);
        let line = g.line_of(a);
        let base = g.line_base(line);
        prop_assert!(base <= a);
        prop_assert!(a.as_u64() - base.as_u64() < u64::from(g.line_bytes()));
        prop_assert_eq!(g.line_of(base), line);
    }

    #[test]
    fn word_mask_set_get_count(bits in proptest::collection::btree_set(0usize..64, 0..20)) {
        let mut m = WordMask::empty();
        for b in &bits {
            m.set(*b);
        }
        prop_assert_eq!(m.count() as usize, bits.len());
        for b in 0..64 {
            prop_assert_eq!(m.get(b), bits.contains(&b));
        }
        let collected: Vec<usize> = m.iter().collect();
        let expected: Vec<usize> = bits.iter().copied().collect();
        prop_assert_eq!(collected, expected);
    }
}
