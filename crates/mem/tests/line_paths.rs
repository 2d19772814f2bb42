//! The allocation-free line paths (`L2Cache::read_line_into`,
//! `MainMemory::read_line_into`, `L1Cache::fill_with_victim` into a caller
//! buffer) against the owned-vector wrappers: two copies of the hierarchy
//! driven by the same random access sequence, one through each path, must
//! return the same lines and outcomes and end in the same state.

use proptest::prelude::*;
use wbsim_mem::{L1Cache, L2Cache, MainMemory};
use wbsim_types::addr::{Geometry, LineAddr, WordMask};
use wbsim_types::config::{L1Config, L2Config};

#[derive(Debug, Clone)]
enum Access {
    Read(u64),
    Write(u64, u64),
}

/// Lines 0..8 plus their aliases one and two L2 set-spans away, so the
/// 128K direct-mapped L2 (4096 sets) evicts, clean and dirty.
fn access() -> impl Strategy<Value = Access> {
    let line = (0u64..8, 0u64..3).prop_map(|(l, k)| l + k * 4096);
    prop_oneof![
        2 => line.clone().prop_map(Access::Read),
        1 => (line, 1u64..16).prop_map(|(l, m)| Access::Write(l, m)),
    ]
}

fn l2s() -> [L2Config; 2] {
    [L2Config::baseline(), L2Config::real_with_size(128 * 1024)]
}

proptest! {
    #[test]
    fn l2_read_line_into_matches_read_line(
        accesses in proptest::collection::vec(access(), 1..60),
    ) {
        let g = Geometry::alpha_baseline();
        for cfg in l2s() {
            let (mut l2a, mut mema) = (L2Cache::new(&cfg, &g).unwrap(), MainMemory::new());
            let (mut l2b, mut memb) = (l2a.clone(), MainMemory::new());
            let mut buf = [0u64; 4];
            for (i, acc) in accesses.iter().enumerate() {
                match *acc {
                    Access::Read(l) => {
                        let line = LineAddr::new(l);
                        let owned = l2a.read_line(&g, line, &mut mema);
                        let info = l2b.read_line_into(&g, line, &mut memb, &mut buf);
                        prop_assert_eq!(&owned.data[..], &buf[..]);
                        prop_assert_eq!(
                            (owned.miss, owned.evicted, owned.wrote_back),
                            (info.miss, info.evicted, info.wrote_back)
                        );
                    }
                    Access::Write(l, m) => {
                        let line = LineAddr::new(l);
                        let mask = WordMask::from_bits(m);
                        let data = [i as u64 + 1; 4];
                        let a = l2a.write_line_masked(&g, line, mask, &data, &mut mema);
                        let b = l2b.write_line_masked(&g, line, mask, &data, &mut memb);
                        prop_assert_eq!(a, b);
                    }
                }
            }
            for l in 0..8 {
                let line = LineAddr::new(l);
                prop_assert_eq!(mema.read_line(&g, line), memb.read_line(&g, line));
            }
        }
    }

    #[test]
    fn memory_read_line_into_matches_read_line(
        writes in proptest::collection::vec((0u64..64, 0u64..4), 0..40),
    ) {
        let g = Geometry::alpha_baseline();
        let mut mem = MainMemory::new();
        for (i, &(l, w)) in writes.iter().enumerate() {
            mem.write_word(g.word_addr_in_line(LineAddr::new(l), w as usize), i as u64);
        }
        let mut buf = [u64::MAX; 4];
        for l in 0..64 {
            let line = LineAddr::new(l);
            mem.read_line_into(&g, line, &mut buf);
            prop_assert_eq!(mem.read_line(&g, line), buf.to_vec());
        }
    }

    /// A write-back L1's dirty victim reaches the caller buffer intact.
    #[test]
    fn l1_victim_buffer_holds_the_dirty_line(
        stores in proptest::collection::vec((0u64..4, 0usize..4), 1..20),
    ) {
        let g = Geometry::alpha_baseline();
        let mut l1 = L1Cache::new(&L1Config::baseline(), &g).unwrap();
        let mut want = [[0u64; 4]; 4];
        for l in 0..4 {
            l1.fill(LineAddr::new(l), &[0; 4]);
        }
        for (i, &(l, w)) in stores.iter().enumerate() {
            prop_assert!(l1.store_word_dirty(LineAddr::new(l), w, i as u64 + 1));
            want[l as usize][w] = i as u64 + 1;
        }
        for l in 0..4u64 {
            let dirty = stores.iter().any(|&(sl, _)| sl == l);
            let mut victim = [u64::MAX; 4];
            // Line `l + 256` maps to the same set of the 256-set L1.
            let got = l1.fill_with_victim(LineAddr::new(l + 256), &[0; 4], &mut victim);
            prop_assert_eq!(got, dirty.then_some(LineAddr::new(l)));
            if dirty {
                prop_assert_eq!(victim, want[l as usize]);
            }
        }
    }
}
