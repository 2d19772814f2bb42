//! Memory-hierarchy substrates for `wbsim`.
//!
//! The paper's machine (Table 1) has a write-through, write-around L1 data
//! cache, a perfect instruction cache, a write-back L2 (perfect in the
//! baseline, finite in §4.2), and main memory. This crate implements each
//! level as a *data-carrying* model: every cache holds real word values, so
//! the simulator can verify end-to-end that loads always observe the
//! freshest store — the invariant the write buffer's load-hazard machinery
//! exists to protect.
//!
//! Timing lives in `wbsim-sim`; these models are purely structural
//! (hits, misses, evictions, inclusion) and know nothing about cycles.
//!
//! # Example
//!
//! ```
//! use wbsim_mem::{L1Cache, MainMemory};
//! use wbsim_types::addr::{Addr, Geometry};
//! use wbsim_types::config::L1Config;
//!
//! let g = Geometry::alpha_baseline();
//! let mut mem = MainMemory::new();
//! let mut l1 = L1Cache::new(&L1Config::baseline(), &g).unwrap();
//!
//! let a = Addr::new(0x1000);
//! let line = g.line_of(a);
//! mem.write_word(g.word_addr(a), 99);
//! assert!(l1.load_word(line, 0).is_none(), "cold miss");
//! let data = mem.read_line(&g, line);
//! l1.fill(line, &data);
//! assert_eq!(l1.load_word(line, 0), Some(99));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod icache;
pub mod l1;
pub mod l2;
pub mod memory;

pub use icache::Icache;
pub use l1::L1Cache;
pub use l2::{L2Cache, L2ReadInfo, L2ReadOutcome, L2WriteOutcome};
pub use memory::MainMemory;
