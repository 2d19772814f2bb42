//! The coalescing write buffer — the subject of the paper.
//!
//! A write buffer sits between a write-through L1 and the L2 cache
//! (paper Figure 1). It "absorbs processor writes at a rate faster than the
//! next-level cache could … and aggregates writes to the same cache block"
//! (§1). This crate implements the buffer's *structure*: entries with
//! address tags and per-word valid bits, parallel tag probes, merge rules,
//! FIFO/LRU retirement order, and flush planning for each load-hazard
//! policy. All *timing* (latencies, arbitration, stall attribution) lives in
//! `wbsim-sim`, which drives this structure cycle by cycle.
//!
//! Modules:
//!
//! * [`entry`] — one buffer entry and the [`entry::RetiredLine`]
//!   handed to L2 when it leaves;
//! * [`buffer`] — [`buffer::WriteBuffer`], the model itself;
//! * [`presets`] — configurations for the hardware the paper cites
//!   (Alpha 21064/21164, UltraSPARC-I) and the related designs it discusses
//!   (non-coalescing buffer, Jouppi's write cache).
//!
//! # Example
//!
//! ```
//! use wbsim_core::buffer::{StoreOutcome, WriteBuffer};
//! use wbsim_types::addr::{Addr, Geometry};
//! use wbsim_types::config::WriteBufferConfig;
//!
//! let g = Geometry::alpha_baseline();
//! let mut wb = WriteBuffer::new(&WriteBufferConfig::baseline(), &g).unwrap();
//!
//! // Two stores to the same 32-byte line coalesce into one entry.
//! assert_eq!(wb.store(Addr::new(0x100), 1, 0), StoreOutcome::Allocated);
//! assert_eq!(wb.store(Addr::new(0x108), 2, 1), StoreOutcome::Merged);
//! assert_eq!(wb.occupancy(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod entry;
pub mod presets;

pub use buffer::{StoreOutcome, WriteBuffer};
pub use entry::{Entry, EntryId, RetiredBlock, RetiredLine};
