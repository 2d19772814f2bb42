//! Generator engines for synthetic reference streams.
//!
//! Two engines cover the paper's benchmark suite:
//!
//! * [`MixedWorkload`] — a parameterized mixture of access-pattern
//!   primitives (hot-set references, unit-stride streams, random pointer
//!   chases, store bursts, store-then-load-back hazards). Its knobs map
//!   directly onto the paper's published per-benchmark statistics, which is
//!   how `bench_models` calibrates the fifteen "ordinary" programs.
//! * [`KernelWalk`] — an explicit doubly nested loop over a 2-D array,
//!   matching the structure the paper ascribes to the NASA kernels: "they
//!   traverse their arrays in column-major instead of row-major order, the
//!   'wrong' order for Fortran" (§3.1). Flipping
//!   [`transformed`](KernelWalk::transformed) applies the paper's Table 6
//!   loop interchange.
//!
//! Both engines are deterministic functions of their parameters and a seed.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wbsim_types::addr::Addr;
use wbsim_types::op::Op;

/// Byte size of one word (the Alpha's 8-byte stores, paper §2.2).
const WORD: u64 = 8;
/// Byte size of one cache line (paper Table 1).
const LINE: u64 = 32;

/// Base addresses keeping the regions of one workload disjoint. The bases
/// are spaced about 1365 *lines* apart modulo every power-of-two set count
/// up to 32768, so the four regions of a small-footprint benchmark occupy
/// disjoint direct-mapped set windows in L2 (as the distinct segments of a
/// real program mostly would) instead of artificially thrashing each
/// other. Regions larger than a window still wrap and conflict — exactly
/// the capacity behaviour the large-footprint benchmarks need.
const HOT_BASE: u64 = 0x0010_0000 + 10_000 * LINE;
const STREAM_BASE: u64 = 0x0100_0000;
const STORE_BASE: u64 = 0x0800_0000 + 10_922 * LINE;
const RAND_BASE: u64 = 0x2000_0000 + 21_845 * LINE;

/// Ops the final iteration of a generator loop can add past the
/// instruction budget (a store burst, or one kernel element's scalar
/// traffic).
const BUDGET_OVERSHOOT: usize = 64;

/// Clears `ops` and reserves room for a whole stream of `n_instructions`.
/// Every op is at least one instruction, so the stream never outgrows the
/// reservation and is never copied to a larger buffer mid-generation;
/// only the pages actually written are touched.
fn reserve_stream(ops: &mut Vec<Op>, n_instructions: u64) {
    ops.clear();
    ops.reserve((n_instructions as usize).saturating_add(BUDGET_OVERSHOOT));
}

/// A parameterized mixture of memory-access primitives.
///
/// Fractions need not sum to one; each is a probability applied in the
/// order documented on the field. All address regions are disjoint.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedWorkload {
    /// Fraction of instructions that are loads (paper Table 4).
    pub pct_loads: f64,
    /// Fraction of instructions that are stores (paper Table 4).
    pub pct_stores: f64,
    /// Of loads: fraction aimed at lines stored recently but not recently
    /// loaded — these miss L1 (write-around) and hit the write buffer,
    /// manufacturing load hazards.
    pub hazard_load_frac: f64,
    /// Of loads: fraction to a small hot set (hits L1 after warmup).
    pub hot_load_frac: f64,
    /// Of loads: fraction that walk a unit-stride stream (≈75% L1 hits
    /// with 4-word lines). The remainder are random over a large region
    /// (≈0% hits).
    pub stream_load_frac: f64,
    /// Of stores: fraction belonging to line-aligned sequential runs
    /// (≈75% write-buffer merges). The remainder scatter (≈0% merges).
    pub seq_store_frac: f64,
    /// Words per sequential store run (line-aligned; multiples of 4 keep
    /// the merge fraction at the 75% ceiling).
    pub seq_run_words: u32,
    /// Scattered stores arrive in back-to-back bursts of this many stores
    /// (1 = no bursting). Bursts pressure buffer depth.
    pub store_burst: u32,
    /// Of scattered stores: fraction that *revisit* a recently written line
    /// rather than a fresh random one. Revisits merge only if the entry is
    /// still buffered, so they are exactly the coalescing opportunity that
    /// lazier retirement preserves ("lazier retirement keeps entries in the
    /// write buffer longer to allow more opportunities for coalescing",
    /// paper §3.3).
    pub revisit_store_frac: f64,
    /// Bytes of the hot set (should fit L1).
    pub hot_bytes: u64,
    /// Bytes of the streaming/random regions (should dwarf L1).
    pub region_bytes: u64,
}

impl Default for MixedWorkload {
    fn default() -> Self {
        Self {
            pct_loads: 0.25,
            pct_stores: 0.10,
            hazard_load_frac: 0.01,
            hot_load_frac: 0.80,
            stream_load_frac: 0.15,
            seq_store_frac: 0.5,
            seq_run_words: 8,
            store_burst: 1,
            revisit_store_frac: 0.4,
            hot_bytes: 2 * 1024,
            region_bytes: 4 * 1024 * 1024,
        }
    }
}

impl MixedWorkload {
    /// Generates `n_instructions` instructions deterministically from
    /// `seed`.
    #[must_use]
    pub fn generate(&self, seed: u64, n_instructions: u64) -> Vec<Op> {
        let mut ops = Vec::new();
        self.generate_into(seed, n_instructions, &mut ops);
        ops
    }

    /// [`MixedWorkload::generate`] into `ops`, which is cleared first and
    /// keeps its capacity — the form a caller recycling one buffer across
    /// streams uses.
    pub fn generate_into(&self, seed: u64, n_instructions: u64, ops: &mut Vec<Op>) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        reserve_stream(ops, n_instructions);
        let mut pending_compute: u32 = 0;
        let mut emitted: u64 = 0;

        let hot_words = (self.hot_bytes / WORD).max(1);
        let region_lines = (self.region_bytes / LINE).max(1);

        // `seq_store_frac` is the target fraction of *stores* that belong
        // to sequential runs. A run, once started, spans `seq_run_words`
        // store slots, and a scattered slot emits (2b-1)/b stores on
        // average (the 1-in-b gate opens a burst of b-1 extras). Derive the
        // run-start probability `q` at a decision slot, and the store-draw
        // probability that keeps the overall density at `pct_stores`:
        //
        //   q·R = f · (q·R + (1-q)·Eb)        (run-store fraction = f)
        //   stores/draw = 1 + P(scattered draw)·(b-1)/b
        let b = f64::from(self.store_burst.max(1));
        let eb = (2.0 * b - 1.0) / b;
        let r_words = f64::from(self.seq_run_words.max(1));
        let f = self.seq_store_frac.clamp(0.0, 1.0);
        let run_start_prob = if f >= 1.0 {
            1.0
        } else {
            f * eb / (r_words * (1.0 - f) + f * eb)
        };
        let draws_per_decision = run_start_prob * r_words + (1.0 - run_start_prob);
        let p_scattered_draw = (1.0 - run_start_prob) / draws_per_decision;
        let stores_per_draw = 1.0 + p_scattered_draw * (b - 1.0) / b;
        let store_draw = self.pct_stores / stores_per_draw;

        let mut stream_cursor: u64 = 0;
        let mut seq_cursor: u64 = 0;
        let mut seq_left: u32 = 0;
        let mut burst_left: u32 = 0;
        // Lines written recently; hazard loads sample from here.
        let mut recent_stores: VecDeque<u64> = VecDeque::with_capacity(16);

        let flush_compute = |ops: &mut Vec<Op>, pending: &mut u32| {
            if *pending > 0 {
                ops.push(Op::Compute(*pending));
                *pending = 0;
            }
        };

        let push_store = |ops: &mut Vec<Op>, recent: &mut VecDeque<u64>, addr: Addr| {
            let line = addr.as_u64() / LINE;
            if recent.len() == 16 {
                recent.pop_front();
            }
            recent.push_back(line);
            ops.push(Op::Store(addr));
        };

        while emitted < n_instructions {
            emitted += 1;
            let r: f64 = rng.gen();
            if r < self.pct_loads {
                flush_compute(ops, &mut pending_compute);
                ops.push(Op::Load(self.pick_load(
                    &mut rng,
                    hot_words,
                    region_lines,
                    &mut stream_cursor,
                    &recent_stores,
                )));
            } else if r < self.pct_loads + store_draw {
                flush_compute(ops, &mut pending_compute);
                let addr = self.pick_store(
                    &mut rng,
                    region_lines,
                    run_start_prob,
                    &mut seq_cursor,
                    &mut seq_left,
                    &mut burst_left,
                    &recent_stores,
                );
                push_store(ops, &mut recent_stores, addr);
                // A scattered store may open a back-to-back burst; the
                // extra stores are emitted immediately (they count toward
                // the instruction budget, and the 1/burst gating in
                // `pick_store` keeps the overall store density on target).
                while burst_left > 0 {
                    burst_left -= 1;
                    emitted += 1;
                    let line = rng.gen_range(0..region_lines);
                    push_store(ops, &mut recent_stores, Addr::new(STORE_BASE + line * LINE));
                }
            } else {
                pending_compute += 1;
            }
        }
        flush_compute(ops, &mut pending_compute);
    }

    fn pick_load(
        &self,
        rng: &mut StdRng,
        hot_words: u64,
        region_lines: u64,
        stream_cursor: &mut u64,
        recent_stores: &VecDeque<u64>,
    ) -> Addr {
        let q: f64 = rng.gen();
        if q < self.hazard_load_frac && !recent_stores.is_empty() {
            // Revisit a recently stored line: misses L1, hits the buffer.
            let line = recent_stores[rng.gen_range(0..recent_stores.len())];
            let word = rng.gen_range(0..LINE / WORD);
            return Addr::new(line * LINE + word * WORD);
        }
        let q = q - self.hazard_load_frac;
        if q < self.hot_load_frac {
            let w = rng.gen_range(0..hot_words);
            return Addr::new(HOT_BASE + w * WORD);
        }
        let q = q - self.hot_load_frac;
        if q < self.stream_load_frac {
            let a = STREAM_BASE + (*stream_cursor % (region_lines * LINE));
            *stream_cursor += WORD;
            return Addr::new(a);
        }
        let line = rng.gen_range(0..region_lines);
        let word = rng.gen_range(0..LINE / WORD);
        Addr::new(RAND_BASE + line * LINE + word * WORD)
    }

    #[allow(clippy::too_many_arguments)] // mirrors the generator's state
    fn pick_store(
        &self,
        rng: &mut StdRng,
        region_lines: u64,
        run_start_prob: f64,
        seq_cursor: &mut u64,
        seq_left: &mut u32,
        burst_left: &mut u32,
        recent_stores: &VecDeque<u64>,
    ) -> Addr {
        if *seq_left > 0 {
            // Continue the open sequential run (runs are interleaved with
            // loads and compute in time, but contiguous in address).
            *seq_left -= 1;
            let a = STORE_BASE + (*seq_cursor % (region_lines * LINE));
            *seq_cursor += WORD;
            return Addr::new(a);
        }
        if rng.gen::<f64>() < run_start_prob {
            // Start a fresh line-aligned run at a random position.
            let line = rng.gen_range(0..region_lines);
            *seq_cursor = line * LINE;
            *seq_left = self.seq_run_words.saturating_sub(1);
            let a = *seq_cursor;
            *seq_cursor += WORD;
            return Addr::new(STORE_BASE + a);
        }
        // Scattered store. A `revisit_store_frac` slice returns to a
        // recently written line (merging only if that entry is still
        // buffered); the rest pick fresh random lines, and with bursting
        // configured one in `store_burst` of those opens a back-to-back
        // burst of the remaining `store_burst - 1`, keeping the long-run
        // store density on target.
        if !recent_stores.is_empty() && rng.gen::<f64>() < self.revisit_store_frac {
            let line = recent_stores[rng.gen_range(0..recent_stores.len())];
            let word = rng.gen_range(0..LINE / WORD);
            return Addr::new(line * LINE + word * WORD);
        }
        if self.store_burst > 1 && rng.gen_range(0..self.store_burst) == 0 {
            *burst_left = self.store_burst - 1;
        }
        let line = rng.gen_range(0..region_lines);
        let word = rng.gen_range(0..LINE / WORD);
        Addr::new(STORE_BASE + line * LINE + word * WORD)
    }
}

/// A doubly nested loop over a 2-D array of 8-byte elements, with a load
/// (and periodically a store) per element, interleaved with scalar
/// references — the structure of the paper's NASA kernels (§3.1, Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelWalk {
    /// Array rows.
    pub rows: u64,
    /// Array columns (elements per row; row-major layout).
    pub cols: u64,
    /// `false` reproduces the shipped kernels' column-major traversal
    /// (every access a new cache line); `true` applies the paper's Table 6
    /// loop interchange, giving unit-stride traversal.
    pub transformed: bool,
    /// Store to the current element every `store_every` elements.
    pub store_every: u64,
    /// Scalar (hot-set) loads emitted per element, in thousandths
    /// (e.g. 800 = 0.8 scalar loads per element on average).
    pub scalar_loads_per_mille: u64,
    /// Scalar stores to a small sequential stack region, per element, in
    /// thousandths.
    pub scalar_stores_per_mille: u64,
    /// Compute instructions between elements.
    pub compute_per_element: u32,
}

impl KernelWalk {
    /// Generates `n_instructions` instructions deterministically from
    /// `seed`, restarting the walk as often as necessary.
    #[must_use]
    pub fn generate(&self, seed: u64, n_instructions: u64) -> Vec<Op> {
        let mut ops = Vec::new();
        self.generate_into(seed, n_instructions, &mut ops);
        ops
    }

    /// [`KernelWalk::generate`] into `ops`, which is cleared first and
    /// keeps its capacity.
    pub fn generate_into(&self, seed: u64, n_instructions: u64, ops: &mut Vec<Op>) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xD134_2543_DE82_EF95) | 1);
        reserve_stream(ops, n_instructions);
        let mut emitted: u64 = 0;
        let mut elem_idx: u64 = 0;
        let mut store_idx: u64 = 0;
        let total = self.rows * self.cols;
        let hot_words = 256u64; // 2 KiB of scalars
        let mut stack_cursor: u64 = 0;
        // Stores walk a dense *output* array in the same traversal order
        // (forward elimination writes a compacted result), so the
        // transformed walk's stores are unit-stride and coalesce fully.
        let out_base = STREAM_BASE + total * WORD;

        while emitted < n_instructions {
            let k = elem_idx % total;
            // Walk order: transformed iterates within a row (unit stride);
            // shipped iterates within a column (stride = one whole row).
            let offset = if self.transformed {
                k
            } else {
                let col = k / self.rows;
                let row = k % self.rows;
                row * self.cols + col
            };
            let elem = Addr::new(STREAM_BASE + offset * WORD);

            // Scalar activity around the element.
            if rng.gen_range(0u64..1000) < self.scalar_loads_per_mille {
                let w = rng.gen_range(0..hot_words);
                ops.push(Op::Load(Addr::new(HOT_BASE + w * WORD)));
                emitted += 1;
            }
            ops.push(Op::Load(elem));
            emitted += 1;
            if self.compute_per_element > 0 {
                ops.push(Op::Compute(self.compute_per_element));
                emitted += u64::from(self.compute_per_element);
            }
            if self.store_every > 0 && k.is_multiple_of(self.store_every) {
                let j = store_idx % total;
                let out_offset = if self.transformed {
                    j
                } else {
                    let col = j / self.rows;
                    let row = j % self.rows;
                    row * self.cols + col
                };
                ops.push(Op::Store(Addr::new(out_base + out_offset * WORD)));
                store_idx += 1;
                emitted += 1;
            }
            // Stack-like scalar stores arrive as line-aligned 4-word
            // bursts (a spilled register group): back-to-back, so they
            // coalesce even under eager retirement. The gate probability is
            // divided by 4 to keep the per-element store average at
            // `scalar_stores_per_mille`.
            if rng.gen_range(0u64..4000) < self.scalar_stores_per_mille {
                let words_per_line = LINE / WORD;
                stack_cursor = (stack_cursor / LINE) * LINE; // align
                for _ in 0..words_per_line {
                    let a = STORE_BASE + (stack_cursor % (64 * LINE));
                    stack_cursor += WORD;
                    ops.push(Op::Store(Addr::new(a)));
                    emitted += 1;
                }
            }
            elem_idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(ops: &[Op]) -> (u64, u64, u64) {
        let mut loads = 0;
        let mut stores = 0;
        let mut total = 0;
        for op in ops {
            total += op.instructions();
            match op {
                Op::Load(_) => loads += 1,
                Op::Store(_) => stores += 1,
                Op::Compute(_) | Op::Barrier => {}
            }
        }
        (loads, stores, total)
    }

    #[test]
    fn mixed_workload_is_deterministic() {
        let w = MixedWorkload::default();
        assert_eq!(w.generate(7, 10_000), w.generate(7, 10_000));
        assert_ne!(w.generate(7, 10_000), w.generate(8, 10_000));
    }

    #[test]
    fn mixed_workload_hits_densities() {
        let w = MixedWorkload {
            pct_loads: 0.30,
            pct_stores: 0.12,
            ..MixedWorkload::default()
        };
        let ops = w.generate(1, 200_000);
        let (loads, stores, total) = count(&ops);
        assert!(total >= 200_000);
        let lf = loads as f64 / total as f64;
        let sf = stores as f64 / total as f64;
        assert!((lf - 0.30).abs() < 0.02, "load fraction {lf}");
        assert!((sf - 0.12).abs() < 0.03, "store fraction {sf}");
    }

    #[test]
    fn mixed_workload_instruction_count_close() {
        let ops = MixedWorkload::default().generate(3, 50_000);
        let (_, _, total) = count(&ops);
        // Bursts/runs may overshoot slightly; never undershoot.
        assert!((50_000..50_200).contains(&total), "total {total}");
    }

    #[test]
    fn sequential_runs_are_line_aligned_and_contiguous() {
        let w = MixedWorkload {
            pct_loads: 0.0,
            pct_stores: 1.0,
            seq_store_frac: 1.0,
            seq_run_words: 8,
            ..MixedWorkload::default()
        };
        let ops = w.generate(5, 64);
        let stores: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Store(a) => Some(a.as_u64()),
                _ => None,
            })
            .collect();
        // Runs of 8 words: each run starts line-aligned and strides by 8B.
        for chunk in stores.chunks(8) {
            assert_eq!(chunk[0] % LINE, 0, "run starts at a line boundary");
            for w in chunk.windows(2) {
                assert_eq!(w[1], w[0] + WORD, "unit stride within a run");
            }
        }
    }

    #[test]
    fn store_bursts_are_back_to_back() {
        let w = MixedWorkload {
            pct_loads: 0.0,
            pct_stores: 0.05,
            seq_store_frac: 0.0,
            store_burst: 4,
            ..MixedWorkload::default()
        };
        let ops = w.generate(9, 50_000);
        // Find a store; the following 3 ops must also be stores.
        let mut found_burst = false;
        for win in ops.windows(4) {
            if win.iter().all(|o| matches!(o, Op::Store(_))) {
                found_burst = true;
                break;
            }
        }
        assert!(found_burst, "expected at least one 4-store burst");
    }

    #[test]
    fn kernel_walk_strides() {
        let bad = KernelWalk {
            rows: 64,
            cols: 64,
            transformed: false,
            store_every: 1,
            scalar_loads_per_mille: 0,
            scalar_stores_per_mille: 0,
            compute_per_element: 0,
        };
        let ops = bad.generate(1, 40);
        let loads: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Load(a) => Some(a.as_u64()),
                _ => None,
            })
            .collect();
        // Column-major over a row-major array: stride = cols * 8 bytes.
        assert_eq!(loads[1] - loads[0], 64 * WORD);

        let good = KernelWalk {
            transformed: true,
            ..bad
        };
        let ops = good.generate(1, 40);
        let loads: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Load(a) => Some(a.as_u64()),
                _ => None,
            })
            .collect();
        assert_eq!(loads[1] - loads[0], WORD, "transformed walk is unit-stride");
    }

    #[test]
    fn kernel_walk_stores_walk_dense_output() {
        let k = KernelWalk {
            rows: 16,
            cols: 16,
            transformed: true,
            store_every: 1,
            scalar_loads_per_mille: 0,
            scalar_stores_per_mille: 0,
            compute_per_element: 1,
        };
        let ops = k.generate(1, 30);
        let stores: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Store(a) => Some(a.as_u64()),
                _ => None,
            })
            .collect();
        assert!(stores.len() >= 4);
        // Transformed: output stores are unit-stride (they coalesce fully).
        for w in stores.windows(2) {
            assert_eq!(w[1], w[0] + WORD);
        }
        // Shipped: output stores stride by a whole row (never coalesce).
        let bad = KernelWalk {
            transformed: false,
            ..k
        };
        let ops = bad.generate(1, 30);
        let stores: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Store(a) => Some(a.as_u64()),
                _ => None,
            })
            .collect();
        for w in stores.windows(2) {
            assert_eq!(w[1], w[0] + 16 * WORD, "column-major output stride");
        }
    }

    #[test]
    fn kernel_walk_deterministic() {
        let k = KernelWalk {
            rows: 32,
            cols: 32,
            transformed: false,
            store_every: 3,
            scalar_loads_per_mille: 500,
            scalar_stores_per_mille: 200,
            compute_per_element: 2,
        };
        assert_eq!(k.generate(11, 5_000), k.generate(11, 5_000));
    }

    #[test]
    fn generators_emit_requested_length() {
        for n in [1u64, 100, 9_999] {
            let (_, _, t) = count(&MixedWorkload::default().generate(2, n));
            assert!(t >= n);
            let k = KernelWalk {
                rows: 8,
                cols: 8,
                transformed: false,
                store_every: 2,
                scalar_loads_per_mille: 100,
                scalar_stores_per_mille: 100,
                compute_per_element: 1,
            };
            let (_, _, t) = count(&k.generate(2, n));
            assert!(t >= n);
        }
    }
}
