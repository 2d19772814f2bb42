//! Calibrated synthetic models of the paper's 17 SPEC92 benchmarks.
//!
//! Each [`BenchmarkModel`] owns a generator configuration tuned so the
//! resulting stream matches the benchmark's published statistics: load and
//! store density (paper Table 4) and L1/write-buffer hit rates under the
//! baseline machine (paper Table 5). The two `*Transformed` variants apply
//! the loop interchange / array transposition of paper Table 6 to the NASA
//! kernels.
//!
//! The paper's published targets are embedded as [`PaperTargets`] so
//! experiments (and tests) can report measured-vs-paper deltas.

use wbsim_types::op::Op;

use crate::stream::{KernelWalk, MixedWorkload};

/// Published per-benchmark numbers from paper Tables 4 and 5, used for
/// calibration reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperTargets {
    /// Percent of instructions that are loads (Table 4).
    pub pct_loads: f64,
    /// Percent of instructions that are stores (Table 4).
    pub pct_stores: f64,
    /// L1 load hit rate under the baseline machine (Table 5), percent.
    pub l1_hit: f64,
    /// Write-buffer store hit rate under the baseline machine (Table 5),
    /// percent.
    pub wb_hit: f64,
}

/// The generator behind one benchmark model.
#[derive(Debug, Clone, PartialEq)]
pub enum Generator {
    /// An ordinary program modeled as a mixture of access patterns.
    Mixed(MixedWorkload),
    /// A NASA kernel modeled as an explicit 2-D array walk.
    Kernel(KernelWalk),
}

/// One of the paper's benchmarks (or a Table 6 transformed kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are benchmark names
pub enum BenchmarkModel {
    Espresso,
    Compress,
    Uncompress,
    Sc,
    Cc1,
    Li,
    Doduc,
    Hydro2d,
    Mdljsp2,
    Tomcatv,
    Fpppp,
    Mdljdp2,
    Wave5,
    Su2cor,
    Fft,
    Cholsky,
    Gmtry,
    CholskyTransformed,
    GmtryTransformed,
    // ---- the four programs the paper *omitted* because they "suffer
    // virtually no write-buffer stalls in the baseline model" (§2.4);
    // modeled so that claim can be verified, but excluded from ALL ----
    Ear,
    Ora,
    Alvinn,
    Eqntott,
}

impl BenchmarkModel {
    /// The paper's 17 benchmarks, in the presentation order of Figure 3
    /// (SPECint92, then SPECfp92, then the NASA kernels, each group ordered
    /// by stall behavior).
    pub const ALL: [Self; 17] = [
        Self::Espresso,
        Self::Compress,
        Self::Uncompress,
        Self::Sc,
        Self::Cc1,
        Self::Li,
        Self::Doduc,
        Self::Hydro2d,
        Self::Mdljsp2,
        Self::Tomcatv,
        Self::Fpppp,
        Self::Mdljdp2,
        Self::Wave5,
        Self::Su2cor,
        Self::Fft,
        Self::Cholsky,
        Self::Gmtry,
    ];

    /// The benchmark's name as printed in the paper's figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Espresso => "espresso",
            Self::Compress => "compress",
            Self::Uncompress => "uncompress",
            Self::Sc => "sc",
            Self::Cc1 => "cc1",
            Self::Li => "li",
            Self::Doduc => "doduc",
            Self::Hydro2d => "hydro2d",
            Self::Mdljsp2 => "mdljsp2",
            Self::Tomcatv => "tomcatv",
            Self::Fpppp => "fpppp",
            Self::Mdljdp2 => "mdljdp2",
            Self::Wave5 => "wave5",
            Self::Su2cor => "su2cor",
            Self::Fft => "fft",
            Self::Cholsky => "cholsky",
            Self::Gmtry => "gmtry",
            Self::CholskyTransformed => "cholsky-T",
            Self::GmtryTransformed => "gmtry-T",
            Self::Ear => "ear",
            Self::Ora => "ora",
            Self::Alvinn => "alvinn",
            Self::Eqntott => "eqntott",
        }
    }

    /// The four programs the paper measured and then left out of its
    /// figures because they barely stall (§2.4: "ear, ora, alvinn, and
    /// eqntott — suffer virtually no write-buffer stalls in the baseline
    /// model").
    pub const OMITTED: [Self; 4] = [Self::Ear, Self::Ora, Self::Alvinn, Self::Eqntott];

    /// Looks a model up by its printed name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .chain([Self::CholskyTransformed, Self::GmtryTransformed])
            .chain(Self::OMITTED)
            .find(|m| m.name().eq_ignore_ascii_case(name))
    }

    /// Published Table 4/5 numbers for this benchmark. The transformed
    /// kernels carry the Table 6 "after" hit rates (densities as shipped).
    #[must_use]
    pub fn paper(&self) -> PaperTargets {
        let t = |pct_loads, pct_stores, l1_hit, wb_hit| PaperTargets {
            pct_loads,
            pct_stores,
            l1_hit,
            wb_hit,
        };
        match self {
            Self::Espresso => t(19.6, 5.1, 94.73, 45.65),
            Self::Compress => t(22.7, 8.6, 82.52, 38.81),
            Self::Uncompress => t(22.6, 8.4, 92.10, 21.22),
            Self::Sc => t(27.2, 11.4, 91.00, 61.73),
            Self::Cc1 => t(20.2, 10.5, 93.33, 47.46),
            Self::Li => t(28.4, 16.2, 91.96, 41.40),
            Self::Doduc => t(22.4, 6.8, 88.89, 46.65),
            Self::Hydro2d => t(21.9, 8.7, 84.29, 44.68),
            Self::Mdljsp2 => t(21.1, 6.0, 96.84, 7.41),
            Self::Tomcatv => t(27.5, 8.0, 63.93, 30.05),
            Self::Fpppp => t(33.8, 12.7, 89.88, 35.13),
            Self::Mdljdp2 => t(14.5, 7.6, 85.11, 7.79),
            Self::Wave5 => t(20.8, 13.9, 89.44, 39.32),
            Self::Su2cor => t(24.3, 11.0, 45.82, 23.56),
            Self::Fft => t(21.2, 21.0, 57.14, 50.93),
            Self::Cholsky => t(30.5, 12.8, 48.77, 32.29),
            Self::Gmtry => t(35.7, 12.4, 43.23, 9.76),
            Self::CholskyTransformed => t(30.5, 12.8, 82.1, 73.5),
            Self::GmtryTransformed => t(35.7, 12.4, 88.5, 72.2),
            // The paper publishes no Table 4/5 rows for the omitted four;
            // these are SPEC92-plausible mixes with the extreme locality
            // that makes them uninteresting to the paper.
            Self::Ear => t(21.0, 9.0, 99.0, 70.0),
            Self::Ora => t(18.0, 6.0, 99.5, 72.0),
            Self::Alvinn => t(28.0, 9.0, 98.5, 72.0),
            Self::Eqntott => t(24.0, 4.0, 98.0, 65.0),
        }
    }

    /// The calibrated generator for this benchmark.
    #[must_use]
    pub fn generator(&self) -> Generator {
        let p = self.paper();
        let mixed = |hazard: f64,
                     hot: f64,
                     stream: f64,
                     seq: f64,
                     run: u32,
                     burst: u32,
                     revisit: f64,
                     region_kb: u64| {
            Generator::Mixed(MixedWorkload {
                pct_loads: p.pct_loads / 100.0,
                pct_stores: p.pct_stores / 100.0,
                hazard_load_frac: hazard,
                hot_load_frac: hot,
                stream_load_frac: stream,
                seq_store_frac: seq,
                seq_run_words: run,
                store_burst: burst,
                revisit_store_frac: revisit,
                hot_bytes: 2 * 1024,
                region_bytes: region_kb * 1024,
            })
        };
        match self {
            // ----- SPECint92 ------------------------------------------------
            Self::Espresso => mixed(0.002, 0.92, 0.05, 0.58, 8, 1, 0.35, 24),
            Self::Compress => mixed(0.006, 0.795, 0.10, 0.46, 8, 2, 0.4, 48),
            Self::Uncompress => mixed(0.006, 0.88, 0.08, 0.21, 8, 2, 0.4, 40),
            Self::Sc => mixed(0.008, 0.87, 0.09, 0.80, 8, 1, 0.45, 44),
            Self::Cc1 => mixed(0.010, 0.895, 0.08, 0.57, 8, 2, 0.45, 40),
            Self::Li => mixed(0.020, 0.885, 0.08, 0.48, 8, 2, 0.45, 40),
            // ----- SPECfp92 -------------------------------------------------
            Self::Doduc => mixed(0.010, 0.825, 0.12, 0.575, 8, 2, 0.4, 32),
            Self::Hydro2d => mixed(0.010, 0.73, 0.20, 0.55, 12, 2, 0.4, 56),
            Self::Mdljsp2 => mixed(0.004, 0.96, 0.03, 0.06, 4, 6, 0.25, 32),
            Self::Tomcatv => mixed(0.010, 0.42, 0.40, 0.33, 12, 2, 0.4, 280),
            Self::Fpppp => mixed(0.025, 0.835, 0.12, 0.37, 8, 2, 0.5, 28),
            Self::Mdljdp2 => mixed(0.006, 0.85, 0.06, 0.065, 4, 8, 0.25, 40),
            Self::Wave5 => mixed(0.012, 0.82, 0.14, 0.46, 8, 6, 0.35, 64),
            Self::Su2cor => mixed(0.010, 0.27, 0.36, 0.24, 12, 2, 0.4, 160),
            Self::Fft => mixed(0.022, 0.31, 0.46, 0.63, 12, 2, 0.4, 110),
            // ----- NASA kernels --------------------------------------------
            Self::Cholsky | Self::CholskyTransformed => Generator::Kernel(KernelWalk {
                rows: 384,
                cols: 44, // 384×44 f64 = 132 KiB per array; a 384-line
                // column overflows the 256-set L1, so the shipped walk
                // misses every access
                transformed: matches!(self, Self::CholskyTransformed),
                store_every: 2,
                scalar_loads_per_mille: 1050,
                scalar_stores_per_mille: 350,
                compute_per_element: 4,
            }),
            // The omitted four: tiny working sets, highly sequential
            // stores, almost no hazard traffic.
            Self::Ear => mixed(0.001, 0.97, 0.02, 0.92, 12, 1, 0.2, 16),
            Self::Ora => mixed(0.001, 0.985, 0.01, 0.94, 12, 1, 0.2, 16),
            Self::Alvinn => mixed(0.001, 0.96, 0.03, 0.94, 16, 1, 0.2, 24),
            Self::Eqntott => mixed(0.002, 0.95, 0.03, 0.85, 12, 1, 0.2, 24),
            Self::Gmtry | Self::GmtryTransformed => Generator::Kernel(KernelWalk {
                rows: 384,
                cols: 52, // 384×52 f64 = 156 KiB per array; the column
                // again overflows L1's 256 sets
                transformed: matches!(self, Self::GmtryTransformed),
                store_every: 2,
                scalar_loads_per_mille: 840,
                scalar_stores_per_mille: 80,
                compute_per_element: 3,
            }),
        }
    }

    /// Generates `n_instructions` instructions of this benchmark's stream,
    /// deterministically from `seed`.
    #[must_use]
    pub fn stream(&self, seed: u64, n_instructions: u64) -> Vec<Op> {
        let mut ops = Vec::new();
        self.stream_into(seed, n_instructions, &mut ops);
        ops
    }

    /// [`BenchmarkModel::stream`] into `ops`, which is cleared first and
    /// keeps its capacity, so a caller can recycle one buffer across
    /// streams.
    pub fn stream_into(&self, seed: u64, n_instructions: u64, ops: &mut Vec<Op>) {
        // Mix the benchmark identity into the seed so two benchmarks never
        // share a stream even under the same seed.
        let ident = self
            .name()
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
        match self.generator() {
            Generator::Mixed(w) => w.generate_into(seed ^ ident, n_instructions, ops),
            Generator::Kernel(k) => k.generate_into(seed ^ ident, n_instructions, ops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn all_has_seventeen_in_figure_order() {
        assert_eq!(BenchmarkModel::ALL.len(), 17);
        assert_eq!(BenchmarkModel::ALL[0].name(), "espresso");
        assert_eq!(BenchmarkModel::ALL[16].name(), "gmtry");
    }

    #[test]
    fn names_roundtrip() {
        for m in BenchmarkModel::ALL {
            assert_eq!(BenchmarkModel::from_name(m.name()), Some(m));
        }
        assert_eq!(
            BenchmarkModel::from_name("GMTRY-t"),
            Some(BenchmarkModel::GmtryTransformed)
        );
        assert_eq!(BenchmarkModel::from_name("nosuch"), None);
    }

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a = BenchmarkModel::Cc1.stream(5, 10_000);
        let b = BenchmarkModel::Cc1.stream(5, 10_000);
        assert_eq!(a, b);
        let c = BenchmarkModel::Li.stream(5, 10_000);
        assert_ne!(a, c, "different benchmarks must differ under one seed");
    }

    #[test]
    fn densities_match_paper_table_4() {
        for m in BenchmarkModel::ALL {
            let ops = m.stream(1, 120_000);
            let t = TraceStats::measure(&ops);
            let p = m.paper();
            assert!(
                (t.pct_loads - p.pct_loads).abs() < 3.0,
                "{}: loads {:.1}% vs paper {:.1}%",
                m.name(),
                t.pct_loads,
                p.pct_loads
            );
            assert!(
                (t.pct_stores - p.pct_stores).abs() < 3.0,
                "{}: stores {:.1}% vs paper {:.1}%",
                m.name(),
                t.pct_stores,
                p.pct_stores
            );
        }
    }

    #[test]
    fn omitted_benchmarks_resolve_but_stay_out_of_all() {
        for m in BenchmarkModel::OMITTED {
            assert!(BenchmarkModel::from_name(m.name()).is_some());
            assert!(!BenchmarkModel::ALL.contains(&m));
        }
    }

    #[test]
    fn transformed_kernels_share_densities_with_shipped() {
        let shipped = TraceStats::measure(&BenchmarkModel::Gmtry.stream(1, 60_000));
        let transformed = TraceStats::measure(&BenchmarkModel::GmtryTransformed.stream(1, 60_000));
        assert!((shipped.pct_loads - transformed.pct_loads).abs() < 2.0);
        assert!((shipped.pct_stores - transformed.pct_stores).abs() < 2.0);
    }

    #[test]
    fn stream_into_a_recycled_buffer_matches_stream() {
        let mut buf = BenchmarkModel::Tomcatv.stream(9, 40_000);
        for m in [
            BenchmarkModel::Li,
            BenchmarkModel::Gmtry,
            BenchmarkModel::Fft,
        ] {
            m.stream_into(3, 20_000, &mut buf);
            assert_eq!(buf, m.stream(3, 20_000), "{}", m.name());
        }
    }
}
