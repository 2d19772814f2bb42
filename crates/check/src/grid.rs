//! The checker grids and the search machinery every grid checker shares.
//!
//! A [`CheckGrid`] is the set of design points a grid checker covers for
//! one [`MachineKind`]: the 40 blocking boundary configurations, or the
//! 40 non-blocking (configuration, MSHR count) points (10 with a pinned
//! count). Every grid checker takes one and dispatches on its kind once,
//! to an explorer monomorphized for that machine; the explorers then
//! share the pieces below — the earliest-failure scheduler, the report
//! summer, odometer enumeration, greedy 1-minimization and the BFS
//! driver — instead of each keeping a copy per machine.

use std::collections::{HashSet, VecDeque};
use std::hash::Hash;
use std::ops::RangeInclusive;
use std::time::Instant;

use wbsim_sim::MachineKind;
use wbsim_types::config::MachineConfig;
use wbsim_types::divergence::FaultInjection;
use wbsim_types::op::Op;
use wbsim_types::policy::{LoadHazardPolicy, RetirementPolicy};
use wbsim_types::sync::atomic::AtomicUsize;
use wbsim_types::sync::{Mutex, Ordering};

/// The MSHR counts the non-blocking grid sweeps. Two lines can miss
/// concurrently at most on the bounded universe, so larger counts add
/// nothing a checker could see.
pub const GRID_MSHRS: RangeInclusive<usize> = 1..=4;

/// What a clean check covered. Produced by the bounded exhaustive checker
/// (which fills the sequence-enumeration fields) and the state-graph
/// checkers (which fill the state-graph fields); the unused family is
/// zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckReport {
    /// Design points checked.
    pub configs: u64,
    /// Op sequences per configuration (bounded checker only).
    pub sequences: u64,
    /// Total machine runs, `configs × sequences` (bounded checker only).
    pub runs: u64,
    /// Distinct canonical abstract states visited across all
    /// configurations (state-graph checkers only).
    pub states_explored: u64,
    /// State-graph transitions executed across all configurations
    /// (state-graph checkers only).
    pub edges: u64,
    /// Strongly connected components of the drain graph across all
    /// configurations — every one a singleton in a clean run, because any
    /// larger SCC would be a no-progress cycle, i.e. a livelock
    /// (reachability checker only).
    pub sccs: u64,
    /// Wall-clock time of the whole check in milliseconds. The only field
    /// that varies between byte-identical runs.
    pub wall_ms: u64,
}

impl CheckReport {
    /// Renders the report as a single JSON object (hand-rolled, like the
    /// event codec — the workspace takes no serialization dependency).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"configs\":{},\"sequences\":{},\"runs\":{},\"states_explored\":{},\
             \"edges\":{},\"sccs\":{},\"wall_ms\":{}}}",
            self.configs,
            self.sequences,
            self.runs,
            self.states_explored,
            self.edges,
            self.sccs,
            self.wall_ms
        )
    }
}

/// The design points a grid checker covers for one machine. Built only by
/// [`CheckGrid::new`], so a grid is never empty.
#[derive(Debug, Clone)]
pub struct CheckGrid {
    kind: MachineKind,
    points: Vec<(MachineConfig, Option<usize>)>,
}

impl CheckGrid {
    /// Builds the grid for `kind`, optionally with an injected fault.
    ///
    /// Blocking: every hazard policy × depth 1–4 × every retire-at mark
    /// 1..=depth on the paper's baseline machine (40 points; `mshrs` is
    /// ignored). Non-blocking: depth 1–4 × every retire-at mark × the
    /// [`GRID_MSHRS`] counts (or just `mshrs`), hazard pinned to
    /// read-from-WB — the only policy the machine accepts (40 points, 10
    /// with a pinned count).
    ///
    /// # Errors
    ///
    /// A pinned MSHR count outside [`GRID_MSHRS`]: the grid would be
    /// empty and every check over it vacuously clean.
    pub fn new(
        kind: MachineKind,
        fault: Option<FaultInjection>,
        mshrs: Option<usize>,
    ) -> Result<Self, String> {
        let (hazards, counts): (&[LoadHazardPolicy], Vec<Option<usize>>) = match (kind, mshrs) {
            (MachineKind::Blocking, _) => (&LoadHazardPolicy::ALL, vec![None]),
            (MachineKind::NonBlocking, None) => (
                &[LoadHazardPolicy::ReadFromWb],
                GRID_MSHRS.map(Some).collect(),
            ),
            (MachineKind::NonBlocking, Some(m)) if GRID_MSHRS.contains(&m) => {
                (&[LoadHazardPolicy::ReadFromWb], vec![Some(m)])
            }
            (MachineKind::NonBlocking, Some(m)) => {
                return Err(format!(
                    "MSHR count {m} is outside the checker grid ({}-{}); omit it to sweep \
                     every count",
                    GRID_MSHRS.start(),
                    GRID_MSHRS.end()
                ));
            }
        };
        let mut points = Vec::new();
        for &hazard in hazards {
            for depth in 1..=4usize {
                for hw in 1..=depth {
                    for &m in &counts {
                        let mut cfg = MachineConfig::baseline();
                        cfg.write_buffer.depth = depth;
                        cfg.write_buffer.retirement = RetirementPolicy::RetireAt(hw);
                        cfg.write_buffer.hazard = hazard;
                        cfg.check_data = false;
                        cfg.fault = fault;
                        debug_assert!(cfg.validate().is_ok());
                        points.push((cfg, m));
                    }
                }
            }
        }
        Ok(CheckGrid { kind, points })
    }

    /// The machine every point runs on.
    #[must_use]
    pub fn kind(&self) -> MachineKind {
        self.kind
    }

    /// `(configuration, MSHR count)` in check order; the count is `None`
    /// on the blocking machine.
    #[must_use]
    pub fn points(&self) -> &[(MachineConfig, Option<usize>)] {
        &self.points
    }

    /// Runs `explore` on every point with `jobs` worker threads and sums
    /// the `(states, edges, sccs)` each returns into a report. The result
    /// is identical for every `jobs` value (only `wall_ms` varies).
    ///
    /// # Errors
    ///
    /// The lowest-index failure as `(index, error)`, exactly as a serial
    /// scan in point order would report it.
    pub(crate) fn run<E: Send>(
        &self,
        jobs: usize,
        explore: impl Fn(&MachineConfig, Option<usize>, &dyn Fn() -> bool) -> Result<[u64; 3], E> + Sync,
    ) -> Result<CheckReport, (usize, E)> {
        let start = Instant::now();
        let results = run_indexed_earliest(self.points.len(), jobs, |i, abort| {
            let (cfg, mshrs) = &self.points[i];
            explore(cfg, *mshrs, abort)
        })?;
        let mut report = CheckReport {
            configs: self.points.len() as u64,
            ..CheckReport::default()
        };
        for [states, edges, sccs] in results {
            report.states_explored += states;
            report.edges += edges;
            report.sccs += sccs;
        }
        report.wall_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
        Ok(report)
    }
}

/// Default `--jobs` value: available parallelism, or 1 when unknown.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `work(i, abort)` for every index `0..n` on `jobs` worker threads
/// and returns either every success, or the *lowest-index* failure —
/// exactly what a serial in-order scan would return, regardless of thread
/// scheduling.
///
/// Determinism: indices are claimed from an atomic dispenser; the lowest
/// failing index so far lives in an atomic min-register. A worker aborts
/// work on index `i` only when some index `j < i` has already failed — so
/// the first-failing index (and its payload, for deterministic `work`) is
/// schedule-independent, and indices below it are never abandoned.
///
/// This is the workspace's one shared cell scheduler: every grid checker
/// dispatches its points through it, and the experiments harness flattens
/// its (benchmark × config × seed) sweep grids onto it (with an
/// uninhabited error type when cells never abort each other).
///
/// # Errors
///
/// Returns the lowest-index failure as `(index, error)` — the same pair a
/// serial in-order scan would produce.
pub fn run_indexed_earliest<T, E>(
    n: usize,
    jobs: usize,
    work: impl Fn(usize, &dyn Fn() -> bool) -> Result<T, E> + Sync,
) -> Result<Vec<T>, (usize, E)>
where
    T: Send,
    E: Send,
{
    let jobs = jobs.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let earliest = AtomicUsize::new(usize::MAX);
    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    wbsim_types::sync::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || earliest.load(Ordering::Relaxed) < i {
                    // Done, or an earlier index already failed (every index
                    // still in the dispenser is larger than this one).
                    return;
                }
                let earliest = &earliest;
                let abort = move || earliest.load(Ordering::Relaxed) < i;
                let result = work(i, &abort);
                if result.is_err() {
                    earliest.fetch_min(i, Ordering::Relaxed);
                }
                *slots[i].lock() = Some(result);
            });
        }
    });
    // First non-Ok slot in index order. A `None` (abandoned) slot can only
    // follow a failed lower index, so the scan hits the failure first.
    let mut out = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner() {
            Some(Ok(t)) => out.push(t),
            Some(Err(e)) => return Err((i, e)),
            None => unreachable!("index {i} abandoned without an earlier failure"),
        }
    }
    Ok(out)
}

/// Enumerates every op sequence of length 1..=`max_ops` over `universe`
/// in a fixed odometer order and returns the first one `witness` flags,
/// with its witness. `abort` is polled once per sequence; a `true` poll
/// abandons the search (`None`).
pub(crate) fn first_flagged<T>(
    universe: &[Op],
    max_ops: u32,
    abort: &dyn Fn() -> bool,
    witness: impl Fn(&[Op]) -> Option<T>,
) -> Option<(Vec<Op>, T)> {
    let mut ops = Vec::with_capacity(max_ops as usize);
    for len in 1..=max_ops as usize {
        let mut odometer = vec![0usize; len];
        loop {
            if abort() {
                return None;
            }
            ops.clear();
            ops.extend(odometer.iter().map(|&i| universe[i]));
            if let Some(w) = witness(&ops) {
                return Some((ops, w));
            }
            // Advance the odometer; carry out means done.
            let mut pos = 0;
            while pos < len {
                odometer[pos] += 1;
                if odometer[pos] < universe.len() {
                    break;
                }
                odometer[pos] = 0;
                pos += 1;
            }
            if pos == len {
                break;
            }
        }
    }
    None
}

/// Greedy 1-minimization: repeatedly deletes the first op whose removal
/// `witness` still flags, to a fixed point — removing any single op from
/// the result makes the failure disappear. Returns the minimized ops and
/// the witness of the last accepted deletion (`None` when nothing could
/// be deleted). `witness` must be deterministic for this to be sound.
pub(crate) fn minimize<T>(
    ops: &[Op],
    witness: impl Fn(&[Op]) -> Option<T>,
) -> (Vec<Op>, Option<T>) {
    let mut ops = ops.to_vec();
    let mut last = None;
    'outer: loop {
        for i in 0..ops.len() {
            let mut candidate = ops.clone();
            candidate.remove(i);
            if let Some(w) = witness(&candidate) {
                ops = candidate;
                last = Some(w);
                continue 'outer;
            }
        }
        return (ops, last);
    }
}

/// The breadth-first driver of the state-graph explorers: a visited set
/// over canonical keys, the frontier of unexpanded nodes, and one parent
/// pointer per discovered state for path reconstruction. A node's payload
/// (its concrete machine) leaves the frontier when expanded, so peak
/// memory tracks the frontier, not the state count.
pub(crate) struct Bfs<K, N> {
    visited: HashSet<K>,
    frontier: VecDeque<N>,
    /// Index of the frontier's front node; discovery order is BFS order.
    next: usize,
    parents: Vec<Option<(usize, Op)>>,
}

impl<K: Hash + Eq, N> Bfs<K, N> {
    /// A search rooted at `root`, whose canonical key is `key`.
    pub(crate) fn new(key: K, root: N) -> Self {
        Bfs {
            visited: HashSet::from([key]),
            frontier: VecDeque::from([root]),
            next: 0,
            parents: vec![None],
        }
    }

    /// The next node to expand and its index.
    pub(crate) fn pop(&mut self) -> Option<(usize, N)> {
        let node = self.frontier.pop_front()?;
        self.next += 1;
        Some((self.next - 1, node))
    }

    /// Whether a state with this key was already discovered.
    pub(crate) fn seen(&self, key: &K) -> bool {
        self.visited.contains(key)
    }

    /// Records a newly discovered state, reached from node `parent` by
    /// `op`.
    pub(crate) fn push(&mut self, key: K, parent: usize, op: Op, node: N) {
        self.visited.insert(key);
        self.frontier.push_back(node);
        self.parents.push(Some((parent, op)));
    }

    /// The op sequence leading from the root to node `idx`, then `last`.
    pub(crate) fn path(&self, idx: usize, last: Op) -> Vec<Op> {
        let mut ops = vec![last];
        let mut i = idx;
        while let Some((p, op)) = self.parents[i] {
            ops.push(op);
            i = p;
        }
        ops.reverse();
        ops
    }

    /// States discovered so far, the root included.
    pub(crate) fn states(&self) -> u64 {
        self.parents.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_names_every_field() {
        let r = CheckReport {
            configs: 1,
            sequences: 2,
            runs: 3,
            states_explored: 4,
            edges: 5,
            sccs: 6,
            wall_ms: 7,
        };
        let j = r.to_json();
        for key in [
            "configs",
            "sequences",
            "runs",
            "states_explored",
            "edges",
            "sccs",
            "wall_ms",
        ] {
            assert!(j.contains(&format!("\"{key}\":")), "missing {key} in {j}");
        }
    }

    #[test]
    fn grids_cover_their_design_points() {
        let blocking = CheckGrid::new(MachineKind::Blocking, None, Some(9)).expect("ignored");
        assert_eq!(blocking.points().len(), 40);
        assert!(blocking
            .points()
            .iter()
            .all(|(c, m)| c.validate().is_ok() && m.is_none()));
        // Every hazard policy appears, and depth 1 with retire-at-1 exists.
        for h in LoadHazardPolicy::ALL {
            assert!(blocking
                .points()
                .iter()
                .any(|(c, _)| c.write_buffer.hazard == h));
        }
        assert!(blocking
            .points()
            .iter()
            .any(|(c, _)| c.write_buffer.depth == 1));

        let nb = CheckGrid::new(MachineKind::NonBlocking, None, None).expect("full sweep");
        // 10 (depth, retire-at) shapes × 4 MSHR counts.
        assert_eq!(nb.points().len(), 40);
        assert!(nb
            .points()
            .iter()
            .all(|(c, _)| c.validate().is_ok()
                && c.write_buffer.hazard == LoadHazardPolicy::ReadFromWb));
        for m in GRID_MSHRS {
            assert!(nb.points().iter().any(|&(_, got)| got == Some(m)));
            let pinned = CheckGrid::new(MachineKind::NonBlocking, None, Some(m)).unwrap();
            assert_eq!(pinned.points().len(), 10);
        }
    }

    #[test]
    fn out_of_range_mshrs_are_rejected_not_vacuous() {
        for m in [0, 5, 9] {
            let err = CheckGrid::new(MachineKind::NonBlocking, None, Some(m))
                .expect_err("an empty grid would prove nothing");
            assert!(err.contains(&format!("MSHR count {m}")), "{err}");
        }
    }

    #[test]
    fn odometer_and_minimizer_agree_on_a_planted_witness() {
        let universe = [Op::Compute(1), Op::Barrier, Op::Compute(2)];
        // Flags any sequence containing a barrier followed later by Compute(2).
        let bad = |ops: &[Op]| {
            let b = ops.iter().position(|&o| o == Op::Barrier)?;
            ops[b..].contains(&Op::Compute(2)).then_some(ops.len())
        };
        let (ops, len) = first_flagged(&universe, 3, &|| false, bad).expect("planted");
        assert_eq!(ops, [Op::Barrier, Op::Compute(2)]);
        assert_eq!(len, 2);
        let (min, last) = minimize(
            &[Op::Compute(1), Op::Barrier, Op::Compute(1), Op::Compute(2)],
            bad,
        );
        assert_eq!(min, [Op::Barrier, Op::Compute(2)]);
        assert_eq!(last, Some(2));
        assert!(first_flagged(&universe, 3, &|| true, bad).is_none());
    }

    #[test]
    fn bfs_reconstructs_paths_through_parent_pointers() {
        let mut bfs: Bfs<u32, u32> = Bfs::new(0, 0);
        let (root, _) = bfs.pop().unwrap();
        bfs.push(1, root, Op::Barrier, 1);
        assert!(bfs.seen(&1) && !bfs.seen(&2));
        let (one, payload) = bfs.pop().unwrap();
        assert_eq!((one, payload), (1, 1));
        bfs.push(2, one, Op::Compute(3), 2);
        assert_eq!(bfs.path(2, Op::Compute(4)).len(), 3);
        assert_eq!(bfs.path(one, Op::Compute(4)), [Op::Barrier, Op::Compute(4)]);
        assert_eq!(bfs.states(), 3);
    }
}
