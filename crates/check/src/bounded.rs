//! Bounded exhaustive model checking of the write-buffer transition system.
//!
//! The differential fuzzer samples the design space randomly; this module
//! instead enumerates **all** op sequences up to a small length over a tiny
//! address universe (2 cache lines × 2 words, so every hazard, coalesce,
//! and aliasing case is reachable) across every boundary configuration of
//! a [`CheckGrid`]: on the blocking machine all 4 load-hazard policies ×
//! depths 1–4 × every retire-at mark 1..=depth, on the non-blocking one
//! the same shapes × MSHR counts 1–4.
//!
//! Each run drives the machine one [`SimMachine::step`] at a time under an
//! observer that asserts the paper's invariants from the event stream:
//!
//! * occupancy never exceeds depth, and the recorded high-water mark (hence
//!   headroom = depth − high-water) matches the maximum observed occupancy;
//! * the stall taxonomy: at most one Table-3 cause per cycle, or — where
//!   misses overlap execution ([`SimMachine::OVERLAP`]) — no cause twice
//!   in a cycle and no hazard stall at all;
//! * autonomous retirement is FIFO: entry ids leave in allocation order;
//! * no store is lost or staled: every resolved load value, the load
//!   count, and the final memory image match the untimed [`ArchModel`];
//! * the machine's structural invariants
//!   ([`SimMachine::check_structure`]), every cycle;
//! * the conservation identities shared with `wbsim-oracle`
//!   ([`check_conservation`]).
//!
//! On a violation the failing sequence is minimized by greedy op deletion
//! and re-run under a trace-collecting observer; the resulting
//! [`Counterexample`] carries a JSONL event trace replayable with
//! `wbsim trace validate`.

use wbsim_oracle::{check_conservation, ArchModel};
use wbsim_sim::{Event, Machine, MachineKind, NonBlockingMachine, Observer, SimMachine};
use wbsim_types::config::MachineConfig;
use wbsim_types::op::Op;
use wbsim_types::policy::RetirementOrder;
use wbsim_types::stall::StallKind;
use wbsim_types::Addr;

use crate::grid::{first_flagged, minimize, CheckGrid, CheckReport};

/// Cycle budget per run: a liveness bound. The longest bounded sequence
/// finishes in well under a hundred cycles; a run that is still going after
/// this many has livelocked, which is itself a violation.
const CYCLE_BUDGET: u64 = 10_000;

/// A minimized invariant violation.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The configuration the violation occurred under.
    pub config: MachineConfig,
    /// The MSHR count when the violating machine was non-blocking
    /// (`None`: the blocking machine).
    pub mshrs: Option<usize>,
    /// The minimized op sequence (no single op can be removed and still
    /// violate).
    pub ops: Vec<Op>,
    /// What went wrong on the minimized sequence.
    pub violation: String,
    /// The minimized run's full event stream, one JSON object per line —
    /// feed to `wbsim trace validate` to replay.
    pub trace: Vec<String>,
}

/// The bounded address universe: stores and loads over 2 lines × 2 words
/// (the paper's 32-byte lines, 8-byte words), 8 ops total. Two lines
/// exercise inter-line FIFO order and eviction; two words per line
/// exercise coalescing and partial-line hazards.
#[must_use]
pub fn op_universe(cfg: &MachineConfig) -> Vec<Op> {
    let line = u64::from(cfg.geometry.line_bytes());
    let word = u64::from(cfg.geometry.word_bytes());
    let mut ops = Vec::with_capacity(8);
    for base in [0, line] {
        for offset in [0, word] {
            ops.push(Op::Store(Addr::new(base + offset)));
            ops.push(Op::Load(Addr::new(base + offset)));
        }
    }
    ops
}

/// The stall-taxonomy rule of [`SimMachine::OVERLAP`], fed one
/// `StallCycle` event at a time. Shared by the bounded and reachability
/// observers.
#[derive(Debug, Default)]
pub(crate) struct StallRule {
    now: Option<u64>,
    kinds: Vec<StallKind>,
}

impl StallRule {
    /// Records a stall charged at `now`; returns the first rule it breaks.
    pub(crate) fn charge(&mut self, overlap: bool, now: u64, kind: StallKind) -> Option<String> {
        if self.now != Some(now) {
            self.now = Some(now);
            self.kinds.clear();
        }
        let broken = if !overlap {
            (!self.kinds.is_empty()).then(|| {
                format!(
                    "cycle {now}: second stall cause ({kind:?}) in one cycle; Table-3 causes \
                     must be mutually exclusive"
                )
            })
        } else if !matches!(kind, StallKind::BufferFull | StallKind::L2ReadAccess) {
            Some(format!(
                "cycle {now}: stall cause {kind:?} cannot occur on the non-blocking machine \
                 (hazards merge into fills)"
            ))
        } else {
            self.kinds.contains(&kind).then(|| {
                format!(
                    "cycle {now}: stall cause {kind:?} charged twice in one cycle; under \
                     overlap each cause is exclusive per cycle"
                )
            })
        };
        self.kinds.push(kind);
        broken
    }
}

/// The FIFO-retirement rule: autonomous retirements leave in strictly
/// increasing entry-id order. Returns the violation, if any, and records
/// `id` as the latest.
pub(crate) fn fifo_violation(last: &mut Option<u64>, now: u64, id: u64) -> Option<String> {
    let broken = last.filter(|&prev| id <= prev).map(|prev| {
        format!(
            "cycle {now}: autonomous retirement of entry {id} after entry {prev}; FIFO order \
             requires strictly increasing ids"
        )
    });
    *last = Some(id);
    broken
}

/// Asserts the per-event invariants and records what the architectural
/// comparison needs.
#[derive(Debug, Default)]
struct InvariantObserver {
    depth: u64,
    overlap: bool,
    fifo: bool,
    /// Program-ordered terminal load events: `Some` = resolved with this
    /// (addr, value); `None` = went to an MSHR (no architecturally returned
    /// value; the fill is checked through final memory instead).
    loads: Vec<Option<(Addr, u64)>>,
    cycles_seen: u64,
    max_occupancy: u64,
    stalls: StallRule,
    last_autonomous_retire_id: Option<u64>,
    violation: Option<String>,
}

impl InvariantObserver {
    fn fail(&mut self, msg: Option<String>) {
        if self.violation.is_none() {
            self.violation = msg;
        }
    }
}

impl Observer for InvariantObserver {
    fn event(&mut self, ev: &Event) {
        match *ev {
            Event::CycleEnd { now, occupancy } => {
                self.cycles_seen += 1;
                self.max_occupancy = self.max_occupancy.max(occupancy);
                if occupancy > self.depth {
                    self.fail(Some(format!(
                        "cycle {now}: occupancy {occupancy} exceeds depth {}",
                        self.depth
                    )));
                }
            }
            Event::StallCycle { now, kind } => {
                let broken = self.stalls.charge(self.overlap, now, kind);
                self.fail(broken);
            }
            Event::RetireStart { now, id, flush } if self.fifo && !flush => {
                let broken = fifo_violation(&mut self.last_autonomous_retire_id, now, id);
                self.fail(broken);
            }
            Event::LoadResolved { addr, value, .. } => self.loads.push(Some((addr, value))),
            Event::LoadMiss { .. } => self.loads.push(None),
            _ => {}
        }
    }
}

/// Runs one sequence on machine `M` (with `mshrs` registers when it has
/// them) and checks every invariant listed in the module docs.
///
/// # Errors
///
/// Returns a human-readable description of the first violated invariant.
///
/// # Panics
///
/// Panics if `M::build` rejects `cfg`/`mshrs` — the checker explores
/// behavior, not configuration validation (the linter owns that).
pub fn check_sequence<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: &[Op],
) -> Result<(), String> {
    let mut cfg = cfg.clone();
    cfg.check_data = false;
    let mut machine = M::build(cfg.clone(), mshrs).expect("callers validate the configuration");
    let mut obs = InvariantObserver {
        depth: cfg.write_buffer.depth as u64,
        overlap: M::OVERLAP,
        fifo: cfg.write_buffer.order == RetirementOrder::Fifo,
        ..InvariantObserver::default()
    };
    let mut iter = ops.iter().copied();
    while machine.step(&mut iter, &mut obs) {
        machine
            .check_structure()
            .map_err(|e| format!("cycle {}: {e}", machine.now()))?;
        if machine.now() >= CYCLE_BUDGET {
            return Err(format!(
                "run exceeded the {CYCLE_BUDGET}-cycle liveness budget"
            ));
        }
    }
    if let Some(v) = obs.violation {
        return Err(v);
    }
    let mut stats = *machine.stats();
    stats.cycles = machine.now();

    // No store lost or staled: resolved loads at their program-order
    // ordinal, exactly one terminal event per load, and final memory vs
    // the untimed model.
    let mut oracle = ArchModel::new(cfg.geometry);
    let expected = oracle.run(ops);
    for (i, terminal) in obs.loads.iter().enumerate() {
        let Some((addr, got)) = *terminal else {
            continue;
        };
        let Some(&want) = expected.get(i) else {
            break; // the count check below reports the mismatch
        };
        if got != want {
            return Err(format!(
                "load #{i} at {addr:?} observed {got:#x}, architectural model \
                 says {want:#x} (stale or lost store)"
            ));
        }
    }
    if obs.loads.len() != expected.len() {
        let verb = if M::OVERLAP { "terminated" } else { "resolved" };
        return Err(format!(
            "machine {verb} {} loads, stream has {}",
            obs.loads.len(),
            expected.len()
        ));
    }
    // Final memory — also the merge-on-fill oracle: a fill that skipped
    // the write-buffer merge leaves a stale line in L1, which the
    // architectural read (L1-first) exposes.
    for op in ops {
        if let Op::Load(addr) | Op::Store(addr) = *op {
            let got = machine.read_word_architectural(addr);
            let want = oracle.read_word(addr);
            if got != want {
                return Err(format!(
                    "final memory at {addr:?}: machine reads {got:#x}, \
                     architectural model says {want:#x}"
                ));
            }
        }
    }

    // Headroom identity: the recorded high-water mark is exactly the
    // maximum occupancy the event stream saw, so headroom(depth) is
    // depth − max occupancy.
    let depth = cfg.write_buffer.depth as u64;
    let hw = stats.wb_detail.high_water;
    if hw != obs.max_occupancy || hw > depth {
        return Err(format!(
            "high-water mark {hw} disagrees with the event stream's maximum \
             occupancy {} (depth {depth})",
            obs.max_occupancy
        ));
    }

    // The conservation identities shared with the differential oracle;
    // cycle accounting only where misses do not overlap execution.
    check_conservation(
        &cfg,
        &stats,
        machine.wb_victim_allocs(),
        machine.wb_occupancy() as u64,
        obs.cycles_seen,
        !M::OVERLAP,
    )
    .map_err(|d| format!("conservation identity violated: {d}"))
}

/// Collects the event stream as JSONL for counterexample replay.
#[derive(Debug, Default)]
pub(crate) struct TraceObserver {
    pub(crate) lines: Vec<String>,
}

impl Observer for TraceObserver {
    fn event(&mut self, ev: &Event) {
        self.lines.push(ev.to_json());
    }
}

/// The JSONL event stream of `ops` run to completion on a fresh machine
/// (cut off at the liveness budget).
pub(crate) fn sequence_trace<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: &[Op],
) -> Vec<String> {
    let mut cfg = cfg.clone();
    cfg.check_data = false;
    let mut machine = M::build(cfg, mshrs).expect("callers validate the configuration");
    let mut trace = TraceObserver::default();
    let mut iter = ops.iter().copied();
    while machine.step(&mut iter, &mut trace) && machine.now() < CYCLE_BUDGET {}
    trace.lines
}

/// Minimizes a sequence [`check_sequence`] rejects and packages it with
/// its violation and trace.
pub(crate) fn counterexample<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: &[Op],
) -> Box<Counterexample> {
    let (ops, _) = minimize(ops, |c| check_sequence::<M>(cfg, mshrs, c).err());
    let violation =
        check_sequence::<M>(cfg, mshrs, &ops).expect_err("minimization preserves the violation");
    Box::new(Counterexample {
        config: cfg.clone(),
        mshrs,
        trace: sequence_trace::<M>(cfg, mshrs, &ops),
        ops,
        violation,
    })
}

/// Sequences of length 1..=`max_ops` over a `universe`-sized alphabet.
fn sequence_count(universe: u64, max_ops: u32) -> u64 {
    (1..=max_ops).map(|k| universe.pow(k)).sum()
}

/// The first sequence of length 1..=`max_ops`, in odometer order, that
/// [`check_sequence`] rejects on one design point. `abort` is polled once
/// per sequence; a `true` poll abandons the search (`None`).
pub(crate) fn first_violating_sequence<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    max_ops: u32,
    abort: &dyn Fn() -> bool,
) -> Option<Vec<Op>> {
    first_flagged(&op_universe(cfg), max_ops, abort, |ops| {
        check_sequence::<M>(cfg, mshrs, ops).err()
    })
    .map(|(ops, _)| ops)
}

/// Enumerates every op sequence of length 1..=`max_ops` over the bounded
/// universe, on every point of `grid`, checking every invariant on every
/// run, with `jobs` worker threads. The result is byte-identical for
/// every `jobs` value (only `wall_ms` varies): the search always reports
/// the first violating point in grid order, and within it the first
/// violating sequence in odometer order.
///
/// # Errors
///
/// Returns the minimized, replayable [`Counterexample`] for the violation.
pub fn check_exhaustive(
    grid: &CheckGrid,
    max_ops: u32,
    jobs: usize,
) -> Result<CheckReport, Box<Counterexample>> {
    match grid.kind() {
        MachineKind::Blocking => exhaustive::<Machine>(grid, max_ops, jobs),
        MachineKind::NonBlocking => exhaustive::<NonBlockingMachine>(grid, max_ops, jobs),
    }
}

fn exhaustive<M: SimMachine>(
    grid: &CheckGrid,
    max_ops: u32,
    jobs: usize,
) -> Result<CheckReport, Box<Counterexample>> {
    let mut report = grid
        .run(jobs, |cfg, mshrs, abort| {
            first_violating_sequence::<M>(cfg, mshrs, max_ops, abort).map_or(Ok([0; 3]), Err)
        })
        .map_err(|(i, ops)| {
            let (cfg, mshrs) = &grid.points()[i];
            counterexample::<M>(cfg, *mshrs, &ops)
        })?;
    let universe = grid
        .points()
        .first()
        .map_or(0, |(cfg, _)| op_universe(cfg).len());
    report.sequences = sequence_count(universe as u64, max_ops);
    report.runs = report.configs * report.sequences;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsim_sim::EventParseError;
    use wbsim_types::divergence::FaultInjection;
    use wbsim_types::policy::LoadHazardPolicy;

    fn grid(kind: MachineKind, fault: Option<FaultInjection>) -> CheckGrid {
        CheckGrid::new(kind, fault, None).expect("full grid")
    }

    /// [`check_sequence`] on the machine `kind` names.
    fn sequence_ok(
        kind: MachineKind,
        cfg: &MachineConfig,
        mshrs: Option<usize>,
        ops: &[Op],
    ) -> bool {
        match kind {
            MachineKind::Blocking => check_sequence::<Machine>(cfg, mshrs, ops).is_ok(),
            MachineKind::NonBlocking => {
                check_sequence::<NonBlockingMachine>(cfg, mshrs, ops).is_ok()
            }
        }
    }

    #[test]
    fn universe_is_two_lines_by_two_words() {
        let ops = op_universe(&MachineConfig::baseline());
        assert_eq!(ops.len(), 8);
        let lines: std::collections::BTreeSet<u64> = ops
            .iter()
            .map(|op| match op {
                Op::Load(a) | Op::Store(a) => a.as_u64() / 32,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn sequence_count_is_a_geometric_sum() {
        assert_eq!(sequence_count(8, 1), 8);
        assert_eq!(sequence_count(8, 3), 8 + 64 + 512);
    }

    #[test]
    fn short_exhaustive_check_is_clean_on_both_machines() {
        for kind in MachineKind::ALL {
            let report = check_exhaustive(&grid(kind, None), 3, 2).expect("no violations at 3");
            assert_eq!(report.configs, 40, "{kind:?}");
            assert_eq!(report.sequences, 8 + 64 + 512);
            assert_eq!(report.runs, 40 * (8 + 64 + 512));
        }
    }

    #[test]
    fn injected_fault_yields_minimized_replayable_counterexample_on_both_machines() {
        for kind in MachineKind::ALL {
            let ce = check_exhaustive(&grid(kind, Some(FaultInjection::SkipWbForwarding)), 3, 2)
                .expect_err("skipping WB forwarding must violate data freshness");
            assert_eq!(
                ce.config.write_buffer.hazard,
                LoadHazardPolicy::ReadFromWb,
                "the fault only bites under read-from-WB"
            );
            assert_eq!(
                ce.mshrs.is_some(),
                kind == MachineKind::NonBlocking,
                "non-blocking counterexamples carry the MSHR count"
            );
            assert!(!ce.ops.is_empty());
            assert!(!ce.violation.is_empty());
            // 1-minimal: removing any op makes the violation disappear.
            for i in 0..ce.ops.len() {
                let mut fewer = ce.ops.clone();
                fewer.remove(i);
                assert!(
                    sequence_ok(kind, &ce.config, ce.mshrs, &fewer),
                    "{kind:?}: counterexample is not minimal: op {i} is removable"
                );
            }
            // Replayable: every trace line round-trips through the event codec.
            assert!(!ce.trace.is_empty());
            for line in &ce.trace {
                let ev: Result<Event, EventParseError> = Event::from_json(line);
                ev.expect("counterexample trace must be valid JSONL");
            }
        }
    }

    #[test]
    fn parallel_and_serial_exhaustive_runs_agree_on_both_machines() {
        // A parallelized check must be byte-identical to a serial one
        // (wall time excepted) — both on a clean grid and, with a fault
        // injected, down to the exact counterexample.
        for kind in MachineKind::ALL {
            let clean = grid(kind, None);
            let mut one = check_exhaustive(&clean, 2, 1).expect("clean grid");
            let mut four = check_exhaustive(&clean, 2, 4).expect("clean grid");
            one.wall_ms = 0;
            four.wall_ms = 0;
            assert_eq!(one, four, "{kind:?}");

            let faulty = grid(kind, Some(FaultInjection::SkipWbForwarding));
            let a = check_exhaustive(&faulty, 3, 1).expect_err("fault must be caught");
            let b = check_exhaustive(&faulty, 3, 4).expect_err("fault must be caught");
            assert_eq!(a.config, b.config);
            assert_eq!(a.mshrs, b.mshrs);
            assert_eq!(a.ops, b.ops);
            assert_eq!(a.violation, b.violation);
            assert_eq!(a.trace, b.trace);
        }
    }

    #[test]
    fn check_sequence_accepts_a_hazardous_store_load_pair_on_both_machines() {
        let a = Addr::new(0);
        for kind in MachineKind::ALL {
            for (cfg, mshrs) in grid(kind, None).points().iter().cloned() {
                // Store then load of the same word: the hazard path (and,
                // with MSHRs, the merge path).
                assert!(
                    sequence_ok(kind, &cfg, mshrs, &[Op::Store(a), Op::Load(a)]),
                    "{kind:?}: hazard pair must be clean"
                );
            }
        }
    }
}
