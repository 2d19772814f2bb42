//! Unbounded reachability checking: abstract state-graph exploration with
//! liveness analysis.
//!
//! The bounded checker (`bounded.rs`) enumerates op *sequences* up to a
//! small length, so its guarantees stop at short traces. This module
//! explores the canonical abstract *state graph* instead: a visited-set
//! BFS over `state × op-universe`, where a state is the value-blind,
//! time-shifted, line-renamed quotient of [`crate::abstract_state`] — finite, so
//! the closure proves every per-state invariant for op sequences of
//! **arbitrary length** over the same universe. Safety violations are
//! reconstructed from BFS parent pointers, minimized by greedy deletion,
//! and rendered as `wbsim trace validate`-replayable JSONL, exactly like
//! the bounded checker's counterexamples.
//!
//! On top of the explored graph the checker runs a liveness analysis the
//! bounded checker cannot express at all: from every reachable state it
//! walks the *drain graph* — the deterministic fair schedule in which
//! retirement runs at the maximum rate and no new ops issue
//! ([`SimMachine::drain_step`]). The drain graph is functional
//! (at most one successor per state), so its strongly connected components
//! are its simple cycles plus singletons; any cycle is, by construction, a
//! set of states with buffered entries that never retire under even the
//! fairest schedule — a livelock. A second livelock shape is caught during
//! expansion itself: an op that exceeds its cycle budget while the machine
//! makes no retirement progress (a wedged stall, e.g. a store spinning on
//! a full buffer that will never drain).
//!
//! Diagnostics use the same [`Diagnostic`] type as the linter, under three
//! new codes: `RCH001` (safety invariant violated at a reachable state),
//! `RCH002` (livelock), `RCH003` (configuration outside the abstractable
//! class — the time-shift quotient is only sound when no policy consults
//! absolute time).

use wbsim_sim::{
    Event, Machine, MachineKind, MachineSnapshot, NonBlockingMachine, NullObserver, Observer,
    SimMachine,
};
use wbsim_types::addr::{Addr, Geometry, LineAddr};
use wbsim_types::config::{IcacheConfig, L2Config, MachineConfig};
use wbsim_types::diagnostics::{Diagnostic, Severity};
use wbsim_types::divergence::FaultInjection;
use wbsim_types::op::Op;
use wbsim_types::policy::{L1WritePolicy, RetirementOrder, RetirementPolicy};

use crate::abstract_state::{KeyBuf, KeyMap, ShadowTracker};
use crate::bounded::{
    check_sequence, counterexample, fifo_violation, op_universe, sequence_trace, Counterexample,
    StallRule, TraceObserver,
};
use crate::grid::{minimize, Bfs, CheckGrid, CheckReport};

/// Cycle budget for one op during expansion. Every legitimate op in the
/// gated configuration class completes in well under 100 cycles (worst
/// case: a flush-full hazard over four half-line entries); an op still
/// running after this many cycles is wedged. Deliberately small so that
/// stalled-op livelock counterexample traces stay short.
pub const OP_CYCLE_BUDGET: u64 = 256;

/// After an op exceeds [`OP_CYCLE_BUDGET`], the machine is stepped this
/// many further cycles watching for retirement progress; a window with no
/// progress and a non-empty buffer is a livelock, not a slow op. Long
/// enough to span any in-flight write transaction in the gated class.
pub(crate) const STALL_PROBE_WINDOW: u64 = 32;

/// Defensive bound on a single drain walk; the drain graph of any gated
/// configuration is orders of magnitude smaller.
pub(crate) const DRAIN_WALK_BOUND: usize = 100_000;

/// Per-configuration exploration statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReachConfigStats {
    /// Distinct canonical abstract states visited.
    pub states: u64,
    /// Completed `state × op` transitions.
    pub edges: u64,
    /// Strongly connected components of the drain graph (all singletons in
    /// a clean run).
    pub sccs: u64,
}

/// A reachability violation: a structured diagnostic, plus — for safety
/// violations and livelocks, though not for `RCH003` configuration
/// rejections — a minimized replayable counterexample.
#[derive(Debug, Clone)]
pub struct ReachViolation {
    /// The rendered finding (`RCH001`/`RCH002`/`RCH003`).
    pub diagnostic: Diagnostic,
    /// The minimized op sequence and its JSONL event trace.
    pub counterexample: Option<Box<Counterexample>>,
}

/// The two cache lines the bounded op universe touches.
pub(crate) fn universe_lines(cfg: &MachineConfig) -> [LineAddr; 2] {
    let g = &cfg.geometry;
    [
        g.line_of(Addr::new(0)),
        g.line_of(Addr::new(u64::from(g.line_bytes()))),
    ]
}

/// Why a configuration is outside the abstractable class.
#[derive(Debug, Clone)]
pub(crate) struct GateReject {
    /// The offending configuration field.
    pub(crate) field: String,
    /// Why the abstraction is unsound for it.
    pub(crate) why: String,
    /// The nearest admissible value — rendered as the `RCH003`
    /// suggestion.
    pub(crate) suggestion: String,
}

/// Checks whether `cfg` is inside the abstractable class.
///
/// The state quotient stores countdowns instead of absolute cycles and
/// renames lines; both are only sound when no policy consults absolute
/// time, entry age, or write recency. Buffer entries may be full lines
/// *or* aligned sub-line blocks: the word-validity bitmap is value-blind,
/// so block-tagged entries fit the shadow-map abstraction unchanged. The
/// bounded grid satisfies all of this by construction; arbitrary
/// configurations may not.
pub(crate) fn gate(cfg: &MachineConfig) -> Result<(), GateReject> {
    let reject = |field: &str, why: &str, suggestion: &str| {
        Err(GateReject {
            field: field.into(),
            why: why.into(),
            suggestion: suggestion.into(),
        })
    };
    let wb = &cfg.write_buffer;
    if wb.order != RetirementOrder::Fifo {
        return reject(
            "write_buffer.order",
            "LRU retirement order consults write recency, which the time-shifted \
             abstraction erases",
            "set write_buffer.order to fifo, the nearest abstractable order",
        );
    }
    if wb.max_age.is_some() {
        return reject(
            "write_buffer.max_age",
            "age-based retirement consults absolute entry age, which the time-shifted \
             abstraction erases",
            "remove write_buffer.max_age (no age bound is the nearest abstractable \
             setting)",
        );
    }
    if !matches!(wb.retirement, RetirementPolicy::RetireAt(_)) {
        return reject(
            "write_buffer.retirement",
            "fixed-rate retirement consults cycles-since-last-retirement, which the \
             time-shifted abstraction erases",
            "set write_buffer.retirement to retire-at(N), the nearest abstractable \
             policy",
        );
    }
    if !matches!(cfg.l2, L2Config::Perfect { .. }) {
        return reject(
            "l2",
            "a real L2 has eviction state outside the two-line snapshot",
            "set l2 to perfect (keep its latency), the nearest abstractable model",
        );
    }
    if cfg.icache != IcacheConfig::Perfect {
        return reject(
            "icache",
            "the statistical I-cache model draws from a seeded stream, which is not \
             part of the abstract state",
            "set icache to perfect, the nearest abstractable model",
        );
    }
    if cfg.l1.write_policy != L1WritePolicy::WriteThrough {
        return reject(
            "l1.write_policy",
            "write-back L1 victim state depends on LRU stamps, which the time-shifted \
             abstraction erases",
            "set l1.write_policy to write-through, the nearest abstractable policy",
        );
    }
    Ok(())
}

/// The `RCH003` diagnostic for a configuration [`gate`] rejects, shared
/// by every state-graph checker.
pub(crate) fn gate_diagnostic(reject: GateReject) -> Diagnostic {
    rch_diagnostic(
        "RCH003",
        &reject.field,
        format!(
            "configuration is outside the abstractable class: {}",
            reject.why
        ),
    )
    .with_suggestion(reject.suggestion)
}

/// Checks the per-event invariants during one transition and maintains the
/// shadow map. Mirrors the bounded checker's invariant observer, but with
/// the FIFO cursor carried across transitions by the caller.
struct TransObserver<'a> {
    g: Geometry,
    depth: u64,
    overlap: bool,
    shadow: &'a mut ShadowTracker,
    last_retire_id: &'a mut Option<u64>,
    stalls: StallRule,
    violation: Option<String>,
}

impl TransObserver<'_> {
    fn fail(&mut self, msg: Option<String>) {
        if self.violation.is_none() {
            self.violation = msg;
        }
    }
}

impl Observer for TransObserver<'_> {
    fn event(&mut self, ev: &Event) {
        match *ev {
            Event::CycleEnd { now, occupancy } if occupancy > self.depth => {
                self.fail(Some(format!(
                    "cycle {now}: occupancy {occupancy} exceeds depth {}",
                    self.depth
                )));
            }
            Event::StallCycle { now, kind } => {
                let broken = self.stalls.charge(self.overlap, now, kind);
                self.fail(broken);
            }
            Event::RetireStart { now, id, flush } if !flush => {
                let broken = fifo_violation(self.last_retire_id, now, id);
                self.fail(broken);
            }
            Event::StoreAccepted { addr, .. } => {
                self.shadow.record_store(self.g.word_addr(addr));
            }
            Event::LoadResolved {
                now,
                addr,
                value,
                source,
            } => {
                let want = self.shadow.expected(self.g.word_addr(addr));
                if value != want {
                    self.fail(Some(format!(
                        "cycle {now}: load of {addr:?} via {source} observed \
                         {value:#x}, freshest store is {want:#x} (stale or lost store)"
                    )));
                }
            }
            _ => {}
        }
    }
}

/// Watches for retirement progress only.
#[derive(Default)]
struct ProgressProbe {
    progress: bool,
}

impl Observer for ProgressProbe {
    fn event(&mut self, ev: &Event) {
        if matches!(ev, Event::RetireComplete { .. }) {
            self.progress = true;
        }
    }
}

/// Invariants checked at every op boundary, against the node's concrete
/// representative: the machine's structural invariants, architectural
/// reads against the shadow map, and entry and store conservation.
fn boundary_checks<M: SimMachine>(
    g: &Geometry,
    m: &M,
    shadow: &ShadowTracker,
    universe: &[Op],
) -> Result<(), String> {
    m.check_structure()?;
    for op in universe {
        if let Op::Load(addr) | Op::Store(addr) = *op {
            let got = m.read_word_architectural(addr);
            let want = shadow.expected(g.word_addr(addr));
            if got != want {
                return Err(format!(
                    "architectural read of {addr:?} is {got:#x}, freshest store is \
                     {want:#x} (lost or stale store)"
                ));
            }
        }
    }
    let stats = m.stats();
    let victim_allocs = m.wb_victim_allocs();
    let occupancy = m.wb_occupancy() as u64;
    let created = stats.wb_allocations + victim_allocs;
    let destroyed = stats.wb_retirements + stats.wb_flushes + occupancy;
    if created != destroyed {
        return Err(format!(
            "entry conservation broken: {} allocations + {victim_allocs} victim \
             inserts != {} retirements + {} flushes + {occupancy} residual",
            stats.wb_allocations, stats.wb_retirements, stats.wb_flushes
        ));
    }
    if stats.stores != stats.wb_allocations + stats.wb_store_merges {
        return Err(format!(
            "store accounting broken: {} stores != {} allocations + {} merges",
            stats.stores, stats.wb_allocations, stats.wb_store_merges
        ));
    }
    Ok(())
}

/// Steps a wedged machine up to [`STALL_PROBE_WINDOW`] further cycles
/// with no new ops, under `obs`.
pub(crate) fn probe_window<M: SimMachine>(m: &mut M, obs: &mut impl Observer) {
    for _ in 0..STALL_PROBE_WINDOW {
        if !m.step(&mut std::iter::empty(), obs) {
            break;
        }
    }
}

/// Walks the drain graph from `m`, whose canonical key is `key`, until it
/// terminates (buffer empty), revisits a memoized state, or closes a
/// cycle. Returns `true` for livelock. Every state on the walk is memoized
/// with the verdict: a state that reaches a livelock is itself livelocked,
/// and the drain graph is functional so the verdict is path-independent.
/// A memoized `key` is answered without cloning the machine. On the
/// non-blocking machine the drain also completes outstanding misses (a
/// queued MSHR blocks retirement through read-bypassing, so a drain that
/// never issued it would wedge spuriously).
fn drain_livelocked<M: SimMachine>(
    m: &M,
    key: &[u8],
    g: &Geometry,
    lines: &[LineAddr; 2],
    shadow: &ShadowTracker,
    keys: &mut KeyBuf,
    memo: &mut KeyMap<Vec<u8>, bool>,
) -> bool {
    if let Some(&v) = memo.get(key) {
        return v;
    }
    let mut m = m.clone();
    let mut path: Vec<Vec<u8>> = vec![key.to_vec()];
    let verdict = loop {
        if !m.drain_step(&mut NullObserver) {
            break false;
        }
        if path.len() > DRAIN_WALK_BOUND {
            break true;
        }
        keys.clear();
        keys.push(g, &m.snapshot(lines.as_slice()), shadow);
        let s = keys.canonical();
        if let Some(&v) = memo.get(s) {
            break v;
        }
        if path.iter().any(|p| p.as_slice() == s) {
            // A cycle under the fair drain schedule. No progress is
            // possible along it: occupancy is non-increasing during a
            // drain, so a cycle retires nothing — livelock.
            break true;
        }
        path.push(s.to_vec());
    };
    for s in path {
        memo.insert(s, verdict);
    }
    verdict
}

/// How a [`replay`] ended.
enum Ending {
    /// An op exceeded [`OP_CYCLE_BUDGET`]; the machine is left mid-op.
    Wedged,
    /// Every op completed and the fair drain terminated.
    Drained,
    /// Every op completed and the fair drain cycled (or exceeded
    /// [`DRAIN_WALK_BOUND`]).
    Cycled,
}

/// Feeds `ops` one at a time to `m` under `obs`, then — unless an op
/// wedges — walks the fair drain schedule. Snapshots are time-shift
/// invariant and frozen during a drain, so a repeated one is exactly an
/// abstract cycle.
fn replay<M: SimMachine>(
    m: &mut M,
    lines: &[LineAddr],
    ops: &[Op],
    obs: &mut impl Observer,
) -> Ending {
    for &op in ops {
        if m.run_op_bounded(op, OP_CYCLE_BUDGET, obs).is_none() {
            return Ending::Wedged;
        }
    }
    let mut seen: Vec<MachineSnapshot> = Vec::new();
    loop {
        let s = m.snapshot(lines);
        if seen.contains(&s) || seen.len() > DRAIN_WALK_BOUND {
            return Ending::Cycled;
        }
        seen.push(s);
        if !m.drain_step(obs) {
            return Ending::Drained;
        }
    }
}

/// The livelock predicate for counterexample minimization: replays `ops`
/// op by op on machine `M` and reports whether the run wedges — either an
/// op exceeds its cycle budget with no retirement progress in a further
/// probe window, or the final state's drain walk closes a cycle.
/// Deterministic, so greedy deletion against it is sound.
///
/// # Panics
///
/// Panics if `M::build` rejects `cfg`/`mshrs` — callers validate first.
#[must_use]
pub fn check_liveness_sequence<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: &[Op],
) -> bool {
    let mut cfg = cfg.clone();
    cfg.check_data = false;
    let lines = universe_lines(&cfg);
    let mut m = M::build(cfg, mshrs).expect("caller validates the configuration");
    match replay(&mut m, &lines, ops, &mut NullObserver) {
        Ending::Wedged => {
            let mut probe = ProgressProbe::default();
            probe_window(&mut m, &mut probe);
            !probe.progress && m.wb_occupancy() > 0
        }
        Ending::Drained => false,
        Ending::Cycled => true,
    }
}

/// Replays a counterexample under a trace collector: the ops, the
/// wedged-stall probe window if an op never completes, and otherwise the
/// terminal drain up to one full period of its cycle.
pub(crate) fn replay_trace<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: &[Op],
) -> Vec<String> {
    let mut cfg = cfg.clone();
    cfg.check_data = false;
    let lines = universe_lines(&cfg);
    let mut trace = TraceObserver::default();
    let mut m = M::build(cfg, mshrs).expect("caller validates the configuration");
    if let Ending::Wedged = replay(&mut m, &lines, ops, &mut trace) {
        probe_window(&mut m, &mut trace);
    }
    trace.lines
}

pub(crate) fn rch_diagnostic(code: &'static str, field_path: &str, msg: String) -> Diagnostic {
    Diagnostic::new(code, Severity::Error, field_path.to_string()).with_message(msg)
}

/// Builds the `RCH001` violation for a safety failure on `ops`. When the
/// bounded sequence checker can see the same violation, its minimizer and
/// trace collector are reused wholesale; a reach-only violation keeps the
/// unminimized path with a fresh trace.
fn safety_violation<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: Vec<Op>,
    msg: String,
) -> Box<ReachViolation> {
    let ce = if check_sequence::<M>(cfg, mshrs, &ops).is_err() {
        counterexample::<M>(cfg, mshrs, &ops)
    } else {
        Box::new(Counterexample {
            config: cfg.clone(),
            mshrs,
            trace: sequence_trace::<M>(cfg, mshrs, &ops),
            ops,
            violation: msg.clone(),
        })
    };
    Box::new(ReachViolation {
        diagnostic: rch_diagnostic(
            "RCH001",
            "machine",
            format!("safety invariant violated at a reachable state: {msg}"),
        ),
        counterexample: Some(ce),
    })
}

/// Builds the `RCH002` violation for a livelock witnessed by `ops`.
fn liveness_violation<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    ops: &[Op],
    detail: &str,
) -> Box<ReachViolation> {
    debug_assert!(check_liveness_sequence::<M>(cfg, mshrs, ops));
    let (ops, _) = minimize(ops, |c| {
        check_liveness_sequence::<M>(cfg, mshrs, c).then_some(())
    });
    let violation = format!("livelock: {detail}");
    Box::new(ReachViolation {
        diagnostic: rch_diagnostic(
            "RCH002",
            "write_buffer",
            format!("{violation} ({} ops reach it)", ops.len()),
        ),
        counterexample: Some(Box::new(Counterexample {
            config: cfg.clone(),
            mshrs,
            trace: replay_trace::<M>(cfg, mshrs, &ops),
            ops,
            violation,
        })),
    })
}

/// Explores one design point to closure. Returns `Ok(None)` only when
/// `abort` fired. On the non-blocking machine the abstract state carries
/// the MSHR component, the stall taxonomy uses the overlapped rule, and
/// every boundary additionally asserts the structural MSHR invariants.
fn explore_reach<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    abort: &dyn Fn() -> bool,
) -> Result<Option<ReachConfigStats>, Box<ReachViolation>> {
    gate(cfg).map_err(|reject| {
        Box::new(ReachViolation {
            diagnostic: gate_diagnostic(reject),
            counterexample: None,
        })
    })?;
    let mut cfg = cfg.clone();
    cfg.check_data = false;
    let g = cfg.geometry;
    let lines = universe_lines(&cfg);
    let universe = op_universe(&cfg);
    let depth = cfg.write_buffer.depth as u64;

    let m0 = M::build(cfg.clone(), mshrs).expect("grid configs are valid");
    let shadow0 = ShadowTracker::default();
    // One buffer keys expanded states, the other the drain walks.
    let (mut keys, mut drain_keys) = (KeyBuf::default(), KeyBuf::default());
    let mut drain_memo: KeyMap<Vec<u8>, bool> = KeyMap::default();
    keys.push(&g, &m0.snapshot(&lines), &shadow0);
    let s0 = keys.canonical();
    if drain_livelocked(
        &m0,
        s0,
        &g,
        &lines,
        &shadow0,
        &mut drain_keys,
        &mut drain_memo,
    ) {
        return Err(liveness_violation::<M>(
            &cfg,
            mshrs,
            &[],
            "the initial state cycles under the fair drain schedule",
        ));
    }
    // A node: its concrete representative, shadow map, and FIFO cursor.
    let mut bfs = Bfs::new(s0.to_vec(), (m0, shadow0, None));
    let mut edges: u64 = 0;

    while let Some((idx, (machine, node_shadow, node_retire_id))) = bfs.pop() {
        if abort() {
            return Ok(None);
        }
        for &op in &universe {
            let mut m = machine.clone();
            let mut shadow = node_shadow.clone();
            let mut last_retire_id = node_retire_id;
            let mut obs = TransObserver {
                g,
                depth,
                overlap: M::OVERLAP,
                shadow: &mut shadow,
                last_retire_id: &mut last_retire_id,
                stalls: StallRule::default(),
                violation: None,
            };
            let completed = m.run_op_bounded(op, OP_CYCLE_BUDGET, &mut obs);
            if let Some(msg) = obs.violation.take() {
                return Err(safety_violation::<M>(&cfg, mshrs, bfs.path(idx, op), msg));
            }
            if completed.is_none() {
                // The op wedged. Probe for progress to tell a livelock from
                // an undersized budget.
                let mut probe = ProgressProbe::default();
                probe_window(&mut m, &mut probe);
                let ops = bfs.path(idx, op);
                if !probe.progress && m.wb_occupancy() > 0 {
                    return Err(liveness_violation::<M>(
                        &cfg,
                        mshrs,
                        &ops,
                        "an op exceeds its cycle budget while the buffer makes no \
                         retirement progress",
                    ));
                }
                return Err(Box::new(ReachViolation {
                    diagnostic: rch_diagnostic(
                        "RCH001",
                        "machine",
                        format!(
                            "op {op:?} after {} ops exceeded the {OP_CYCLE_BUDGET}-cycle \
                             budget while retirement still progresses; the budget is \
                             undersized for this configuration",
                            ops.len() - 1
                        ),
                    ),
                    counterexample: None,
                }));
            }
            edges += 1;
            if let Err(msg) = boundary_checks(&g, &m, &shadow, &universe) {
                return Err(safety_violation::<M>(&cfg, mshrs, bfs.path(idx, op), msg));
            }
            keys.clear();
            keys.push(&g, &m.snapshot(&lines), &shadow);
            let state = keys.canonical();
            if bfs.seen(state) {
                continue;
            }
            if drain_livelocked(
                &m,
                state,
                &g,
                &lines,
                &shadow,
                &mut drain_keys,
                &mut drain_memo,
            ) {
                return Err(liveness_violation::<M>(
                    &cfg,
                    mshrs,
                    &bfs.path(idx, op),
                    "a reachable state cycles under the fair drain schedule without \
                     retiring anything",
                ));
            }
            bfs.push(state.to_vec(), idx, op, (m, shadow, last_retire_id));
        }
    }
    Ok(Some(ReachConfigStats {
        states: bfs.states(),
        edges,
        // Every memoized drain state proved acyclic, so each is its own
        // SCC; a cycle would have returned RCH002 above.
        sccs: drain_memo.len() as u64,
    }))
}

/// Explores one design point's abstract state graph to closure on machine
/// `M` (with `mshrs` registers when it has them), checking every safety
/// invariant at every reachable state and the liveness property on the
/// drain graph. On the non-blocking machine the abstract state carries
/// per-line miss countdowns, canonicalized alongside line renaming, and
/// the MSHR-specific invariants — register-count bound, no duplicate
/// outstanding miss per line, merge-on-fill correctness, and the
/// overlapped stall taxonomy — are proved too.
///
/// # Errors
///
/// [`ReachViolation`] with `RCH001` (safety), `RCH002` (livelock), or
/// `RCH003` (the configuration is outside the abstractable class).
///
/// # Panics
///
/// Panics if `M::build` rejects `cfg`/`mshrs` — like the bounded checker,
/// this explores behavior of valid configurations only.
pub fn check_reach_point<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
) -> Result<ReachConfigStats, Box<ReachViolation>> {
    Ok(explore_reach::<M>(cfg, mshrs, &|| false)?.expect("no abort requested"))
}

/// Runs the reachability check over every point of `grid` with `jobs`
/// worker threads. Like [`crate::check_exhaustive`], the result is
/// identical for every `jobs` value (only `wall_ms` varies): a violation
/// is always reported for the first violating point in grid order, and
/// the clean-run statistics are order-independent sums.
///
/// # Errors
///
/// The first violating point's [`ReachViolation`], in grid order.
pub fn check_reach(grid: &CheckGrid, jobs: usize) -> Result<CheckReport, Box<ReachViolation>> {
    match grid.kind() {
        MachineKind::Blocking => reach_grid::<Machine>(grid, jobs),
        MachineKind::NonBlocking => reach_grid::<NonBlockingMachine>(grid, jobs),
    }
}

fn reach_grid<M: SimMachine>(
    grid: &CheckGrid,
    jobs: usize,
) -> Result<CheckReport, Box<ReachViolation>> {
    grid.run(jobs, |cfg, mshrs, abort| {
        let stats = explore_reach::<M>(cfg, mshrs, abort)?.unwrap_or_default();
        Ok([stats.states, stats.edges, stats.sccs])
    })
    .map_err(|(_, v)| v)
}

/// [`check_reach_point`] on the blocking machine. The benchmark probe
/// (`perfbench/probe`) links this name.
///
/// # Errors
///
/// As for [`check_reach_point`].
pub fn check_reach_config(cfg: &MachineConfig) -> Result<ReachConfigStats, Box<ReachViolation>> {
    check_reach_point::<Machine>(cfg, None)
}

/// [`check_reach_point`] on the non-blocking machine. The benchmark probe
/// (`perfbench/probe`) links this name.
///
/// # Errors
///
/// As for [`check_reach_point`].
pub fn check_reach_config_nonblocking(
    cfg: &MachineConfig,
    mshrs: usize,
) -> Result<ReachConfigStats, Box<ReachViolation>> {
    check_reach_point::<NonBlockingMachine>(cfg, Some(mshrs))
}

/// [`check_reach`] over the blocking grid. The benchmark probe
/// (`perfbench/probe`) links this name.
///
/// # Errors
///
/// As for [`check_reach`].
pub fn check_reach_jobs(
    fault: Option<FaultInjection>,
    jobs: usize,
) -> Result<CheckReport, Box<ReachViolation>> {
    check_reach(
        &CheckGrid::new(MachineKind::Blocking, fault, None).expect("always valid"),
        jobs,
    )
}

/// [`check_reach`] over the non-blocking grid. The benchmark probe
/// (`perfbench/probe`) links this name.
///
/// # Errors
///
/// As for [`check_reach`].
///
/// # Panics
///
/// Panics if `mshrs` is outside [`crate::GRID_MSHRS`].
pub fn check_reach_nonblocking_jobs(
    fault: Option<FaultInjection>,
    mshrs: Option<usize>,
    jobs: usize,
) -> Result<CheckReport, Box<ReachViolation>> {
    check_reach(
        &CheckGrid::new(MachineKind::NonBlocking, fault, mshrs).expect("MSHR count in the grid"),
        jobs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::first_violating_sequence;
    use wbsim_sim::EventParseError;
    use wbsim_types::policy::LoadHazardPolicy;
    use wbsim_types::testutil::a;

    fn starve_config(depth: usize, hw: usize) -> MachineConfig {
        let mut cfg = MachineConfig::baseline();
        cfg.write_buffer.depth = depth;
        cfg.write_buffer.retirement = RetirementPolicy::RetireAt(hw);
        cfg.check_data = false;
        cfg.fault = Some(FaultInjection::StarveRetirement);
        cfg
    }

    fn grid<M: SimMachine>(fault: Option<FaultInjection>, mshrs: Option<usize>) -> CheckGrid {
        CheckGrid::new(M::KIND, fault, mshrs).expect("grid in range")
    }

    fn assert_replayable(trace: &[String]) {
        assert!(!trace.is_empty());
        for line in trace {
            let ev: Result<Event, EventParseError> = Event::from_json(line);
            ev.expect("counterexample trace must be valid JSONL");
        }
    }

    fn assert_grid_clean<M: SimMachine>() {
        let report = check_reach(&grid::<M>(None, None), 2).expect("the design space is clean");
        // Blocking: 4 hazards x 10 depth/high-water shapes; non-blocking:
        // 10 shapes (hazard pinned to read-from-WB) x MSHR counts 1-4.
        assert_eq!(report.configs, 40);
        assert_eq!(report.sequences, 0, "reach does not enumerate sequences");
        // The closure proves the invariants for arbitrarily long op
        // sequences; the explored graph is substantial even though the
        // quotient is small.
        assert!(
            report.states_explored >= 400,
            "suspiciously small exploration: {} states",
            report.states_explored
        );
        assert!(report.edges >= report.states_explored);
        assert!(report.sccs > 0, "drain graphs were explored");
    }

    #[test]
    fn grid_reach_is_clean_on_both_machines() {
        assert_grid_clean::<Machine>();
        assert_grid_clean::<NonBlockingMachine>();
    }

    #[test]
    fn parallel_and_serial_reach_runs_agree_on_both_machines() {
        for (kind, mshrs) in [
            (MachineKind::Blocking, None),
            (MachineKind::NonBlocking, Some(2)),
        ] {
            let grid = CheckGrid::new(kind, None, mshrs).unwrap();
            let mut one = check_reach(&grid, 1).expect("clean grid");
            let mut four = check_reach(&grid, 4).expect("clean grid");
            one.wall_ms = 0;
            four.wall_ms = 0;
            assert_eq!(one, four, "{kind:?}");
        }
    }

    /// Cross-validation: on every shared design point, the bounded checker
    /// (N=3) and the reachability checker must agree on whether a *safety*
    /// fault is present. skip-wb-forwarding is a pure safety bug, so the
    /// verdicts must match exactly.
    fn assert_reach_agrees_with_bounded<M: SimMachine>() {
        for fault in [None, Some(FaultInjection::SkipWbForwarding)] {
            for (cfg, mshrs) in grid::<M>(fault, None).points().iter().cloned() {
                let bounded_dirty =
                    first_violating_sequence::<M>(&cfg, mshrs, 3, &|| false).is_some();
                let reach = check_reach_point::<M>(&cfg, mshrs);
                assert_eq!(
                    bounded_dirty,
                    reach.is_err(),
                    "bounded and reach disagree on {:?} {:?} depth {} hw {:?} mshrs {mshrs:?} \
                     fault {fault:?}",
                    M::KIND,
                    cfg.write_buffer.hazard,
                    cfg.write_buffer.depth,
                    cfg.write_buffer.retirement,
                );
            }
        }
    }

    #[test]
    fn reach_agrees_with_bounded_on_every_point_of_both_machines() {
        assert_reach_agrees_with_bounded::<Machine>();
        assert_reach_agrees_with_bounded::<NonBlockingMachine>();
    }

    fn assert_skip_wb_counterexample<M: SimMachine>() {
        let v = check_reach(&grid::<M>(Some(FaultInjection::SkipWbForwarding), None), 2)
            .expect_err("skipping WB forwarding must violate freshness");
        assert_eq!(v.diagnostic.code, "RCH001");
        let ce = v.counterexample.expect("safety violations carry one");
        assert_eq!(
            ce.config.write_buffer.hazard,
            LoadHazardPolicy::ReadFromWb,
            "the fault only bites under read-from-WB"
        );
        assert_eq!(
            ce.mshrs.is_some(),
            M::KIND == MachineKind::NonBlocking,
            "non-blocking counterexamples record the MSHR count"
        );
        assert!(!ce.ops.is_empty());
        // 1-minimal under the bounded sequence checker.
        for i in 0..ce.ops.len() {
            let mut fewer = ce.ops.clone();
            fewer.remove(i);
            assert!(
                check_sequence::<M>(&ce.config, ce.mshrs, &fewer).is_ok(),
                "{:?}: counterexample is not minimal: op {i} is removable",
                M::KIND
            );
        }
        assert_replayable(&ce.trace);
    }

    #[test]
    fn skip_wb_forwarding_yields_minimized_replayable_safety_counterexample_on_both_machines() {
        assert_skip_wb_counterexample::<Machine>();
        assert_skip_wb_counterexample::<NonBlockingMachine>();
    }

    /// With autonomous retirement starved, any non-empty buffer already
    /// cycles under the fair drain schedule: one store is the minimal
    /// witness, and the BFS finds it at the first non-initial state.
    fn assert_starved_livelock_counterexample<M: SimMachine>() {
        let v = check_reach(&grid::<M>(Some(FaultInjection::StarveRetirement), None), 2)
            .expect_err("starved retirement is a livelock");
        assert_eq!(v.diagnostic.code, "RCH002");
        let ce = v.counterexample.expect("livelocks carry a counterexample");
        assert_eq!(
            ce.mshrs.is_some(),
            M::KIND == MachineKind::NonBlocking,
            "non-blocking counterexamples record the MSHR count"
        );
        assert_eq!(ce.ops.len(), 1, "one store suffices: {:?}", ce.ops);
        assert!(matches!(ce.ops[0], Op::Store(_)));
        assert!(check_liveness_sequence::<M>(&ce.config, ce.mshrs, &ce.ops));
        for i in 0..ce.ops.len() {
            let mut fewer = ce.ops.clone();
            fewer.remove(i);
            assert!(
                !check_liveness_sequence::<M>(&ce.config, ce.mshrs, &fewer),
                "livelock counterexample is not minimal: op {i} is removable"
            );
        }
        assert_replayable(&ce.trace);
    }

    #[test]
    fn starved_retirement_yields_minimized_replayable_livelock_counterexample_on_both_machines() {
        assert_starved_livelock_counterexample::<Machine>();
        assert_starved_livelock_counterexample::<NonBlockingMachine>();
    }

    #[test]
    fn deep_buffer_starvation_is_a_drain_cycle_livelock() {
        // At depth 2 over a two-line universe the buffer never fills (the
        // second store to a line merges), so no op ever wedges and the
        // bounded checker at any N sees nothing wrong. Only the drain-graph
        // cycle analysis exposes the livelock — and a single store suffices.
        let cfg = starve_config(2, 2);
        let v = check_reach_point::<Machine>(&cfg, None).expect_err("entries never retire");
        assert_eq!(v.diagnostic.code, "RCH002");
        let ce = v.counterexample.expect("livelocks carry a counterexample");
        assert_eq!(ce.ops.len(), 1, "one store suffices: {:?}", ce.ops);
        assert!(matches!(ce.ops[0], Op::Store(_)));
        // The bounded checker is blind to it: every short sequence is clean.
        assert!(first_violating_sequence::<Machine>(&cfg, None, 3, &|| false).is_none());
    }

    #[test]
    fn liveness_predicate_is_clean_on_healthy_configs() {
        let mut cfg = MachineConfig::baseline();
        cfg.check_data = false;
        let live =
            |cfg: &MachineConfig, ops: &[Op]| check_liveness_sequence::<Machine>(cfg, None, ops);
        assert!(!live(&cfg, &[Op::Store(a(0, 0))]));
        assert!(!live(
            &cfg,
            &[Op::Store(a(0, 0)), Op::Store(a(1, 0)), Op::Load(a(0, 1))]
        ));
        assert!(live(&starve_config(2, 2), &[Op::Store(a(0, 0))]));
    }

    #[test]
    fn unabstractable_configs_are_rejected_with_rch003() {
        let mut cfg = MachineConfig::baseline();
        cfg.write_buffer.order = RetirementOrder::Lru;
        let v = check_reach_point::<Machine>(&cfg, None).expect_err("LRU order is time-dependent");
        assert_eq!(v.diagnostic.code, "RCH003");
        assert!(v.counterexample.is_none());
        assert_eq!(v.diagnostic.field_path, "write_buffer.order");

        let mut cfg = MachineConfig::baseline();
        cfg.write_buffer.max_age = Some(64);
        assert_eq!(
            check_reach_point::<Machine>(&cfg, None)
                .expect_err("max-age")
                .diagnostic
                .code,
            "RCH003"
        );

        // The whole bounded grid is abstractable by construction.
        for kind in MachineKind::ALL {
            for (cfg, _) in CheckGrid::new(kind, None, None).unwrap().points() {
                assert!(gate(cfg).is_ok());
            }
        }
    }

    /// One case per gated field: the `RCH003` diagnostic names the field
    /// and suggests the nearest admissible value.
    #[test]
    fn rch003_suggests_the_nearest_abstractable_configuration_per_field() {
        let cases: Vec<(MachineConfig, &str, &str)> = vec![
            (
                {
                    let mut cfg = MachineConfig::baseline();
                    cfg.write_buffer.order = RetirementOrder::Lru;
                    cfg
                },
                "write_buffer.order",
                "fifo",
            ),
            (
                {
                    let mut cfg = MachineConfig::baseline();
                    cfg.write_buffer.max_age = Some(64);
                    cfg
                },
                "write_buffer.max_age",
                "remove write_buffer.max_age",
            ),
            (
                {
                    let mut cfg = MachineConfig::baseline();
                    cfg.write_buffer.retirement = RetirementPolicy::FixedRate(4);
                    cfg
                },
                "write_buffer.retirement",
                "retire-at(N)",
            ),
            (
                {
                    let mut cfg = MachineConfig::baseline();
                    cfg.l2 = L2Config::real_with_size(128 * 1024);
                    cfg
                },
                "l2",
                "perfect",
            ),
            (
                {
                    let mut cfg = MachineConfig::baseline();
                    cfg.icache = IcacheConfig::MissEvery { interval: 100 };
                    cfg
                },
                "icache",
                "perfect",
            ),
            (
                {
                    let mut cfg = MachineConfig::baseline();
                    cfg.l1.write_policy = L1WritePolicy::WriteBack;
                    cfg
                },
                "l1.write_policy",
                "write-through",
            ),
        ];
        for (cfg, field, needle) in cases {
            cfg.validate().expect("each case is a valid configuration");
            let v = check_reach_point::<Machine>(&cfg, None).expect_err(field);
            assert_eq!(v.diagnostic.code, "RCH003", "{field}");
            assert_eq!(v.diagnostic.field_path, field);
            let suggestion = v
                .diagnostic
                .suggestion
                .as_deref()
                .unwrap_or_else(|| panic!("{field}: RCH003 must carry a suggestion"));
            assert!(
                suggestion.contains(needle),
                "{field}: suggestion {suggestion:?} does not name the nearest \
                 admissible value {needle:?}"
            );
        }
    }

    /// Sub-line entry widths are inside the abstractable class: the word
    /// bitmap is value-blind, so block-tagged entries fit the shadow map.
    /// Verified end-to-end on both machines.
    #[test]
    fn sub_line_widths_are_abstractable_end_to_end() {
        for width in [1usize, 2] {
            let mut cfg = MachineConfig::baseline();
            cfg.write_buffer.width_words = width;
            cfg.write_buffer.hazard = LoadHazardPolicy::ReadFromWb;
            cfg.check_data = false;
            cfg.validate().expect("sub-line widths are valid");
            let stats = check_reach_point::<Machine>(&cfg, None)
                .unwrap_or_else(|v| panic!("width {width} blocking: {:?}", v.diagnostic));
            assert!(stats.states > 1, "width {width}: exploration is degenerate");
            let nb = check_reach_point::<NonBlockingMachine>(&cfg, Some(2))
                .unwrap_or_else(|v| panic!("width {width} non-blocking: {:?}", v.diagnostic));
            assert!(nb.states > 1, "width {width}: NB exploration is degenerate");
            // Narrower blocks split lines into more distinct entries, so
            // the quotient grows as the width shrinks.
            assert!(
                nb.states >= stats.states.min(nb.states),
                "sanity: both explorations are populated"
            );
        }
    }
}
