//! Unbounded property verification: the product of the monitor automata
//! with the abstract state graph.
//!
//! [`crate::reach`] proves its built-in invariants for op sequences of
//! *any* length by exploring the canonical abstract quotient to closure.
//! This module runs the same exploration with a compiled [`Monitors`]
//! bundle riding along: each BFS node carries the joint (abstract machine
//! state, monitor state) pair, so a `.wbp` property is proved for
//! unbounded op sequences, not just the bounded enumeration.
//!
//! * **Safety** properties violate when a monitor flags an event on any
//!   transition (op expansion or drain walk) — the path through the BFS
//!   tree is the witness, minimized and packaged exactly like a bounded
//!   counterexample.
//! * **Liveness** properties violate when a state is reachable whose fair
//!   drain schedule terminates or cycles with a monitor obligation still
//!   pending: from there, no continuation ever discharges it.
//!
//! The joint visited key must canonicalize the two halves *together*: the
//! abstract state is canonical under a line swap, and a `for_each addr`
//! monitor's window set must be renamed by the *same* swap, or two
//! incompatible permutations could be glued into one key. The key is
//! therefore `min` over the two paired permutations (identity, swapped) —
//! the packed encodings of [`crate::abstract_state`], each paired with
//! [`Monitors::key`] under the same renaming.

use wbsim_sim::{
    Event, Machine, MachineKind, MachineSnapshot, NonBlockingMachine, Observer, SimMachine,
};
use wbsim_types::addr::{Geometry, LineAddr};
use wbsim_types::config::MachineConfig;
use wbsim_types::op::Op;

use crate::abstract_state::{KeyBuf, KeyMap, ShadowTracker};
use crate::bounded::op_universe;
use crate::grid::{Bfs, CheckGrid, CheckReport};
use crate::prop::{
    compile, pending_violation_of, prop_counterexample, violation_of, PropEnv, PropViolation,
};
use crate::prop_automaton::{MonKey, MonViolation, Monitors};
use crate::prop_parse::PropSet;
use crate::reach::{
    gate, gate_diagnostic, probe_window, universe_lines, ReachViolation, DRAIN_WALK_BOUND,
    OP_CYCLE_BUDGET,
};

/// Per-configuration product statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PropConfigStats {
    /// Distinct joint (abstract state, monitor key) pairs visited.
    pub states: u64,
    /// Completed `state × op` transitions.
    pub edges: u64,
}

/// A grid-level product report, mirroring [`crate::CheckReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PropReport {
    /// Properties in the checked set (including ones skipped per
    /// environment).
    pub properties: u64,
    /// Configurations explored.
    pub configs: u64,
    /// Joint product states visited, summed over the grid.
    pub states_explored: u64,
    /// Completed transitions, summed over the grid.
    pub edges: u64,
    /// Wall-clock time for the whole grid.
    pub wall_ms: u64,
}

impl PropReport {
    /// Renders as a JSON object with a fixed key order.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"properties\":{},\"configs\":{},\"states\":{},\"edges\":{},\"wall_ms\":{}}}",
            self.properties, self.configs, self.states_explored, self.edges, self.wall_ms
        )
    }
}

/// The joint visited key: the packed abstract state paired with the
/// monitor key under the *same* line permutation.
type JointKey = (Vec<u8>, MonKey);

fn joint_key(
    keys: &mut KeyBuf,
    g: &Geometry,
    snap: &MachineSnapshot,
    shadow: &ShadowTracker,
    mons: &Monitors,
) -> JointKey {
    keys.clear();
    keys.push(g, snap, shadow);
    let (a, b) = keys.both();
    let ka = mons.key(None);
    let kb = mons.key(Some(u64::from(g.line_bytes())));
    if (a, &ka) <= (b, &kb) {
        (a.to_vec(), ka)
    } else {
        (b.to_vec(), kb)
    }
}

/// Steps the monitors on every event and maintains the shadow map (the
/// abstraction needs it; the reach checker's own invariants are *not*
/// re-checked here — that is [`crate::check_reach`]'s job). Drain walks
/// pass no shadow: no stores occur during a drain.
struct ProductObserver<'a> {
    g: Geometry,
    shadow: Option<&'a mut ShadowTracker>,
    mons: &'a mut Monitors,
    violation: Option<MonViolation>,
}

impl Observer for ProductObserver<'_> {
    fn event(&mut self, ev: &Event) {
        if let (Event::StoreAccepted { addr, .. }, Some(shadow)) = (ev, self.shadow.as_mut()) {
            shadow.record_store(self.g.word_addr(*addr));
        }
        if let Some(v) = self.mons.step(ev) {
            if self.violation.is_none() {
                self.violation = Some(v);
            }
        }
    }
}

/// Walks the fair drain schedule from `m` under the monitors. Returns the
/// first property violation on the walk: a safety event, or — when the
/// walk terminates, closes a joint cycle, or exceeds its bound — a still
/// pending liveness obligation (nothing past that point can discharge
/// it). Clean and liveness verdicts are memoized by joint key; the walk
/// is deterministic and both halves of the key are canonical under the
/// same renaming, so the verdict is path-independent.
fn drain_walk<M: SimMachine>(
    m: &M,
    mons: &Monitors,
    g: &Geometry,
    lines: &[LineAddr; 2],
    shadow: &ShadowTracker,
    keys: &mut KeyBuf,
    memo: &mut KeyMap<JointKey, Option<PropViolation>>,
) -> Option<PropViolation> {
    let mut m = m.clone();
    let mut mons = mons.clone();
    let mut path: Vec<JointKey> = Vec::new();
    let verdict = loop {
        let key = joint_key(keys, g, &m.snapshot(lines.as_slice()), shadow, &mons);
        if let Some(v) = memo.get(&key) {
            break v.clone();
        }
        if path.contains(&key) || path.len() > DRAIN_WALK_BOUND {
            break pending_violation_of(&mons);
        }
        path.push(key);
        let mut obs = ProductObserver {
            g: *g,
            shadow: None,
            mons: &mut mons,
            violation: None,
        };
        let stepped = m.drain_step(&mut obs);
        if let Some(v) = obs.violation {
            // A safety event mid-drain. Its detail is position-specific,
            // so return without memoizing the path.
            return Some(violation_of(&mons, &v));
        }
        if !stepped {
            break pending_violation_of(&mons);
        }
    };
    for k in path {
        memo.insert(k, verdict.clone());
    }
    verdict
}

/// Explores the product of one design point's abstract state graph with
/// the monitor automata, to closure, on machine `M`. Returns `Ok(None)`
/// only when `abort` fired.
fn explore_props<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    set: &PropSet,
    abort: &dyn Fn() -> bool,
) -> Result<Option<PropConfigStats>, Box<ReachViolation>> {
    gate(cfg).map_err(|reject| {
        Box::new(ReachViolation {
            diagnostic: gate_diagnostic(reject),
            counterexample: None,
        })
    })?;
    let mut cfg = cfg.clone();
    cfg.check_data = false;
    let (mons0, _) = compile(set, &PropEnv::machine(M::KIND, &cfg, mshrs));
    if mons0.is_empty() {
        return Ok(Some(PropConfigStats::default()));
    }
    let cfg = &cfg;
    // Packages a property violation witnessed by `ops` as a reach-style
    // violation: minimized, with a replayable trace, diagnosed `PRP100`
    // or `PRP101`.
    let violation = |ops: &[Op], fallback: &PropViolation| {
        let (violation, ce) = prop_counterexample::<M>(cfg, mshrs, set, ops, fallback);
        Box::new(ReachViolation {
            diagnostic: violation.diagnostic(),
            counterexample: Some(ce),
        })
    };
    let g = cfg.geometry;
    let lines = universe_lines(cfg);
    let universe = op_universe(cfg);
    let m0 = M::build(cfg.clone(), mshrs).expect("grid configs are valid");
    let shadow0 = ShadowTracker::default();
    let mut keys = KeyBuf::default();
    let mut drain_memo: KeyMap<JointKey, Option<PropViolation>> = KeyMap::default();
    if let Some(pv) = drain_walk(
        &m0,
        &mons0,
        &g,
        &lines,
        &shadow0,
        &mut keys,
        &mut drain_memo,
    ) {
        return Err(violation(&[], &pv));
    }
    let s0 = joint_key(&mut keys, &g, &m0.snapshot(&lines), &shadow0, &mons0);
    // A node: its concrete representative, shadow map, and monitor state.
    let mut bfs = Bfs::new(s0, (m0, shadow0, mons0));
    let mut edges: u64 = 0;

    while let Some((idx, (machine, node_shadow, node_mons))) = bfs.pop() {
        if abort() {
            return Ok(None);
        }
        for &op in &universe {
            let mut m = machine.clone();
            let mut shadow = node_shadow.clone();
            let mut mons = node_mons.clone();
            let mut obs = ProductObserver {
                g,
                shadow: Some(&mut shadow),
                mons: &mut mons,
                violation: None,
            };
            let completed = m.run_op_bounded(op, OP_CYCLE_BUDGET, &mut obs).is_some();
            if !completed && obs.violation.is_none() {
                // The op wedged. Monitors keep watching through the probe
                // window; if an obligation is still pending afterwards,
                // this (stuck) branch can never discharge it. A wedge with
                // no pending obligation is not a *property* failure — the
                // reach checker diagnoses the livelock itself.
                probe_window(&mut m, &mut obs);
            }
            if let Some(v) = obs.violation {
                let pv = violation_of(&mons, &v);
                return Err(violation(&bfs.path(idx, op), &pv));
            }
            if !completed {
                if let Some(pv) = pending_violation_of(&mons) {
                    return Err(violation(&bfs.path(idx, op), &pv));
                }
                continue;
            }
            edges += 1;
            let key = joint_key(&mut keys, &g, &m.snapshot(&lines), &shadow, &mons);
            if bfs.seen(&key) {
                continue;
            }
            if let Some(pv) = drain_walk(&m, &mons, &g, &lines, &shadow, &mut keys, &mut drain_memo)
            {
                return Err(violation(&bfs.path(idx, op), &pv));
            }
            bfs.push(key, idx, op, (m, shadow, mons));
        }
    }
    Ok(Some(PropConfigStats {
        states: bfs.states(),
        edges,
    }))
}

/// Verifies a property set unboundedly over one design point on machine
/// `M`: every property holds on *every* op sequence, of any length, or a
/// minimized counterexample comes back.
///
/// # Errors
///
/// [`ReachViolation`] with `PRP100` (safety), `PRP101` (liveness), or
/// `RCH003` (the configuration is outside the abstractable class).
///
/// # Panics
///
/// Panics if `M::build` rejects `cfg`/`mshrs`.
pub fn check_props_reach_point<M: SimMachine>(
    cfg: &MachineConfig,
    mshrs: Option<usize>,
    set: &PropSet,
) -> Result<PropConfigStats, Box<ReachViolation>> {
    Ok(explore_props::<M>(cfg, mshrs, set, &|| false)?.expect("no abort requested"))
}

/// Verifies a property set over every point of `grid` with `jobs` worker
/// threads; like the other grid checkers the result is identical for
/// every `jobs` value (only `wall_ms` varies).
///
/// # Errors
///
/// The first violating point's [`ReachViolation`], in grid order.
pub fn check_props_reach(
    grid: &CheckGrid,
    set: &PropSet,
    jobs: usize,
) -> Result<PropReport, Box<ReachViolation>> {
    let report = match grid.kind() {
        MachineKind::Blocking => props_grid::<Machine>(grid, set, jobs),
        MachineKind::NonBlocking => props_grid::<NonBlockingMachine>(grid, set, jobs),
    }?;
    Ok(PropReport {
        properties: set.props.len() as u64,
        configs: report.configs,
        states_explored: report.states_explored,
        edges: report.edges,
        wall_ms: report.wall_ms,
    })
}

fn props_grid<M: SimMachine>(
    grid: &CheckGrid,
    set: &PropSet,
    jobs: usize,
) -> Result<CheckReport, Box<ReachViolation>> {
    grid.run(jobs, |cfg, mshrs, abort| {
        let stats = explore_props::<M>(cfg, mshrs, set, abort)?.unwrap_or_default();
        Ok([stats.states, stats.edges, 0])
    })
    .map_err(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::builtin_library;
    use wbsim_types::divergence::FaultInjection;
    use wbsim_types::policy::{LoadHazardPolicy, RetirementPolicy};

    fn blocking_grid(fault: FaultInjection) -> CheckGrid {
        CheckGrid::new(MachineKind::Blocking, Some(fault), None).expect("full grid")
    }

    fn grid_cfg(depth: usize, hw: usize, hazard: LoadHazardPolicy) -> MachineConfig {
        let mut cfg = MachineConfig::baseline();
        cfg.write_buffer.depth = depth;
        cfg.write_buffer.retirement = RetirementPolicy::RetireAt(hw);
        cfg.write_buffer.hazard = hazard;
        cfg.check_data = false;
        cfg
    }

    #[test]
    fn library_is_clean_on_a_sample_config_unboundedly() {
        let set = builtin_library();
        let cfg = grid_cfg(2, 1, LoadHazardPolicy::ReadFromWb);
        let stats = check_props_reach_point::<Machine>(&cfg, None, &set).expect("library holds");
        assert!(stats.states > 1);
        assert!(stats.edges >= stats.states - 1);
    }

    #[test]
    fn library_is_clean_on_both_grids() {
        let set = builtin_library();
        for kind in MachineKind::ALL {
            let grid = CheckGrid::new(kind, None, None).expect("full grid");
            let report = check_props_reach(&grid, &set, 2).expect("library holds");
            assert_eq!(report.configs, 40, "{kind:?}");
            assert_eq!(report.properties, 6);
            assert!(report.states_explored > 0);
        }
    }

    #[test]
    fn starved_retirement_is_caught_by_eventual_drain() {
        let set = builtin_library();
        let v = check_props_reach(&blocking_grid(FaultInjection::StarveRetirement), &set, 2)
            .expect_err("a starved buffer cannot drain");
        assert_eq!(v.diagnostic.code, "PRP101");
        assert!(v.diagnostic.message.contains("eventual-drain"));
        let ce = v
            .counterexample
            .expect("liveness violations carry a witness");
        assert_eq!(ce.ops.len(), 1, "one store suffices");
        assert!(!ce.trace.iter().any(|l| l.contains("retire-complete")));
    }

    #[test]
    fn skipped_forwarding_is_caught_by_no_stale_forward() {
        let set = builtin_library();
        let v = check_props_reach(&blocking_grid(FaultInjection::SkipWbForwarding), &set, 2)
            .expect_err("stale fills violate the forwarding window");
        assert_eq!(v.diagnostic.code, "PRP100");
        assert!(v.diagnostic.message.contains("no-stale-forward"));
        let ce = v.counterexample.expect("safety violations carry a witness");
        assert!(
            ce.trace.iter().any(|l| l.contains("l2-fill")),
            "the witness trace contains the stale fill"
        );
    }

    #[test]
    fn empty_property_set_is_trivially_clean() {
        let set = PropSet::default();
        let cfg = grid_cfg(1, 1, LoadHazardPolicy::FlushFull);
        let stats =
            check_props_reach_point::<Machine>(&cfg, None, &set).expect("nothing to violate");
        assert_eq!(stats, PropConfigStats::default());
    }

    #[test]
    fn out_of_class_config_is_rejected_with_rch003() {
        let set = builtin_library();
        let mut cfg = grid_cfg(2, 1, LoadHazardPolicy::ReadFromWb);
        cfg.write_buffer.order = wbsim_types::policy::RetirementOrder::Lru;
        let v = check_props_reach_point::<Machine>(&cfg, None, &set)
            .expect_err("LRU is outside the class");
        assert_eq!(v.diagnostic.code, "RCH003");
    }
}
