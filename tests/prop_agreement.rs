//! Bounded / unbounded agreement for the temporal property layer.
//!
//! The same built-in property library is checked two independent ways:
//! bounded, by driving every op sequence up to a small length through the
//! concrete machine with monitors attached
//! ([`wbsim::check::first_prop_violation`]); and unbounded, by exploring
//! the abstract-state / monitor product to a fixpoint
//! ([`wbsim::check::check_props_reach_point`]). On every grid cell —
//! (config, machine, mshrs, fault) — the two verdicts must agree: clean
//! together, or violated together with the *same property* in the *same
//! class* (safety vs liveness). The library's known witnesses fit inside
//! three operations (`RetireAt(1)` cells need a second store to keep the
//! entry buffered while the first drains), so `max_ops = 3` is enough for
//! the bounded side to see everything the product proves.

use wbsim::check::{
    builtin_library, check_props_reach_point, first_prop_violation, CheckGrid, PropSet,
    ReachViolation,
};
use wbsim::sim::{Machine, NonBlockingMachine, SimMachine};
use wbsim::types::divergence::FaultInjection;

const MAX_OPS: u32 = 3;

/// The property name and liveness class a product-side violation names:
/// the diagnostic's field path is `props.<name>` and its code is
/// `PRP101` for liveness, `PRP100` for safety.
fn product_verdict(v: &ReachViolation) -> (String, bool) {
    let name = v
        .diagnostic
        .field_path
        .strip_prefix("props.")
        .unwrap_or(&v.diagnostic.field_path)
        .to_string();
    (name, v.diagnostic.code == "PRP101")
}

fn assert_cell_agrees(
    cell: &str,
    set: &PropSet,
    bounded: Option<(String, bool)>,
    unbounded: Result<(), Box<ReachViolation>>,
) {
    let _ = set;
    match (bounded, unbounded) {
        (None, Ok(())) => {}
        (Some((b_name, b_live)), Err(v)) => {
            let (u_name, u_live) = product_verdict(&v);
            assert_eq!(b_name, u_name, "{cell}: property identity disagrees");
            assert_eq!(b_live, u_live, "{cell}: liveness class disagrees");
        }
        (Some((name, _)), Ok(())) => {
            panic!("{cell}: bounded found '{name}' but the product is clean")
        }
        (None, Err(v)) => {
            let (name, _) = product_verdict(&v);
            panic!("{cell}: product found '{name}' but bounded (max_ops {MAX_OPS}) is clean")
        }
    }
}

fn agree_on_grid<M: SimMachine>(fault: Option<FaultInjection>, mshrs: Option<usize>) {
    let set = builtin_library();
    for (cfg, m) in CheckGrid::new(M::KIND, fault, mshrs)
        .expect("grid")
        .points()
        .iter()
        .cloned()
    {
        let cell = format!(
            "{} depth={} hazard={:?} mshrs={m:?} fault={fault:?}",
            M::KIND.name(),
            cfg.write_buffer.depth,
            cfg.write_buffer.hazard
        );
        let bounded = first_prop_violation::<M>(&cfg, m, &set, MAX_OPS, &|| false)
            .map(|(_, v)| (v.property, v.liveness));
        let unbounded = check_props_reach_point::<M>(&cfg, m, &set).map(|_| ());
        assert_cell_agrees(&cell, &set, bounded, unbounded);
    }
}

fn agree_on_blocking_grid(fault: Option<FaultInjection>) {
    agree_on_grid::<Machine>(fault, None);
}

fn agree_on_nonblocking_grid(fault: Option<FaultInjection>, mshrs: Option<usize>) {
    agree_on_grid::<NonBlockingMachine>(fault, mshrs);
}

#[test]
fn healthy_blocking_grid_agrees_clean() {
    agree_on_blocking_grid(None);
}

#[test]
fn starved_retirement_blocking_grid_agrees_on_eventual_drain() {
    agree_on_blocking_grid(Some(FaultInjection::StarveRetirement));
}

#[test]
fn skipped_forwarding_blocking_grid_agrees_per_cell() {
    // Only the read-from-wb cells violate no-stale-forward; the rest are
    // clean on both sides — the per-cell loop checks both outcomes.
    agree_on_blocking_grid(Some(FaultInjection::SkipWbForwarding));
}

#[test]
fn healthy_nonblocking_grid_agrees_clean() {
    agree_on_nonblocking_grid(None, Some(2));
}

#[test]
fn starved_retirement_nonblocking_grid_agrees_on_eventual_drain() {
    agree_on_nonblocking_grid(Some(FaultInjection::StarveRetirement), Some(2));
}
