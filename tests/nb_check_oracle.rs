//! Property-based cross-check of the two non-blocking oracles: the
//! bounded model checker's per-sequence verdict
//! (`wbsim_check::check_sequence` on the non-blocking machine, built on
//! the bounded checker's event-stream observer) against the differential
//! harness (`wbsim_oracle::diff_run_nonblocking`). Both replay the same
//! sequence on the same MSHR machine and compare it with the untimed
//! `ArchModel`; they must never disagree about whether a run is clean —
//! on the healthy machine *and* under the injected forwarding fault,
//! where both must flag the stale data.
//!
//! Addresses come from the shared 64-line colliding footprint
//! (`wbsim::trace::strategies`), so MSHR merges, buffer hits on
//! outstanding lines, and fill/retire races happen constantly.
//! `StarveRetirement` is deliberately excluded: it livelocks the machine,
//! which the bounded checker reports via its cycle budget but the
//! unbudgeted differential runner cannot terminate on.

use proptest::prelude::*;

use wbsim::check::check_sequence;
use wbsim::oracle::diff_run_nonblocking;
use wbsim::sim::NonBlockingMachine;
use wbsim::trace::strategies::arb_op;
use wbsim::types::config::{MachineConfig, WriteBufferConfig};
use wbsim::types::divergence::FaultInjection;
use wbsim::types::op::Op;
use wbsim::types::policy::{LoadHazardPolicy, RetirementPolicy};
use wbsim::types::testutil::a;

fn nb_cfg(depth: usize, hw: usize, fault: Option<FaultInjection>) -> MachineConfig {
    MachineConfig {
        write_buffer: WriteBufferConfig {
            depth,
            retirement: RetirementPolicy::RetireAt(hw),
            hazard: LoadHazardPolicy::ReadFromWb,
            ..WriteBufferConfig::baseline()
        },
        check_data: false,
        fault,
        ..MachineConfig::baseline()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bounded NB checker and the differential NB harness agree on
    /// every random sequence: both clean on the healthy machine, both
    /// dirty under the injected forwarding fault (whenever either one
    /// can see it).
    #[test]
    fn nb_checker_and_differential_oracle_agree(
        ops in proptest::collection::vec(arb_op(), 1..120),
        depth in 1usize..=6,
        hw_off in 0usize..6,
        mshrs in 1usize..=4,
        inject in any::<bool>(),
    ) {
        let hw = 1 + hw_off % depth;
        let fault = inject.then_some(FaultInjection::SkipWbForwarding);
        let cfg = nb_cfg(depth, hw, fault);
        let bounded = check_sequence::<NonBlockingMachine>(&cfg, Some(mshrs), &ops);
        let diff = diff_run_nonblocking(&cfg, mshrs, &ops)
            .expect("read-from-WB configs are valid");
        prop_assert_eq!(
            bounded.is_ok(),
            diff.is_ok(),
            "oracles disagree (depth {} hw {} mshrs {} fault {:?}): bounded {:?}, diff {:?}",
            depth, hw, mshrs, fault, bounded.err(), diff.err()
        );
    }

    /// On the healthy machine both verdicts are not merely equal but
    /// clean — a regression here means an invariant started misfiring on
    /// correct behavior.
    #[test]
    fn healthy_machine_is_clean_under_both_oracles(
        ops in proptest::collection::vec(arb_op(), 1..120),
        depth in 1usize..=6,
        mshrs in 1usize..=4,
    ) {
        let cfg = nb_cfg(depth, 2.min(depth), None);
        prop_assert!(check_sequence::<NonBlockingMachine>(&cfg, Some(mshrs), &ops).is_ok());
        prop_assert!(diff_run_nonblocking(&cfg, mshrs, &ops).unwrap().is_ok());
    }
}

/// Determinism anchor for the property above: the canonical two-op
/// witness of the forwarding fault is flagged by both oracles.
#[test]
fn both_oracles_flag_the_injected_forwarding_fault() {
    let cfg = nb_cfg(4, 2, Some(FaultInjection::SkipWbForwarding));
    let ops = vec![Op::Store(a(0, 0)), Op::Load(a(0, 0))];
    assert!(check_sequence::<NonBlockingMachine>(&cfg, Some(1), &ops).is_err());
    assert!(diff_run_nonblocking(&cfg, 1, &ops).unwrap().is_err());
}
