//! One interface over both machines, for code that must drive either.
//!
//! The model checkers explore the blocking [`Machine`] and the §4.3
//! [`NonBlockingMachine`] with the same algorithms. [`SimMachine`] is the
//! surface those algorithms need — construction, engine control, the
//! single-step and per-op transitions, snapshots and the architectural
//! probes — implemented for both machines by forwarding to their inherent
//! methods. Generic code is monomorphized per machine, so nothing on the
//! per-cycle path goes through a vtable.
//!
//! The two real differences between the machines are trait items rather
//! than branches in the callers: [`SimMachine::OVERLAP`] selects the stall
//! taxonomy rule, and [`SimMachine::check_structure`] enforces the MSHR
//! invariants the event stream cannot see (trivially `Ok` when loads
//! block). [`MachineKind`] names a machine at run time — the CLI's
//! `--machine` flag and the job manifest's `machine` field — and callers
//! dispatch on it once, to a `::<Machine>` or `::<NonBlockingMachine>`
//! instantiation.

use wbsim_types::addr::{Addr, LineAddr};
use wbsim_types::config::{ConfigError, MachineConfig};
use wbsim_types::op::Op;
use wbsim_types::stats::SimStats;

use crate::machine::{Engine, Machine, MachineSnapshot, SkipSpan};
use crate::nonblocking::NonBlockingMachine;
use crate::observer::Observer;

/// Which machine a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineKind {
    /// The blocking-load machine of the paper's main sections.
    Blocking,
    /// The non-blocking (MSHR) machine of §4.3.
    NonBlocking,
}

impl MachineKind {
    /// Both machines, blocking first.
    pub const ALL: [MachineKind; 2] = [MachineKind::Blocking, MachineKind::NonBlocking];

    /// Wire token (`blocking` / `nonblocking`), as used by `--machine`,
    /// manifests, cache keys and the property language's `machine` symbol.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MachineKind::Blocking => "blocking",
            MachineKind::NonBlocking => "nonblocking",
        }
    }

    /// Parses a wire token, also accepting the `non-blocking` spelling.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "blocking" => Some(MachineKind::Blocking),
            "nonblocking" | "non-blocking" => Some(MachineKind::NonBlocking),
            _ => None,
        }
    }
}

/// The machine surface the model checkers drive. Every method forwards to
/// the inherent method of the same name; see [`Machine`] and
/// [`NonBlockingMachine`] for the semantics.
pub trait SimMachine: Clone + Send {
    /// Which machine this is.
    const KIND: MachineKind;

    /// The stall-taxonomy rule. `false`: Table-3 causes partition the
    /// cycles, so at most one stall is charged per cycle. `true` (misses
    /// overlap execution): a buffer-full store and an L2-read-access
    /// charge may share a cycle, but no cause repeats within a cycle and
    /// no other cause occurs.
    const OVERLAP: bool;

    /// Builds the machine. `mshrs` is the miss-register count of the
    /// non-blocking machine (`None` there is an error) and is ignored by
    /// the blocking one.
    ///
    /// # Errors
    ///
    /// The constructor's [`ConfigError`].
    fn build(cfg: MachineConfig, mshrs: Option<usize>) -> Result<Self, ConfigError>;

    /// Selects the run-loop [`Engine`].
    fn set_engine(&mut self, engine: Engine);

    /// Switches recording of claimed [`SkipSpan`]s on or off.
    fn set_record_skips(&mut self, record: bool);

    /// Drains the recorded [`SkipSpan`]s.
    fn take_skips(&mut self) -> Vec<SkipSpan>;

    /// The current simulation timestamp.
    fn now(&self) -> u64;

    /// Advances exactly one cycle; `false` once the stream is exhausted
    /// and all work has drained.
    fn step<I, O>(&mut self, iter: &mut I, obs: &mut O) -> bool
    where
        I: Iterator<Item = Op>,
        O: Observer;

    /// Runs one op from an op boundary by single-stepping; `None` after
    /// `max_cycles` cycles without completing.
    fn run_op_bounded<O: Observer>(&mut self, op: Op, max_cycles: u64, obs: &mut O) -> Option<u64>;

    /// [`SimMachine::run_op_bounded`] through the engine-selected loop.
    fn run_op_skipping<O: Observer>(&mut self, op: Op, max_cycles: u64, obs: &mut O)
        -> Option<u64>;

    /// Runs the end-of-stream tail through the engine-selected loop.
    fn run_to_end_bounded<O: Observer>(&mut self, max_cycles: u64, obs: &mut O) -> Option<u64>;

    /// One cycle of the forced fair drain; `false` once quiescent.
    fn drain_step<O: Observer>(&mut self, obs: &mut O) -> bool;

    /// The value-level structural snapshot over `lines`.
    fn snapshot(&self, lines: &[LineAddr]) -> MachineSnapshot;

    /// The accumulated statistics.
    fn stats(&self) -> &SimStats;

    /// Current write-buffer occupancy in entries.
    fn wb_occupancy(&self) -> usize;

    /// Dirty L1 victims that allocated a write-buffer entry.
    fn wb_victim_allocs(&self) -> u64;

    /// The architecturally visible value of the word at `addr`.
    fn read_word_architectural(&self, addr: Addr) -> u64;

    /// The structural invariants held in machine state rather than the
    /// event stream: at most the configured number of outstanding misses,
    /// never two to the same line. Always `Ok` on the blocking machine.
    ///
    /// # Errors
    ///
    /// A description of the first broken invariant.
    fn check_structure(&self) -> Result<(), String>;
}

/// Implements the forwarding methods shared verbatim by both machines.
macro_rules! forward_sim_machine {
    () => {
        fn set_engine(&mut self, engine: Engine) {
            Self::set_engine(self, engine);
        }
        fn set_record_skips(&mut self, record: bool) {
            Self::set_record_skips(self, record);
        }
        fn take_skips(&mut self) -> Vec<SkipSpan> {
            Self::take_skips(self)
        }
        fn now(&self) -> u64 {
            Self::now(self)
        }
        fn step<I, O>(&mut self, iter: &mut I, obs: &mut O) -> bool
        where
            I: Iterator<Item = Op>,
            O: Observer,
        {
            Self::step(self, iter, obs)
        }
        fn run_op_bounded<O: Observer>(
            &mut self,
            op: Op,
            max_cycles: u64,
            obs: &mut O,
        ) -> Option<u64> {
            Self::run_op_bounded(self, op, max_cycles, obs)
        }
        fn run_op_skipping<O: Observer>(
            &mut self,
            op: Op,
            max_cycles: u64,
            obs: &mut O,
        ) -> Option<u64> {
            Self::run_op_skipping(self, op, max_cycles, obs)
        }
        fn run_to_end_bounded<O: Observer>(&mut self, max_cycles: u64, obs: &mut O) -> Option<u64> {
            Self::run_to_end_bounded(self, max_cycles, obs)
        }
        fn drain_step<O: Observer>(&mut self, obs: &mut O) -> bool {
            Self::drain_step(self, obs)
        }
        fn snapshot(&self, lines: &[LineAddr]) -> MachineSnapshot {
            Self::snapshot(self, lines)
        }
        fn stats(&self) -> &SimStats {
            Self::stats(self)
        }
        fn wb_occupancy(&self) -> usize {
            Self::wb_occupancy(self)
        }
        fn wb_victim_allocs(&self) -> u64 {
            Self::wb_victim_allocs(self)
        }
        fn read_word_architectural(&self, addr: Addr) -> u64 {
            Self::read_word_architectural(self, addr)
        }
    };
}

impl SimMachine for Machine {
    const KIND: MachineKind = MachineKind::Blocking;
    const OVERLAP: bool = false;

    fn build(cfg: MachineConfig, _mshrs: Option<usize>) -> Result<Self, ConfigError> {
        Machine::new(cfg)
    }

    forward_sim_machine!();

    fn check_structure(&self) -> Result<(), String> {
        Ok(())
    }
}

impl SimMachine for NonBlockingMachine {
    const KIND: MachineKind = MachineKind::NonBlocking;
    const OVERLAP: bool = true;

    fn build(cfg: MachineConfig, mshrs: Option<usize>) -> Result<Self, ConfigError> {
        // A missing count reaches the constructor's "at least 1" check.
        NonBlockingMachine::new(cfg, mshrs.unwrap_or(0))
    }

    forward_sim_machine!();

    fn check_structure(&self) -> Result<(), String> {
        let lines = self.mshr_lines();
        if lines.len() > self.max_mshrs() {
            return Err(format!(
                "{} outstanding misses exceed the {} MSHRs",
                lines.len(),
                self.max_mshrs()
            ));
        }
        for (i, line) in lines.iter().enumerate() {
            if lines[..i].contains(line) {
                return Err(format!(
                    "two MSHRs outstanding for line {line:?}; secondary misses must merge"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use crate::testutil::{a, nb_cfg};

    #[test]
    fn kind_tokens_round_trip() {
        for kind in MachineKind::ALL {
            assert_eq!(MachineKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(
            MachineKind::from_name("non-blocking"),
            Some(MachineKind::NonBlocking)
        );
        assert_eq!(MachineKind::from_name("mshr"), None);
    }

    /// Driving a machine through the trait is driving it through its
    /// inherent methods: same cycles, same statistics.
    fn run_generic<M: SimMachine>(cfg: MachineConfig, mshrs: Option<usize>, ops: &[Op]) -> u64 {
        let mut m = M::build(cfg, mshrs).expect("valid configuration");
        let mut iter = ops.iter().copied();
        while m.step(&mut iter, &mut NullObserver) {}
        assert!(m.check_structure().is_ok());
        m.now()
    }

    #[test]
    fn trait_runs_match_inherent_runs() {
        let ops = [Op::Store(a(0, 0)), Op::Load(a(1, 0)), Op::Load(a(0, 0))];
        let cfg = nb_cfg();
        let mut b = Machine::new(cfg.clone()).unwrap();
        let want = b.run(ops.iter().copied()).cycles;
        assert_eq!(run_generic::<Machine>(cfg.clone(), None, &ops), want);
        let mut nb = NonBlockingMachine::new(cfg.clone(), 2).unwrap();
        let want = nb.run(ops.iter().copied()).cycles;
        assert_eq!(
            run_generic::<NonBlockingMachine>(cfg.clone(), Some(2), &ops),
            want
        );
        assert!(NonBlockingMachine::build(cfg, None).is_err());
    }
}
