//! Pinned counterexamples for every injected fault the model checkers
//! catch, on both machines.
//!
//! `checker_state_counts.rs` pins what a *clean* exploration covers; this
//! file pins what a *dirty* one reports. For each (checker, machine,
//! fault) cell that is caught — the bounded checker at `--max-ops 3`,
//! reach, the built-in property library, and refine — the test pins the
//! whole report: the diagnostic code and message, the counterexample's
//! violation string, its design point, the minimized op list, and an
//! FNV-1a-64 digest of the full JSONL trace exactly as `wbsim check --out`
//! writes it (one event per line, each newline-terminated).
//!
//! The digest is computed here rather than with std's `DefaultHasher`,
//! whose output is not stable across Rust releases.
//!
//! A deliberate change to a checker's search order, minimizer or wording
//! moves these pins; re-record them from the failure message and say why
//! in the commit message.

use wbsim::check::{
    builtin_library, check_exhaustive, check_props_reach, check_reach, check_refine, CheckGrid,
    Counterexample,
};
use wbsim::sim::MachineKind;
use wbsim::types::divergence::FaultInjection;

/// Worker threads per grid; results are identical for every count.
const JOBS: usize = 2;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The full grid of one machine with `fault` injected.
fn grid(nonblocking: bool, fault: FaultInjection) -> CheckGrid {
    let kind = if nonblocking {
        MachineKind::NonBlocking
    } else {
        MachineKind::Blocking
    };
    CheckGrid::new(kind, Some(fault), None).expect("full grid")
}

/// One caught (machine, fault) cell and everything its report shows.
/// `code` and `message` are empty for the bounded checker, whose
/// counterexamples carry no diagnostic.
struct Pin {
    nonblocking: bool,
    fault: FaultInjection,
    code: &'static str,
    message: &'static str,
    violation: &'static str,
    point: &'static str,
    ops: &'static str,
    events: usize,
    fnv: u64,
}

/// The report a checker produced for one cell: diagnostic code and
/// message, and the counterexample.
type Found = (&'static str, String, Box<Counterexample>);

fn assert_pinned(checker: &str, pins: &[Pin], run: impl Fn(bool, FaultInjection) -> Option<Found>) {
    for pin in pins {
        let cell = format!("{checker} nonblocking={} {:?}", pin.nonblocking, pin.fault);
        let (code, message, ce) =
            run(pin.nonblocking, pin.fault).unwrap_or_else(|| panic!("{cell}: fault not caught"));
        let mut jsonl = String::new();
        for line in &ce.trace {
            jsonl.push_str(line);
            jsonl.push('\n');
        }
        let point = format!(
            "mshrs {:?} depth {} {:?} {:?}",
            ce.mshrs,
            ce.config.write_buffer.depth,
            ce.config.write_buffer.retirement,
            ce.config.write_buffer.hazard
        );
        assert_eq!(code, pin.code, "{cell}: diagnostic code");
        assert_eq!(message, pin.message, "{cell}: diagnostic message");
        assert_eq!(ce.violation, pin.violation, "{cell}: violation");
        assert_eq!(point, pin.point, "{cell}: design point");
        assert_eq!(format!("{:?}", ce.ops), pin.ops, "{cell}: minimized ops");
        assert_eq!(ce.trace.len(), pin.events, "{cell}: trace length");
        assert_eq!(
            fnv1a64(jsonl.as_bytes()),
            pin.fnv,
            "{cell}: JSONL digest (actual shown left)"
        );
    }
}

#[test]
fn exhaustive_counterexamples_are_pinned() {
    let pins = [
        Pin {
            nonblocking: false,
            fault: FaultInjection::SkipWbForwarding,
            code: "",
            message: "",
            violation: "load #0 at Addr(0) observed 0x1, architectural model says 0x2 (stale or lost store)",
            point: "mshrs None depth 2 RetireAt(1) ReadFromWb",
            ops: "[Store(Addr(0)), Store(Addr(0)), Load(Addr(0))]",
            events: 23,
            fnv: 0x6ea0b2329a9ee388,
        },
        Pin {
            nonblocking: false,
            fault: FaultInjection::StarveRetirement,
            code: "",
            message: "",
            violation: "run exceeded the 10000-cycle liveness budget",
            point: "mshrs None depth 1 RetireAt(1) FlushFull",
            ops: "[Store(Addr(32)), Store(Addr(0))]",
            events: 20000,
            fnv: 0x1be565c8415160cc,
        },
        Pin {
            nonblocking: true,
            fault: FaultInjection::SkipWbForwarding,
            code: "",
            message: "",
            violation: "final memory at Addr(0): machine reads 0x0, architectural model says 0x1",
            point: "mshrs Some(1) depth 1 RetireAt(1) ReadFromWb",
            ops: "[Load(Addr(0)), Store(Addr(0))]",
            events: 19,
            fnv: 0xd423e75c78f719e0,
        },
        Pin {
            nonblocking: true,
            fault: FaultInjection::StarveRetirement,
            code: "",
            message: "",
            violation: "run exceeded the 10000-cycle liveness budget",
            point: "mshrs Some(1) depth 1 RetireAt(1) ReadFromWb",
            ops: "[Store(Addr(32)), Store(Addr(0))]",
            events: 20000,
            fnv: 0x1be565c8415160cc,
        },
    ];
    assert_pinned("exhaustive", &pins, |nonblocking, fault| {
        check_exhaustive(&grid(nonblocking, fault), 3, JOBS)
            .err()
            .map(|ce| ("", String::new(), ce))
    });
}

#[test]
fn reach_counterexamples_are_pinned() {
    let pins = [
        Pin {
            nonblocking: false,
            fault: FaultInjection::SkipWbForwarding,
            code: "RCH001",
            message: "safety invariant violated at a reachable state: cycle 12: load of Addr(0) via L2 fill observed 0x1, freshest store is 0x2 (stale or lost store)",
            violation: "load #0 at Addr(0) observed 0x1, architectural model says 0x2 (stale or lost store)",
            point: "mshrs None depth 2 RetireAt(1) ReadFromWb",
            ops: "[Store(Addr(0)), Store(Addr(0)), Load(Addr(0))]",
            events: 23,
            fnv: 0x6ea0b2329a9ee388,
        },
        Pin {
            nonblocking: false,
            fault: FaultInjection::StarveRetirement,
            code: "RCH002",
            message: "livelock: a reachable state cycles under the fair drain schedule without retiring anything (1 ops reach it)",
            violation: "livelock: a reachable state cycles under the fair drain schedule without retiring anything",
            point: "mshrs None depth 1 RetireAt(1) FlushFull",
            ops: "[Store(Addr(0))]",
            events: 4,
            fnv: 0xc355aa306f4eb31b,
        },
        Pin {
            nonblocking: true,
            fault: FaultInjection::SkipWbForwarding,
            code: "RCH001",
            message: "safety invariant violated at a reachable state: architectural read of Addr(0) is 0x0, freshest store is 0x1 (lost or stale store)",
            violation: "final memory at Addr(0): machine reads 0x0, architectural model says 0x1",
            point: "mshrs Some(1) depth 1 RetireAt(1) ReadFromWb",
            ops: "[Load(Addr(0)), Store(Addr(0))]",
            events: 19,
            fnv: 0xd423e75c78f719e0,
        },
        Pin {
            nonblocking: true,
            fault: FaultInjection::StarveRetirement,
            code: "RCH002",
            message: "livelock: a reachable state cycles under the fair drain schedule without retiring anything (1 ops reach it)",
            violation: "livelock: a reachable state cycles under the fair drain schedule without retiring anything",
            point: "mshrs Some(1) depth 1 RetireAt(1) ReadFromWb",
            ops: "[Store(Addr(0))]",
            events: 4,
            fnv: 0xc355aa306f4eb31b,
        },
    ];
    assert_pinned("reach", &pins, |nonblocking, fault| {
        let v = check_reach(&grid(nonblocking, fault), JOBS).err()?;
        Some((v.diagnostic.code, v.diagnostic.message, v.counterexample?))
    });
}

#[test]
fn prop_counterexamples_are_pinned() {
    let pins = [
        Pin {
            nonblocking: false,
            fault: FaultInjection::SkipWbForwarding,
            code: "PRP100",
            message: r#"safety property 'no-stale-forward' (while a store is buffered, a load of it is answered by L1 or the buffer, never by a raw L2 fill) violated: banned event {"event":"load-resolved","now":12,"addr":0,"value":1,"source":"l2-fill"} occurred inside an open store-accepted window"#,
            violation: r#"safety property 'no-stale-forward' (while a store is buffered, a load of it is answered by L1 or the buffer, never by a raw L2 fill) violated: banned event {"event":"load-resolved","now":12,"addr":0,"value":1,"source":"l2-fill"} occurred inside an open store-accepted window"#,
            point: "mshrs None depth 2 RetireAt(1) ReadFromWb",
            ops: "[Store(Addr(0)), Store(Addr(0)), Load(Addr(0))]",
            events: 32,
            fnv: 0x307fb126427aa04f,
        },
        Pin {
            nonblocking: false,
            fault: FaultInjection::StarveRetirement,
            code: "PRP101",
            message: "liveness property 'eventual-drain' (every accepted store is eventually followed by a retirement) violated: an obligation is still awaiting a retire-complete event",
            violation: "liveness property 'eventual-drain' (every accepted store is eventually followed by a retirement) violated: an obligation is still awaiting a retire-complete event",
            point: "mshrs None depth 1 RetireAt(1) FlushFull",
            ops: "[Store(Addr(0))]",
            events: 4,
            fnv: 0xc355aa306f4eb31b,
        },
        Pin {
            nonblocking: true,
            fault: FaultInjection::StarveRetirement,
            code: "PRP101",
            message: "liveness property 'eventual-drain' (every accepted store is eventually followed by a retirement) violated: an obligation is still awaiting a retire-complete event",
            violation: "liveness property 'eventual-drain' (every accepted store is eventually followed by a retirement) violated: an obligation is still awaiting a retire-complete event",
            point: "mshrs Some(1) depth 1 RetireAt(1) ReadFromWb",
            ops: "[Store(Addr(0))]",
            events: 4,
            fnv: 0xc355aa306f4eb31b,
        },
    ];
    let set = builtin_library();
    assert_pinned("prop", &pins, |nonblocking, fault| {
        let v = check_props_reach(&grid(nonblocking, fault), &set, JOBS).err()?;
        Some((v.diagnostic.code, v.diagnostic.message, v.counterexample?))
    });
}

#[test]
fn refine_counterexamples_are_pinned() {
    let pins = [
        Pin {
            nonblocking: false,
            fault: FaultInjection::OvershootSkip,
            code: "REF100",
            message: r#"event streams diverge at event #8 (cycle 7, inside a claimed wait-span skip): event-driven emitted {"event":"cycle-end","now":7,"occupancy":0}, reference emitted {"event":"fill-installed","now":7,"line":0,"for_store":false,"merged_wb":false}"#,
            violation: r#"event streams diverge at event #8 (cycle 7, inside a claimed wait-span skip): event-driven emitted {"event":"cycle-end","now":7,"occupancy":0}, reference emitted {"event":"fill-installed","now":7,"line":0,"for_store":false,"merged_wb":false}"#,
            point: "mshrs None depth 1 RetireAt(1) FlushFull",
            ops: "[Load(Addr(0))]",
            events: 10,
            fnv: 0x867e53b7f1fe5a9b,
        },
        Pin {
            nonblocking: true,
            fault: FaultInjection::OvershootSkip,
            code: "REF100",
            message: r#"end-of-stream drain: event streams diverge at event #5 (cycle 6, inside a claimed wait-span skip): event-driven emitted {"event":"cycle-end","now":6,"occupancy":1}, reference emitted {"event":"retire-complete","now":6,"id":0,"line":0,"lifetime":6,"valid_words":1,"flush":false}"#,
            violation: r#"end-of-stream drain: event streams diverge at event #5 (cycle 6, inside a claimed wait-span skip): event-driven emitted {"event":"cycle-end","now":6,"occupancy":1}, reference emitted {"event":"retire-complete","now":6,"id":0,"line":0,"lifetime":6,"valid_words":1,"flush":false}"#,
            point: "mshrs Some(1) depth 1 RetireAt(1) ReadFromWb",
            ops: "[Store(Addr(0))]",
            events: 10,
            fnv: 0x2cc0a9118e03e053,
        },
    ];
    assert_pinned("refine", &pins, |nonblocking, fault| {
        let v = check_refine(&grid(nonblocking, fault), JOBS).err()?;
        Some((v.diagnostic.code, v.diagnostic.message, v.counterexample?))
    });
}
