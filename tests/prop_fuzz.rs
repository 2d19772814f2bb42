//! Property fuzzing for the `.wbp` temporal property parser
//! ([`wbsim::check::parse_props`]).
//!
//! The property layer accepts user-written files, so the parser is an
//! input boundary: it must never panic, and everything it rejects must
//! come back as structured `PRP00x` [`Diagnostic`]s from the unified
//! registry. These suites drive it with randomized inputs:
//!
//! * grammatically valid files (generated from the grammar's own
//!   productions) always parse, preserve property names and order, and
//!   compile against both a bound and an unbound environment;
//! * mangling an event tag in a valid file yields a `PRP002` unknown-tag
//!   diagnostic, never a panic or a silent acceptance;
//! * every prefix of a valid file parses or fails with `PRP` codes;
//! * arbitrary byte junk never panics and never produces diagnostics
//!   outside the registered `PRP` family.

use proptest::prelude::*;

use wbsim::check::{compile_props, parse_props, PropEnv};
use wbsim::sim::MachineKind;
use wbsim::types::config::MachineConfig;
use wbsim::types::diagnostics::{registry_entry, Diagnostic, Severity};

/// Distinct property names (the parser rejects duplicates as `PRP005`).
const NAMES: &[&str] = &[
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
];

/// The full 11-tag event alphabet, as `.wbp` surface syntax.
const TAGS: &[&str] = &[
    "store-accepted",
    "retire-start",
    "retire-complete",
    "hazard-triggered",
    "stall-cycle",
    "fill-installed",
    "victim-writeback",
    "port-granted",
    "load-resolved",
    "load-miss",
    "cycle-end",
];

fn arb_tag() -> impl Strategy<Value = &'static str> {
    any::<u64>().prop_map(|i| TAGS[(i % TAGS.len() as u64) as usize])
}

/// One body per temporal operator, instantiated at random tags — every
/// grammar production is exercised.
fn arb_body() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_tag().prop_map(|t| format!("always {t};")),
        arb_tag().prop_map(|t| format!("never {t};")),
        arb_tag().prop_map(|t| format!("eventually {t};")),
        (arb_tag(), arb_tag()).prop_map(|(a, b)| format!("after {a} eventually {b};")),
        (arb_tag(), arb_tag(), arb_tag())
            .prop_map(|(a, b, c)| format!("after {a} until {b} never {c};")),
        (0u32..5, arb_tag(), arb_tag(), arb_tag())
            .prop_map(|(k, a, b, c)| format!("at_most {k} {a} between {b} and {c};")),
        Just("increasing retire-complete.id;".to_string()),
        (0u64..16).prop_map(|d| format!("always cycle-end[occupancy <= {d}];")),
        Just("never stall-cycle[kind = buffer-full];".to_string()),
    ]
}

/// A whole valid file: 1..=8 distinctly named properties, optionally
/// described, over random bodies.
fn arb_file() -> impl Strategy<Value = (usize, String)> {
    (
        proptest::collection::vec(arb_body(), 1..=NAMES.len()),
        any::<bool>(),
    )
        .prop_map(|(bodies, with_desc)| {
            let mut text = String::from("# fuzzed property file\n");
            for (i, body) in bodies.iter().enumerate() {
                text.push_str(&format!("prop {} {{\n", NAMES[i]));
                if with_desc {
                    text.push_str("  desc \"fuzzed\";\n");
                }
                text.push_str(&format!("  {body}\n}}\n"));
            }
            (bodies.len(), text)
        })
}

/// Every rejection must be a structured, registered `PRP` diagnostic.
fn assert_structured(diags: &[Diagnostic]) {
    assert!(!diags.is_empty(), "Err with no diagnostics");
    for d in diags {
        assert!(d.code.starts_with("PRP"), "non-PRP code {}", d.code);
        assert!(
            registry_entry(d.code).is_some(),
            "unregistered code {}",
            d.code
        );
        assert_eq!(d.severity, Severity::Error, "{}", d.code);
        assert!(!d.message.is_empty(), "{}: empty message", d.code);
        assert!(!d.field_path.is_empty(), "{}: empty field path", d.code);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Grammatically valid files parse, keep names in order, and compile
    /// against both a fully bound and a fully unbound environment.
    #[test]
    fn any_valid_file_parses_and_compiles((n, text) in arb_file()) {
        let set = match parse_props(&text) {
            Ok(set) => set,
            Err(diags) => {
                return Err(TestCaseError::fail(format!("{text}: {diags:?}")));
            }
        };
        prop_assert_eq!(set.props.len(), n, "{}", text);
        for (i, p) in set.props.iter().enumerate() {
            prop_assert_eq!(p.name.as_str(), NAMES[i]);
        }
        // Compilation never panics; active + skipped partition the set.
        let cfg = MachineConfig::baseline();
        for env in [PropEnv::machine(MachineKind::Blocking, &cfg, None), PropEnv::unbound()] {
            let (monitors, skipped) = compile_props(&set, &env);
            prop_assert_eq!(monitors.props().len() + skipped.len(), n);
        }
    }

    /// Mangling the first event tag yields a `PRP002` unknown-tag
    /// diagnostic — the static tag table catches misspellings.
    #[test]
    fn any_mangled_tag_is_rejected(body in arb_body()) {
        let text = format!("prop solo {{\n  {body}\n}}\n");
        // Rewrite the body's first tag occurrence (every body has one).
        let tag = TAGS
            .iter()
            .filter_map(|t| text.find(t).map(|i| (i, *t)))
            .min()
            .map(|(_, t)| t)
            .expect("every body mentions a tag");
        let mangled = text.replacen(tag, "coffee-break", 1);
        prop_assert!(mangled != text);
        match parse_props(&mangled) {
            Ok(set) => {
                return Err(TestCaseError::fail(format!(
                    "accepted {mangled} as {} props", set.props.len()
                )));
            }
            Err(diags) => {
                assert_structured(&diags);
                prop_assert!(
                    diags.iter().any(|d| d.code == "PRP002"),
                    "no PRP002 for {}: {:?}", mangled, diags
                );
            }
        }
    }

    /// Every prefix of a valid file parses or fails structurally — a
    /// truncated property file never panics the parser.
    #[test]
    fn any_truncation_is_structural((_, text) in arb_file(), cut in any::<u64>()) {
        let cut = (cut % text.len() as u64) as usize;
        // Cut at a char boundary (the generator emits pure ASCII).
        prop_assert!(text.is_ascii());
        if let Err(diags) = parse_props(&text[..cut]) {
            assert_structured(&diags);
        }
    }

    /// Arbitrary bytes (lossily decoded) never panic the parser, and
    /// every rejection stays inside the registered `PRP` family.
    #[test]
    fn arbitrary_junk_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(diags) = parse_props(&text) {
            assert_structured(&diags);
        }
    }
}
