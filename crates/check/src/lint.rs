//! The design-space linter: rule engine over [`MachineConfig`] and sweep
//! grids, producing structured [`Diagnostic`]s.
//!
//! There is one source of truth for hard validity:
//! [`MachineConfig::validate`]. The linter never re-implements those rules —
//! it runs `validate()` and maps the resulting
//! [`ConfigError`] onto `CFG…`-coded `Error` diagnostics, then layers
//! advisory `LNT…` rules (warnings and infos) on top for configurations
//! that are *legal* but likely not what the user meant.
//!
//! # Rule codes
//!
//! | code   | severity | meaning |
//! |--------|----------|---------|
//! | CFG001 | error    | a size that must be a power of two is not |
//! | CFG002 | error    | a parameter is zero or out of range |
//! | CFG003 | error    | retire-at mark exceeds the buffer depth |
//! | CFG004 | error    | line/word geometry is inconsistent |
//! | CFG005 | error    | a `.wbcfg` line failed to parse |
//! | LNT001 | warning  | zero headroom: retire-at mark equals depth |
//! | LNT002 | info     | retire-at-1 defeats coalescing |
//! | LNT003 | warning  | L2 latency ≤ L1 hit latency |
//! | LNT004 | info     | buffer depth beyond the paper's studied range |
//! | LNT005 | warning  | write-priority threshold exceeds depth |
//! | LNT006 | info     | more MSHRs than write-buffer entries |
//! | LNT007 | info     | statistical icache silently disables the fast-engine op lane |
//! | LNT100 | warning  | sweep grid collapses to a single point |
//! | LNT101 | info     | sweep mixes read-from-WB with flush policies |
//! | LNT102 | warning  | duplicate configuration labels in a sweep |
//! | RCH001 | error    | a safety invariant fails at a reachable state |
//! | RCH002 | error    | livelock: buffered stores can never all retire |
//! | RCH003 | error    | configuration outside the abstractable class |
//!
//! The machine-readable version of this table is [`RULES`]; a test pins
//! `docs/static-analysis.md` against it so the rendered docs cannot drift.

use wbsim_sim::MachineKind;
use wbsim_types::config::{ConfigError, IcacheConfig, MachineConfig};
use wbsim_types::diagnostics::{Diagnostic, Severity};
use wbsim_types::file_config::ConfigParseError;
use wbsim_types::policy::{L2Priority, LoadHazardPolicy, RetirementPolicy};

/// One row of the diagnostic-code registry: everything a front end needs
/// to enumerate, group, or document the codes this crate can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Stable machine-readable code (`CFG…`, `LNT…`, `RCH…`).
    pub code: &'static str,
    /// The severity every diagnostic under this code carries.
    pub severity: Severity,
    /// One-line summary, matching the table in the module docs.
    pub summary: &'static str,
}

/// Every diagnostic code the crate can emit — the linter's `CFG`/`LNT`
/// families and the reachability checker's `RCH` family — in code order.
pub static RULES: &[Rule] = &[
    Rule {
        code: "CFG001",
        severity: Severity::Error,
        summary: "a size that must be a power of two is not",
    },
    Rule {
        code: "CFG002",
        severity: Severity::Error,
        summary: "a parameter is zero or out of range",
    },
    Rule {
        code: "CFG003",
        severity: Severity::Error,
        summary: "retire-at mark exceeds the buffer depth",
    },
    Rule {
        code: "CFG004",
        severity: Severity::Error,
        summary: "line/word geometry is inconsistent",
    },
    Rule {
        code: "CFG005",
        severity: Severity::Error,
        summary: "a `.wbcfg` line failed to parse",
    },
    Rule {
        code: "LNT001",
        severity: Severity::Warning,
        summary: "zero headroom: retire-at mark equals depth",
    },
    Rule {
        code: "LNT002",
        severity: Severity::Info,
        summary: "retire-at-1 defeats coalescing",
    },
    Rule {
        code: "LNT003",
        severity: Severity::Warning,
        summary: "L2 latency ≤ L1 hit latency",
    },
    Rule {
        code: "LNT004",
        severity: Severity::Info,
        summary: "buffer depth beyond the paper's studied range",
    },
    Rule {
        code: "LNT005",
        severity: Severity::Warning,
        summary: "write-priority threshold exceeds depth",
    },
    Rule {
        code: "LNT006",
        severity: Severity::Info,
        summary: "more MSHRs than write-buffer entries",
    },
    Rule {
        code: "LNT007",
        severity: Severity::Info,
        summary: "statistical icache silently disables the fast-engine op lane",
    },
    Rule {
        code: "LNT100",
        severity: Severity::Warning,
        summary: "sweep grid collapses to a single point",
    },
    Rule {
        code: "LNT101",
        severity: Severity::Info,
        summary: "sweep mixes read-from-WB with flush policies",
    },
    Rule {
        code: "LNT102",
        severity: Severity::Warning,
        summary: "duplicate configuration labels in a sweep",
    },
    Rule {
        code: "RCH001",
        severity: Severity::Error,
        summary: "a safety invariant fails at a reachable state",
    },
    Rule {
        code: "RCH002",
        severity: Severity::Error,
        summary: "livelock: buffered stores can never all retire",
    },
    Rule {
        code: "RCH003",
        severity: Severity::Error,
        summary: "configuration outside the abstractable class",
    },
];

/// Maps a [`ConfigError`]'s `what` description onto the `.wbcfg` field it
/// talks about.
fn field_for(what: &str) -> &'static str {
    match what {
        "write buffer depth" => "wb.depth",
        "write buffer width" => "wb.width_words",
        "high-water mark" | "fixed retirement rate" => "wb.retirement",
        "max entry age" => "wb.max_age",
        "write-priority threshold" => "wb.priority",
        "L1 hit latency" => "l1.hit_latency",
        "L2 latency" => "l2.latency",
        "main-memory latency" => "l2.mm_latency",
        "I-cache miss interval" => "icache",
        "cache size" => "l1.size_kb",
        "cache associativity" => "l1.assoc",
        "issue width" => "issue_width",
        _ => "config",
    }
}

/// Converts a hard validation failure into its `Error`-severity diagnostic.
#[must_use]
pub fn config_error_diagnostic(e: &ConfigError) -> Diagnostic {
    match e {
        ConfigError::NotPowerOfTwo { what, value } => {
            Diagnostic::new("CFG001", Severity::Error, field_for(what))
                .with_message(format!("{what} must be a power of two, got {value}"))
        }
        ConfigError::OutOfRange { what, constraint } => {
            Diagnostic::new("CFG002", Severity::Error, field_for(what))
                .with_message(format!("{what} out of range: {constraint}"))
        }
        ConfigError::HighWaterExceedsDepth { high_water, depth } => {
            Diagnostic::new("CFG003", Severity::Error, "wb.retirement")
                .with_message(format!(
                    "retire-at mark {high_water} exceeds buffer depth {depth}"
                ))
                .with_suggestion(format!("use retire-at-{depth} or increase wb.depth"))
        }
        ConfigError::BadGeometry {
            line_bytes,
            word_bytes,
        } => Diagnostic::new("CFG004", Severity::Error, "geometry").with_message(format!(
            "inconsistent line/word geometry: {line_bytes}B lines, {word_bytes}B words"
        )),
    }
}

/// Converts a `.wbcfg` parse failure into its `Error`-severity diagnostic.
#[must_use]
pub fn parse_error_diagnostic(e: &ConfigParseError) -> Diagnostic {
    let path = if e.line == 0 {
        "file".to_string()
    } else {
        format!("line {}", e.line)
    };
    Diagnostic::new("CFG005", Severity::Error, path).with_message(e.message.clone())
}

/// Lints one machine configuration: hard validation first (`CFG…` errors),
/// then the advisory design-space rules (`LNT…`).
///
/// An invalid configuration reports only its validation error — the
/// advisory rules assume a structurally sound configuration.
#[must_use]
pub fn lint_config(cfg: &MachineConfig) -> Vec<Diagnostic> {
    if let Err(e) = cfg.validate() {
        return vec![config_error_diagnostic(&e)];
    }
    let mut out = Vec::new();
    let wb = &cfg.write_buffer;

    if let RetirementPolicy::RetireAt(hw) = wb.retirement {
        if hw == wb.depth {
            out.push(
                Diagnostic::new("LNT001", Severity::Warning, "wb.retirement")
                    .with_message(format!(
                        "retire-at mark {hw} equals depth {}: zero headroom, every \
                         store burst beyond the mark stalls immediately (paper §3.3)",
                        wb.depth
                    ))
                    .with_suggestion("lower the retire-at mark below wb.depth"),
            );
        }
        if hw == 1 && wb.depth > 1 {
            out.push(
                Diagnostic::new("LNT002", Severity::Info, "wb.retirement").with_message(
                    "retire-at-1 drains on every buffered entry, defeating the \
                     coalescing window the depth was paid for",
                ),
            );
        }
    }
    if cfg.l2.latency() <= cfg.l1.hit_latency {
        out.push(
            Diagnostic::new("LNT003", Severity::Warning, "l2.latency")
                .with_message(format!(
                    "L2 latency {} is not above the L1 hit time {}: the write \
                     buffer has nothing to hide",
                    cfg.l2.latency(),
                    cfg.l1.hit_latency
                ))
                .with_suggestion("the paper's baseline L2 latency is 6 cycles"),
        );
    }
    if wb.depth > 32 {
        out.push(
            Diagnostic::new("LNT004", Severity::Info, "wb.depth").with_message(format!(
                "depth {} is beyond the paper's studied range (1-32); stall \
                 results out here extrapolate rather than reproduce",
                wb.depth
            )),
        );
    }
    if let IcacheConfig::MissEvery { interval } = cfg.icache {
        out.push(
            Diagnostic::new("LNT007", Severity::Info, "icache")
                .with_message(format!(
                    "statistical icache (miss every ~{interval}) silently disables the \
                     event-driven engine's op-grained fast lane: every instruction \
                     fetch must be modeled, so runs fall back to per-cycle stepping \
                     between events",
                ))
                .with_suggestion(
                    "use icache=perfect when fast-lane throughput matters; the \
                     wait-span skips still apply either way",
                ),
        );
    }
    if let L2Priority::WritePriorityAbove(th) = wb.priority {
        if th > wb.depth {
            out.push(
                Diagnostic::new("LNT005", Severity::Warning, "wb.priority")
                    .with_message(format!(
                        "write-priority threshold {th} exceeds depth {}: occupancy \
                         can never reach it, so the policy is inert read-bypass",
                        wb.depth
                    ))
                    .with_suggestion(format!("use a threshold of at most {}", wb.depth)),
            );
        }
    }
    out
}

/// Lints a configuration for machine `kind`: everything [`lint_config`]
/// checks, plus — on the non-blocking machine with `mshrs` registers (1
/// when unset) — the advisory MSHR-sizing rule (LNT006): more miss
/// registers than write-buffer entries is legal, but the single L2 port
/// serializes fills and read-bypassing already lets every load miss jump
/// the write queue, so the extra registers mostly widen
/// retirement-starvation windows (§4.3).
#[must_use]
pub fn lint_machine(
    kind: MachineKind,
    cfg: &MachineConfig,
    mshrs: Option<usize>,
) -> Vec<Diagnostic> {
    let mut out = lint_config(cfg);
    if kind == MachineKind::Blocking || out.iter().any(|d| d.severity == Severity::Error) {
        return out;
    }
    let mshrs = mshrs.unwrap_or(1);
    if mshrs > cfg.write_buffer.depth {
        out.push(
            Diagnostic::new("LNT006", Severity::Info, "mshrs")
                .with_message(format!(
                    "{mshrs} MSHRs exceed the write-buffer depth {}: the single L2 \
                     port serializes fills, so the extra miss parallelism mostly \
                     widens retirement-starvation windows",
                    cfg.write_buffer.depth
                ))
                .with_suggestion(format!(
                    "use at most {} MSHRs or deepen the write buffer",
                    cfg.write_buffer.depth
                )),
        );
    }
    out
}

/// Lints a sweep grid: every configuration individually (diagnostics get
/// their label as a `field_path` prefix), plus grid-level rules — a grid
/// that collapses to a single design point (LNT100), a hazard axis mixing
/// read-from-WB with flush policies (LNT101, their stall identities are not
/// comparable), and duplicate labels (LNT102).
#[must_use]
pub fn lint_grid(configs: &[(String, MachineConfig)]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (label, cfg) in configs {
        for mut d in lint_config(cfg) {
            d.field_path = format!("{label}:{}", d.field_path);
            out.push(d);
        }
    }
    if configs.len() > 1 && configs.windows(2).all(|w| w[0].1 == w[1].1) {
        out.push(
            Diagnostic::new("LNT100", Severity::Warning, "grid")
                .with_message(format!(
                    "all {} grid points are the same configuration: the sweep \
                     collapses to a single design point",
                    configs.len()
                ))
                .with_suggestion("check the loop that builds the grid actually varies a field"),
        );
    }
    let read_from_wb = configs
        .iter()
        .filter(|(_, c)| c.write_buffer.hazard == LoadHazardPolicy::ReadFromWb)
        .count();
    if read_from_wb > 0 && read_from_wb < configs.len() {
        out.push(
            Diagnostic::new("LNT101", Severity::Info, "grid").with_message(
                "grid mixes read-from-WB with flush hazard policies; their \
                 ideal-bound stall identities are not comparable column-to-column",
            ),
        );
    }
    let mut labels: Vec<&str> = configs.iter().map(|(l, _)| l.as_str()).collect();
    labels.sort_unstable();
    for pair in labels.windows(2) {
        if pair[0] == pair[1] {
            out.push(
                Diagnostic::new("LNT102", Severity::Warning, format!("grid:{}", pair[0]))
                    .with_message("duplicate configuration label in the sweep grid"),
            );
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsim_types::config::WriteBufferConfig;
    use wbsim_types::diagnostics::any_errors;
    use wbsim_types::policy::RetirementOrder;

    fn with_wb(f: impl FnOnce(&mut WriteBufferConfig)) -> MachineConfig {
        let mut m = MachineConfig::baseline();
        f(&mut m.write_buffer);
        m
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn baseline_lints_clean() {
        assert!(lint_config(&MachineConfig::baseline()).is_empty());
    }

    #[test]
    fn invalid_config_yields_one_error_diagnostic() {
        // CFG003 firing.
        let m = with_wb(|wb| wb.retirement = RetirementPolicy::RetireAt(9));
        let ds = lint_config(&m);
        assert_eq!(codes(&ds), ["CFG003"]);
        assert!(any_errors(&ds));
        assert_eq!(ds[0].field_path, "wb.retirement");
        // CFG002 firing (depth 0).
        let m = with_wb(|wb| wb.depth = 0);
        assert_eq!(codes(&lint_config(&m)), ["CFG002"]);
        // CFG001 firing (non-power-of-two width on a depth that divides).
        let mut m = MachineConfig::baseline();
        m.l1.size_bytes = 3000;
        assert_eq!(codes(&lint_config(&m)), ["CFG001"]);
        // CFG001/CFG002/CFG003 non-firing: the baseline is valid.
        assert!(!any_errors(&lint_config(&MachineConfig::baseline())));
    }

    #[test]
    fn cfg005_wraps_parse_errors() {
        let e = ConfigParseError {
            line: 3,
            message: "unknown key \"zz\"".into(),
        };
        let d = parse_error_diagnostic(&e);
        assert_eq!(d.code, "CFG005");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.field_path, "line 3");
        let whole = ConfigParseError {
            line: 0,
            message: "boom".into(),
        };
        assert_eq!(parse_error_diagnostic(&whole).field_path, "file");
    }

    #[test]
    fn lnt001_zero_headroom() {
        // Firing: retire-at equals depth.
        let m = with_wb(|wb| wb.retirement = RetirementPolicy::RetireAt(4));
        assert!(codes(&lint_config(&m)).contains(&"LNT001"));
        // Non-firing: the baseline retires at 2 of 4.
        assert!(!codes(&lint_config(&MachineConfig::baseline())).contains(&"LNT001"));
    }

    #[test]
    fn lnt002_eager_retirement() {
        let m = with_wb(|wb| wb.retirement = RetirementPolicy::RetireAt(1));
        assert!(codes(&lint_config(&m)).contains(&"LNT002"));
        // Non-firing: retire-at-1 on a 1-deep buffer is the only choice.
        let m = with_wb(|wb| {
            wb.depth = 1;
            wb.retirement = RetirementPolicy::RetireAt(1);
        });
        assert!(!codes(&lint_config(&m)).contains(&"LNT002"));
    }

    #[test]
    fn lnt003_l2_not_slower_than_l1() {
        let mut m = MachineConfig::baseline();
        m.l2 = wbsim_types::config::L2Config::Perfect { latency: 1 };
        assert!(codes(&lint_config(&m)).contains(&"LNT003"));
        assert!(!codes(&lint_config(&MachineConfig::baseline())).contains(&"LNT003"));
    }

    #[test]
    fn lnt004_depth_beyond_studied_range() {
        let m = with_wb(|wb| {
            wb.depth = 64;
            wb.retirement = RetirementPolicy::RetireAt(8);
        });
        assert!(codes(&lint_config(&m)).contains(&"LNT004"));
        // Non-firing: the paper's own figures sweep depths up to 12.
        let m = with_wb(|wb| {
            wb.depth = 12;
            wb.retirement = RetirementPolicy::RetireAt(8);
        });
        assert!(!codes(&lint_config(&m)).contains(&"LNT004"));
    }

    #[test]
    fn lnt005_unreachable_priority_threshold() {
        let m = with_wb(|wb| wb.priority = L2Priority::WritePriorityAbove(9));
        assert!(codes(&lint_config(&m)).contains(&"LNT005"));
        let m = with_wb(|wb| wb.priority = L2Priority::WritePriorityAbove(3));
        assert!(!codes(&lint_config(&m)).contains(&"LNT005"));
    }

    #[test]
    fn lnt006_more_mshrs_than_buffer_entries() {
        let b = MachineConfig::baseline(); // depth 4
        let ds = lint_machine(MachineKind::NonBlocking, &b, Some(8));
        assert!(codes(&ds).contains(&"LNT006"));
        let d = ds.iter().find(|d| d.code == "LNT006").unwrap();
        assert_eq!(d.severity, Severity::Info);
        assert_eq!(d.field_path, "mshrs");
        assert!(d.suggestion.is_some());
        // Non-firing: MSHR count at or below the depth.
        assert!(!codes(&lint_machine(MachineKind::NonBlocking, &b, Some(4))).contains(&"LNT006"));
        assert!(!codes(&lint_machine(MachineKind::NonBlocking, &b, Some(1))).contains(&"LNT006"));
        // An invalid configuration reports only its CFG error.
        let bad = with_wb(|wb| wb.depth = 0);
        assert_eq!(
            codes(&lint_machine(MachineKind::NonBlocking, &bad, Some(8))),
            ["CFG002"]
        );
    }

    #[test]
    fn lnt006_does_not_fire_at_the_depth_boundary() {
        // Non-firing exactly at mshrs == depth, across depths: the rule
        // is strictly "more MSHRs than entries", not "at least as many".
        for depth in [1usize, 2, 4, 8] {
            let m = with_wb(|wb| {
                wb.depth = depth;
                wb.retirement = RetirementPolicy::RetireAt(1.max(depth / 2));
            });
            assert!(
                !codes(&lint_machine(MachineKind::NonBlocking, &m, Some(depth)))
                    .contains(&"LNT006"),
                "LNT006 fired at the mshrs == depth == {depth} boundary"
            );
            assert!(
                codes(&lint_machine(MachineKind::NonBlocking, &m, Some(depth + 1)))
                    .contains(&"LNT006")
            );
        }
    }

    #[test]
    fn lnt007_statistical_icache_disables_the_fast_lane() {
        let mut m = MachineConfig::baseline();
        m.icache = wbsim_types::config::IcacheConfig::MissEvery { interval: 100 };
        let ds = lint_config(&m);
        let d = ds
            .iter()
            .find(|d| d.code == "LNT007")
            .expect("LNT007 fires");
        assert_eq!(d.severity, Severity::Info);
        assert_eq!(d.field_path, "icache");
        assert!(d.suggestion.is_some());
        // Non-firing: the baseline's perfect icache keeps the lane armed.
        assert!(!codes(&lint_config(&MachineConfig::baseline())).contains(&"LNT007"));
    }

    #[test]
    fn lnt100_collapsed_grid() {
        let b = MachineConfig::baseline();
        let grid = vec![("a".to_string(), b.clone()), ("b".to_string(), b.clone())];
        assert!(codes(&lint_grid(&grid)).contains(&"LNT100"));
        // Non-firing: two distinct points, or a single-point "grid".
        let mut other = b.clone();
        other.write_buffer.depth = 8;
        let grid = vec![("a".to_string(), b.clone()), ("b".to_string(), other)];
        assert!(!codes(&lint_grid(&grid)).contains(&"LNT100"));
        let grid = vec![("a".to_string(), b)];
        assert!(!codes(&lint_grid(&grid)).contains(&"LNT100"));
    }

    #[test]
    fn lnt101_mixed_hazard_axis() {
        let flush = MachineConfig::baseline();
        let mut read = flush.clone();
        read.write_buffer.hazard = LoadHazardPolicy::ReadFromWb;
        let grid = vec![
            ("flush".to_string(), flush.clone()),
            ("read".to_string(), read.clone()),
        ];
        assert!(codes(&lint_grid(&grid)).contains(&"LNT101"));
        // Non-firing: homogeneous axes either way.
        let grid = vec![
            ("a".to_string(), flush.clone()),
            ("b".to_string(), {
                let mut c = flush.clone();
                c.write_buffer.order = RetirementOrder::Lru;
                c
            }),
        ];
        assert!(!codes(&lint_grid(&grid)).contains(&"LNT101"));
        let grid = vec![("a".to_string(), read.clone()), ("b".to_string(), read)];
        assert!(!codes(&lint_grid(&grid)).contains(&"LNT101"));
    }

    #[test]
    fn lnt102_duplicate_labels() {
        let b = MachineConfig::baseline();
        let mut other = b.clone();
        other.write_buffer.depth = 8;
        let grid = vec![("same".to_string(), b.clone()), ("same".to_string(), other)];
        assert!(codes(&lint_grid(&grid)).contains(&"LNT102"));
        let grid = vec![("a".to_string(), b.clone()), ("b".to_string(), b)];
        assert!(!codes(&lint_grid(&grid)).contains(&"LNT102"));
    }

    #[test]
    fn rules_registry_is_sorted_and_unique() {
        assert!(RULES.windows(2).all(|w| w[0].code < w[1].code));
        assert!(RULES.iter().all(|r| !r.summary.is_empty()));
    }

    /// Satellite: `docs/static-analysis.md` must document exactly the codes
    /// in [`RULES`], each with the registry's severity. Parses every
    /// markdown table row whose first cell looks like a rule code.
    #[test]
    fn rendered_docs_agree_with_the_rules_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/static-analysis.md");
        let doc = std::fs::read_to_string(path).expect("docs/static-analysis.md exists");
        let looks_like_code = |s: &str| {
            s.len() == 6
                && s.bytes().take(3).all(|b| b.is_ascii_uppercase())
                && s.bytes().skip(3).all(|b| b.is_ascii_digit())
        };
        let mut documented = std::collections::BTreeMap::new();
        for line in doc.lines() {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            // A table row is `| CODE | severity | ... |`: empty edge cells.
            if cells.len() >= 4 && looks_like_code(cells[1]) {
                let prev = documented.insert(cells[1].to_string(), cells[2].to_string());
                assert!(prev.is_none(), "{} documented twice", cells[1]);
            }
        }
        for rule in RULES {
            let severity = documented
                .get(rule.code)
                .unwrap_or_else(|| panic!("{} missing from docs/static-analysis.md", rule.code));
            assert_eq!(
                severity,
                rule.severity.token(),
                "{} severity drifted in docs/static-analysis.md",
                rule.code
            );
        }
        for code in documented.keys() {
            assert!(
                wbsim_types::diagnostics::registry_entry(code).is_some(),
                "docs/static-analysis.md documents unknown code {code}"
            );
        }
    }

    /// Satellite: the per-crate [`RULES`] table is a projection of the
    /// unified registry in `wbsim_types::diagnostics::REGISTRY` — same
    /// codes, same one-line summaries.
    #[test]
    fn rules_agree_with_the_unified_registry() {
        for rule in RULES {
            let entry = wbsim_types::diagnostics::registry_entry(rule.code)
                .unwrap_or_else(|| panic!("{} missing from the unified registry", rule.code));
            assert_eq!(
                entry.summary, rule.summary,
                "{} summary drifted between RULES and REGISTRY",
                rule.code
            );
        }
    }

    #[test]
    fn grid_diagnostics_carry_their_label() {
        let mut bad = MachineConfig::baseline();
        bad.write_buffer.retirement = RetirementPolicy::RetireAt(9);
        let grid = vec![("deep".to_string(), bad)];
        let ds = lint_grid(&grid);
        assert_eq!(ds[0].field_path, "deep:wb.retirement");
    }
}
