//! Job-layer pins: cache-key stability, store accounting, and
//! byte-identity between the executor's artifacts and the rendering
//! functions the one-shot CLI composes directly.
//!
//! The cache key must move when — and only when — a semantic input moves:
//! every `Options` field except `jobs`, every kind-specific field, the
//! engine variant, and the engine version. `jobs` (pool width) never
//! changes results, so it must stay out of the key; a flipped engine
//! version must invalidate everything.

use std::sync::Arc;

use wbsim::bench::BenchSnapshot;
use wbsim::jobs::manifest::{engine_from_name, CheckConfig, CheckSpec};
use wbsim::jobs::{
    execute, merged_check_json, Executor, FigureFormat, JobKind, Manifest, Options, Store,
};
use wbsim::types::cachekey::KeyHasher;
use wbsim::types::config::MachineConfig;
use wbsim::types::file_config::to_config_string;

fn table(which: &str) -> Manifest {
    Manifest {
        kind: JobKind::Table {
            which: which.to_string(),
        },
        options: Options::default(),
    }
}

fn tiny() -> Options {
    Options {
        instructions: 2_000,
        warmup: 500,
        ..Options::default()
    }
}

#[test]
fn identical_manifests_share_a_key() {
    assert_eq!(table("4").cache_key(), table("4").cache_key());
    let hex = table("4").cache_key().to_hex();
    assert_eq!(hex.len(), 32);
    assert!(hex.bytes().all(|b| b.is_ascii_hexdigit()));
}

/// One assertion per shared `Options` field: flipping it flips the key.
#[test]
fn every_option_field_is_in_the_key_except_jobs() {
    let base = table("4");
    let key = base.cache_key();
    let with = |f: &dyn Fn(&mut Options)| {
        let mut m = base.clone();
        f(&mut m.options);
        m.cache_key()
    };
    assert_ne!(key, with(&|o| o.instructions = 999), "instructions");
    assert_ne!(key, with(&|o| o.warmup = 999), "warmup");
    assert_ne!(key, with(&|o| o.seed = 999), "seed");
    assert_ne!(key, with(&|o| o.check_data = true), "check_data");
    assert_ne!(
        key,
        with(&|o| o.engine = engine_from_name("reference").unwrap()),
        "engine variant"
    );
    // Pool width never changes results, so it must never change the key.
    assert_eq!(key, with(&|o| o.jobs = 7), "jobs excluded by design");
}

/// The engine *version* seeds every key: the same field stream hashed
/// under a different version must land elsewhere, so a simulator bump
/// invalidates every cached artifact at once.
#[test]
fn engine_version_flip_invalidates_the_key() {
    let a = KeyHasher::with_engine_version("0.1.0+engine.1")
        .field("kind", "table")
        .finish();
    let b = KeyHasher::with_engine_version("0.1.0+engine.2")
        .field("kind", "table")
        .finish();
    assert_ne!(a, b);
}

#[test]
fn kind_specific_fields_are_in_the_key() {
    // Table / figure selectors.
    assert_ne!(
        table("4").cache_key(),
        table("5").cache_key(),
        "table which"
    );
    let fig = |which: &str, format: FigureFormat| Manifest {
        kind: JobKind::Figure {
            which: which.to_string(),
            format,
        },
        options: Options::default(),
    };
    assert_ne!(
        fig("3", FigureFormat::Text).cache_key(),
        fig("4", FigureFormat::Text).cache_key(),
        "figure which"
    );
    assert_ne!(
        fig("3", FigureFormat::Text).cache_key(),
        fig("3", FigureFormat::Csv).cache_key(),
        "figure format"
    );
    // A table and a figure that share the selector string still differ.
    assert_ne!(
        table("4").cache_key(),
        fig("4", FigureFormat::Text).cache_key()
    );

    // Bench samples.
    let bench = |samples: u64| Manifest {
        kind: JobKind::Bench { samples },
        options: Options::default(),
    };
    assert_ne!(bench(1).cache_key(), bench(2).cache_key(), "bench samples");

    // Trace fields.
    let trace = |bench: &str, config: &str, mshrs: usize| Manifest {
        kind: JobKind::Trace {
            bench: bench.to_string(),
            config: config.to_string(),
            mshrs,
        },
        options: Options::default(),
    };
    let cfg = to_config_string(&MachineConfig::baseline());
    let base = trace("compress", &cfg, 0).cache_key();
    assert_ne!(base, trace("espresso", &cfg, 0).cache_key(), "trace bench");
    assert_ne!(
        base,
        trace("compress", "# other\n", 0).cache_key(),
        "trace config"
    );
    assert_ne!(base, trace("compress", &cfg, 2).cache_key(), "trace mshrs");
}

/// One assertion per `CheckSpec` field.
#[test]
fn check_spec_fields_are_in_the_key() {
    let check = |f: &dyn Fn(&mut CheckSpec)| {
        let mut spec = CheckSpec {
            exhaustive: true,
            ..CheckSpec::default()
        };
        f(&mut spec);
        Manifest {
            kind: JobKind::Check(spec),
            options: Options::default(),
        }
        .cache_key()
    };
    let key = check(&|_| ());
    assert_ne!(key, check(&|s| s.exhaustive = false), "exhaustive");
    assert_ne!(key, check(&|s| s.reach = true), "reach");
    assert_ne!(
        key,
        check(&|s| s.machine = wbsim::sim::MachineKind::NonBlocking),
        "machine"
    );
    assert_ne!(key, check(&|s| s.mshrs = Some(2)), "mshrs");
    assert_ne!(key, check(&|s| s.max_ops = 3), "max_ops");
    assert_ne!(
        key,
        check(&|s| s.fault = wbsim::jobs::manifest::fault_from_name("starve-retirement")),
        "fault"
    );
    assert_ne!(key, check(&|s| s.config.depth = Some(4)), "config depth");
    assert_ne!(
        key,
        check(&|s| s.config.retire_at = Some(2)),
        "config retire_at"
    );
    assert_ne!(
        key,
        check(&|s| s.config.hazard = wbsim::jobs::manifest::hazard_from_name("flush-full")),
        "config hazard"
    );
    assert_ne!(
        key,
        check(&|s| s.config.file = Some("# cfg\n".to_string())),
        "config file"
    );
    assert_ne!(key, check(&|s| s.props = true), "props");
    assert_ne!(
        key,
        check(&|s| s.props_file = Some("prop p { desc \"d\"; always cycle-end; }".to_string())),
        "props file text"
    );
    // Two different property texts cache separately even with props off:
    // the key hashes the text verbatim, like config.file.
    assert_ne!(
        check(&|s| s.props_file = Some("# a\n".to_string())),
        check(&|s| s.props_file = Some("# b\n".to_string())),
        "props file text verbatim"
    );
    assert_ne!(key, check(&|s| s.sched = true), "sched");
    assert_ne!(
        key,
        check(&|s| s.sched_fault = wbsim::jobs::SchedFault::from_name("lost-wakeup")),
        "sched fault"
    );
    assert_ne!(
        key,
        check(&|s| s.sched_preemptions = Some(1)),
        "sched preemptions"
    );
}

/// Resubmitting an identical manifest is a 100% cache hit: the store's
/// executed-cell counter must not move, and the artifact bytes must be
/// the very same allocation.
#[test]
fn identical_resubmission_executes_zero_cells() {
    let store = Store::new();
    let exec = Executor::new(&store);
    let m = Manifest {
        kind: JobKind::Table {
            which: "6".to_string(),
        },
        options: tiny(),
    };
    let first = exec.run(&m);
    assert!(!first.cached);
    assert!(first.outcome.cells > 0, "table 6 runs simulation cells");
    let after_first = store.stats().cells_executed;
    assert_eq!(after_first, first.outcome.cells);

    let second = exec.run(&m);
    assert!(second.cached);
    assert!(Arc::ptr_eq(&first.outcome, &second.outcome));
    let s = store.stats();
    assert_eq!(s.cells_executed, after_first, "zero cells re-executed");
    assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
}

/// `tables.txt` holds the exact bytes the one-shot CLI prints: each
/// requested table rendered and terminated with the `println!` newline.
#[test]
fn table_artifact_is_byte_identical_to_direct_rendering() {
    let opts = tiny();
    let out = execute(&Manifest {
        kind: JobKind::Table {
            which: "6".to_string(),
        },
        options: opts,
    });
    let h = opts.harness();
    let direct = format!(
        "{}\n",
        wbsim::experiments::render::render_table(&wbsim::experiments::tables::table6(&h))
    );
    assert_eq!(out.artifact_text("tables.txt"), Some(direct.as_str()));
}

#[test]
fn figure_artifacts_are_byte_identical_to_direct_rendering() {
    let opts = tiny();
    let h = opts.harness();
    let fig = wbsim::experiments::figures::fig3(&h);
    let job = |format| {
        execute(&Manifest {
            kind: JobKind::Figure {
                which: "3".to_string(),
                format,
            },
            options: opts,
        })
    };
    let text = job(FigureFormat::Text);
    assert_eq!(
        text.artifact_text("figures.txt"),
        Some(format!("{}\n", wbsim::experiments::render::render_figure(&fig)).as_str())
    );
    let csv = job(FigureFormat::Csv);
    assert_eq!(
        csv.artifact_text("figures.csv"),
        Some(wbsim::experiments::render::figure_csv(&fig).as_str())
    );
    let svg = job(FigureFormat::Svg);
    assert_eq!(
        svg.artifact_text("figure_3.svg"),
        Some(wbsim::experiments::render::svg_figure(&fig).as_str())
    );
}

/// `check.json` only varies from a freshly composed document in the
/// `wall_ms` timing field.
fn normalize_wall_ms(doc: &str) -> String {
    let mut out = String::with_capacity(doc.len());
    let mut rest = doc;
    while let Some(i) = rest.find("\"wall_ms\":") {
        let tail = &rest[i + "\"wall_ms\":".len()..];
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        out.push_str(&rest[..i]);
        out.push_str("\"wall_ms\":0");
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

#[test]
fn check_artifact_matches_the_merged_document_modulo_timing() {
    let spec = CheckSpec {
        exhaustive: true,
        max_ops: 2,
        ..CheckSpec::default()
    };
    let m = Manifest {
        kind: JobKind::Check(spec.clone()),
        options: Options::default(),
    };
    let out = execute(&m);
    assert_eq!(out.failed, None);
    let doc = out.artifact_text("check.json").expect("check.json");
    assert!(doc.ends_with('\n'), "CLI prints the document with println!");
    // Re-run the same pass directly and compose the document by hand.
    let grid = wbsim::check::CheckGrid::new(wbsim::sim::MachineKind::Blocking, None, None)
        .expect("full grid");
    let report =
        wbsim::check::check_exhaustive(&grid, 2, wbsim::check::default_jobs()).expect("clean");
    let direct = format!(
        "{}\n",
        merged_check_json(
            &wbsim::check::lint_config(&MachineConfig::baseline()),
            Some(&format!(
                "{{\"status\":\"clean\",\"report\":{}}}",
                report.to_json()
            )),
            None,
            None,
            None,
            None,
        )
    );
    assert_eq!(normalize_wall_ms(doc), normalize_wall_ms(&direct));
    assert_eq!(out.cells, report.runs, "cells accounting = checker runs");
}

/// A check against a config *file text* hashes the text itself, so two
/// texts that parse to the same configuration still cache separately —
/// and the artifact carries the linter's diagnostics for a broken text.
#[test]
fn check_config_file_text_is_hashed_verbatim() {
    let spec = |text: &str| Manifest {
        kind: JobKind::Check(CheckSpec {
            config: CheckConfig {
                file: Some(text.to_string()),
                ..CheckConfig::default()
            },
            ..CheckSpec::default()
        }),
        options: Options::default(),
    };
    let canonical = to_config_string(&MachineConfig::baseline());
    let padded = format!("# comment\n{canonical}");
    assert_ne!(spec(&canonical).cache_key(), spec(&padded).cache_key());

    let broken = execute(&spec("wb.depth = banana\n"));
    assert!(broken.failed.is_some(), "parse errors are linter errors");
    let doc = broken.artifact_text("check.json").expect("check.json");
    assert!(doc.contains("\"diagnostics\":[{"), "{doc}");
}

/// `bench.json` is a parseable snapshot at the requested scale with the
/// `print!` framing (no trailing newline).
#[test]
fn bench_artifact_is_a_round_trippable_snapshot() {
    let m = Manifest {
        kind: JobKind::Bench { samples: 1 },
        options: Options {
            instructions: 1_000,
            warmup: 200,
            ..Options::default()
        },
    };
    let out = execute(&m);
    assert_eq!(out.failed, None);
    let text = out.artifact_text("bench.json").expect("bench.json");
    // `to_json` frames the document itself; the CLI pipes it verbatim
    // with `print!`, so the artifact is exactly the pretty document.
    assert!(text.ends_with("}\n"), "snapshot framing");
    let snap = BenchSnapshot::from_json(text).expect("snapshot parses");
    assert_eq!(out.cells, snap.cells * 2, "cells = grid cells x 2 engines");
}

/// The wire format round-trips and keys stably: parse(to_json(m)) has
/// the same key as m.
#[test]
fn wire_round_trip_preserves_the_key() {
    for m in [
        table("all"),
        Manifest {
            kind: JobKind::Figure {
                which: "7".to_string(),
                format: FigureFormat::Svg,
            },
            options: tiny(),
        },
        Manifest {
            kind: JobKind::Check(CheckSpec {
                exhaustive: true,
                reach: true,
                mshrs: Some(2),
                machine: wbsim::sim::MachineKind::NonBlocking,
                ..CheckSpec::default()
            }),
            options: Options::default(),
        },
        Manifest {
            kind: JobKind::Check(CheckSpec {
                props: true,
                props_file: Some("prop p { desc \"d\"; always cycle-end; }\n".to_string()),
                ..CheckSpec::default()
            }),
            options: Options::default(),
        },
        Manifest {
            kind: JobKind::Bench { samples: 3 },
            options: Options::default(),
        },
        Manifest {
            kind: JobKind::Trace {
                bench: "compress".to_string(),
                config: to_config_string(&MachineConfig::baseline()),
                mshrs: 1,
            },
            options: tiny(),
        },
    ] {
        let back = Manifest::from_json(&m.to_json()).expect("round trip");
        assert_eq!(back, m);
        assert_eq!(back.cache_key(), m.cache_key());
    }
}
