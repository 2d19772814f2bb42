//! Job execution: lowering a [`Manifest`] onto the simulation layers and
//! composing its artifacts.
//!
//! The executor is the one place that knows how each job kind maps to the
//! existing crates (`experiments` grids, `check` passes, `bench`
//! measurement, observed trace runs). Artifacts hold the *exact bytes* the
//! one-shot CLI would have written to stdout, so `wbsim table|figure|
//! check --json|bench` can route through this layer — and `wbsim serve`
//! can hand out cached results — without changing a single byte of
//! output. Byte-identity is pinned by `tests/job_layer.rs`.

use std::sync::Arc;

use wbsim_check::{
    builtin_library, check_exhaustive, check_props_reach, check_reach, check_refine, default_jobs,
    lint_machine, parse_error_diagnostic, parse_props, CheckGrid, Counterexample,
};
use wbsim_experiments::harness::FigureResult;
use wbsim_experiments::{figures, render, tables};
use wbsim_sim::{Event, Machine, NonBlockingMachine, Observer};
use wbsim_trace::bench_models::BenchmarkModel;
use wbsim_types::config::MachineConfig;
use wbsim_types::diagnostics::{any_errors, Diagnostic};
use wbsim_types::file_config::parse_machine_config;
use wbsim_types::json::escape;
use wbsim_types::policy::RetirementPolicy;
use wbsim_types::CacheKey;

use crate::manifest::{CheckSpec, JobKind, Manifest, Options};
use crate::store::{Artifact, JobOutcome, Store};

/// What a submission came back with.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The manifest's content-addressed key.
    pub key: CacheKey,
    /// Whether the outcome was served from the store without executing.
    pub cached: bool,
    /// The artifacts (shared with the store's entry).
    pub outcome: Arc<JobOutcome>,
}

/// Runs manifests against a [`Store`].
#[derive(Debug, Clone, Copy)]
pub struct Executor<'a> {
    store: &'a Store,
}

impl<'a> Executor<'a> {
    /// An executor over `store`.
    #[must_use]
    pub fn new(store: &'a Store) -> Self {
        Executor { store }
    }

    /// Submits one manifest: a store hit answers without executing any
    /// cell, a miss executes and caches. Racing submissions of the same
    /// manifest execute exactly once — [`Store::execute_memoized`] makes
    /// the check-or-claim atomic and parks the losers until the winner
    /// publishes (pinned by the `store-race` sched harness).
    pub fn run(&self, m: &Manifest) -> JobResult {
        let key = m.cache_key();
        let (outcome, cached) = self.store.execute_memoized(key, || execute(m));
        JobResult {
            key,
            cached,
            outcome,
        }
    }
}

/// Assembles the single `wbsim check --json` document. The section
/// arguments are already-rendered JSON values; a pass that was not
/// requested renders as `null`.
#[must_use]
pub fn merged_check_json(
    linter: &[Diagnostic],
    exhaustive: Option<&str>,
    reach: Option<&str>,
    properties: Option<&str>,
    refine: Option<&str>,
    sched: Option<&str>,
) -> String {
    let diags: Vec<String> = linter.iter().map(Diagnostic::to_json).collect();
    format!(
        "{{\"linter\":{{\"diagnostics\":[{}],\"errors\":{}}},\"exhaustive\":{},\"reach\":{},\
         \"properties\":{},\"refine\":{},\"sched\":{}}}",
        diags.join(","),
        any_errors(linter),
        exhaustive.unwrap_or("null"),
        reach.unwrap_or("null"),
        properties.unwrap_or("null"),
        refine.unwrap_or("null"),
        sched.unwrap_or("null")
    )
}

/// Executes a manifest unconditionally (no store involved). Semantically
/// invalid manifests — normally rejected at parse time — come back as a
/// failed outcome with the same message the CLI front end uses.
#[must_use]
pub fn execute(m: &Manifest) -> JobOutcome {
    if let Some(d) = m.validate().into_iter().next() {
        return JobOutcome {
            failed: Some(d.message),
            ..JobOutcome::default()
        };
    }
    match &m.kind {
        JobKind::Table { which } => run_table(which, &m.options),
        JobKind::Figure { which, format } => run_figure(which, *format, &m.options),
        JobKind::Check(spec) => run_check(spec, &m.options),
        JobKind::Bench { samples } => run_bench(*samples, &m.options),
        JobKind::Trace {
            bench,
            config,
            mshrs,
        } => run_trace(bench, config, *mshrs, &m.options),
    }
}

fn text_artifact(name: &str, text: String) -> Artifact {
    Artifact {
        name: name.to_string(),
        bytes: text.into_bytes(),
    }
}

/// Simulation cells behind one table (0 for the static tables).
fn table_cells(which: &str) -> u64 {
    let benches = BenchmarkModel::ALL.len() as u64;
    match which {
        "4" | "5" | "wb" => benches,
        "6" => 4,           // cholsky, gmtry, and their -T transforms
        "7" => benches * 3, // three buffer sizes per benchmark
        _ => 0,             // tables 1-3 are static
    }
}

fn run_table(which: &str, opts: &Options) -> JobOutcome {
    let h = opts.harness();
    let cfg = MachineConfig::baseline();
    let one = |n: &str| match n {
        "1" => tables::table1(&cfg),
        "2" => tables::table2(&cfg),
        "3" => tables::table3(),
        "4" => tables::table4(&h),
        "5" => tables::table5(&h),
        "6" => tables::table6(&h),
        "7" => tables::table7(&h),
        _ => tables::table_wb(&h),
    };
    let list: Vec<&str> = if which == "all" {
        vec!["1", "2", "3", "4", "5", "6", "7", "wb"]
    } else {
        vec![which]
    };
    let mut text = String::new();
    let mut cells = 0u64;
    for n in &list {
        // The CLI prints each table with `println!`.
        text.push_str(&render::render_table(&one(n)));
        text.push('\n');
        cells += table_cells(n);
    }
    JobOutcome {
        artifacts: vec![text_artifact("tables.txt", text)],
        cells,
        failed: None,
    }
}

fn figure_list(which: &str, h: &wbsim_experiments::harness::Harness) -> Vec<FigureResult> {
    match which {
        "all" => figures::all(h),
        "3" => vec![figures::fig3(h)],
        "4" => vec![figures::fig4(h)],
        "5" => vec![figures::fig5(h)],
        "6" => vec![figures::fig6(h)],
        "7" => vec![figures::fig7(h)],
        "8" => vec![figures::fig8(h)],
        "9" => vec![figures::fig9(h)],
        "10" => vec![figures::fig10(h)],
        "11" => vec![figures::fig11(h)],
        "12" => vec![figures::fig12(h)],
        _ => vec![figures::fig13(h)],
    }
}

fn run_figure(which: &str, format: crate::manifest::FigureFormat, opts: &Options) -> JobOutcome {
    use crate::manifest::FigureFormat;
    let h = opts.harness();
    let figs = figure_list(which, &h);
    let cells: u64 = figs
        .iter()
        .map(|f| (f.benches.len() * f.configs.len()) as u64)
        .sum();
    let artifacts = match format {
        FigureFormat::Text => {
            let mut text = String::new();
            for f in &figs {
                text.push_str(&render::render_figure(f));
                text.push('\n');
            }
            vec![text_artifact("figures.txt", text)]
        }
        FigureFormat::Csv => {
            let mut text = String::new();
            for f in &figs {
                text.push_str(&render::figure_csv(f));
            }
            vec![text_artifact("figures.csv", text)]
        }
        FigureFormat::Svg => figs
            .iter()
            .map(|f| {
                // Same file name the CLI writes into `--svg DIR`.
                let name = f.id.to_ascii_lowercase().replace(' ', "_");
                text_artifact(&format!("{name}.svg"), render::svg_figure(f))
            })
            .collect(),
    };
    JobOutcome {
        artifacts,
        cells,
        failed: None,
    }
}

/// Serializes a counterexample as two artifacts: the replayable JSONL
/// trace and a small meta document, enough for the CLI front end to
/// regenerate its human report and `--out` file byte-for-byte — even when
/// the outcome came from the cache.
fn push_counterexample(artifacts: &mut Vec<Artifact>, section: &str, ce: &Counterexample) {
    let mut trace = String::new();
    for line in &ce.trace {
        trace.push_str(line);
        trace.push('\n');
    }
    artifacts.push(text_artifact(
        &format!("counterexample-{section}.jsonl"),
        trace,
    ));
    let meta = format!(
        "{{\"violation\":{},\"config\":{},\"mshrs\":{},\"ops\":{},\
         \"ops_len\":{},\"trace_len\":{}}}",
        escape(&ce.violation),
        escape(&wbsim_types::file_config::to_config_string(&ce.config)),
        ce.mshrs.map_or("null".to_string(), |m| m.to_string()),
        escape(&format!("{:?}", ce.ops)),
        ce.ops.len(),
        ce.trace.len()
    );
    artifacts.push(text_artifact(
        &format!("counterexample-{section}.meta.json"),
        meta,
    ));
}

/// The linter section shared with the CLI front end: hard validation plus
/// the advisory rules, with the MSHR-sizing rule layered on when the
/// non-blocking machine is selected.
fn lint_section(spec: &CheckSpec) -> Vec<Diagnostic> {
    let (cfg, mut diags) = match &spec.config.file {
        Some(text) => match parse_machine_config(text) {
            Ok(cfg) => (Some(cfg), Vec::new()),
            Err(errs) => (None, errs.0.iter().map(parse_error_diagnostic).collect()),
        },
        None => {
            // Overrides apply *unvalidated*: rejecting a bad configuration
            // is the linter's job, with a structured diagnostic.
            let mut cfg = MachineConfig::baseline();
            if let Some(d) = spec.config.depth {
                cfg.write_buffer.depth = d;
            }
            if let Some(r) = spec.config.retire_at {
                cfg.write_buffer.retirement = RetirementPolicy::RetireAt(r);
            }
            if let Some(z) = spec.config.hazard {
                cfg.write_buffer.hazard = z;
            }
            (Some(cfg), Vec::new())
        }
    };
    if let Some(cfg) = cfg {
        diags.extend(lint_machine(spec.machine, &cfg, spec.mshrs));
    }
    diags
}

fn run_check(spec: &CheckSpec, opts: &Options) -> JobOutcome {
    let jobs = if opts.jobs == 0 {
        default_jobs()
    } else {
        opts.jobs
    };
    let diags = lint_section(spec);
    let mut failed = any_errors(&diags);
    // `Manifest::validate` rejects out-of-grid MSHR counts whenever a
    // checker pass runs, so only lint-only specs reach here with one.
    let grid = || CheckGrid::new(spec.machine, spec.fault, spec.mshrs).expect("validated mshrs");
    let mut cells = 0u64;
    let mut counterexamples = Vec::new();

    let exhaustive = if spec.exhaustive {
        Some(match check_exhaustive(&grid(), spec.max_ops, jobs) {
            Ok(report) => {
                cells += report.runs;
                format!("{{\"status\":\"clean\",\"report\":{}}}", report.to_json())
            }
            Err(ce) => {
                failed = true;
                push_counterexample(&mut counterexamples, "exhaustive", &ce);
                format!(
                    "{{\"status\":\"violation\",\"violation\":{}}}",
                    escape(&ce.violation)
                )
            }
        })
    } else {
        None
    };

    let reach = if spec.reach {
        Some(match check_reach(&grid(), jobs) {
            Ok(report) => {
                cells += report.configs;
                format!("{{\"status\":\"clean\",\"report\":{}}}", report.to_json())
            }
            Err(v) => {
                failed = true;
                if let Some(ce) = &v.counterexample {
                    push_counterexample(&mut counterexamples, "reach", ce);
                }
                format!(
                    "{{\"status\":\"violation\",\"diagnostic\":{}}}",
                    v.diagnostic.to_json()
                )
            }
        })
    } else {
        None
    };

    let properties = if spec.props {
        Some(prop_section(
            spec,
            &grid(),
            jobs,
            &mut failed,
            &mut cells,
            &mut counterexamples,
        ))
    } else {
        None
    };

    let refine = if spec.refine {
        Some(match check_refine(&grid(), jobs) {
            Ok(report) => {
                cells += report.configs;
                format!("{{\"status\":\"clean\",\"report\":{}}}", report.to_json())
            }
            Err(v) => {
                failed = true;
                if let Some(ce) = &v.counterexample {
                    push_counterexample(&mut counterexamples, "refine", ce);
                }
                format!(
                    "{{\"status\":\"violation\",\"diagnostic\":{}}}",
                    v.diagnostic.to_json()
                )
            }
        })
    } else {
        None
    };

    let sched = if spec.sched {
        let mut sched_opts = wbsim_check::SchedOptions::default();
        if let Some(p) = spec.sched_preemptions {
            sched_opts.preemption_bound = p;
        }
        let report = crate::sched::run_sched(spec.sched_fault, &sched_opts);
        if let Some(cex) = report.counterexample() {
            counterexamples.push(text_artifact("counterexample-sched.jsonl", cex.to_jsonl()));
        }
        // A violating schedule fails the check; so does a fault run that
        // did not catch its injected fault (the checker itself is broken).
        if report.counterexample().is_some() || !report.ok() {
            failed = true;
        }
        Some(report.to_json())
    } else {
        None
    };

    // The CLI prints the document with `println!`.
    let mut doc = merged_check_json(
        &diags,
        exhaustive.as_deref(),
        reach.as_deref(),
        properties.as_deref(),
        refine.as_deref(),
        sched.as_deref(),
    );
    doc.push('\n');
    let mut artifacts = vec![text_artifact("check.json", doc)];
    artifacts.extend(counterexamples);
    JobOutcome {
        artifacts,
        cells,
        failed: failed.then(|| "check found problems (see the JSON document)".to_string()),
    }
}

/// The properties section of the merged check document: resolves the
/// property set (a supplied `.wbp` text or the built-in library), runs the
/// unbounded product over the fault grid, and renders the same
/// clean/violation shape as the reach section. A set that fails to parse
/// renders as `"invalid"` with the parser's structured diagnostics.
fn prop_section(
    spec: &CheckSpec,
    grid: &CheckGrid,
    jobs: usize,
    failed: &mut bool,
    cells: &mut u64,
    counterexamples: &mut Vec<Artifact>,
) -> String {
    let set = match &spec.props_file {
        Some(text) => match parse_props(text) {
            Ok(set) => set,
            Err(diags) => {
                *failed = true;
                let rendered: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
                return format!(
                    "{{\"status\":\"invalid\",\"diagnostics\":[{}]}}",
                    rendered.join(",")
                );
            }
        },
        None => builtin_library(),
    };
    match check_props_reach(grid, &set, jobs) {
        Ok(report) => {
            *cells += report.configs;
            format!("{{\"status\":\"clean\",\"report\":{}}}", report.to_json())
        }
        Err(v) => {
            *failed = true;
            if let Some(ce) = &v.counterexample {
                push_counterexample(counterexamples, "properties", ce);
            }
            format!(
                "{{\"status\":\"violation\",\"diagnostic\":{}}}",
                v.diagnostic.to_json()
            )
        }
    }
}

fn run_bench(samples: u64, opts: &Options) -> JobOutcome {
    // Measurement cells run *serially* on purpose — pool parallelism would
    // make samples contend for cores and wreck the numbers. `options.jobs`
    // is accepted (and ignored) so every grid-running subcommand takes the
    // same flags.
    let scale = wbsim_bench::MeasureScale {
        instructions: opts.instructions,
        warmup: opts.warmup,
        seed: opts.seed,
        samples,
    };
    let snap = wbsim_bench::measure(&scale);
    let cells = snap.cells * samples * 2;
    JobOutcome {
        // The CLI's `--json` pipe uses `print!` — no trailing newline.
        artifacts: vec![text_artifact("bench.json", snap.to_json())],
        cells,
        failed: None,
    }
}

/// Captures every event as one JSON line in memory.
struct JsonlBuffer {
    bytes: Vec<u8>,
    count: u64,
}

impl Observer for JsonlBuffer {
    fn event(&mut self, ev: &Event) {
        self.bytes.extend_from_slice(ev.to_json().as_bytes());
        self.bytes.push(b'\n');
        self.count += 1;
    }
}

fn run_trace(bench: &str, config: &str, mshrs: usize, opts: &Options) -> JobOutcome {
    let fail = |msg: String| JobOutcome {
        failed: Some(msg),
        ..JobOutcome::default()
    };
    // validate() already vetted the benchmark name.
    let Some(model) = BenchmarkModel::from_name(bench) else {
        return fail(format!("unknown benchmark {bench:?}"));
    };
    // The config text is canonical for trace jobs (clients submit text,
    // never server-side paths); a bad text is a deterministic failure and
    // caches like any other outcome.
    let cfg = match parse_machine_config(config) {
        Ok(cfg) => cfg,
        Err(e) => return fail(e.to_string()),
    };
    if let Err(e) = cfg.validate() {
        return fail(e.to_string());
    }
    let ops = model.stream(opts.seed, opts.instructions);
    let mut w = JsonlBuffer {
        bytes: Vec::new(),
        count: 0,
    };
    if mshrs > 0 {
        let mut m = match NonBlockingMachine::new(cfg, mshrs) {
            Ok(m) => m,
            Err(e) => return fail(e.to_string()),
        };
        m.set_engine(opts.engine);
        let _stats = m.run_observed(ops, &mut w);
    } else {
        let mut m = match Machine::new(cfg) {
            Ok(m) => m,
            Err(e) => return fail(e.to_string()),
        };
        m.set_engine(opts.engine);
        let _stats = m.run_observed(ops, &mut w);
    }
    JobOutcome {
        artifacts: vec![Artifact {
            name: "events.jsonl".to_string(),
            bytes: w.bytes,
        }],
        cells: 1,
        failed: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{FigureFormat, JobKind};
    use wbsim_types::file_config::to_config_string;

    #[test]
    fn table_job_executes_and_caches() {
        let store = Store::new();
        let exec = Executor::new(&store);
        let m = Manifest {
            kind: JobKind::Table {
                which: "3".to_string(),
            },
            options: Options::default(),
        };
        let first = exec.run(&m);
        assert!(!first.cached);
        let text = first.outcome.artifact_text("tables.txt").expect("artifact");
        assert!(text.starts_with("Table 3"), "{text:?}");
        let second = exec.run(&m);
        assert!(second.cached);
        assert_eq!(second.key, first.key);
        assert!(Arc::ptr_eq(&second.outcome, &first.outcome));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.cells_executed), (1, 1, 0));
    }

    #[test]
    fn check_job_with_sched_runs_the_harnesses() {
        let clean = execute(&Manifest {
            kind: JobKind::Check(CheckSpec {
                sched: true,
                ..CheckSpec::default()
            }),
            options: Options::default(),
        });
        assert_eq!(clean.failed, None);
        let doc = clean.artifact_text("check.json").expect("check.json");
        assert!(doc.contains("\"sched\":{\"harnesses\":["), "{doc}");
        assert!(doc.contains("\"clean\":true"), "{doc}");
        assert!(doc.contains("\"harness\":\"serve-drain\""), "{doc}");

        let faulty = execute(&Manifest {
            kind: JobKind::Check(CheckSpec {
                sched: true,
                sched_fault: crate::sched::SchedFault::from_name("dup-execute"),
                ..CheckSpec::default()
            }),
            options: Options::default(),
        });
        assert!(faulty.failed.is_some());
        let doc = faulty.artifact_text("check.json").expect("check.json");
        assert!(doc.contains("\"verdict\":\"SCH100\""), "{doc}");
        let sched = faulty
            .artifact_text("counterexample-sched.jsonl")
            .expect("schedule artifact");
        assert!(
            sched.starts_with("{\"schema\":\"wbsim-sched/1\""),
            "{sched}"
        );
        assert!(sched.contains("\"fault\":\"dup-execute\""), "{sched}");
    }

    #[test]
    fn trace_job_captures_an_event_stream() {
        let m = Manifest {
            kind: JobKind::Trace {
                bench: "compress".to_string(),
                config: to_config_string(&MachineConfig::baseline()),
                mshrs: 0,
            },
            options: Options {
                instructions: 500,
                warmup: 0,
                ..Options::default()
            },
        };
        let out = execute(&m);
        assert_eq!(out.failed, None);
        assert_eq!(out.cells, 1);
        let text = out.artifact_text("events.jsonl").expect("events");
        assert!(text.lines().count() > 0);
        assert!(text.lines().all(|l| l.starts_with('{')), "JSONL lines");
    }

    #[test]
    fn trace_job_rejects_bad_config_text_deterministically() {
        let m = Manifest {
            kind: JobKind::Trace {
                bench: "compress".to_string(),
                config: "wb.depth = banana\n".to_string(),
                mshrs: 0,
            },
            options: Options::default(),
        };
        let out = execute(&m);
        assert!(out.failed.is_some());
        assert!(out.artifacts.is_empty());
        assert_eq!(out.cells, 0);
    }

    #[test]
    fn figure_svg_artifacts_are_named_like_the_cli_files() {
        let m = Manifest {
            kind: JobKind::Figure {
                which: "3".to_string(),
                format: FigureFormat::Svg,
            },
            options: Options {
                instructions: 2_000,
                warmup: 500,
                ..Options::default()
            },
        };
        let out = execute(&m);
        assert_eq!(out.failed, None);
        assert_eq!(out.artifacts.len(), 1);
        assert_eq!(out.artifacts[0].name, "figure_3.svg");
        assert!(out.cells > 0);
    }

    #[test]
    fn merged_check_json_skeleton_is_pinned() {
        assert_eq!(
            merged_check_json(&[], None, None, None, None, None),
            "{\"linter\":{\"diagnostics\":[],\"errors\":false},\
             \"exhaustive\":null,\"reach\":null,\"properties\":null,\"refine\":null,\
             \"sched\":null}"
        );
        assert_eq!(
            merged_check_json(&[], Some("{\"status\":\"clean\"}"), None, None, None, None),
            "{\"linter\":{\"diagnostics\":[],\"errors\":false},\
             \"exhaustive\":{\"status\":\"clean\"},\"reach\":null,\"properties\":null,\
             \"refine\":null,\"sched\":null}"
        );
        assert_eq!(
            merged_check_json(&[], None, None, Some("{\"status\":\"clean\"}"), None, None),
            "{\"linter\":{\"diagnostics\":[],\"errors\":false},\
             \"exhaustive\":null,\"reach\":null,\"properties\":{\"status\":\"clean\"},\
             \"refine\":null,\"sched\":null}"
        );
        assert_eq!(
            merged_check_json(&[], None, None, None, Some("{\"status\":\"clean\"}"), None),
            "{\"linter\":{\"diagnostics\":[],\"errors\":false},\
             \"exhaustive\":null,\"reach\":null,\"properties\":null,\
             \"refine\":{\"status\":\"clean\"},\"sched\":null}"
        );
        assert_eq!(
            merged_check_json(&[], None, None, None, None, Some("{\"clean\":true}")),
            "{\"linter\":{\"diagnostics\":[],\"errors\":false},\
             \"exhaustive\":null,\"reach\":null,\"properties\":null,\"refine\":null,\
             \"sched\":{\"clean\":true}}"
        );
    }

    #[test]
    fn invalid_manifest_executes_to_a_failed_outcome() {
        let m = Manifest {
            kind: JobKind::Table {
                which: "9".to_string(),
            },
            options: Options::default(),
        };
        let out = execute(&m);
        let msg = out.failed.expect("failed");
        assert!(msg.contains("no table 9"), "{msg}");
    }
}
