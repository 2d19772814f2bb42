//! Per-layer probe of the wbsim benchmark.
//!
//! Times calls into each crate's public functions on the op streams and
//! machine configurations of one benchmark workload, and prints one JSON
//! document on stdout:
//!
//! ```text
//! {"metrics":{"trace.gen_ns_per_op":…,…},"cell_ns":[…],"spans":[…]}
//! ```
//!
//! `cell_ns` holds the raw host time of every simulated cell, so the
//! caller applies its own percentile rule; `spans` holds one span per layer
//! section (name, start and end in nanoseconds since the probe started,
//! parent index). The manifests whose parse and key cost is measured
//! arrive on stdin, one JSON document per line.
//!
//! Usage: `wbsim-probe --workload <table7|wb-design|verify|serve> --trace-seed <n>`

use std::hint::black_box;
use std::io::Read;
use std::time::{Duration, Instant};

use wbsim_check::{
    check_reach_config, check_reach_config_nonblocking, check_reach_jobs,
    check_reach_nonblocking_jobs, check_refine_config, check_refine_config_nonblocking,
    check_refine_jobs, check_refine_nonblocking_jobs,
};
use wbsim_core::{RetiredBlock, StoreOutcome, WriteBuffer};
use wbsim_experiments::harness::{pool_cells_jobs, Harness};
use wbsim_experiments::{figures, render, tables};
use wbsim_jobs::Manifest;
use wbsim_mem::{L1Cache, L2Cache, MainMemory};
use wbsim_sim::{Event, Machine, NonBlockingMachine, Observer};
use wbsim_trace::bench_models::BenchmarkModel;
use wbsim_types::addr::{Geometry, WordMask};
use wbsim_types::config::{L2Config, MachineConfig, WriteBufferConfig};
use wbsim_types::json::escape;
use wbsim_types::policy::{LoadHazardPolicy, RetirementPolicy};
use wbsim_types::{Addr, LineAddr, Op, SimStats, StallKind};

/// Worker threads for pooled cells and checker grids: the benchmark's load
/// stays within two threads.
const JOBS: usize = 2;

/// L2 write latency (cycles) the timing-free replay waits between two
/// retirements, so entries accumulate as they do in the machine.
const REPLAY_RETIRE_GAP: u64 = 6;

/// What one workload feeds the layers: a grid of cells (every model ×
/// `configs` × two trace seeds) at a reduced instruction count.
struct Plan {
    instructions: u64,
    warmup: u64,
    configs: Vec<MachineConfig>,
    seeds: [u64; 2],
    /// Explore the full 40-point checker grids instead of one configuration.
    full_check: bool,
}

fn wb(depth: usize, retire_at: usize, hazard: LoadHazardPolicy) -> WriteBufferConfig {
    WriteBufferConfig {
        depth,
        retirement: RetirementPolicy::RetireAt(retire_at),
        hazard,
        ..WriteBufferConfig::baseline()
    }
}

fn with_wb(w: WriteBufferConfig, check_data: bool) -> MachineConfig {
    MachineConfig {
        write_buffer: w,
        check_data,
        ..MachineConfig::baseline()
    }
}

fn plan(workload: &str, seed: u64) -> Option<Plan> {
    let seeds = [seed, seed.wrapping_add(1)];
    let p = match workload {
        // Table 7's three real-L2 sizes on the blocking machine, unchecked.
        "table7" => Plan {
            instructions: 100_000,
            warmup: 30_000,
            configs: [128u32, 512, 1024]
                .iter()
                .map(|kb| MachineConfig {
                    l2: L2Config::real_with_size(kb * 1024),
                    ..MachineConfig::baseline()
                })
                .collect(),
            seeds,
            full_check: false,
        },
        // Figures 4-6 corners: shallow, deep low-headroom, read-from-WB;
        // perfect L2, values carried and checked.
        "wb-design" => Plan {
            instructions: 50_000,
            warmup: 12_500,
            configs: vec![
                with_wb(wb(4, 2, LoadHazardPolicy::FlushFull), true),
                with_wb(wb(12, 10, LoadHazardPolicy::FlushFull), true),
                with_wb(wb(12, 10, LoadHazardPolicy::ReadFromWb), true),
            ],
            seeds,
            full_check: false,
        },
        // The checkers' own grids; the datapath rows are a small reference.
        "verify" => Plan {
            instructions: 10_000,
            warmup: 2_500,
            configs: vec![
                MachineConfig::baseline(),
                with_wb(wb(12, 10, LoadHazardPolicy::FlushFull), false),
                with_wb(wb(12, 10, LoadHazardPolicy::ReadFromWb), false),
            ],
            seeds,
            full_check: true,
        },
        // The serve mix's small trace jobs.
        "serve" => Plan {
            instructions: 5_000,
            warmup: 0,
            configs: vec![
                MachineConfig::baseline(),
                with_wb(wb(12, 10, LoadHazardPolicy::ReadFromWb), false),
                MachineConfig {
                    l2: L2Config::real_with_size(512 * 1024),
                    ..MachineConfig::baseline()
                },
            ],
            seeds,
            full_check: false,
        },
        _ => return None,
    };
    Some(p)
}

/// One recorded span; times are nanoseconds since the probe started.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.ns();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.ns();
    }
}

/// What timing one call with an `Instant::now()` + `elapsed()` pair costs,
/// in nanoseconds: `inside` is what an empty call reads (subtracted from
/// every per-call timing), `pair` what the pair adds to an enclosing batch.
#[derive(Clone, Copy)]
struct ClockCost {
    inside: f64,
    pair: f64,
}

fn clock_cost() -> ClockCost {
    let n = 200_000u32;
    let mut inside = 0u128;
    let t = Instant::now();
    for _ in 0..n {
        inside += black_box(Instant::now()).elapsed().as_nanos();
    }
    let pair = t.elapsed().as_nanos();
    ClockCost {
        inside: inside as f64 / f64::from(n),
        pair: pair as f64 / f64::from(n),
    }
}

enum L1Call {
    Load(LineAddr, usize),
    Store(LineAddr, usize, u64),
    Fill(LineAddr, Vec<u64>),
    Invalidate(LineAddr),
}

enum L2Call {
    Read(LineAddr),
    Write(RetiredBlock),
}

enum MemCall {
    Read(LineAddr),
    Write(LineAddr, WordMask, Vec<u64>),
}

enum WbCall {
    Store(Addr, u64, u64),
    Probe(LineAddr),
    Retire,
}

/// The calls one op stream makes into each memory-side structure, in
/// program order. A structure's state depends only on its own calls, so
/// each log replays alone against a fresh instance.
#[derive(Default)]
struct Logs {
    l1: Vec<L1Call>,
    l1_accesses: u64,
    l2: Vec<L2Call>,
    mem: Vec<MemCall>,
    wb: Vec<WbCall>,
}

/// The structures of one recording pass. L2 reads and writes reach the
/// real L2 and main memory in program order, as they do in the machine,
/// so later reads meet the lines earlier retirements wrote.
struct Recorder {
    g: Geometry,
    l1: L1Cache,
    l2: L2Cache,
    mem: MainMemory,
    wbuf: WriteBuffer,
    logs: Logs,
}

impl Recorder {
    /// An L1 fill from L2: logs the L2 read and the memory lines it moved,
    /// and invalidates the L2 victim in L1 (inclusion).
    fn l2_read(&mut self, line: LineAddr) -> Vec<u64> {
        self.logs.l2.push(L2Call::Read(line));
        let out = self.l2.read_line(&self.g, line, &mut self.mem);
        self.write_back(out.wrote_back, out.evicted);
        if out.miss || matches!(self.l2, L2Cache::Perfect) {
            self.logs.mem.push(MemCall::Read(line));
        }
        out.data
    }

    /// A retirement to L2: logs the L2 write and the memory lines it moved.
    fn l2_write(&mut self, b: RetiredBlock) {
        let out = self
            .l2
            .write_line_masked(&self.g, b.line, b.mask, &b.data, &mut self.mem);
        self.write_back(out.wrote_back, out.evicted);
        if matches!(self.l2, L2Cache::Perfect) {
            self.logs
                .mem
                .push(MemCall::Write(b.line, b.mask, b.data.clone()));
        } else if out.fetched {
            self.logs.mem.push(MemCall::Read(b.line));
        }
        self.logs.l2.push(L2Call::Write(b));
    }

    /// Logs a dirty victim's write-back (its data is what memory now holds)
    /// and invalidates the victim in L1.
    fn write_back(&mut self, wrote_back: bool, evicted: Option<LineAddr>) {
        let Some(victim) = evicted else { return };
        if wrote_back {
            let full = WordMask::full(self.g.words_per_line());
            let data = self.mem.read_line(&self.g, victim);
            self.logs.mem.push(MemCall::Write(victim, full, data));
        }
        self.logs.l1.push(L1Call::Invalidate(victim));
        self.l1.invalidate(victim);
    }

    /// Retires the buffer's next entry to L2, logging both calls.
    fn retire_one(&mut self) {
        self.logs.wb.push(WbCall::Retire);
        if let Some(b) = retire_next(&mut self.wbuf) {
            self.l2_write(b);
        }
    }
}

fn retire_next(wbuf: &mut WriteBuffer) -> Option<RetiredBlock> {
    let id = wbuf.next_retirement()?;
    wbuf.begin_retire(id);
    wbuf.take_retired(id)
}

/// Feeds one op stream through the public L1, L2, memory and write-buffer
/// calls without the machine's timing model and logs every call: loads
/// probe the buffer and read L1, filling from L2 on a miss; stores update
/// L1 (write-through) and enter the buffer, which retires to L2 at its
/// high-water mark, at most once per L2 write time.
fn record(cfg: &MachineConfig, ops: &[Op]) -> Logs {
    let g = cfg.geometry;
    let mut r = Recorder {
        g,
        l1: L1Cache::new(&cfg.l1, &g).expect("valid L1"),
        l2: L2Cache::new(&cfg.l2, &g).expect("valid L2"),
        mem: MainMemory::new(),
        wbuf: WriteBuffer::new(&cfg.write_buffer, &g).expect("valid buffer"),
        logs: Logs::default(),
    };
    let retire_at = cfg.write_buffer.retirement.high_water().unwrap_or(1);
    let (mut now, mut value, mut next_retire) = (0u64, 0u64, 0u64);
    for &op in ops {
        match op {
            Op::Compute(n) => now += u64::from(n),
            Op::Load(a) => {
                now += 1;
                let (line, word) = (g.line_of(a), g.word_index(a));
                r.logs.wb.push(WbCall::Probe(line));
                r.logs.l1.push(L1Call::Load(line, word));
                r.logs.l1_accesses += 1;
                if r.l1.load_word(line, word).is_none() {
                    let data = r.l2_read(line);
                    r.l1.fill(line, &data);
                    r.logs.l1.push(L1Call::Fill(line, data));
                }
            }
            Op::Store(a) => {
                now += 1;
                value += 1;
                let (line, word) = (g.line_of(a), g.word_index(a));
                r.logs.l1.push(L1Call::Store(line, word, value));
                r.logs.l1_accesses += 1;
                r.l1.store_word(line, word, value);
                loop {
                    r.logs.wb.push(WbCall::Store(a, value, now));
                    if r.wbuf.store(a, value, now) != StoreOutcome::Full {
                        break;
                    }
                    r.retire_one();
                }
                if r.wbuf.occupancy() >= retire_at && now >= next_retire {
                    r.retire_one();
                    next_retire = now + REPLAY_RETIRE_GAP;
                }
            }
            Op::Barrier => {
                while r.wbuf.occupancy() > 0 {
                    r.retire_one();
                }
            }
        }
    }
    r.logs
}

/// Runs `pass` three times and keeps the fastest. A pass returns its total
/// time in nanoseconds first, then any part-times measured in that same
/// pass, so parts are never mixed across passes.
fn best_of_3<const N: usize>(mut pass: impl FnMut() -> [f64; N]) -> [f64; N] {
    (0..3)
        .map(|_| pass())
        .min_by(|a, b| a[0].total_cmp(&b[0]))
        .expect("three passes")
}

/// Host time of `f` in nanoseconds, as a one-part pass.
fn timed(f: impl FnOnce()) -> [f64; 1] {
    let t = Instant::now();
    f();
    [t.elapsed().as_nanos() as f64]
}

fn per(ns: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns / n as f64
    }
}

/// Replays one configuration's logs, each stream's against fresh
/// instances as it was recorded, and returns the per-call host times
/// `(l1, l2 read, l2 write, memory line, wb store, wb probe, wb retire)`.
///
/// L1 and memory replay as timed batches. L2 reads and writes interleave
/// (reads meet the lines earlier writes left), so each L2 call is timed on
/// its own, less the clock's cost; likewise each retirement.
fn time_logs(cfg: &MachineConfig, streams: &[Logs], clock: ClockCost) -> [f64; 7] {
    let g = cfg.geometry;
    let [l1_ns] = best_of_3(|| {
        let mut ns = 0.0;
        for logs in streams {
            let mut l1 = L1Cache::new(&cfg.l1, &g).expect("valid L1");
            let [t] = timed(|| {
                for c in &logs.l1 {
                    match c {
                        L1Call::Load(l, w) => {
                            black_box(l1.load_word(*l, *w));
                        }
                        L1Call::Store(l, w, v) => {
                            black_box(l1.store_word(*l, *w, *v));
                        }
                        L1Call::Fill(l, d) => {
                            black_box(l1.fill(*l, d));
                        }
                        L1Call::Invalidate(l) => {
                            black_box(l1.invalidate(*l));
                        }
                    }
                }
            });
            ns += t;
        }
        [ns]
    });
    let [_, read_ns, write_ns] = best_of_3(|| {
        let (mut read, mut write) = (0.0, 0.0);
        for logs in streams {
            let (mut l2, mut mem) = (
                L2Cache::new(&cfg.l2, &g).expect("valid L2"),
                MainMemory::new(),
            );
            for c in &logs.l2 {
                let t = Instant::now();
                match c {
                    L2Call::Read(l) => {
                        black_box(l2.read_line(&g, *l, &mut mem));
                        read += t.elapsed().as_nanos() as f64 - clock.inside;
                    }
                    L2Call::Write(b) => {
                        black_box(l2.write_line_masked(&g, b.line, b.mask, &b.data, &mut mem));
                        write += t.elapsed().as_nanos() as f64 - clock.inside;
                    }
                }
            }
        }
        [read + write, read, write]
    });
    let [memory_ns] = best_of_3(|| {
        let mut ns = 0.0;
        for logs in streams {
            let mut mem = MainMemory::new();
            let [t] = timed(|| {
                for c in &logs.mem {
                    match c {
                        MemCall::Read(l) => {
                            black_box(mem.read_line(&g, *l));
                        }
                        MemCall::Write(l, mask, d) => mem.write_line_masked(&g, *l, *mask, d),
                    }
                }
            });
            ns += t;
        }
        [ns]
    });
    // Returns the pass's total and its retirements' own time.
    let wb_pass = |probes: bool| {
        let (mut total, mut retire_ns) = (0.0, 0.0);
        for logs in streams {
            let mut wbuf = WriteBuffer::new(&cfg.write_buffer, &g).expect("valid buffer");
            let t = Instant::now();
            for c in &logs.wb {
                match c {
                    WbCall::Store(a, v, now) => {
                        black_box(wbuf.store(*a, *v, *now));
                    }
                    WbCall::Probe(l) => {
                        if probes {
                            black_box(wbuf.has_line(*l));
                        }
                    }
                    WbCall::Retire => {
                        let t = Instant::now();
                        black_box(retire_next(&mut wbuf));
                        retire_ns += t.elapsed().as_nanos() as f64 - clock.inside;
                    }
                }
            }
            total += t.elapsed().as_nanos() as f64;
        }
        [total, retire_ns]
    };
    let with_probes = best_of_3(|| wb_pass(true));
    let [no_probe_ns, retire_ns] = best_of_3(|| wb_pass(false));
    let count = |f: &dyn Fn(&Logs) -> u64| streams.iter().map(f).sum::<u64>();
    let wb = |pick: fn(&WbCall) -> bool| count(&|l| l.wb.iter().filter(|c| pick(c)).count() as u64);
    let (stores, probes, retires) = (
        wb(|c| matches!(c, WbCall::Store(..))),
        wb(|c| matches!(c, WbCall::Probe(_))),
        wb(|c| matches!(c, WbCall::Retire)),
    );
    let reads = count(&|l| l.l2.iter().filter(|c| matches!(c, L2Call::Read(_))).count() as u64);
    [
        per(l1_ns, count(&|l| l.l1_accesses)),
        per(read_ns, reads),
        per(write_ns, count(&|l| l.l2.len() as u64) - reads),
        per(memory_ns, count(&|l| l.mem.len() as u64)),
        per(
            no_probe_ns - retire_ns - retires as f64 * (clock.pair - clock.inside),
            stores,
        ),
        per(
            (with_probes[0] - with_probes[1]) - (no_probe_ns - retire_ns),
            probes,
        ),
        per(retire_ns, retires),
    ]
}

/// Collects every event of a run.
#[derive(Default)]
struct Collect(Vec<Event>);

impl Observer for Collect {
    fn event(&mut self, ev: &Event) {
        self.0.push(*ev);
    }
}

struct Cell {
    ns: u64,
    instructions: u64,
    cycles: u64,
    skipped: u64,
    stats: SimStats,
}

fn instructions_of(ops: &[Op]) -> u64 {
    ops.iter().map(Op::instructions).sum()
}

fn run_cell(cfg: &MachineConfig, ops: &[Op], warmup: u64) -> Cell {
    let t = Instant::now();
    let mut m = Machine::new(cfg.clone()).expect("valid machine");
    m.set_record_skips(true);
    let stats = m.run_with_warmup(ops.iter().copied(), warmup);
    let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let skipped = m.take_skips().iter().map(|s| s.to - s.from).sum();
    Cell {
        ns,
        instructions: instructions_of(ops),
        cycles: m.now(),
        skipped,
        stats,
    }
}

fn nanos(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn usage() -> ! {
    eprintln!("usage: wbsim-probe --workload <table7|wb-design|verify|serve> --trace-seed <n>");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed) = (None, None);
    for pair in args.chunks(2) {
        match (pair[0].as_str(), pair.get(1)) {
            ("--workload", Some(w)) => workload = Some(w.clone()),
            ("--trace-seed", Some(s)) => seed = s.parse::<u64>().ok(),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        usage()
    };
    let Some(plan) = plan(&workload, seed) else {
        usage()
    };
    let mut stdin = String::new();
    std::io::stdin()
        .read_to_string(&mut stdin)
        .expect("manifests on stdin");
    let manifests: Vec<&str> = stdin.lines().filter(|l| !l.trim().is_empty()).collect();

    let mut tr = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut metrics: Vec<(&str, f64)> = Vec::new();
    let root = tr.open("probe", None);
    let clock = clock_cost();
    let total = plan.instructions + plan.warmup;

    // trace::bench_models — stream generation for every (model, seed).
    let s = tr.open("trace.bench_models", Some(root));
    let t = Instant::now();
    let streams: Vec<Vec<Op>> = plan
        .seeds
        .iter()
        .flat_map(|&sd| BenchmarkModel::ALL.iter().map(move |m| m.stream(sd, total)))
        .collect();
    let gen = t.elapsed();
    tr.close(s);
    let ops: usize = streams.iter().map(Vec::len).sum();
    metrics.push(("trace.gen_ns_per_op", nanos(gen) / ops as f64));
    metrics.push(("trace.ops", ops as f64));
    let first_seed = &streams[..BenchmarkModel::ALL.len()];

    // mem::{l1,l2,memory} and core::buffer — timing-free replay of the
    // first seed's streams through the middle configuration.
    let s = tr.open("mem.replay", Some(root));
    let logs: Vec<Logs> = first_seed
        .iter()
        .map(|st| record(&plan.configs[1], st))
        .collect();
    let layer = time_logs(&plan.configs[1], &logs, clock);
    tr.close(s);
    for (name, v) in [
        "mem.l1.ns_per_access",
        "mem.l2.ns_per_read",
        "mem.l2.ns_per_write",
        "mem.memory.ns_per_line",
        "core.buffer.ns_per_store",
        "core.buffer.ns_per_probe",
        "core.buffer.ns_per_retire",
    ]
    .into_iter()
    .zip(layer)
    {
        metrics.push((name, v));
    }

    // sim::machine through experiments::harness's pool — every cell of
    // the grid on two threads, skip spans recorded.
    let s = tr.open("sim.machine", Some(root));
    let n_models = BenchmarkModel::ALL.len();
    let n_cells = plan.seeds.len() * plan.configs.len() * n_models;
    let t = Instant::now();
    let cells = pool_cells_jobs(n_cells, JOBS, |i| {
        let (si, rest) = (
            i / (plan.configs.len() * n_models),
            i % (plan.configs.len() * n_models),
        );
        let (ci, mi) = (rest / n_models, rest % n_models);
        run_cell(&plan.configs[ci], &streams[si * n_models + mi], plan.warmup)
    });
    let pool_wall = t.elapsed();
    tr.close(s);
    let busy: u64 = cells.iter().map(|c| c.ns).sum();
    let instr: u64 = cells.iter().map(|c| c.instructions).sum();
    let cycles: u64 = cells.iter().map(|c| c.cycles).sum();
    let skipped: u64 = cells.iter().map(|c| c.skipped).sum();
    let mut stats = SimStats::default();
    for c in &cells {
        stats.merge(&c.stats);
    }
    metrics.push(("sim.machine.ns_per_instr", busy as f64 / instr as f64));
    metrics.push(("sim.machine.ns_per_cycle", busy as f64 / cycles as f64));
    metrics.push(("sim.machine.skip_ratio", ratio(skipped, cycles)));
    metrics.push((
        "experiments.pool_busy_ratio",
        busy as f64 / (JOBS as f64 * nanos(pool_wall)),
    ));
    // Counts from SimStats, recorded at the same boundaries (simulated).
    metrics.push((
        "mem.l1.load_hit_ratio",
        ratio(stats.l1_load_hits, stats.loads),
    ));
    metrics.push((
        "mem.l2.read_miss_ratio",
        ratio(stats.l2_read_misses, stats.l2_reads),
    ));
    metrics.push(("mem.memory.accesses", stats.mm_accesses as f64));
    metrics.push((
        "core.buffer.merge_ratio",
        ratio(stats.wb_store_merges, stats.stores),
    ));
    metrics.push(("core.buffer.high_water", stats.wb_detail.high_water as f64));
    for (kind, name) in [
        (StallKind::L2ReadAccess, "core.stall_cycles.r"),
        (StallKind::BufferFull, "core.stall_cycles.f"),
        (StallKind::LoadHazard, "core.stall_cycles.l"),
    ] {
        metrics.push((name, stats.stalls.get(kind) as f64));
    }

    // sim::hierarchy's checked plane — the first column with check_data
    // off and on, serially, in off-on-on-off order per stream so neither
    // side always runs first.
    let s = tr.open("sim.hierarchy", Some(root));
    let mut plane = [0u128; 2];
    let plain = |checked| MachineConfig {
        check_data: checked,
        ..plan.configs[0].clone()
    };
    let (off, on) = (plain(false), plain(true));
    for st in first_seed {
        for (k, cfg) in [(0, &off), (1, &on), (1, &on), (0, &off)] {
            plane[k] += u128::from(run_cell(cfg, st, plan.warmup).ns);
        }
    }
    tr.close(s);
    metrics.push((
        "sim.checked_overhead_ratio",
        plane[1] as f64 / plane[0] as f64,
    ));

    // sim::nonblocking — the first column on a 2-MSHR machine, which
    // requires the read-from-WB hazard policy.
    let s = tr.open("sim.nonblocking", Some(root));
    let mut nb_cfg = plan.configs[0].clone();
    nb_cfg.write_buffer.hazard = LoadHazardPolicy::ReadFromWb;
    let (mut nb_ns, mut nb_instr) = (0u128, 0u64);
    for st in first_seed {
        let t = Instant::now();
        let mut m = NonBlockingMachine::new(nb_cfg.clone(), 2).expect("valid machine");
        black_box(m.run(st.iter().copied()));
        nb_ns += t.elapsed().as_nanos();
        nb_instr += instructions_of(st);
    }
    tr.close(s);
    metrics.push((
        "sim.nonblocking.ns_per_instr",
        nb_ns as f64 / nb_instr as f64,
    ));

    // sim::event — encode and decode every event of three short runs.
    let s = tr.open("sim.event", Some(root));
    let mut events = Collect::default();
    for st in first_seed.iter().take(3) {
        let n = st.len().min(20_000);
        let mut m = Machine::new(plan.configs[0].clone()).expect("valid machine");
        m.run_observed(st[..n].iter().copied(), &mut events);
    }
    let t = Instant::now();
    let lines: Vec<String> = events.0.iter().map(Event::to_json).collect();
    let enc = t.elapsed();
    let t = Instant::now();
    for l in &lines {
        black_box(Event::from_json(l).expect("round-trip"));
    }
    let dec = t.elapsed();
    tr.close(s);
    let bytes: usize = lines.iter().map(String::len).sum();
    let n_events = lines.len().max(1) as f64;
    metrics.push(("sim.event.encode_ns", nanos(enc) / n_events));
    metrics.push(("sim.event.decode_ns", nanos(dec) / n_events));
    metrics.push(("sim.event.bytes_per_event", bytes as f64 / n_events));

    // experiments::render — one table and one figure, simulated at a tiny
    // scale outside the timing.
    let h = Harness {
        instructions: 2_000,
        warmup: 500,
        seed,
        check_data: false,
        jobs: JOBS,
        ..Harness::standard()
    };
    let (t7, f4) = (tables::table7(&h), figures::fig4(&h));
    let s = tr.open("experiments.render", Some(root));
    let reps = 20u32;
    let t = Instant::now();
    for _ in 0..reps {
        black_box(render::render_table(&t7));
        black_box(render::render_figure(&f4));
        black_box(render::figure_csv(&f4));
    }
    let rend = t.elapsed();
    tr.close(s);
    metrics.push((
        "experiments.render_ms",
        rend.as_secs_f64() * 1e3 / f64::from(reps),
    ));

    // check::{reach,refine} — the full grids for verify, the baseline
    // configuration elsewhere.
    let s = tr.open("check", Some(root));
    let base = MachineConfig::baseline();
    let base_nb = with_wb(wb(4, 2, LoadHazardPolicy::ReadFromWb), false);
    let check = |name: &'static str, f: &dyn Fn() -> (u64, u64)| {
        let t = Instant::now();
        let (states, edges) = f();
        let ns = nanos(t.elapsed());
        (name, ns / states as f64, states, edges)
    };
    let runs = if plan.full_check {
        [
            check("check.reach.ns_per_state.blocking", &|| {
                let r = check_reach_jobs(None, JOBS).expect("clean");
                (r.states_explored, r.edges)
            }),
            check("check.reach.ns_per_state.nonblocking", &|| {
                let r = check_reach_nonblocking_jobs(None, None, JOBS).expect("clean");
                (r.states_explored, r.edges)
            }),
            check("check.refine.ns_per_state.blocking", &|| {
                let r = check_refine_jobs(None, JOBS).expect("clean");
                (r.states_explored, r.edges)
            }),
            check("check.refine.ns_per_state.nonblocking", &|| {
                let r = check_refine_nonblocking_jobs(None, None, JOBS).expect("clean");
                (r.states_explored, r.edges)
            }),
        ]
    } else {
        [
            check("check.reach.ns_per_state.blocking", &|| {
                let r = check_reach_config(&base).expect("clean");
                (r.states, r.edges)
            }),
            check("check.reach.ns_per_state.nonblocking", &|| {
                let r = check_reach_config_nonblocking(&base_nb, 2).expect("clean");
                (r.states, r.edges)
            }),
            check("check.refine.ns_per_state.blocking", &|| {
                let r = check_refine_config(&base).expect("clean");
                (r.states, r.edges)
            }),
            check("check.refine.ns_per_state.nonblocking", &|| {
                let r = check_refine_config_nonblocking(&base_nb, 2).expect("clean");
                (r.states, r.edges)
            }),
        ]
    };
    tr.close(s);
    for (name, ns, _, _) in &runs {
        metrics.push((name, *ns));
    }
    metrics.push(("check.states", runs.iter().map(|r| r.2).sum::<u64>() as f64));
    metrics.push(("check.edges", runs.iter().map(|r| r.3).sum::<u64>() as f64));

    // jobs::manifest — parse and key the workload's own manifests.
    let s = tr.open("jobs.manifest", Some(root));
    let reps = 50u32;
    let parsed: Vec<Manifest> = manifests
        .iter()
        .map(|t| Manifest::from_json(t).expect("the workload's manifests are valid"))
        .collect();
    let t = Instant::now();
    for _ in 0..reps {
        for text in &manifests {
            black_box(Manifest::from_json(black_box(text)).is_ok());
        }
    }
    let parse_ns = nanos(t.elapsed());
    let t = Instant::now();
    for _ in 0..reps {
        for m in &parsed {
            black_box(black_box(m).cache_key());
        }
    }
    let key_ns = nanos(t.elapsed());
    tr.close(s);
    let n = f64::from(reps) * manifests.len().max(1) as f64;
    metrics.push(("jobs.manifest.parse_us", parse_ns / n / 1e3));
    metrics.push(("jobs.manifest.key_us", key_ns / n / 1e3));
    tr.close(root);

    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("{}:{}", escape(k), json_num(*v)))
        .collect();
    let cell_ns: Vec<String> = cells.iter().map(|c| c.ns.to_string()).collect();
    let spans: Vec<String> = tr
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                escape(s.name),
                s.start,
                s.end,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            )
        })
        .collect();
    println!(
        "{{\"metrics\":{{{}}},\"cell_ns\":[{}],\"spans\":[{}]}}",
        body.join(","),
        cell_ns.join(","),
        spans.join(",")
    );
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
