#!/usr/bin/env python3
"""wbsim benchmark runner.

Builds the release ``wbsim`` binary and the per-layer probe from source,
then drives one workload against freshly spawned ``wbsim serve`` daemons
over loopback, checks every artifact against ``pins.json``, and prints a
human report followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <table7|wb-design|verify|serve>
        --seed <n> --seconds <s> --trace <0|1> [--held-out]

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off. ``--trace 1`` runs the workload twice (untraced, then
traced, half the time each), runs the probe, writes every span to
``perfbench-out/spans-<workload>-<seed>.jsonl`` and reports the per-layer
metrics. ``--held-out`` draws the manifests from the held-out pool.
"""

import argparse
import gc
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import measure
import workloads
from daemon import Daemon, HttpError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKERS = 2  # daemon worker pool
CLIENTS = 2  # client threads, one connection each
# Daemon start-ups per batch; one batch runs before the workload and one
# after, so setup_s, their median, spans two moments of the host's drift.
SETUP_SAMPLES = 16
SETUP_GAP_S = 0.05
RSS_ROUNDS = 2
SERVE_RSS_AT = 200  # serve misses completed before the RSS reading
POLL_FIRST_S, POLL_MAX_S = 0.0005, 0.02


class Tracer:
    """Spans kept in memory: name, start, end, parent and request id."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.lock = threading.Lock()
        self.t0 = time.perf_counter()

    def open(self, name, parent=None, rid=None):
        if not self.enabled:
            return None
        now = time.perf_counter() - self.t0
        with self.lock:
            self.spans.append(
                {"id": len(self.spans), "name": name, "start": now, "end": now,
                 "parent": parent, "rid": rid}
            )
            return len(self.spans) - 1

    def close(self, sid):
        if sid is not None:
            self.spans[sid]["end"] = time.perf_counter() - self.t0

    def tag(self, sid, key, value):
        if sid is not None:
            self.spans[sid][key] = value

    def durations(self, name, **tags):
        """Durations of the spans called ``name`` whose parent carries
        every one of ``tags``."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name
            and all(self.spans[s["parent"]].get(k) == v for k, v in tags.items())
        ]


def build():
    """Builds the daemon and the probe; returns their paths."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for extra in (
        ["--manifest-path", "Cargo.toml", "-p", "wbsim-cli"],
        ["--manifest-path", "perfbench/probe/Cargo.toml"],
    ):
        r = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *extra],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        if r.returncode:
            sys.stderr.write(r.stdout.decode(errors="replace"))
            raise SystemExit(f"build failed: cargo build {' '.join(extra)}")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    return target / "release" / "wbsim", target / "release" / "wbsim-probe"


def verify(job, artifacts, pins):
    """``None`` when the artifacts match their pins, else what diverged."""
    want = pins.get(job.key)
    if want is None:
        return f"{job.key}: no pinned digests"
    if sorted(artifacts) != sorted(want):
        return f"{job.key}: artifacts {sorted(artifacts)} != pinned {sorted(want)}"
    for name, data in sorted(artifacts.items()):
        if measure.digest(name, data) != want[name]:
            return f"{job.key}: {name} diverged from its pinned digest"
    if job.checker:
        doc = json.loads(artifacts["check.json"])
        got = (
            doc["reach"]["report"]["states_explored"], doc["reach"]["report"]["edges"],
            doc["refine"]["report"]["states_explored"], doc["refine"]["report"]["edges"],
        )
        if got != workloads.CHECKER_COUNTS[job.checker]:
            return f"{job.key}: checker counts {got} != pinned {workloads.CHECKER_COUNTS[job.checker]}"
    return None


class Outcome:
    def __init__(self, kind, latency=None, fetched=0, reason=None):
        self.kind, self.latency, self.fetched, self.reason = kind, latency, fetched, reason


def run_job(d, job, expected, pins, tr, parent):
    """Submits one manifest, waits for it, fetches and checks every
    artifact. Latency runs from the POST to the last artifact byte."""
    js = tr.open("job", parent, job.key)
    try:
        t0 = time.perf_counter()
        s = tr.open("jobs.serve.admit", js, job.key)
        status, body = d.request("POST", "/v1/jobs", job.text.encode())
        tr.close(s)
        if status != 202:
            return Outcome(expected, reason=f"{job.key}: POST answered {status}: {body[:200]!r}")
        sub = json.loads(body)
        kind = "hit" if sub["cached"] else "miss"
        tr.tag(js, "kind", kind)
        s = tr.open("jobs.serve.run", js, job.key)
        delay = POLL_FIRST_S
        while True:
            st = d.json("GET", f"/v1/jobs/{sub['id']}")
            if st["status"] in ("done", "failed"):
                break
            time.sleep(delay)
            delay = min(delay * 1.25, POLL_MAX_S)
        tr.close(s)
        if st["status"] == "failed":
            return Outcome(kind, reason=f"{job.key}: job failed: {st['failed']}")
        s = tr.open("jobs.serve.fetch", js, job.key)
        artifacts = {}
        for name in st["artifacts"]:
            code, data = d.request("GET", f"/v1/jobs/{sub['id']}/artifacts/{name}")
            if code != 200:
                return Outcome(kind, reason=f"{job.key}: artifact {name} answered {code}")
            artifacts[name] = data
        tr.close(s)
        latency = time.perf_counter() - t0
        s = tr.open("verify", js, job.key)
        reason = verify(job, artifacts, pins)
        tr.close(s)
        fetched = sum(len(a) for a in artifacts.values())
        return Outcome(kind, latency, fetched, reason)
    except (OSError, HttpError, ValueError, KeyError) as e:
        return Outcome(expected, reason=f"{job.key}: {type(e).__name__}: {e}")
    finally:
        tr.close(js)


class Result:
    """What one pass of a workload measured."""

    def __init__(self):
        self.tally = measure.Tally()
        self.rounds = []  # wall time of each round, seconds
        self.elapsed = 0.0
        self.completed = 0
        self.sim_instr = 0  # simulated instructions of the completed misses
        self.check_states = 0
        self.fetched = 0
        self.manifests = {}  # distinct manifests sent, in order, for the probe
        self.fresh = 0  # completed serve misses
        self.rss = None  # peak RSS at a point fixed by work done, not time
        self.lock = threading.Lock()

    def record(self, job, out):
        with self.lock:
            self.manifests.setdefault(job.text)
            if out.reason is not None:
                self.tally.fail(out.kind, out.reason)
                return False
            self.tally.ok(out.kind, out.latency)
            self.completed += 1
            self.fetched += out.fetched
            if out.kind == "miss":
                self.sim_instr += sim_instructions(job)
                if job.checker:
                    self.check_states += sum(workloads.CHECKER_COUNTS[job.checker][::2])
            return True


def sim_instructions(job):
    """Simulated instructions (warmup included) a job's cells execute."""
    m = json.loads(job.text)
    o = m["options"]
    per_cell = o["instructions"] + o["warmup"]
    kind, spec = m["kind"], m["spec"]
    if kind == "table":
        return {"4": 17, "7": 51}[spec["which"]] * per_cell
    if kind == "figure":
        return {"3": 1, "4": 6, "5": 5, "6": 5}[spec["which"]] * 17 * per_cell
    if kind == "trace":
        return o["instructions"]
    return 0


def in_threads(n, fn):
    threads = [threading.Thread(target=fn, args=(k,)) for k in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def run_rounds(d, name, base, seed, seconds, pins, tr):
    """Miss rounds back to back (a closed loop) for ``seconds``, at least
    ``RSS_ROUNDS`` of them. The daemon's peak RSS is read after
    ``RSS_ROUNDS`` rounds, so it does not grow with the number of rounds a
    faster daemon fits in."""
    res = Result()
    make = workloads.ROUNDS[name]
    start = time.perf_counter()
    for k, i in enumerate(workloads.round_indices(seed)):
        if k >= RSS_ROUNDS and time.perf_counter() - start >= seconds:
            break
        rs = tr.open("round", None, f"round-{k}")
        t0 = time.perf_counter()
        for job in make(base, i):
            res.record(job, run_job(d, job, "miss", pins, tr, rs))
        res.rounds.append(time.perf_counter() - t0)
        tr.close(rs)
        if k + 1 == RSS_ROUNDS:
            res.rss = d.peak_rss_mb()
    res.elapsed = time.perf_counter() - start
    return res


def serve_plan(rng):
    """One client round: every template twice fresh and twice resubmitted,
    in a seeded order, so every run sends the same mix."""
    plan = [(kind, t) for t in workloads.SERVE_TEMPLATES for kind in ("miss", "hit") * 2]
    rng.shuffle(plan)
    return plan


def run_serve(d, base, seed, seconds, pins, tr):
    """A closed loop of two clients, each mixing fresh small jobs with
    resubmissions of its own completed ones. The daemon's peak RSS is read
    once ``SERVE_RSS_AT`` fresh jobs have completed, so a faster daemon
    that stores more results in the same time does not read as bigger."""
    res = Result()
    start = time.perf_counter()

    def client(k):
        rng = random.Random(f"serve/{seed}/{k}")
        slots = workloads.serve_indices(seed, k)
        cursor = dict.fromkeys(workloads.SERVE_TEMPLATES, 0)
        done = {t: [] for t in workloads.SERVE_TEMPLATES}
        r = 0
        while time.perf_counter() - start < seconds:
            rs = tr.open("round", None, f"client-{k}-{r}")
            t0 = time.perf_counter()
            for kind, t in serve_plan(rng):
                if kind == "hit" and done[t]:
                    job = rng.choice(done[t])
                else:
                    if cursor[t] == len(slots[t]):
                        tr.close(rs)
                        return  # pool exhausted: stop measuring early
                    job = workloads.serve_job(base, t, slots[t][cursor[t]])
                    cursor[t] += 1
                    kind = "miss"
                if res.record(job, run_job(d, job, kind, pins, tr, rs)) and kind == "miss":
                    done[t].append(job)
                    with res.lock:
                        res.fresh += 1
                        if res.fresh == SERVE_RSS_AT:
                            res.rss = d.peak_rss_mb()
            with res.lock:
                res.rounds.append(time.perf_counter() - t0)
            tr.close(rs)
            r += 1

    in_threads(CLIENTS, client)
    res.elapsed = time.perf_counter() - start
    return res


def run_workload(binary, name, base, seed, seconds, pins, tr):
    """One cold daemon, one pass of the workload; returns the result,
    the daemon's peak RSS and its store counters."""
    d = Daemon(binary, WORKERS)
    try:
        if name == "serve":
            res = run_serve(d, base, seed, seconds, pins, tr)
        else:
            res = run_rounds(d, name, base, seed, seconds, pins, tr)
        rss = res.rss if res.rss is not None else d.peak_rss_mb()
        store = d.json("GET", "/v1/store/stats")
    finally:
        d.shutdown()
    return res, rss, store


def setup_samples(binary, n):
    """Start-up time of ``n`` fresh daemons: spawn to the first 200 on
    ``/v1/health``, each from an idle host (back-to-back start-ups vary
    several times more between runs)."""
    out = []
    for _ in range(n):
        time.sleep(SETUP_GAP_S)
        d = Daemon(binary, WORKERS)
        out.append(d.setup_s)
        d.shutdown()
    return out


def end_to_end(res, setup, rss):
    """The gated metrics. A kind of operation with no samples (every
    attempt failed) reads as infinitely slow."""
    t = res.tally

    def median_or_failed(samples):
        return measure.median(samples) if samples else measure.FAILED

    return {
        "setup_s": measure.median(setup),
        "wall_s": median_or_failed(res.rounds),
        "miss_ms_p50": median_or_failed(t.samples("miss")) * 1e3,
        "peak_rss_mb": rss,
    }


def report(name, res, values, units, setup):
    """Human-readable lines: every metric with its unit and sample count."""
    t = res.tally
    wall = values["wall_s"]
    lines = [f"workload {name}: {t.attempted} operations, {t.failed} failed"]
    counts = {
        "setup_s": len(setup), "wall_s": len(res.rounds),
        "miss_ms_p50": len(t.samples("miss")), "peak_rss_mb": 1,
    }
    for k, v in values.items():
        lines.append(f"  {k:<20} {v:>14.4f} {units[k]:<6} (n={counts[k]})")
    extra = []
    if name == "serve":
        extra.append(("jobs_per_s", res.completed / res.elapsed, "1/s", res.completed))
    per_round = res.sim_instr / max(len(res.rounds), 1)
    if name in ("table7", "wb-design"):
        extra.append(("sim_minstr_per_s", per_round / wall / 1e6, "Minstr/s", len(res.rounds)))
    if name == "verify":
        per_round = res.check_states / max(len(res.rounds), 1)
        extra.append(("check_states_per_s", per_round / wall, "1/s", len(res.rounds)))
    hits = t.samples("hit")
    if hits:
        extra.append(("hit_ms_p50", measure.median(hits) * 1e3, "ms", len(hits)))
    for kind in ("miss", "hit"):
        samples = t.samples(kind)
        p = measure.highest_tail(len(samples))
        if p is not None:
            extra.append((f"{kind}_ms_p{p:g}", measure.tail(samples, p) * 1e3, "ms", len(samples)))
    extra.append(("error_rate", t.error_rate(), "ratio", t.attempted))
    for k, v, u, n in extra:
        lines.append(f"  {k:<20} {v:>14.4f} {u:<6} (n={n})")
    lines.append("  rounds_s " + " ".join(f"{r:.3f}" for r in res.rounds[:40]))
    for reason in t.reasons[:20]:
        lines.append(f"  FAILED {reason}")
    return lines


def per_layer(name, probe_bin, base, seed, seconds, pins, binary):
    """The traced run: untraced and traced passes, then the probe."""
    plain, _, _ = run_workload(binary, name, base, seed, seconds / 2, pins, Tracer(False))
    tr = Tracer(True)
    res, _, store = run_workload(binary, name, base, seed, seconds / 2, pins, tr)
    first = workloads.round_indices(seed)[0]
    offset = time.perf_counter() - tr.t0
    p = subprocess.run(
        [str(probe_bin), "--workload", name, "--trace-seed", str(base + first)],
        input="\n".join(res.manifests).encode(), stdout=subprocess.PIPE, check=True,
    )
    probe = json.loads(p.stdout)
    ids = len(tr.spans)
    for k, s in enumerate(probe["spans"]):
        tr.spans.append({
            "id": ids + k, "name": s["name"], "start": offset + s["start_ns"] / 1e9,
            "end": offset + s["end_ns"] / 1e9,
            "parent": None if s["parent"] is None else ids + s["parent"], "rid": "probe",
        })
    out_dir = ROOT / "perfbench-out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{name}-{seed}.jsonl", "w") as f:
        for s in tr.spans:
            f.write(json.dumps(s, separators=(",", ":")) + "\n")

    admit = tr.durations("jobs.serve.admit")
    # The round workloads make too few admissions for p90: the metric then
    # holds the highest percentile the rule allows, and says so.
    admit_p, admit_q = measure.tail_or_lower(admit, 90)
    if admit_p != 90:
        print(f"  jobs.serve.admit_ms_p90 holds p{admit_p:g} of {len(admit)} admissions"
              " (p90 needs 100)")
    run = tr.durations("jobs.serve.run", kind="miss")
    fetch_s = sum(tr.durations("jobs.serve.fetch"))
    cells_ms = [ns / 1e6 for ns in probe["cell_ns"]]
    m = dict(probe["metrics"])
    m.update({
        "sim.cell_ms_p50": measure.median(cells_ms),
        "sim.cell_ms_p90": measure.tail(cells_ms, 90),
        "jobs.store.hit_ratio": store["hits"] / max(store["hits"] + store["misses"], 1),
        "jobs.store.entries": store["entries"],
        "jobs.store.cells_executed": store["cells_executed"],
        "jobs.serve.admit_ms_p50": measure.median(admit) * 1e3,
        "jobs.serve.admit_ms_p90": admit_q * 1e3,
        "jobs.serve.run_ms_p50": measure.median(run) * 1e3,
        "jobs.serve.fetch_mb_per_s": res.fetched / 1e6 / fetch_s,
        "tracing.overhead_s": measure.median(res.rounds) - measure.median(plain.rounds),
    })
    for span_name, secs in measure.self_times(tr.spans).items():
        m[f"self_ms.{span_name}"] = secs * 1e3
    res.tally.merge(plain.tally)
    return res, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--held-out", action="store_true")
    a = ap.parse_args()
    gc.disable()  # no collector pauses inside the timed client loops

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pool = "held-out" if a.held_out else "tune"
    pins = json.loads((HERE / "pins.json").read_text())["pools"][pool]
    base = workloads.POOLS[pool]
    binary, probe_bin = build()

    if a.trace:
        res, values = per_layer(a.workload, probe_bin, base, a.seed, a.seconds, pins, binary)
        wanted = spec["per_layer"]
    else:
        setup = setup_samples(binary, SETUP_SAMPLES)
        res, rss, _ = run_workload(binary, a.workload, base, a.seed, a.seconds, pins, Tracer(False))
        setup += setup_samples(binary, SETUP_SAMPLES)
        values = end_to_end(res, setup, rss)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print("\n".join(report(a.workload, res, values, units, setup)))
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise SystemExit(f"metric {m['name']} was not measured")
        v = values[m["name"]]
        # JSON has no infinity: a metric of a failed run reads null.
        metrics[m["name"]] = {"value": v if math.isfinite(v) else None, "unit": m["unit"]}
    if a.trace:
        for k, v in metrics.items():
            print(f"  {k:<42} {v['value']:>16.4f} {v['unit']}")
    t = res.tally
    print(json.dumps({
        "correct": t.failed == 0 and t.attempted > 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
