"""The benchmark's workloads: the ``wbsim-job/1`` manifests each one sends.

Every manifest is a pure function of a pool base seed and an index, so
its artifacts can be pinned (``pins.json``) once and checked on every
run. The benchmark's ``--seed`` only chooses where in the pool a run
starts and, for ``serve``, the order and mix of requests.
"""

import json
import random

# Pool base seeds: the trace seed of pool entry i is base + i. The
# held-out pool was never run while the benchmark was tuned; its
# artifacts are pinned too.
POOLS = {"tune": 1000, "held-out": 7919}

# Distinct miss rounds a run may use before its pool runs out. A run
# makes about a third of this on a 2-vCPU VM; one that exhausts
# the pool simply stops measuring early.
POOL_SIZE = 24

# Fresh manifests per serve template and client thread.
SERVE_SLOTS = 256

MODELS = [
    "espresso", "compress", "uncompress", "sc", "cc1", "li", "doduc", "hydro2d",
    "mdljsp2", "tomcatv", "fpppp", "mdljdp2", "wave5", "su2cor", "fft",
    "cholsky", "gmtry",
]

BASELINE_CFG = "wb.depth = 4\nwb.retirement = retire-at-2\nwb.hazard = flush-full\n"
DEEP_RFW_CFG = "wb.depth = 12\nwb.retirement = retire-at-10\nwb.hazard = read-from-wb\n"


def manifest(kind, spec, instructions, warmup, seed, check_data=False, jobs=2):
    return json.dumps(
        {
            "schema": "wbsim-job/1",
            "kind": kind,
            "spec": spec,
            "options": {
                "instructions": instructions,
                "warmup": warmup,
                "seed": seed,
                "check_data": check_data,
                "jobs": jobs,
                "engine": "event-driven",
            },
        },
        separators=(",", ":"),
    )


class Job:
    """One manifest and the pin key its artifacts are checked against."""

    def __init__(self, key, text, checker=None):
        self.key = key
        self.text = text
        self.checker = checker  # "blocking" / "nonblocking" for check jobs


# Checker counts pinned from the commit that defined the benchmark:
# (reach states, reach edges, refine pair-states, refine transitions) of
# the blocking grid and of each MSHR count of the non-blocking grid.
CHECKER_COUNTS = {
    "blocking": (16468, 131744, 16468, 164680),
    "nonblocking-m1": (8929, 71432, 8929, 89290),
    "nonblocking-m2": (10741, 85928, 10741, 107410),
    "nonblocking-m3": (10741, 85928, 10741, 107410),
    "nonblocking-m4": (10741, 85928, 10741, 107410),
}
# The four MSHR counts add up to the whole non-blocking grid.
NONBLOCKING_TOTAL = (41152, 329216, 41152, 411520)
assert tuple(map(sum, zip(*(v for k, v in CHECKER_COUNTS.items() if k != "blocking")))) == (
    NONBLOCKING_TOTAL
)


def table7_round(base, i):
    """Table 7 at the BENCH_6/BENCH_10 scale: 17 models x 3 real-L2 sizes."""
    seed = base + i
    return [Job(f"table7/{seed}", manifest("table", {"which": "7"}, 1_000_000, 300_000, seed))]


def wb_design_round(base, i):
    """Figures 4, 5 and 6 with values carried and checked (16 configs x 17)."""
    seed = base + i
    return [
        Job(
            f"wb-design/fig{n}/{seed}",
            manifest(
                "figure",
                {"which": str(n), "format": "text"},
                200_000,
                50_000,
                seed,
                check_data=True,
            ),
        )
        for n in (4, 5, 6)
    ]


def verify_round(base, i):
    """Reach and refine over the blocking grid, then over the non-blocking
    grid one MSHR count (1-4) per job.

    The checkers ignore ``options.seed``, but the cache key includes it,
    so giving each round its own seed makes every round a store miss with
    the same artifacts."""
    seed = base + i
    specs = [("blocking", {"machine": "blocking"})] + [
        (f"nonblocking-m{m}", {"machine": "nonblocking", "mshrs": m}) for m in (1, 2, 3, 4)
    ]
    return [
        Job(
            f"verify/{name}",
            manifest("check", {"reach": True, "refine": True, **spec}, 1_000_000, 333_333, seed),
            checker=name,
        )
        for name, spec in specs
    ]


def serve_job(base, template, i):
    """Fresh small job ``i`` of a serve template (one pool thread each)."""
    seed = base + i
    model = MODELS[i % len(MODELS)]
    if template == "table4":
        text = manifest("table", {"which": "4"}, 20_000, 5_000, seed, jobs=1)
    elif template == "fig3-svg":
        text = manifest("figure", {"which": "3", "format": "svg"}, 20_000, 5_000, seed, jobs=1)
    elif template == "trace-blocking":
        spec = {"bench": model, "config": BASELINE_CFG, "mshrs": 0}
        text = manifest("trace", spec, 3_000, 0, seed, jobs=1)
    elif template == "trace-mshr2":
        spec = {"bench": model, "config": DEEP_RFW_CFG, "mshrs": 2}
        text = manifest("trace", spec, 3_000, 0, seed, jobs=1)
    else:
        raise ValueError(template)
    return Job(f"serve/{template}/{seed}", text)


SERVE_TEMPLATES = ["table4", "fig3-svg", "trace-blocking", "trace-mshr2"]

ROUNDS = {"table7": table7_round, "wb-design": wb_design_round, "verify": verify_round}
WORKLOADS = ["table7", "wb-design", "verify", "serve"]


def start_index(seed, span):
    """Where in a pool of ``span`` entries the run with ``seed`` starts."""
    return random.Random(f"start/{seed}").randrange(span)


def round_indices(seed):
    """Pool indices of a round workload's miss rounds, in order."""
    first = start_index(seed, POOL_SIZE)
    return [(first + k) % POOL_SIZE for k in range(POOL_SIZE)]


def serve_indices(seed, thread):
    """Per-template fresh-manifest indices for one serve client thread:
    thread k owns the indices congruent to k mod 2, so the two threads
    never submit the same fresh manifest."""
    out = {}
    for t in SERVE_TEMPLATES:
        first = start_index(f"{seed}/{t}/{thread}", SERVE_SLOTS)
        out[t] = [2 * ((first + k) % SERVE_SLOTS) + thread for k in range(SERVE_SLOTS)]
    return out


def pin_jobs(base):
    """Every job a pool can produce, for ``pin.py``."""
    jobs = []
    for i in range(POOL_SIZE):
        jobs += table7_round(base, i) + wb_design_round(base, i)
    jobs += verify_round(base, 0)
    for t in SERVE_TEMPLATES:
        for i in range(2 * SERVE_SLOTS):
            jobs.append(serve_job(base, t, i))
    return jobs
