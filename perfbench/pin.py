#!/usr/bin/env python3
"""Regenerates ``pins.json``: the digests of every artifact each pool's
manifests produce on the current source.

Run it from the root of a checkout only when outputs change on purpose;
the benchmark counts any artifact that differs from its pin as a failed
operation. Usage:

    python3 perfbench/pin.py [--pool tune|held-out] [--prefix table7/]

Without ``--pool`` both pools are pinned; ``--prefix`` re-pins only the
keys that start with it and keeps the rest of the file.
"""

import argparse
import json
import threading
import time

import measure
import run
import workloads
from daemon import Daemon


def pin_pool(binary, base, prefix):
    jobs = [j for j in workloads.pin_jobs(base) if j.key.startswith(prefix)]
    pins, errors = {}, []
    lock = threading.Lock()
    d = Daemon(binary, run.WORKERS)

    def worker(k):
        for job in jobs[k :: run.CLIENTS]:
            sub = d.json("POST", "/v1/jobs", job.text.encode())
            while True:
                st = d.json("GET", f"/v1/jobs/{sub['id']}")
                if st["status"] in ("done", "failed"):
                    break
                time.sleep(0.01)
            if st["status"] == "failed":
                with lock:
                    errors.append(f"{job.key}: {st['failed']}")
                continue
            artifacts = {}
            for name in st["artifacts"]:
                code, data = d.request("GET", f"/v1/jobs/{sub['id']}/artifacts/{name}")
                assert code == 200, (job.key, name, code)
                artifacts[name] = data
            digests = {name: measure.digest(name, data) for name, data in artifacts.items()}
            # Check jobs must also reproduce the pinned checker counts.
            reason = run.verify(job, artifacts, {job.key: digests})
            with lock:
                pins[job.key] = digests
                if reason:
                    errors.append(reason)

    try:
        run.in_threads(run.CLIENTS, worker)
    finally:
        d.shutdown()
    if errors:
        raise SystemExit("jobs failed while pinning:\n" + "\n".join(errors))
    return pins


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pool", choices=sorted(workloads.POOLS))
    ap.add_argument("--prefix", default="")
    a = ap.parse_args()
    path = run.HERE / "pins.json"
    doc = json.loads(path.read_text()) if path.exists() else {"pools": {}}
    binary, _ = run.build()
    for pool in [a.pool] if a.pool else sorted(workloads.POOLS):
        fresh = pin_pool(binary, workloads.POOLS[pool], a.prefix)
        kept = {k: v for k, v in doc["pools"].get(pool, {}).items() if not k.startswith(a.prefix)}
        doc["pools"][pool] = dict(sorted({**kept, **fresh}.items()))
        print(f"{pool}: pinned {len(fresh)} manifests")
    doc["note"] = (
        "sha256 (first 32 hex digits) of each artifact, check.json with wall_ms "
        "normalized; regenerate with perfbench/pin.py"
    )
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
