"""Pure helpers of the repository benchmark.

Statistics, output digests, parsers for what `utility_risk` leaves behind
(result store, telemetry report, stderr), the per-layer arithmetic and the
host fingerprint. Nothing here starts a process, so `perfbench/tests`
exercises it without a build.
"""

import hashlib
import json
import math
import os
import platform
import re
import statistics

# A tail percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

# Cells in one evaluation: 4 grids x 13 scenarios x 6 values x 5 policies.
CELLS_PER_RUN = 4 * 13 * 6 * 5

# Store columns that are results, not measurements of how the run went: the
# timing, cost-vector and worker-attribution columns are left out, so runs on
# different fleets or hosts project to the same digest.
LOGICAL_COLUMNS = (
    "source", "econ", "set", "value_idx", "value", "seed",
    "wait", "sla", "reliability", "profitability", "norm_score", "risk_score",
    "events", "digest", "replicas",
    "sigma_wait", "sigma_sla", "sigma_reliability", "sigma_profitability",
)

FAMILIES = ("backfill", "libra", "first_reward", "faulty")


def tail_percentile(n, want=99.0):
    """The highest percentile, at most `want`, with at least
    MIN_TAIL_SAMPLES of `n` samples beyond it, floored to 0.1; None when
    `n` samples cannot support any tail."""
    if n <= MIN_TAIL_SAMPLES:
        return None
    cap = 100.0 * (1.0 - MIN_TAIL_SAMPLES / n)
    return min(want, math.floor(cap * 10.0 + 1e-9) / 10.0)


def percentile(samples, p):
    """Nearest-rank percentile `p` (0-100] of `samples`."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(p * len(ordered) / 100.0 - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def median(samples):
    return statistics.median(samples) if samples else 0.0


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def store_rows(store):
    """The store's rows as dicts, scenario and policy labels resolved."""
    cols = store["columns"]
    for i in range(len(cols["digest"])):
        row = {name: values[i] for name, values in cols.items()}
        row["scenario"] = store["scenarios"][cols["scenario"][i]]
        row["policy"] = store["policies"][cols["policy"][i]]
        yield row


def store_projection_digest(store):
    """sha256 over the store's logical projection, rows sorted by cell key."""
    rows = sorted(
        [[r["scenario"], r["policy"]] + [r[c] for c in LOGICAL_COLUMNS]
         for r in store_rows(store)],
        key=lambda r: r[2 + LOGICAL_COLUMNS.index("digest")],
    )
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def journal_keys(path):
    """Cell keys of every parseable record in a JSONL journal."""
    keys = set()
    if not os.path.exists(path):
        return keys
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                try:
                    keys.add(json.loads(line)["key"])
                except (ValueError, KeyError):
                    pass
    return keys


def degraded_cells(store, restored_keys):
    """Cells the run had to compute (not journal hits) that no worker
    simulated: worker id 0 on a non-journal row is the supervisor's
    in-process fallback."""
    return sum(1 for r in store_rows(store)
               if r["digest"] not in restored_keys and r["worker"] == 0)


def simulated_events(store, restored_keys):
    """Outcome events of the cells the run computed."""
    return sum(r["events"] for r in store_rows(store)
               if r["digest"] not in restored_keys)


_REDIAL = re.compile(r"supervisor: (.*); redial in (\d+) ms")
_DIAL_ADDR = re.compile(r"(?:dial |connect to )(\S+?:\d+)")
_QUARANTINED_DIAL = re.compile(r"remote (\S+) quarantined after \d+ failed dial")
_FALLBACK = re.compile(r"running (\d+) remaining cell\(s\) in-process")


def parse_supervisor_stderr(text):
    """What the supervisor's stderr says about its links.

    Returns a dict with `failed_dials` (dial failures that scheduled a
    redial, plus the final failure behind each quarantine), `backoff_s`
    (redial sleep on the critical path: per grid, the largest per-address
    sum of `redial in N ms` delays, since the addresses back off in
    parallel; grids are delimited by the in-process fallback warning) and
    `fallback_cells` (cells the warnings say ran in-process)."""
    failed = 0
    fallback = 0
    backoff_ms = 0
    grid = {}
    for line in text.splitlines():
        m = _REDIAL.search(line)
        if m:
            addr = _DIAL_ADDR.search(m.group(1))
            key = addr.group(1) if addr else m.group(1)
            grid[key] = grid.get(key, 0) + int(m.group(2))
            if addr:
                failed += 1
            continue
        if _QUARANTINED_DIAL.search(line):
            failed += 1
            continue
        m = _FALLBACK.search(line)
        if m:
            fallback += int(m.group(1))
            backoff_ms += max(grid.values(), default=0)
            grid = {}
    backoff_ms += max(grid.values(), default=0)
    return {"failed_dials": failed, "backoff_s": backoff_ms / 1000.0,
            "fallback_cells": fallback}


def telemetry_dials(report):
    """TCP dial attempts in a `--telemetry` report: the supervisor records
    one `tcp` entry in a grid's `worker_transports` per dial."""
    return sum(g.get("worker_transports", []).count("tcp") for g in report.get("grids", []))


def cell_ratios(attempted, failed, degraded):
    """(ok_cell_ratio, undegraded_cell_ratio): the complements of the
    failed and degraded shares of the cells a run attempted. Reported as
    complements so that neither metric reads 0 on a healthy run."""
    if attempted <= 0:
        return 0.0, 0.0
    return 1.0 - failed / attempted, 1.0 - degraded / attempted


def residual(untraced_wall_s, spans):
    """Untraced wall time the traced top-level spans do not cover."""
    return untraced_wall_s - sum(spans.values())


def grid_layer(grids):
    """In-process pool metrics over a run's grids (tracer JSON)."""
    cells = [s for g in grids for s in g["cell_secs"]]
    tail = tail_percentile(len(cells)) or 50.0
    capacity = sum(len(g["busy_s"]) * g["wall_s"] for g in grids)
    out = {f"grid.{g['name']}.wall_s": g["wall_s"] for g in grids}
    out.update({
        "grid.cell_p50_ms": percentile(cells, 50.0) * 1e3,
        "grid.cell_p99_ms": percentile(cells, tail) * 1e3,
        "grid.cell_tail_pct": tail,
        "grid.cell_samples": len(cells),
        "grid.utilisation": sum(sum(g["busy_s"]) for g in grids) / capacity if capacity else 0.0,
        "grid.tail_s": sum(g["wall_s"] - max(g["busy_s"], default=0.0) for g in grids),
    })
    hits = sum(g["cache_hits"] for g in grids)
    misses = sum(g["cache_misses"] for g in grids)
    out["workload.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def simsvc_layer(families):
    """Per-family busy time and event rate from the replay."""
    out = {}
    for fam in FAMILIES:
        f = families[fam]
        out[f"simsvc.{fam}.busy_s"] = f["busy_s"]
        out[f"simsvc.{fam}.events_per_s"] = f["events"] / f["busy_s"] if f["busy_s"] else 0.0
    out["des.events"] = sum(families[f]["events"] for f in FAMILIES)
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint(rustc_version):
    """What must match for two results to be comparable."""
    return {"nproc": os.cpu_count(), "cpu": cpu_model(), "rustc": rustc_version}


def comparable(a, b):
    """Results compare only when their host fingerprints match."""
    return a.get("host") == b.get("host")
