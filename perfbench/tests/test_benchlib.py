"""Tests of the benchmark's own logic (no build needed).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import benchlib as bl  # noqa: E402


def store(rows):
    """A minimal schema-v4-shaped store from row dicts."""
    scenarios, policies = [], []
    cols = {c: [] for c in bl.LOGICAL_COLUMNS + ("scenario", "policy", "secs", "worker")}
    for r in rows:
        for table, key in ((scenarios, "scenario"), (policies, "policy")):
            if r[key] not in table:
                table.append(r[key])
        for c in cols:
            if c == "scenario":
                cols[c].append(scenarios.index(r["scenario"]))
            elif c == "policy":
                cols[c].append(policies.index(r["policy"]))
            else:
                cols[c].append(r.get(c, 0))
    return {"schema_version": 4, "scenarios": scenarios, "policies": policies, "columns": cols}


ROWS = [
    {"scenario": "workload", "policy": "Libra", "digest": "k1", "wait": 1.5, "events": 10,
     "secs": 0.2, "worker": 1},
    {"scenario": "workload", "policy": "FCFS-BF", "digest": "k2", "wait": 2.5, "events": 20,
     "secs": 0.1, "worker": 0},
    {"scenario": "deadline", "policy": "Libra", "digest": "k3", "wait": 0.5, "events": 30,
     "secs": 0.3, "worker": 0},
]


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(bl.tail_percentile(1560), 99.0)
        self.assertEqual(bl.tail_percentile(780), 98.7)
        self.assertEqual(bl.tail_percentile(100), 90.0)
        self.assertEqual(bl.tail_percentile(40), 75.0)
        self.assertIsNone(bl.tail_percentile(10))
        self.assertIsNone(bl.tail_percentile(0))

    def test_rule_leaves_ten_samples_beyond_the_rank(self):
        for n in range(11, 3000):
            p = bl.tail_percentile(n)
            rank = math.ceil(p * n / 100.0 - 1e-9)
            self.assertGreaterEqual(n - rank, bl.MIN_TAIL_SAMPLES, n)

    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(bl.percentile(samples, 50), 50)
        self.assertEqual(bl.percentile(samples, 90), 90)
        self.assertEqual(bl.percentile(samples, 100), 100)
        self.assertEqual(bl.percentile([], 99), 0.0)


class Arithmetic(unittest.TestCase):
    def test_cell_ratios(self):
        # resume_tcp at the default seed: 780 computed cells, 585 degraded.
        self.assertEqual(bl.cell_ratios(780, 0, 585), (1.0, 0.25))
        self.assertEqual(bl.cell_ratios(1560, 1560, 0), (0.0, 1.0))
        self.assertEqual(bl.cell_ratios(0, 0, 0), (0.0, 0.0))

    def test_residual_closes_the_table(self):
        spans = {"grid.commodity_A": 7.25, "analysis.separate": 0.5, "store.save": 0.25}
        r = bl.residual(10.0, spans)
        self.assertAlmostEqual(r, 2.0)
        self.assertAlmostEqual(sum(spans.values()) + r, 10.0)
        self.assertLess(bl.residual(1.0, {"grid": 1.5}), 0.0)

    def test_grid_layer(self):
        grids = [
            {"name": "commodity_A", "wall_s": 2.0, "busy_s": [2.0, 1.5],
             "cell_secs": [0.001] * 20, "cache_hits": 1, "cache_misses": 3},
            {"name": "bid_B", "wall_s": 1.0, "busy_s": [1.0, 1.0],
             "cell_secs": [0.002] * 20, "cache_hits": 1, "cache_misses": 3},
        ]
        m = bl.grid_layer(grids)
        self.assertEqual(m["grid.commodity_A.wall_s"], 2.0)
        self.assertAlmostEqual(m["grid.utilisation"], 5.5 / 6.0)
        self.assertAlmostEqual(m["grid.tail_s"], 0.0)
        self.assertEqual(m["grid.cell_samples"], 40)
        self.assertEqual(m["grid.cell_tail_pct"], 75.0)
        self.assertAlmostEqual(m["grid.cell_p50_ms"], 1.0)
        self.assertAlmostEqual(m["grid.cell_p99_ms"], 2.0)
        self.assertEqual(m["workload.cache_hit_ratio"], 0.25)

    def test_simsvc_layer(self):
        fams = {f: {"busy_s": 0.0, "events": 0, "cells": 0} for f in bl.FAMILIES}
        fams["libra"] = {"busy_s": 2.0, "events": 1000, "cells": 3}
        m = bl.simsvc_layer(fams)
        self.assertEqual(m["simsvc.libra.events_per_s"], 500.0)
        self.assertEqual(m["simsvc.backfill.events_per_s"], 0.0)
        self.assertEqual(m["des.events"], 1000)


class Parsing(unittest.TestCase):
    def test_projection_ignores_timing_worker_and_row_order(self):
        base = bl.store_projection_digest(store(ROWS))
        moved = [dict(r, secs=9.0, worker=7) for r in reversed(ROWS)]
        self.assertEqual(bl.store_projection_digest(store(moved)), base)
        changed = [dict(ROWS[0], wait=1.25)] + ROWS[1:]
        self.assertNotEqual(bl.store_projection_digest(store(changed)), base)

    def test_degraded_cells_skip_journal_hits(self):
        s = store(ROWS)
        self.assertEqual(bl.degraded_cells(s, set()), 2)
        self.assertEqual(bl.degraded_cells(s, {"k2"}), 1)
        self.assertEqual(bl.simulated_events(s, {"k2"}), 40)

    def test_supervisor_stderr(self):
        a, b = "127.0.0.1:44891", "127.0.0.1:41431"
        grid = [
            f"supervisor: connection lost: dial {a}: Connection refused (os error 111); redial in 471 ms",
            f"supervisor: connection lost: dial {b}: Connection refused (os error 111); redial in 474 ms",
            f"supervisor: connection lost: dial {a}: Connection refused (os error 111); redial in 526 ms",
            f"supervisor: connect to {b} timed out after 3000 ms; redial in 669 ms",
            f"supervisor: remote {a} quarantined after 3 failed dial(s); last: connection lost: x",
            f"supervisor: remote {b} quarantined after 3 failed dial(s); last: connection lost: x",
            "warning: all 2 remote worker(s) unreachable or quarantined; "
            "running 195 remaining cell(s) in-process",
        ]
        out = bl.parse_supervisor_stderr("\n".join(["result store: 1560 row(s)"] + grid * 3))
        self.assertEqual(out["failed_dials"], 18)
        self.assertEqual(out["fallback_cells"], 585)
        # Per grid the slower address backs off 474 + 669 ms.
        self.assertAlmostEqual(out["backoff_s"], 3 * 1.143)
        self.assertEqual(bl.parse_supervisor_stderr(""),
                         {"failed_dials": 0, "backoff_s": 0.0, "fallback_cells": 0})

    def test_telemetry_dials(self):
        report = {"schema_version": 4, "grids": [
            {"worker_transports": ["pipe", "tcp"]},
            {"worker_transports": ["tcp", "tcp", "tcp"]},
            {"worker_transports": []},
        ]}
        self.assertEqual(bl.telemetry_dials(report), 4)
        self.assertEqual(bl.telemetry_dials({}), 0)

    def test_journal_keys_skip_torn_lines(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "j.jsonl")
            with open(path, "w") as f:
                f.write(json.dumps({"key": "a"}) + "\n\n" + json.dumps({"key": "b"}) + "\n")
                f.write('{"key": "c", "objecti')
            self.assertEqual(bl.journal_keys(path), {"a", "b"})
            self.assertEqual(bl.journal_keys(os.path.join(d, "missing")), set())


class Fingerprint(unittest.TestCase):
    def test_comparable_only_on_same_host(self):
        host = bl.host_fingerprint("rustc 1.0.0")
        self.assertEqual(host["nproc"], os.cpu_count())
        a = {"host": host, "commit": "git:a"}
        b = {"host": dict(host), "commit": "git:b"}
        self.assertTrue(bl.comparable(a, b))
        self.assertFalse(bl.comparable(a, {"host": dict(host, rustc="rustc 2.0.0")}))


if __name__ == "__main__":
    unittest.main()
