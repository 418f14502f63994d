#!/usr/bin/env python3
"""The repository benchmark: one command over the workloads of BENCHMARK.json.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 30] [--trace 0|1]
                             [--save FILE] [--jobs N]
    python3 perfbench/run.py --compare A.json B.json

Run it from the root of a checkout. It builds `utility_risk` and the tracer
with cargo into $CARGO_TARGET_DIR (default `.bench_build`), prepares the
workload, times the CLI for --seconds, checks every output against the
reference for the seed, and prints one JSON object as its last line. With
--trace 1 it runs the workload untraced and through the tracer, and
reports the per-layer metrics instead. perfbench/README.md lists every
metric, unit and workload.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib as bl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
PINNED = HERE / "reference.json"
TRACER_MANIFEST = HERE / "tracer" / "Cargo.toml"

# Set-ups timed after the invocations, SETUP_GAP_S apart; setup_s is their
# median.
SETUP_REPEATS = 51
SETUP_GAP_S = 0.04
# One invocation may not run longer than this before it is killed.
INVOCATION_TIMEOUT_S = 170


class Workload:
    def __init__(self, cmd, jobs, flags, restore_journal, agents):
        self.cmd, self.jobs, self.flags = cmd, jobs, flags
        # Resume from a journal holding every other cell of the reference run.
        self.restore_journal = restore_journal
        self.agents = agents  # loopback serve-worker agents per invocation

    def flag(self, name, default=None):
        """The value the timed command passes for `name`."""
        return dict(zip(self.flags[::2], self.flags[1::2])).get(name, default)


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "paper_inproc": Workload("all", 5000, ["--threads", "2"], False, 0),
    "resume_tcp": Workload("summary", 50, [], True, 2),
}

# Top-level tracer spans whose time is reported under a layer metric.
SPAN_METRICS = {
    "workload.generate": "workload.generate_s",
    "store.build": "store.build_s", "store.save": "store.save_s",
    "analysis.separate": "analysis.separate_s",
    "analysis.integrated": "analysis.integrated_s",
    "report.tables": "report.tables_s", "report.figures": "report.figures_s",
    "report.md": "report.md_s", "report.export": "report.export_s",
    "report.summary": "report.summary_s",
}

# End-to-end metrics printed with the others but not gated in BENCHMARK.json:
# a workload's simulated jobs are fixed, so this is a constant over wall_s
# and would gate the same noise twice, widened by the inversion.
PRINTED_ONLY = {"sim_jobs_per_s": "jobs/s"}


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def metric_units(kind):
    """{name: unit} of BENCHMARK.json's `end_to_end` or `per_layer` list,
    in its order: the one place metric names and units are defined."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# --- build -----------------------------------------------------------------

def build():
    """Builds utility_risk and the tracer from the checkout's sources."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "experiments").is_dir():
        die(f"{ROOT} is not the root of a repository checkout (no Cargo.toml / crates/)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for extra in (["-p", "ccs-experiments", "--bin", "utility_risk"],
                  ["--manifest-path", str(TRACER_MANIFEST)]):
        r = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *extra],
                           cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True, timeout=880)
        if r.returncode != 0:
            die("cargo build failed:\n" + r.stderr[-4000:])
    return target / "release" / "utility_risk", target / "release" / "perfbench-tracer"


def source_id():
    """The checkout's commit: `git rev-parse HEAD` where git knows it,
    otherwise a sha256 over the source files (a plain export has no .git)."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    files = []
    for top in ("Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"):
        path = ROOT / top
        if path.is_file():
            files.append(path)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            files += [Path(dirpath) / f for f in sorted(filenames)]
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return "tree:" + h.hexdigest()[:16]


def fingerprint():
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    return {"host": bl.host_fingerprint(rustc), "commit": source_id()}


# --- processes ---------------------------------------------------------------

def wait_rusage(proc, timeout):
    """Waits for `proc` (killing it after `timeout` seconds) and returns
    (exit code, peak RSS in MiB of it and its reaped descendants)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru.ru_maxrss / 1024.0


class Agents:
    """Loopback `serve-worker` agents for one invocation, on ephemeral
    ports unless `addrs` names the ones to reuse."""

    def __init__(self, binary, n, logdir, addrs=None):
        self.procs, self.addrs = [], []
        for i in range(n):
            listen = addrs[i] if addrs else "127.0.0.1:0"
            with open(logdir / f"agent{i}.err", "wb") as err:
                p = subprocess.Popen([str(binary), "serve-worker", "--listen", listen],
                                     stdout=subprocess.PIPE, stderr=err)
            self.procs.append(p)
            line = p.stdout.readline().decode()
            if not line.startswith("serve-worker listening "):
                self.finish(0.0)
                die(f"serve-worker on {listen} did not report its address: {line!r}")
            self.addrs.append(line.split()[-1])

    def finish(self, grace):
        """Lets the agents exit by themselves for up to `grace` seconds,
        then kills the rest. Returns the largest agent peak RSS (MiB)."""
        deadline = time.monotonic() + grace
        peak = 0.0
        for p in self.procs:
            pid, status, ru = os.wait4(p.pid, os.WNOHANG)
            while not pid and time.monotonic() < deadline:
                time.sleep(0.005)
                pid, status, ru = os.wait4(p.pid, os.WNOHANG)
            if not pid:
                p.kill()
                _, status, ru = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
            peak = max(peak, ru.ru_maxrss / 1024.0)
            p.stdout.close()
        return peak


# --- references ----------------------------------------------------------------

class Reference:
    """Expected outputs for one (command, jobs, seed): pinned in
    reference.json for the seeds it lists, otherwise a separate in-process
    run of the same config, made once and cached under .perfbench/cache.
    The cached run also yields the journal that resume_tcp restores: every
    other cell, in grid order.

    With `run_unpinned` false, an unpinned `all` seed gets no reference
    run: a traced paper-scale run already takes about 90 s, so it checks
    the CLI run and the tracer's pipeline pass against each other instead."""

    def __init__(self, binary, wl, seed, jobs, run_unpinned=True):
        self.key = f"{wl.cmd}-jobs{jobs}-seed{seed}"
        self.dir = WORK / "cache" / self.key
        self.half_journal = self.dir / "half.jsonl"
        pinned = json.loads(PINNED.read_text()).get(self.key)
        cached = self.dir / "reference.json"
        if not cached.exists() and (wl.restore_journal or (run_unpinned and not pinned)):
            self._make(binary, wl, seed, jobs)
        # A pinned reference always wins: a cached run that disagrees with it
        # means the program's output changed, and every check will say so.
        self.expected = pinned or (json.loads(cached.read_text()) if cached.exists() else None)

    def _make(self, binary, wl, seed, jobs):
        tmp = self.dir.with_name(self.dir.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        # One thread journals the cells in grid order; paper scale keeps the
        # workload's two threads so the reference costs one invocation.
        with open(tmp / "stdout.txt", "wb") as out:
            r = subprocess.run([str(binary), wl.cmd, "--jobs", str(jobs), "--seed", str(seed),
                                "--threads", wl.flag("--threads", "1"), "--quiet",
                                "--resume", str(tmp / "full.jsonl"), "--out", str(tmp / "out")],
                               stdout=out, stderr=subprocess.DEVNULL,
                               timeout=INVOCATION_TIMEOUT_S)
        if r.returncode != 0:
            die(f"reference run for {self.key} exited {r.returncode}")
        lines = (tmp / "full.jsonl").read_text().splitlines(keepends=True)
        (tmp / "half.jsonl").write_text("".join(lines[::2]))
        store = json.loads((tmp / "out" / "results_store.json").read_text())
        (tmp / "reference.json").write_text(json.dumps({
            "stdout_sha256": bl.sha256_file(tmp / "stdout.txt"),
            "store_sha256": bl.store_projection_digest(store)}))
        shutil.rmtree(tmp / "out")
        shutil.rmtree(self.dir, ignore_errors=True)
        tmp.rename(self.dir)


# --- one invocation ----------------------------------------------------------------

class Invocation:
    """One set-up plus one timed `utility_risk` run, and its check."""

    def __init__(self, wl, binary, ref, seed, jobs, workdir, telemetry=False):
        self.wl, self.binary, self.ref, self.seed, self.jobs = wl, binary, ref, seed, jobs
        self.dir = workdir
        self.telemetry = telemetry
        self.problems = []
        self.restored = set()
        self.digests = None

    def setup(self, agent_addrs=None):
        t0 = time.perf_counter()
        self.dir.mkdir(parents=True)
        self.out = self.dir / "out"
        self.out.mkdir()
        self.journal = None
        if self.wl.restore_journal:
            self.journal = self.dir / "journal.jsonl"
            shutil.copyfile(self.ref.half_journal, self.journal)
        self.agents = Agents(self.binary, self.wl.agents, self.dir, agent_addrs) \
            if self.wl.agents else None
        self.setup_s = time.perf_counter() - t0
        if self.journal:
            self.restored = bl.journal_keys(self.journal)
        return self

    def argv(self):
        argv = [str(self.binary), self.wl.cmd, "--jobs", str(self.jobs), "--seed", str(self.seed),
                *self.wl.flags, "--out", str(self.out)]
        if self.journal:
            argv += ["--resume", str(self.journal)]
        if self.agents:
            argv += ["--remote", ",".join(self.agents.addrs)]
        if self.telemetry:
            argv += ["--telemetry", str(self.dir / "telemetry.json")]
        return argv

    def run(self):
        with open(self.dir / "stdout.txt", "wb") as so, open(self.dir / "stderr.txt", "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(self.argv(), stdout=so, stderr=se, cwd=ROOT)
            self.rc, rss = wait_rusage(proc, INVOCATION_TIMEOUT_S)
            self.wall_s = time.perf_counter() - t0
        agent_rss = self.agents.finish(10.0) if self.agents else 0.0
        self.peak_rss_mb = max(rss, agent_rss)
        self.check()
        return self

    def teardown_unused(self):
        """Ends an extra set-up that was only timed."""
        if self.agents:
            self.agents.finish(0.0)
        shutil.rmtree(self.dir, ignore_errors=True)

    def check(self):
        self.attempted = bl.CELLS_PER_RUN - len(self.restored)
        self.links = {"failed_dials": 0, "backoff_s": 0.0, "fallback_cells": 0}
        self.store_bytes = 0
        self.errors = 0
        self.degraded = 0
        self.simulated_events = 0
        if self.rc != 0:
            self.problems.append(f"exit code {self.rc}")
        store_path = self.out / "results_store.json"
        if not store_path.exists():
            self.problems.append("no results_store.json")
            return
        store = json.loads(store_path.read_text())
        self.store_bytes = store_path.stat().st_size
        self.digests = {"stdout_sha256": bl.sha256_file(self.dir / "stdout.txt"),
                        "store_sha256": bl.store_projection_digest(store)}
        errors_path = self.out / "cell_errors.json"
        if errors_path.exists():
            self.errors = len(json.loads(errors_path.read_text()))
        # Only a traced run at an unpinned seed has no reference here;
        # traced_pass checks this invocation against the tracer's pass.
        expected = self.ref.expected or self.digests
        if self.digests["stdout_sha256"] != expected["stdout_sha256"]:
            self.problems.append("stdout differs from the reference")
        if self.digests["store_sha256"] != expected["store_sha256"]:
            self.problems.append("store projection differs from the reference")
        stderr = (self.dir / "stderr.txt").read_text(errors="replace")
        self.links = bl.parse_supervisor_stderr(stderr)
        self.degraded = bl.degraded_cells(store, self.restored)
        if self.degraded != self.links["fallback_cells"]:
            self.problems.append(f"store shows {self.degraded} in-process cells, stderr warns "
                                 f"of {self.links['fallback_cells']}")
        self.simulated_events = bl.simulated_events(store, self.restored)

    @property
    def failed(self):
        return self.attempted if self.problems else self.errors

    @property
    def sim_jobs(self):
        return (self.attempted - self.failed) * self.jobs

    def report_bytes(self):
        """Bytes of the figure and report artifacts the run wrote."""
        return sum(p.stat().st_size for p in self.out.iterdir()
                   if p.is_file() and p.name != "results_store.json")


# --- timed run (--trace 0) ----------------------------------------------------------

def timed_run(wl, binary, ref, seed, jobs, seconds, runs_dir):
    invocations = []
    t_start = time.perf_counter()
    while True:
        inv = Invocation(wl, binary, ref, seed, jobs, runs_dir / f"inv{len(invocations)}")
        invocations.append(inv.setup().run())
        for p in inv.problems:
            print(f"check failed ({inv.dir.name}): {p}", file=sys.stderr)
        if inv.problems or len(invocations) > 1:
            shutil.rmtree(inv.dir / "out", ignore_errors=True)
        elapsed = time.perf_counter() - t_start
        per_invocation = elapsed / len(invocations)
        if elapsed + per_invocation > seconds:
            break
    # setup_s comes from a phase of its own, so that it does not depend on
    # how many invocations fit the run. The set-ups are spaced out: back to
    # back they all land in one ~10 ms slice of host state, and batch
    # medians moved 3x between batches; spread over ~2 s they moved 1.3x.
    setups = []
    for n in range(SETUP_REPEATS):
        time.sleep(SETUP_GAP_S)
        extra = Invocation(wl, binary, ref, seed, jobs, runs_dir / f"setup{n}")
        setups.append(extra.setup().setup_s)
        extra.teardown_unused()

    walls = [i.wall_s for i in invocations]
    attempted = sum(i.attempted for i in invocations)
    failed = sum(i.failed for i in invocations)
    degraded = sum(i.degraded for i in invocations)
    ok_ratio, undegraded_ratio = bl.cell_ratios(attempted, failed, degraded)
    metrics = {
        "wall_s": bl.median(walls),
        "sim_jobs_per_s": bl.median([i.sim_jobs / i.wall_s for i in invocations]),
        "setup_s": bl.median(setups),
        "peak_rss_mb": bl.median([i.peak_rss_mb for i in invocations]),
        "ok_cell_ratio": ok_ratio,
        "undegraded_cell_ratio": undegraded_ratio,
    }
    tail = bl.tail_percentile(len(walls))
    tail_note = f", p{tail:g} {bl.percentile(walls, tail):.4f} s" if tail else ""
    print(f"{wl.cmd} x{len(walls)}: wall median {metrics['wall_s']:.4f} s{tail_note}; "
          f"set-up median of {len(setups)}: {metrics['setup_s'] * 1e3:.3f} ms; "
          f"{degraded} cell(s) degraded to in-process", file=sys.stderr)
    samples = {"wall_s": walls, "setup_s": setups}
    return not any(i.problems for i in invocations), attempted, failed, metrics, samples


# --- traced run (--trace 1) ---------------------------------------------------------

def tracer(binary, sub, args):
    """Runs one tracer subcommand; returns (parsed JSON, wall seconds)."""
    t0 = time.perf_counter()
    r = subprocess.run([str(binary), sub, *args], capture_output=True, text=True,
                       cwd=ROOT, timeout=INVOCATION_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if r.returncode != 0:
        die(f"tracer {sub} exited {r.returncode}: {r.stderr[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1]), wall


def traced_pass(wl, binary, tracer_bin, ref, seed, jobs, runs_dir, n):
    """One untraced invocation followed by one tracer pipeline pass,
    prepared alike. Returns (untraced invocation, pipeline JSON, traced
    wall, problems)."""
    inv = Invocation(wl, binary, ref, seed, jobs, runs_dir / f"untraced{n}", telemetry=True)
    inv.setup().run()
    problems = list(inv.problems)
    # The supervisor's redial jitter is keyed by the agent address, so the
    # traced pass reuses the untraced pass's ports and backs off alike.
    traced = Invocation(wl, binary, ref, seed, jobs, runs_dir / f"traced{n}").setup(
        inv.agents.addrs if inv.agents else None)
    args = ["--cmd", wl.cmd, "--jobs", str(jobs), "--seed", str(seed),
            "--threads", wl.flag("--threads", "0"), "--out", str(traced.out),
            "--bin", str(binary)]
    if traced.journal:
        args += ["--resume", str(traced.journal)]
    if traced.agents:
        args += ["--remote", ",".join(traced.agents.addrs)]
    try:
        pipe, traced_wall = tracer(tracer_bin, "pipeline", args)
    finally:
        if traced.agents:
            traced.agents.finish(10.0)
    tstore = json.loads((traced.out / "results_store.json").read_text())
    expected = ref.expected or inv.digests or {}
    if bl.sha256_file(traced.out / "stdout.txt") != expected.get("stdout_sha256"):
        problems.append("traced pipeline stdout differs from the reference")
    if bl.store_projection_digest(tstore) != expected.get("store_sha256"):
        problems.append("traced pipeline store differs from the reference")
    pipe["attempted"] = bl.CELLS_PER_RUN - len(traced.restored)
    return inv, pipe, traced_wall, problems


def traced_run(wl, binary, tracer_bin, ref, seed, jobs, runs_dir):
    # 1-2. Untraced invocations and tracer pipeline passes, alternating. A
    # paper-scale pass is long enough to stand alone; the cheap workloads
    # take the median of several, span by span.
    passes = [traced_pass(wl, binary, tracer_bin, ref, seed, jobs, runs_dir, n)
              for n in range(1 if wl.cmd == "all" else 5)]
    invs, pipes, traced_walls, pass_problems = zip(*passes)
    inv, pipe = invs[-1], pipes[-1]
    problems = [p for ps in pass_problems for p in ps]
    untraced_wall = bl.median([i.wall_s for i in invs])
    traced_wall = bl.median(traced_walls)
    spans = {s["name"]: bl.median([t["secs"] for p in pipes for t in p["spans"]
                                   if t["name"] == s["name"]])
             for s in pipe["spans"]}
    telemetry_path = inv.dir / "telemetry.json"
    dials = bl.telemetry_dials(json.loads(telemetry_path.read_text())) \
        if telemetry_path.exists() else 0
    common = ["--cmd", wl.cmd, "--jobs", str(jobs), "--seed", str(seed)]

    # 3. Probes and the replay of the cells the run simulated.
    probe_dir = runs_dir / "probes"
    probe_dir.mkdir()
    pargs = common + ["--threads", "2", "--out", str(probe_dir), "--bin", str(binary),
                      "--store", str(inv.out / "results_store.json")]
    if inv.agents:
        # The run's (now exited) agents: marks the probes' run as supervised.
        pargs += ["--remote", ",".join(inv.agents.addrs)]
    if wl.restore_journal:
        for name in ("inproc.jsonl", "probe.jsonl"):
            shutil.copyfile(ref.half_journal, probe_dir / name)
        pargs += ["--skip-journal", str(ref.half_journal),
                  "--inproc-journal", str(probe_dir / "inproc.jsonl"),
                  "--journal-probe", str(probe_dir / "probe.jsonl")]
    probes, _ = tracer(tracer_bin, "probes", pargs)
    rargs = common + ["--out", str(probe_dir), "--store", str(inv.out / "results_store.json")]
    if wl.restore_journal:
        rargs += ["--skip-journal", str(ref.half_journal)]
    replay, _ = tracer(tracer_bin, "replay", rargs)
    if replay["mismatches"]:
        problems.append(f"{replay['mismatches']} replayed cell(s) differ from the run")

    # 4. Per-layer metrics. One whose layer the workload does not cross
    # reads 0.
    m = {name: 0 for name in metric_units("per_layer")}
    for span, metric in SPAN_METRICS.items():
        m[metric] = spans.get(span, 0.0)
    m.update(bl.simsvc_layer(replay["families"]))
    if m["des.events"] != inv.simulated_events:
        problems.append(f"replay simulated {m['des.events']} events, the run {inv.simulated_events}")
    m.update(bl.grid_layer(probes.get("inproc_grids") or pipe["grids"]))
    m["workload.apply_scenario_s"] = probes["apply_scenario_s"]
    if "inproc_grids" in probes:
        m["supervisor.overhead_s"] = (sum(g["wall_s"] for g in pipe["grids"])
                                      - sum(g["wall_s"] for g in probes["inproc_grids"]))
    m["supervisor.handshake_s"] = bl.median(probes.get("handshake_s", []))
    m["ipc.frames"] = probes.get("ipc_frames", 0)
    m["ipc.bytes"] = probes.get("ipc_bytes", 0)
    m["ipc.codec_s"] = probes.get("ipc_codec_s", 0.0)
    m["transport.dials"] = dials
    m["transport.failed_dials"] = inv.links["failed_dials"]
    m["transport.backoff_s"] = inv.links["backoff_s"]
    m["transport.degraded_cells"] = inv.degraded
    m["journal.open_s"] = probes.get("journal_open_s", 0.0)
    m["journal.loaded"] = probes.get("journal_loaded", 0)
    m["journal.append_s"] = probes.get("journal_append_s", 0.0)
    m["journal.bytes"] = probes.get("journal_bytes", 0)
    m["store.bytes"] = inv.store_bytes
    m["report.bytes"] = inv.report_bytes() if wl.cmd == "all" else 0
    m["trace.wall_s"] = untraced_wall
    m["trace.traced_wall_s"] = traced_wall
    m["trace.spans_s"] = sum(spans.values())
    m["trace.residual_s"] = bl.residual(untraced_wall, spans)
    m["trace.overhead_s"] = traced_wall - untraced_wall

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    attempted = sum(i.attempted + p["attempted"] for i, p in zip(invs, pipes))
    failed = attempted if problems else sum(i.errors + p["cell_errors"] for i, p in zip(invs, pipes))
    table = render_table(wl, seed, jobs, spans, m, replay["families"])
    return not problems, attempted, failed, m, table


def render_table(wl, seed, jobs, spans, m, families):
    """Markdown table: top-level spans + residual = untraced wall, then the
    simsvc family split of the replay."""
    wall = m["trace.wall_s"]
    lines = [f"## `utility_risk {wl.cmd}` --jobs {jobs} --seed {seed} {' '.join(wl.flags)}".rstrip(),
             "", "| top-level span | seconds | share of wall |", "|---|---:|---:|"]
    for name, secs in spans.items():
        lines.append(f"| {name} | {secs:.4f} | {secs / wall:.1%} |")
    lines += [f"| trace.residual_s | {m['trace.residual_s']:.4f} | {m['trace.residual_s'] / wall:.1%} |",
              f"| **untraced wall_s** | **{wall:.4f}** | 100% |", "",
              f"traced wall {m['trace.traced_wall_s']:.4f} s, "
              f"trace.overhead_s {m['trace.overhead_s']:+.4f} s", "",
              "| simsvc family (replay) | cells | busy s | share | events | events/s |",
              "|---|---:|---:|---:|---:|---:|"]
    busy = sum(f["busy_s"] for f in families.values()) or 1.0
    for fam in bl.FAMILIES:
        f = families[fam]
        rate = f["events"] / f["busy_s"] if f["busy_s"] else 0.0
        lines.append(f"| {fam} | {f['cells']} | {f['busy_s']:.4f} | {f['busy_s'] / busy:.1%} | "
                     f"{f['events']} | {rate:,.0f} |")
    return "\n".join(lines) + "\n"


# --- compare ------------------------------------------------------------------------

def compare(a_path, b_path):
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    if not bl.comparable(a["fingerprint"], b["fingerprint"]):
        die(f"refusing to compare results from different hosts:\n  {a['fingerprint']['host']}\n"
            f"  {b['fingerprint']['host']}", code=3)
    print(f"A: {a['workload']} seed {a['seed']} @ {a['fingerprint']['commit']}")
    print(f"B: {b['workload']} seed {b['seed']} @ {b['fingerprint']['commit']}")
    for name, va in a["result"]["metrics"].items():
        vb = b["result"]["metrics"].get(name, {}).get("value")
        if vb is None:
            continue
        va = va["value"]
        delta = f"{(vb - va) / va:+.1%}" if va else "n/a"
        print(f"{name:34} {va:>16.6g} {vb:>16.6g} {delta:>8}")


# --- main ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, help="override the workload's trace size (smoke tests)")
    ap.add_argument("--save", help="also write the result, fingerprint and samples here")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two --save files from the same host")
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if not args.workload:
        ap.error("--workload is required")

    wl = WORKLOADS[args.workload]
    binary, tracer_bin = build()
    fp = fingerprint()
    jobs = args.jobs or wl.jobs
    runs_dir = WORK / "runs" / args.workload
    shutil.rmtree(runs_dir, ignore_errors=True)
    runs_dir.mkdir(parents=True)
    ref = Reference(binary, wl, args.seed, jobs, run_unpinned=not args.trace)
    print(f"fingerprint: {json.dumps(fp)}", file=sys.stderr)

    if args.trace:
        correct, attempted, failed, values, table = traced_run(
            wl, binary, tracer_bin, ref, args.seed, jobs, runs_dir)
        print(table, file=sys.stderr)
        units = metric_units("per_layer")
        samples = {}
    else:
        correct, attempted, failed, values, samples = timed_run(
            wl, binary, ref, args.seed, jobs, args.seconds, runs_dir)
        units = metric_units("end_to_end")
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    for name, unit in {**units, **PRINTED_ONLY}.items():
        if name in values:
            print(f"{name} = {values[name]} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.save:
        Path(args.save).write_text(json.dumps({
            "fingerprint": fp, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "jobs": jobs,
            "result": result, "samples": samples}, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
