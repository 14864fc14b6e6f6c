"""Benchmark of whole ``snspectra verify`` runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Each CLI invocation runs in a fresh child process with its own character
cache, and every case it reports is graded against the cases pinned in
``workloads.py``.  ``--trace 0`` runs rounds of the workload for about S
seconds, each invocation once a round, and reports the end-to-end metrics
from each invocation's median time; ``--trace 1`` runs one plain pass and one
traced pass and reports the per-layer metrics.  The
last line of stdout is the JSON result; the lines before it are for people.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import random
import select
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# One BLAS thread: shared two-core machines are common, and a second BLAS thread makes
# the LAPACK share depend on whatever else the machine is running.
BLAS_THREADS = 1
# Set-up probes per run, half before the rounds and half after, so that one
# burst of load on the host does not move them all.
SETUP_PROBES = 16
# Rounds a timed run makes at least, whatever --seconds says, so that every
# invocation's time is a median of several.
MIN_ROUNDS = 3
# A run must end within 180 s; no child starts or keeps running past this.
DEADLINE_S = 165.0

ENV_PROBE = """
import json, platform, numpy, snspectra.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except Exception:
    blas = "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": blas, "snspectra": snspectra.cli.__file__}))
"""


@dataclass
class ChildRun:
    wall_s: float
    rss_mb: float
    returncode: int | None  # None when killed at the deadline
    stdout: str
    stderr: str


def child_env(cache_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["SNSPECTRA_CACHE_DIR"] = str(cache_dir)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv: list[str], work: Path, timeout: float) -> ChildRun:
    """Run one child to completion; wall time from spawn to reaping, peak
    RSS from this child's own rusage (``RUSAGE_CHILDREN`` would be the max
    over every child so far)."""
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(work / "cache"),
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                finished = select.select([pidfd], [], [], max(timeout, 0.0))[0]
            finally:
                os.close(pidfd)
            if not finished:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        wall,
        usage.ru_maxrss / 1024.0,
        proc.returncode if finished else None,
        (work / "stdout").read_text(errors="replace"),
        (work / "stderr").read_text(errors="replace"),
    )


def parse_outcomes(child: ChildRun) -> list[dict] | None:
    """The child's ``--format json`` outcome list, or None if it failed."""
    if child.returncode != 0:
        return None
    try:
        data = json.loads(child.stdout)
    except ValueError:
        return None
    fields = {"theorem", "params", "method", "outcome", "runtime_ms"}
    if not isinstance(data, list) or not all(
        isinstance(o, dict) and fields <= o.keys() and isinstance(o["params"], dict)
        for o in data
    ):
        return None
    return data


def command(inv: workloads.Invocation, trace_out: Path | None) -> list[str]:
    if trace_out is not None:
        return [sys.executable, str(HERE / "child.py"), "--trace-out", str(trace_out),
                inv.kind, *inv.args]
    if inv.kind == "cli":
        return [sys.executable, "-m", "snspectra.cli", *inv.args]
    return [sys.executable, str(HERE / "child.py"), inv.kind, *inv.args]


@dataclass
class Pass:
    """One run of every invocation of a workload, back to back."""

    traced: bool
    wall_s: float = 0.0
    rss_mb: float = 0.0
    child_wall_s: dict[str, float] = field(default_factory=dict)  # by invocation label
    grade: workloads.Grade = field(default_factory=workloads.Grade)
    runtimes_ms: list[float] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)


def run_pass(
    invs: list[workloads.Invocation], tmp: Path, deadline: float, traced: bool
) -> Pass:
    result = Pass(traced)
    for inv in invs:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            result.grade.add(workloads.grade(inv.expected, None))
            result.lines.append(f"  {inv.label}: not started, run deadline reached")
            continue
        work = Path(tempfile.mkdtemp(dir=tmp))
        trace_out = work / "trace.json" if traced else None
        child = run_child(command(inv, trace_out), work, remaining)
        outcomes = parse_outcomes(child)
        grade = workloads.grade(inv.expected, outcomes)
        result.grade.add(grade)
        result.wall_s += child.wall_s
        result.child_wall_s[inv.label] = child.wall_s
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        result.runtimes_ms += [float(o["runtime_ms"]) for o in outcomes or ()]
        if traced and trace_out.exists():
            result.traces.append(json.loads(trace_out.read_text()))
        status = "timed out" if child.returncode is None else f"exit {child.returncode}"
        result.lines.append(
            f"  {inv.label}: {child.wall_s:.3f} s, {child.rss_mb:.1f} MB, {status}, "
            f"{grade.attempted - grade.failed}/{grade.attempted} cases ok"
        )
        result.lines += [f"    {p}" for p in grade.problems[:5]]
        if child.returncode != 0:
            result.lines += [f"    | {line}" for line in child.stderr.splitlines()[-5:]]
    return result


def probe_environment(tmp: Path, deadline: float) -> dict:
    """Import the package once (this also writes its bytecode, which users
    do not pay for on every run) and record the versions."""
    work = Path(tempfile.mkdtemp(dir=tmp))
    child = run_child([sys.executable, "-c", ENV_PROBE], work, deadline - time.monotonic())
    if child.returncode != 0:
        raise SystemExit(f"cannot import snspectra from {SRC}:\n{child.stderr}")
    info = json.loads(child.stdout)
    if not Path(info.pop("snspectra")).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"snspectra was not imported from {SRC}")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    info.update(nproc=len(os.sched_getaffinity(0)), blas_threads=BLAS_THREADS, commit=commit)
    return info


def probe_setup(tmp: Path, probes: int, deadline: float) -> list[float]:
    """Seconds from a fresh interpreter to ``import snspectra.cli`` done."""
    work = Path(tempfile.mkdtemp(dir=tmp))
    times = []
    for _ in range(probes):
        child = run_child(
            [sys.executable, "-c", "import snspectra.cli"], work, deadline - time.monotonic()
        )
        if child.returncode != 0:
            raise SystemExit(f"import snspectra.cli failed:\n{child.stderr}")
        times.append(child.wall_s)
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(invs, seed: int, tmp: Path, seconds: float, deadline: float
              ) -> tuple[list[Pass], dict]:
    """Rounds of the workload, each running every invocation once in a seeded
    order, until the next round would overrun ``seconds``.

    ``wall_s`` is the sum over invocations of each one's median time over
    the rounds.  On a shared host the speed of a core drifts by half or more
    from one try to the next, so one try per run, as a single long pass
    gives, is not a steady estimate of what a pass costs.  The best try is
    not either: the fast moments are rare, so whether a run meets one is
    luck.
    """
    setup = probe_setup(tmp, SETUP_PROBES // 2, deadline)
    order = random.Random(seed)
    rounds: list[Pass] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        rounds.append(run_pass(order.sample(invs, len(invs)), tmp, deadline, traced=False))
        now = time.monotonic()
        took = now - began
        if now + took > deadline or (
            len(rounds) >= MIN_ROUNDS and now - start + took > seconds
        ):
            break
    setup += probe_setup(tmp, SETUP_PROBES - SETUP_PROBES // 2, deadline)
    attempted = sum(p.grade.attempted for p in rounds)
    failed = sum(p.grade.failed for p in rounds)
    # An invocation that never started has failed its cases; it adds no time.
    typical = {
        inv.label: statistics.median(
            [p.child_wall_s[inv.label] for p in rounds if inv.label in p.child_wall_s] or [0.0]
        )
        for inv in invs
    }
    return rounds, {
        "wall_s": metric(sum(typical.values()), "s"),
        "peak_rss_mb": metric(statistics.median(p.rss_mb for p in rounds), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
        "ok_frac": metric(1.0 - failed / attempted, "fraction"),
    }


def layer_metrics(workload: str, plain: Pass, traced: Pass) -> dict:
    layers: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    missing: set[str] = set()
    for trace in traced.traces:
        for name, entry in trace["layers"].items():
            total = layers.setdefault(name, {"self_s": 0.0, "calls": 0})
            total["self_s"] += entry["self_s"]
            total["calls"] += entry["calls"]
        for name, value in trace["counters"].items():
            combine = max if name == "yor.block_dim_max" else operator.add
            counters[name] = combine(counters.get(name, 0), value)
        missing.update(trace["missing"])

    absent = tracer.absent_layers(sorted(missing))
    for layer in workloads.required_layers(workload):
        if layer in absent:
            print(f"warning: layer {layer} has no binding left to trace", file=sys.stderr)
        elif traced.grade.failed == 0 and layer not in layers:
            raise SystemExit(f"layer {layer} never fired on {workload}; its bindings are stale")

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    seconds = lambda name: metric(self_s(name), "s")
    count = lambda value: metric(value, "count")
    blocks = calls("yor.block")
    runtimes = plain.runtimes_ms or [0.0]
    return {
        "permutations.enumerate_s": seconds("permutations.enumerate"),
        "permutations.elements": count(counters.get("permutations.elements", 0)),
        "graphs.adjacency_s": seconds("graphs.adjacency"),
        "graphs.vertices": count(counters.get("graphs.vertices", 0)),
        "graphs.dense_eig_s": seconds("graphs.dense_eig"),
        "graphs.natural_matrix_s": seconds("graphs.natural_matrix"),
        "equitable.quotient_s": seconds("equitable.quotient"),
        "eigen.exact_s": seconds("eigen.exact"),
        "yor.assemble_s": seconds("yor.assemble"),
        "yor.block_s": seconds("yor.block"),
        "yor.blocks": count(blocks),
        "yor.block_dim_max": metric(counters.get("yor.block_dim_max", 0), "rows"),
        "yor.block_cache_hit_ratio": metric(
            1.0 - calls("yor.assemble") / blocks if blocks else 0.0, "fraction"
        ),
        "eigen.jacobi_s": seconds("eigen.jacobi"),
        "eigen.jacobi_calls": count(calls("eigen.jacobi")),
        "yor.expand_s": seconds("yor.expand"),
        "eigen.cluster_s": seconds("eigen.cluster"),
        "eigen.cluster_values": count(counters.get("eigen.cluster_values", 0)),
        "characters.eigenvalue_s": seconds("characters.eigenvalue"),
        "characters.calls": count(calls("characters.eigenvalue")),
        "characters.memo_entries": count(counters.get("characters.memo_entries", 0)),
        "verify.cases": count(len(plain.runtimes_ms)),
        "verify.case_ms_p50": metric(statistics.median(runtimes), "ms"),
        "verify.case_ms_max": metric(max(runtimes), "ms"),
        "bench.trace_overhead_frac": metric(traced.wall_s / plain.wall_s - 1.0, "fraction"),
        "bench.layer_share": metric(
            sum(entry["self_s"] for entry in layers.values()) / traced.wall_s, "fraction"
        ),
    }


def traced_run(workload: str, invs, tmp: Path, deadline: float) -> tuple[list[Pass], dict]:
    plain = run_pass(invs, tmp, deadline, traced=False)
    traced = run_pass(invs, tmp, deadline, traced=True)
    return [plain, traced], layer_metrics(workload, plain, traced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "snspectra" / "cli.py").is_file():
        print(f"error: no snspectra package under {SRC}", file=sys.stderr)
        return 2

    invs = workloads.invocations(args.workload, args.seed)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        env = probe_environment(Path(tmp), deadline)
        if args.trace:
            passes, metrics = traced_run(args.workload, invs, Path(tmp), deadline)
        else:
            passes, metrics = timed_run(invs, args.seed, Path(tmp), args.seconds, deadline)
    try:
        scratch.rmdir()
    except OSError:  # another run still uses it
        pass

    env.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print("env " + json.dumps(env))
    for i, p in enumerate(passes):
        print(f"pass {i} ({'traced' if p.traced else 'plain'}): {p.wall_s:.3f} s, peak {p.rss_mb:.1f} MB")
        print("\n".join(p.lines))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    attempted = sum(p.grade.attempted for p in passes)
    failed = sum(p.grade.failed for p in passes)
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
