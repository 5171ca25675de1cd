"""One workload in one process: set up, measure, check, report.

Started by ``run.py``, which pins the BLAS and OpenMP thread counts
first.  The workload is a closed loop with one caller: an item starts
when the previous one returns.  The answer check runs between items and
is not timed.  The last line of stdout is the JSON result.

    python3 bench/worker.py --workload certify --seed 1 --seconds 50 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
MODULES = ("linalg", "lattice", "heisenberg", "compactness", "cli", "errors")
SETUP_REPEATS = 7
SETUP_REFERENCE_RUNS = 8  # reference loops before and after each set-up

sys.path.insert(0, SRC)
import numpy  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402  (after the path set-up on purpose)
from run import THREAD_VARS  # noqa: E402


def import_library():
    """Import heismoduli afresh from this checkout's source tree."""
    for name in [n for n in sys.modules if n == "heismoduli" or n.startswith("heismoduli.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("heismoduli")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"heismoduli imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"heismoduli.{m}") for m in MODULES})


class Outcomes:
    """Answers, failures and per-item digest keys of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed items whose answer was returned but wrong
        self.reasons: dict[str, int] = {}
        self.examples: list[str] = []
        self.keys: dict[int, str] = {}
        self.mismatches = 0

    def record(self, index, item, out, exc):
        self.attempted += 1
        if exc is not None:
            self._fail(type(exc).__name__, f"{item.kind}#{index}: {type(exc).__name__}: {exc}")
            return
        try:
            wrong = item.check(out)
            key = None if wrong else hashlib.sha256(item.key(out).encode()).hexdigest()[:16]
        except Exception:
            wrong = traceback.format_exc(limit=2)
        if wrong:
            self.wrong += 1
            self._fail("wrong_answer", f"{item.kind}#{index}: {wrong}")
        elif self.keys.setdefault(index, key) != key:
            self.mismatches += 1
            self._note(f"{item.kind}#{index}: output differs from its earlier run")

    def _fail(self, reason, message):
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        self._note(message)

    def _note(self, message):
        if len(self.examples) < 5:
            self.examples.append(message)

    def digest(self):
        """Digest of the exact outputs of pool items 0 .. k-1."""
        k = 0
        while k in self.keys:
            k += 1
        return hashlib.sha256("".join(self.keys[i] for i in range(k)).encode()).hexdigest()[:16], k


def run_item(item):
    try:
        return item.run(), None
    except Exception as exc:
        return None, exc


IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import heismoduli\n"
    "print(time.perf_counter() - start, heismoduli.__file__)\n"
)


def cold_import_seconds():
    """Time of `import heismoduli`, numpy included, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise ImportError(f"heismoduli does not import: {proc.stderr.strip()}")
    seconds, path = proc.stdout.split(maxsplit=1)
    if not os.path.abspath(path.strip()).startswith(SRC + os.sep):
        raise ImportError(f"heismoduli imported from {path.strip()}, not {SRC}")
    return float(seconds)


def set_up(name, seed, repeats, tmp):
    """Import, generate inputs and run one warm-up item, `repeats` times.

    The import is timed in a fresh interpreter, so that it includes
    numpy; the modules used here are imported afresh in this process.
    Each duration is scaled to the reference speed measured just before
    and after it.  Returns the last set-up's (modules, items, warm-up
    result) and every set-up's duration.  Each repeat writes into a
    fresh directory.
    """
    times = []
    for r in range(repeats):
        workdir = os.path.join(tmp, f"setup-{r}")
        os.makedirs(workdir)
        gc.collect()
        ref = [reference.time_reference() for _ in range(SETUP_REFERENCE_RUNS)]
        import_s = cold_import_seconds()
        mods = import_library()
        start = perf_counter()
        items = workloads.setup(name, mods, seed, workdir)
        warm = run_item(items[0])
        elapsed = import_s + perf_counter() - start
        ref += [reference.time_reference() for _ in range(SETUP_REFERENCE_RUNS)]
        times.append(elapsed * reference.NOMINAL_S / statistics.median(ref))
        if r + 1 < repeats:
            shutil.rmtree(workdir)
    return mods, items, warm, times


def measure(items, outcomes, seconds):
    """Closed loop over the pool for `seconds` of wall time.

    The reference loop runs before each item.  Returns, for each pool
    item that ran at least once, its latencies scaled to the reference
    speed, and the raw latencies of all items in run order.
    """
    per_item = [[] for _ in items]
    order, raw, ref = [], [], []
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        index = i % len(items)
        ref.append(reference.time_reference())
        start = perf_counter()
        out, exc = run_item(items[index])
        raw.append(perf_counter() - start)
        order.append(index)
        outcomes.record(index, items[index], out, exc)
        i += 1
    for index, latency, factor in zip(order, raw, reference.speed_factors(ref)):
        per_item[index].append(latency * factor)
    return [lat for lat in per_item if lat], raw, ref


def tail(latencies):
    """Latency at the highest percentile with at least ten items beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def timed_pass(items, run=run_item):
    """One pass over the pool: (results, per-item seconds)."""
    results, seconds = [], []
    for item in items:
        start = perf_counter()
        results.append(run(item))
        seconds.append(perf_counter() - start)
    return results, seconds


def trace_run(mods, items, outcomes, args):
    """Untraced, traced, untraced pass over the first half of the pool.

    The two untraced passes bracket the traced one, so a drift in machine
    speed does not read as tracing overhead.  Returns the per-layer
    metrics and the machine-independent counts.
    """
    items = items[:len(items) // 2]
    before, untraced = timed_pass(items)
    import tracing  # only a traced run loads the wrapper

    tracer = tracing.Tracer(mods)
    tracer.install()
    wall_start = perf_counter()
    try:
        during, traced = timed_pass(items, lambda item: tracer.item(lambda: run_item(item)))
    finally:
        wall = perf_counter() - wall_start
        tracer.uninstall()
    after, untraced_again = timed_pass(items)
    for results in (before, during, after):
        for i, (item, res) in enumerate(zip(items, results)):
            outcomes.record(i, item, *res)

    print(f"trace passes over {len(items)} items: untraced {sum(untraced):.3f} s, "
          f"traced {sum(traced):.3f} s, untraced {sum(untraced_again):.3f} s")
    metrics = tracer.metrics()
    print(f"{len(tracer.targets)} functions traced; those called, by self time:")
    for name in sorted(tracer.names[1:], key=lambda name: -metrics[f"{name}.s"]):
        if metrics[f"{name}.calls"]:
            print(f"  {name:55s} {metrics[f'{name}.calls']:9d} calls {metrics[f'{name}.s']:10.6f} s")
    metrics["trace.overhead_frac"] = 1.0 - (sum(untraced) + sum(untraced_again)) / (2 * sum(traced))
    metrics["trace.wall_s"] = wall
    metrics["trace.accounted_frac"] = sum(
        metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) / wall
    metrics["trace.bench_frac"] = metrics["bench.self_s"] / wall
    tracer.dump(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.txt"))
    return {name: metrics[name] for name in tracing.REPORTED}, tracer.machine_independent_counts()


def code_hash():
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "heismoduli"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()[:12]


def compare_with_earlier_runs(args, code, outcomes, counts):
    """Keys and counts must repeat across runs of the same code and seed.

    Earlier runs leave their per-item keys (and a traced run its counts)
    in a state file; returns what differs.
    """
    path = os.path.join(WORK, "state", f"{args.workload}-{args.seed}-{code}.json")
    state = {"keys": {}, "counts": None}
    if os.path.exists(path):
        with open(path) as fh:
            state = json.load(fh)
    problems = [f"item {i} output differs from an earlier run"
                for i, key in outcomes.keys.items() if state["keys"].get(str(i), key) != key]
    if counts is not None:
        if state["counts"] is not None and state["counts"] != counts:
            diff = sorted(k for k in counts if state["counts"].get(k) != counts[k])
            problems.append(f"counts differ from an earlier traced run: {diff}")
        state["counts"] = counts
    state["keys"].update({str(i): key for i, key in outcomes.keys.items()})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        json.dump(state, fh)
    os.replace(path + ".tmp", path)
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    code = code_hash()  # before set-up, so an edit during the run cannot mix versions
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        mods, items, warm, setup_times = set_up(args.workload, args.seed, repeats, tmp)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace} pool {len(items)} items")
        print(f"env nproc {os.cpu_count()} affinity {len(os.sched_getaffinity(0))} "
              f"python {platform.python_version()} numpy {numpy.__version__} "
              + " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS))
        outcomes = Outcomes()
        outcomes.record(0, items[0], *warm)
        gc.collect()
        gc.freeze()  # keep the pool's own objects out of the timed collections
        counts = None
        if args.trace:
            metrics, counts = trace_run(mods, items, outcomes, args)
            metrics = {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}
        else:
            per_item, raw, ref = measure(items, outcomes, args.seconds)
            typical = [statistics.median(lat) for lat in per_item]
            tail_s, pct, n = tail(typical)
            print(f"{len(raw)} items run, {n} pool items; wall clock: "
                  f"{len(raw) / sum(raw):.3f} items/s, p50 {1e3 * statistics.median(raw):.3f} ms, "
                  f"reference loop median {1e3 * statistics.median(ref):.3f} ms")
            print(f"item_tail_ms at p{pct:.2f} of {n} pool items; setup_s of "
                  f"{len(setup_times)} set-ups: " + " ".join(f"{t:.4f}" for t in setup_times))
            metrics = {
                "items_per_s": {"value": n / sum(typical), "unit": "1/s"},
                "item_p50_ms": {"value": 1e3 * statistics.median(typical), "unit": "ms"},
                "item_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
                "ok_frac": {"value": 1.0 - outcomes.failed / outcomes.attempted, "unit": "frac"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = compare_with_earlier_runs(args, code, outcomes, counts)
    digest, k = outcomes.digest()
    print(f"digest {digest} over pool items 0..{k - 1}; counts "
          + ("n/a" if counts is None else hashlib.sha256(
              json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]))
    print(f"failed {outcomes.failed} of {outcomes.attempted}: {outcomes.reasons}")
    for line in outcomes.examples + problems:
        print(f"  {line}")
    # a raised error counts as failed; a wrong or unrepeatable answer is incorrect
    correct = outcomes.wrong == 0 and outcomes.mismatches == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": metrics}))


def _unit(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    main()
