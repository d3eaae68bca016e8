"""Benchmark for npsteer: end-to-end CLI metrics, or per-layer metrics from a traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload eval_mix --seed 1 --seconds 15 --trace 0

Each run is one fresh Python process and one closed-loop client that calls
``npsteer.cli.main(argv)`` in process, with BLAS pinned to one thread and no
other threads. It times the cold import of npsteer in fresh interpreters
(``setup_s``), runs one warm-up cycle that it discards (sweep and sample
calls at reduced size, see workloads.py), then runs calls, cycle after
cycle, until ``--seconds`` have passed and the workload's minimum number of
calls (at least one whole cycle) is reached, checking every call's output.
The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the first records
the source revision and hash, the Python, numpy and scipy versions, nproc
and the BLAS thread setting.

End-to-end metrics (``--trace 0``), in wall-clock time over the measured calls:

    setup_s       median of several cold imports of npsteer
    peak_rss_mb   peak resident set size of the run's process
    work_per_s    work per cycle over the cycle time, the sum of each
                  call's mean latency: states evaluated per second
                  (eval_mix), sweep points written per second
                  (sweep_dephasing), or shots written to the CSV and
                  estimate files per second (sample_1e6)
    call_ms_p50   median over the cycle's calls of each call's median latency
    call_ms_p95   95th percentile of all call latencies; eval_mix makes at
                  least 200 calls, so ten or more lie beyond it, while a
                  sweep_dephasing run makes about a dozen calls and a
                  sample_1e6 run about four, and this is close to its slowest one

The speed of a shared machine drifts by 10-20% within seconds, so every
figure takes in the whole run rather than a few cycles of it. On eval_mix,
work_per_s and call_ms_* are the eval rate and latency. The error rate is
failed / attempted in the result line.

With ``--trace 1`` the run alternates traced and untraced cycles, starting
and ending with a traced one, and reports per-cycle layer metrics (see
tracer.py), ``trace.overhead_ratio`` (median traced cycle time over median
untraced cycle time) and, on the line before the result, the median span
time per input. It writes the spans to
``.perfbench_runs/spans-<workload>-seed<seed>.jsonl`` and fails its check if
the moment call counts differ between traced cycles.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, Call

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_runs"
BLAS_THREADS = 1
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import npsteer; print(time.perf_counter() - t); print(npsteer.__file__)"
)


def _pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _cold_import_seconds() -> float:
    """Time to import npsteer in a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, module_file = proc.stdout.split("\n")[:2]
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported npsteer from {module_file}, not from {SRC}")
    return float(seconds)


def _revision() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "npsteer").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "revision": _revision(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


class Client:
    """Runs calls through npsteer.cli.main, times them and checks their output."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def run(self, call: Call) -> float:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(call.argv))
            except Exception:  # a traceback is a failed call, not the end of the run
                code = traceback.format_exc()
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            problems = [f"exit {code!r}: {err.getvalue()[-2000:]}"]
        else:
            try:
                problems = call.check(out.getvalue())
            except Exception as exc:  # output too malformed to inspect
                problems = [f"check raised {exc!r}"]
        if problems:
            self.failed += 1
            print(f"FAILED {call.label}: {'; '.join(problems)}", file=sys.stderr)
        return elapsed

    def cycle(self, calls: list[Call]) -> list[tuple[Call, float]]:
        return [(call, self.run(call)) for call in calls]


def measure(client: Client, workload, rng, tmp: Path, seconds: float) -> dict:
    """Calls, cycle after cycle, until ``seconds`` have passed and the workload's
    minimum is met; the end-to-end metrics of the run."""
    latencies: list[float] = []
    by_label: dict[str, list[float]] = {}
    work: dict[str, int] = {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < workload.min_calls:
        for call in workload.make_cycle(rng, tmp, False):
            t = client.run(call)
            latencies.append(t)
            by_label.setdefault(call.label, []).append(t)
            work[call.label] = call.work
            if time.perf_counter() - start >= seconds and len(latencies) >= workload.min_calls:
                break
    # The last cycle may be cut short, so a cycle's time is the sum of each
    # call's mean latency: the run's mix of calls does not depend on where it stopped.
    cycle_s = sum(statistics.fmean(ts) for ts in by_label.values())
    return {
        "work_per_s": sum(work.values()) / cycle_s,
        "call_ms_p50": 1e3 * statistics.median(statistics.median(ts) for ts in by_label.values()),
        "call_ms_p95": 1e3 * statistics.quantiles(latencies, n=20, method="inclusive")[18],
    }


def measure_traced(client: Client, workload, rng, tmp: Path, seconds: float, spans_path: Path):
    """Alternate traced and untraced cycles; return layer metrics, per-input detail and a repeat check."""
    tracer = Tracer()
    labels: dict[int, str] = {}
    traced_times, untraced_times = [], []
    start = time.perf_counter()
    while True:
        tracer.run = len(traced_times)
        cycle_time = 0.0
        with tracer.installed():
            for call in workload.make_cycle(rng, tmp, False):
                tracer.call = len(labels)
                labels[tracer.call] = call.label
                cycle_time += client.run(call)
        traced_times.append(cycle_time)
        if time.perf_counter() - start >= seconds and len(traced_times) >= 2:
            break
        untraced_times.append(sum(t for _, t in client.cycle(workload.make_cycle(rng, tmp, False))))

    counts = tracer.cycle_counts()
    repeats = all(c == counts[0] for c in counts.values())
    if not repeats:
        print(f"moment call counts differ between traced cycles: {counts}", file=sys.stderr)
    metrics = {**tracer.layer_metrics(len(traced_times)), **counts[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced_times) / statistics.median(untraced_times)
    with open(spans_path, "w") as fh:
        for record in tracer.records(start):
            fh.write(json.dumps(record) + "\n")
    return metrics, tracer.per_call_ms(labels), repeats


def _declared_units(trace: int) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "npsteer" / "__init__.py").is_file():
        print(f"error: no npsteer source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    _pin_threads()
    if not args.trace:
        setup_s = statistics.median(_cold_import_seconds() for _ in range(SETUP_REPEATS))
    sys.path.insert(0, str(SRC))
    import npsteer.cli

    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    client = Client(npsteer.cli)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        client.cycle(workload.make_cycle(rng, tmp, True))  # warm-up, discarded
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, per_call, repeats = measure_traced(
                client, workload, rng, tmp, args.seconds, spans_path
            )
        else:
            metrics = {"setup_s": setup_s, **measure(client, workload, rng, tmp, args.seconds)}
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            repeats = True
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = _declared_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    print(json.dumps({"provenance": _provenance()}))
    if args.trace:
        print(json.dumps({"per_call_ms": per_call}))
    print(json.dumps({
        "correct": client.failed == 0 and repeats,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
