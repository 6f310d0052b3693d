"""geoconn benchmark: one client, one thread of ops, closed loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload transport --seed 1 --seconds 30 --trace 0

Workloads (each module's docstring says why it exists):

* ``transport`` -- ``lift_curve`` and piecewise ``parallel_transport``;
* ``verify``    -- ``geoconn check`` on generated and shipped configs;
* ``tables``    -- ``geoconn curvature|torsion|nabla`` grids.

Every input is generated from ``--seed``; the program receives only the
generated inputs and is driven through public entry points.  Ops run in
decks: a deck is the workload's whole op pool in a seeded order, and the run
repeats decks until ``--seconds`` of wall-clock op time is measured (and at least
``min_ops`` ops, so the tail percentile has ten samples beyond it).  Every op
output is checked against a reference outside the timed interval.

Machine speed.  On a shared machine the speed of one core swings by half
within seconds, with other tenants' load, and moves every wall-clock figure
with it.  So a fixed calibration loop (interpreted Python plus small numpy
products, like geoconn's ops) is timed right before and right after every op,
and the op's wall time is reported at reference speed: multiplied by
``REFERENCE_CAL_S`` over the mean of the two calibrations.
``REFERENCE_CAL_S`` is the loop's time on an uncontended core of the 2-vCPU
machine the benchmark was tuned on, where the figures are therefore
uncontended wall-clock times.  Set-up probes are scaled the same way, by a
calibration taken in the probe.  The raw wall-clock figures are in the
details line.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (a fresh
interpreter importing geoconn and building the inputs; median of
``SETUP_PROBES`` probes), ``ops_per_s`` (median over decks of the deck's ops
per second of op time), ``op_ms_p50`` (median over the pool's ops of each
op's median latency), ``op_ms_tail`` (the workload's fixed tail percentile
of all samples) and ``peak_rss_mb``.  ``--trace 1`` runs every op untraced
and then again with spans around geoconn's public calls, and reports the
per-layer metrics of ``spans.PER_LAYER`` (plain wall-clock times).

The last stdout line is the result object; the line before it holds the
details: environment, tail percentile and sample count, raw figures, and in
traced runs what each per-layer metric should move.  The benchmark sets no
geoconn environment knob and records the ones it finds.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
KNOBS = ("GEOCONN_THREADS", "GEOCONN_NUMBA")
REFERENCE_CAL_S = 1.9e-3

# workload -> (module, tail percentile, minimum ops: ten beyond the percentile).
# Each tail percentile falls inside the latency band of one op of the pool,
# not on the edge between two, where it would jump between them.
WORKLOADS = {
    "transport": ("transport_wl", 90, 100),
    "verify": ("verify_wl", 90, 100),
    "tables": ("tables_wl", 96, 250),
}


def calibrate() -> float:
    """Best of two runs of a fixed loop, in seconds."""
    import numpy as np

    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        a = np.ones((3, 3))
        for _ in range(300):
            a = a @ a * 0.3 + 0.1
        best = min(best, time.perf_counter() - start)
    return best


def _import_geoconn():
    if not (SRC / "geoconn" / "__init__.py").is_file():
        raise SystemExit(f"error: no geoconn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import geoconn
    import geoconn.cli

    if Path(geoconn.__file__).resolve().parent != (SRC / "geoconn").resolve():
        raise SystemExit(f"error: imported geoconn from {geoconn.__file__}, not from {SRC}")
    return geoconn


def setup(name: str, seed: int, geoconn, workdir: Path):
    """Generate and build a workload's inputs; returns (module, ops)."""
    module = importlib.import_module(WORKLOADS[name][0])
    ops = module.generate(seed)
    module.build(ops, geoconn, workdir, ROOT)
    return module, ops


def setup_probe(name: str, seed: int) -> None:
    """Body of one fresh-interpreter set-up measurement: a line when the
    inputs are ready, then a line with the probe's own calibration."""
    t0 = time.perf_counter()
    geoconn = _import_geoconn()
    t1 = time.perf_counter()
    workdir = WORK / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup(name, seed, geoconn, workdir)
        t2 = time.perf_counter()
        print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}), flush=True)
        print(json.dumps({"cal_s": calibrate()}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(name: str, seed: int) -> dict:
    """Median over fresh interpreters of the time until inputs are ready."""
    raw, scaled, imports, builds = [], [], [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            cal = proc.stdout.readline()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait()
        if rc != 0 or not cal:
            raise RuntimeError(f"set-up probe exited with {rc}")
        factor = REFERENCE_CAL_S / json.loads(cal)["cal_s"]
        probe = json.loads(ready)
        raw.append(elapsed)
        scaled.append(elapsed * factor)
        imports.append(probe["import_s"] * factor)
        builds.append(probe["build_s"] * factor)
    return {
        "setup_s": statistics.median(scaled),
        "import_s": statistics.median(imports),
        "config.build_s": statistics.median(builds),
        "raw_setup_s": statistics.median(raw),
    }


class Runner:
    """Runs ops in decks and checks each output outside the timed interval."""

    def __init__(self, module, ops, geoconn, seed: int):
        import numpy as np

        self.module = module
        self.ops = ops
        self.geoconn = geoconn
        self.order_rng = np.random.default_rng([seed, 1])
        self.check_rng = np.random.default_rng([seed, 2])
        self.op_ids: list[int] = []
        self.raw: list[float] = []  # wall-clock seconds per op
        self.latencies: list[float] = []  # the same at reference speed
        self.deck_rates: list[float] = []
        self.failed = 0
        self.errors: list[str] = []

    def deck(self) -> list:
        return [self.ops[i] for i in self.order_rng.permutation(len(self.ops))]

    def run_op(self, op, call=None) -> None:
        before = calibrate()
        start = time.perf_counter()
        try:
            out = call(self.module.run, op, self.geoconn) if call else self.module.run(op, self.geoconn)
            error = None
        except Exception as err:  # an op that raises counts as failed, and the run goes on
            error = f"raised {type(err).__name__}: {err}"
        raw = time.perf_counter() - start
        after = calibrate()
        self.op_ids.append(id(op))
        self.raw.append(raw)
        self.latencies.append(raw * REFERENCE_CAL_S / (0.5 * (before + after)))
        if error is None:
            try:
                error = self.module.check(op, out, self.check_rng)
            except Exception as err:
                error = f"reference check raised {type(err).__name__}: {err}"
        if error:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{op.label}: {error}")
                print(f"op failed: {op.label}: {error}", file=sys.stderr)

    def run_decks(self, seconds: float, min_ops: int) -> None:
        """Whole decks until both the wall-clock op time and the op count are reached."""
        while sum(self.raw) < seconds or len(self.raw) < min_ops:
            first = len(self.latencies)
            deck = self.deck()
            for op in deck:
                self.run_op(op)
            self.deck_rates.append(len(deck) / sum(self.latencies[first:]))


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def median_of_op_medians(op_ids: list[int], values: list[float]) -> float:
    """Median op latency.  Every op of the pool runs equally often, so the
    plain median falls on the edge between two ops' latency bands; the median
    of each op's median is the same quantity without the edges' noise."""
    by_op: dict[int, list[float]] = {}
    for op_id, v in zip(op_ids, values):
        by_op.setdefault(op_id, []).append(v)
    return statistics.median(statistics.median(v) for v in by_op.values())


def environment() -> dict:
    import numpy as np

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "knobs_found": {k: os.environ.get(k) for k in KNOBS},
        "knobs_set_by_benchmark": [],
        "reference_cal_s": REFERENCE_CAL_S,
    }


def _commit() -> str:
    """HEAD of the checkout, read from its own .git without leaving it."""
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
    return "unknown (not a git checkout)"


def untraced(name: str, seed: int, seconds: float, module, ops, geoconn) -> tuple[dict, dict, Runner]:
    _, tail, min_ops = WORKLOADS[name]
    runner = Runner(module, ops, geoconn, seed)
    runner.run_decks(seconds, min_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_stats = measure_setup(name, seed)
    lat_ms = [1e3 * v for v in runner.latencies]
    raw_ms = [1e3 * v for v in runner.raw]
    metrics = {
        "setup_s": (setup_stats["setup_s"], "s"),
        "ops_per_s": (statistics.median(runner.deck_rates), "1/s"),
        "op_ms_p50": (median_of_op_medians(runner.op_ids, lat_ms), "ms"),
        "op_ms_tail": (percentile(lat_ms, tail), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "tail_percentile": tail,
        "samples": len(lat_ms),
        "samples_beyond_tail": sum(v > metrics["op_ms_tail"][0] for v in lat_ms),
        "decks": len(runner.deck_rates),
        "raw_wall_clock": {
            "setup_s": setup_stats["raw_setup_s"],
            "ops_per_s": len(raw_ms) / (sum(raw_ms) / 1e3),
            "op_ms_p50": median_of_op_medians(runner.op_ids, raw_ms),
            "op_ms_tail": percentile(raw_ms, tail),
        },
    }
    return metrics, details, runner


def traced(name: str, seed: int, seconds: float, module, ops, geoconn) -> tuple[dict, dict, Runner]:
    """Each op runs untraced and then, right after, traced: pairing the two
    keeps the overhead estimate clear of drift in machine speed."""
    import spans as tracemod

    plain = Runner(module, ops, geoconn, seed)
    with_spans = Runner(module, ops, geoconn, seed)
    tracer = tracemod.Tracer()
    if hasattr(module, "instrument"):
        module.instrument(ops, tracer, geoconn)
    replay = []
    while not replay or sum(plain.raw) + sum(with_spans.raw) < seconds:
        for op in plain.deck():
            plain.run_op(op)
            tracer.install()
            try:
                with_spans.run_op(op, lambda fn, o, g, i=len(replay): tracer.op_span(i, fn, o, g))
                if hasattr(module, "after_traced_op"):
                    module.after_traced_op(op)
            finally:
                tracer.uninstall()
            replay.append(op)

    useful = sum(module.useful_integrations(op) for op in replay) if hasattr(module, "useful_integrations") else 0
    values = tracemod.summarise(tracer, len(replay), useful)
    setup_stats = measure_setup(name, seed)
    values["import_s"] = setup_stats["import_s"]
    values["config.build_s"] = setup_stats["config.build_s"]
    values["trace.overhead_ms"] = 1e3 * (sum(with_spans.latencies) - sum(plain.latencies)) / len(replay)
    metrics = {k: (values[k], tracemod.PER_LAYER[k][0]) for k in tracemod.PER_LAYER}

    plain.failed += with_spans.failed
    plain.errors += with_spans.errors
    plain.latencies += with_spans.latencies
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{name}-{seed}.jsonl"
    tracer.write(spans_path)
    details = {
        "replayed_ops": len(replay),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "hooks_missing": tracer.missing,
        "moves": {k: v[1] for k, v in tracemod.PER_LAYER.items()},
    }
    return metrics, details, plain


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    geoconn = _import_geoconn()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        module, ops = setup(args.workload, args.seed, geoconn, workdir)
        measure = traced if args.trace else untraced
        metrics, details, runner = measure(args.workload, args.seed, args.seconds, module, ops, geoconn)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details.update(workload=args.workload, seed=args.seed, trace=args.trace, errors=runner.errors, env=environment())
    print(json.dumps(details, sort_keys=True))
    attempted = len(runner.latencies)
    result = {
        "correct": runner.failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
