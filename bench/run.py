"""opcover benchmark: closed-loop ``cli.run`` workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload tails --seed 1 --seconds 30 --trace 0

One client runs the seeded op deck of the workload in process through
``opcover.cli.run``, one op at a time, in whole blocks until --seconds
have passed, and checks every output (checker.py).  With --trace 0 it
prints the end-to-end metrics, op times rescaled to a reference machine
speed (REF_KERNEL_MS below; raw wall times are printed too).  With
--trace 1 it runs every op twice, untraced and under the span tracer
(tracer.py), and prints the per-layer metrics plus the tracing
overhead.  The last stdout line is one JSON object: correct, attempted,
failed, metrics.

``correct`` says that every timed op was checked and passed, and that
replayed ops reproduced their ``results`` byte for byte.  Ops that raise
or break an invariant are counted in ``failed``.  Ops known to fail at
this commit are kept out of the timed loop; with --trace 0 a seeded
probe of them runs once afterwards and its failures are printed and
stored as ``known_defects``.  A stamped result file is written to
bench/out/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

_START = time.perf_counter()  # set-up time counts from here, imports included
BLAS_THREADS = 1  # one thread keeps runs steady on a small shared machine

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5  # this process plus four fresh probe processes
PROBE_TIMEOUT_S = 120

# A shared machine's speed drifts by 10-30% within minutes: an op that
# runs identical code every time took 26-32 ms across ten 30-s runs.  The
# loop therefore times SpeedKernel between ops, once every KERNEL_EVERY_S,
# and the run's op times are rescaled by REF_KERNEL_MS over the mean of
# those kernel times.  One scale per run, from many samples: the machine
# switches between a fast and a slow phase every few seconds, so the mean
# of samples spread over the run weighs the phases as the ops met them.
# Per-block scales or a few samples per run add the kernel's own noise
# instead (README.md, "Reference speed").  Raw wall times are reported too.
REF_KERNEL_MS = 2.0
KERNEL_EVERY_S = 0.25

END_TO_END_UNITS = {
    "ops_per_s": "1/ref-s",
    "op_ms.p50": "ref-ms",
    "op_ms.p90": "ref-ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tails", "capacities", "resolvability"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up in this process and print it (used internally)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int):
    """Import, build the deck and the speed kernel, run one warm-up op per command.

    Returns (deck, kernel, seconds since this script started).  Warm-up pays
    the lazy set-up (scipy.optimize, jsonschema, LAPACK first calls);
    failures are allowed here because the timed loop counts them.
    """
    from opcover import cli

    import workloads

    kernel = SpeedKernel()
    deck = workloads.make_deck(workload, seed)
    seen = set()
    for op in deck[0]:
        command = op["config"]["command"]
        if command not in seen:
            seen.add(command)
            try:
                cli.run(op["config"])
            except Exception:  # noqa: BLE001 - counted when the loop meets it
                pass
    return deck, kernel, time.perf_counter() - _START


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, so import cost is paid every time."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# machine speed


class SpeedKernel:
    """Fixed reference work that shares no code with opcover, about 2 ms.

    Two thirds interpreter work, one third small LAPACK calls.  The mix
    was chosen by timing candidate parts between the ops of each workload
    for 3.5 minutes and rescaling 30-s windows by the mean of each mix.
    This one left 2-4% drift (standard deviation of log time) on every
    workload, against 6-14% raw.  Dense products, a 128x128 eigh or a
    16 MB copy tracked resolvability as well but tails worse.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        stack = rng.standard_normal((64, 3, 3))
        self._np = np
        self._stack = stack + stack.transpose(0, 2, 1)
        self._rows = [{"i": i, "x": [i / 7.0] * 5, "tag": {"s": str(i)}} for i in range(200)]

    def ms(self) -> float:
        """One timed run of the kernel, in ms."""
        start = time.perf_counter()
        for _ in range(16):  # interpreter work
            total = 0
            for row in self._rows:
                total += row["i"] + len(row["x"]) + len(row["tag"]["s"])
                dict(row)
        for m in self._stack:  # small LAPACK calls, one at a time
            self._np.linalg.eigvalsh(m)
        return 1000.0 * (time.perf_counter() - start)


# ---------------------------------------------------------------------------
# the closed loop


def run_op(op: dict) -> dict:
    """One cli.run call: latency, output check, results digest."""
    from opcover import cli

    import checker

    start = time.perf_counter()
    try:
        record = cli.run(op["config"])
    except Exception as exc:  # noqa: BLE001 - a failed op is a data point
        latency = time.perf_counter() - start
        return {"kind": op["kind"], "latency": latency, "digest": None,
                "problems": [f"raised {type(exc).__name__}: {exc}"]}
    latency = time.perf_counter() - start
    digest = hashlib.sha256(cli.canonical_json(record.results).encode()).hexdigest()
    try:
        problems = checker.check(op["config"], record.results)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems = [f"malformed results: {type(exc).__name__}: {exc}"]
    return {"kind": op["kind"], "latency": latency, "digest": digest, "problems": problems}


def closed_loop(deck, seconds: float, kernel):
    """Run whole blocks until `seconds` pass.

    Returns (outcomes, ops, kernel times in ms).  The kernel runs before
    an op whenever KERNEL_EVERY_S have passed since its last run.
    """
    outcomes, ran, kernel_ms = [], [], []
    start, b, last = time.perf_counter(), 0, -math.inf
    while time.perf_counter() - start < seconds:
        for op in deck[b % len(deck)]:
            if time.perf_counter() - last >= KERNEL_EVERY_S:
                kernel_ms.append(kernel.ms())
                last = time.perf_counter()
            outcomes.append(run_op(op))
            ran.append(op)
        b += 1
    return outcomes, ran, kernel_ms


def replay(ops, outcomes) -> bool:
    """Rerun the first op of each command; results must match byte for byte."""
    seen, same = set(), True
    for op, out in zip(ops, outcomes):
        command = op["config"]["command"]
        if command not in seen:
            seen.add(command)
            same &= run_op(op)["digest"] == out["digest"]
    return same


def end_to_end(outcomes, kernel_ms, setup_samples) -> tuple[dict, dict]:
    """(metrics, op timings as raw wall time).

    Op timings are at reference speed; setup_s is raw wall time.  Scaled
    by the loop's kernel mean it spread more over ten seeds (16-21% against
    11-17%): the set-up probes run after the loop, in another phase.
    """
    scale = REF_KERNEL_MS / statistics.fmean(kernel_ms)

    def timings(scaled: bool) -> dict:
        ms = [1000.0 * o["latency"] * (scale if scaled else 1.0) for o in outcomes]
        cuts = statistics.quantiles(ms, n=100, method="inclusive")
        return {"ops_per_s": 1000.0 * len(ms) / math.fsum(ms),
                "op_ms.p50": cuts[49], "op_ms.p90": cuts[89]}

    values = timings(True)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["setup_s"] = statistics.median(setup_samples)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, timings(False)


def traced_run(deck, seconds: float):
    """Each op untraced and traced, back to back, in whole blocks.

    Pairing the two runs of an op (and alternating which goes first)
    keeps machine drift out of the overhead estimate.  Returns
    (metrics, untraced outcomes, whether every pair matched, span table).
    """
    import tracer

    spans = tracer.Tracer()
    untraced, traced = [], []
    start, b = time.perf_counter(), 0
    while time.perf_counter() - start < seconds:
        for i, op in enumerate(deck[b % len(deck)]):
            if i % 2:
                with spans.installed():
                    traced.append(run_op(op))
            untraced.append(run_op(op))
            if not i % 2:
                with spans.installed():
                    traced.append(run_op(op))
        b += 1
    same = all(a["digest"] == t["digest"] for a, t in zip(untraced, traced))
    layers = tracer.layer_metrics(spans, len(traced))
    overhead = sum(o["latency"] for o in traced) / sum(o["latency"] for o in untraced) - 1.0
    layers["trace.overhead"] = (overhead, "ratio")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    return metrics, untraced, same, spans.table()


# ---------------------------------------------------------------------------
# reporting


def _git_commit() -> str:
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
    return "unknown"  # checkouts without git metadata


def stamp(workload: str, seed: int, ops: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "ops": {workload: ops},
    }


def defect_probe(workload: str, seed: int) -> dict:
    """Run the workload's known-defect ops once; count what fails."""
    import workloads

    outcomes = [run_op(op) for op in workloads.make_defect_probe(workload, seed)]
    return {"attempted": len(outcomes),
            "failed": sum(1 for o in outcomes if o["problems"]),
            "failures": failure_summary(outcomes)}


def failure_summary(outcomes) -> dict:
    out = {}
    for o in outcomes:
        if o["problems"]:
            row = out.setdefault(o["kind"], {"count": 0, "first": o["problems"][0]})
            row["count"] += 1
    return out


def kind_summary(outcomes) -> dict:
    rows = {}
    for o in outcomes:
        rows.setdefault(o["kind"], []).append(1000.0 * o["latency"])
    return {k: {"ops": len(v), "mean_ms": statistics.fmean(v), "max_ms": max(v)}
            for k, v in sorted(rows.items())}


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads; never above nproc
    args = _parse(argv)
    if not (SRC / "opcover" / "__init__.py").is_file():
        print(f"bench: no opcover sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import opcover

    if not Path(opcover.__file__).resolve().is_relative_to(SRC):
        print(f"bench: opcover imported from {opcover.__file__}, not {SRC}", file=sys.stderr)
        return 2

    deck, kernel, setup_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        metrics, counted, correct, spans = traced_run(deck, args.seconds)
        raw, speed = None, [kernel.ms()]
    else:
        counted, ops, speed = closed_loop(deck, args.seconds, kernel)
        correct = replay(ops, counted)
        samples = [setup_s] + [probe_setup(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        metrics, raw = end_to_end(counted, speed, samples)
        spans = None
    defects = None if args.trace else defect_probe(args.workload, args.seed)

    failed = sum(1 for o in counted if o["problems"])
    correct = correct and failed == 0
    report = {
        "stamp": stamp(args.workload, args.seed, len(counted)),
        "trace": args.trace,
        "seconds": args.seconds,
        "kernel_ms": statistics.fmean(speed),
        "kernel_samples": len(speed),
        "raw_wall": raw,
        "attempted": len(counted),
        "failed": failed,
        "fail_ratio": failed / len(counted),
        "correct": correct,
        "metrics": metrics,
        "kinds": kind_summary(counted),
        "failures": failure_summary(counted),
        "known_defects": defects,
        "spans": spans,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"opcover bench: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("stamp: " + json.dumps(report["stamp"], sort_keys=True))
    print(f"ops: {len(counted)} attempted, {failed} failed, fail_ratio {failed / len(counted):.4f}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<9} ({len(counted)} ops)")
    if raw:
        print(f"  raw wall time (kernel mean {report['kernel_ms']:.3f} ms over {len(speed)} runs, reference "
              f"{REF_KERNEL_MS} ms): " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for kind, row in report["failures"].items():
        print(f"  failed {kind}: {row['count']} x {row['first'][:120]}")
    if defects and defects["attempted"]:
        print(f"known defects (probe run once after timing, not in attempted/failed): "
              f"{defects['failed']} of {defects['attempted']} ops failed")
        for kind, row in defects["failures"].items():
            print(f"  failed {kind}: {row['count']} x {row['first'][:120]}")
    print(f"correct (all passed, replays byte-identical): {correct}; result file {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(counted), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
