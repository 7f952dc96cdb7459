"""Benchmark of povmrobust: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload measure --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` there and from nowhere else.  The run repeats whole passes
("rounds") over the workload's fixed case list until ``--seconds`` have
passed, checks every output against the references in ``oracles.py``,
and prints as its last line ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the rounds alternate untraced and traced passes and
the metrics are the per-layer ones.  End-to-end times are reported at a
reference pace of the machine (see ``pace.py``).  Spans and a per-check
summary go to ``perfbench/out/``.  A wrong value exits 1; a missing
``src/`` exits 2.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("measure", "simulate", "sdp", "cli")
SETUP_SAMPLES = 9   # this process plus eight fresh ones
IMPORT_SAMPLES = 5

# One BLAS thread, in this process and every child, set before numpy
# loads.  With the default of one per vCPU, the failing d=8 ensembles of
# ``sdp``, whose BLAS calls are large enough to be split over threads,
# ran 2x slower through whole runs on a 2-vCPU machine shared with other
# work, while the operations on small matrices did not move.
for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_threads] = "1"

sys.path.insert(0, str(HERE))
import oracles  # noqa: E402
import pace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def refuse(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    src = ROOT / "src"
    if not (src / "povmrobust" / "__init__.py").is_file():
        refuse(f"no package source at {src / 'povmrobust'}; "
               "run from the root of a povmrobust checkout")
    sys.path.insert(0, str(src))
    import povmrobust
    import povmrobust.cli
    import povmrobust.jsonio
    if Path(povmrobust.__file__).resolve().parent != (src / "povmrobust").resolve():
        refuse(f"imported povmrobust from {povmrobust.__file__}, not {src}")
    return povmrobust


def build(workload, seed, pv, cli_in_process):
    if workload == "cli":
        return workloads.cli(seed, pv, ROOT, OUT / f"cli-{seed}", cli_in_process)
    return getattr(workloads, workload)(seed, pv)


class Tally:
    """Attempted and failed operations, latencies, and the worst errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst = oracles.Worst()
        self.failures = {}
        self.failed_ops = set()   # indexes into the round's ops

    def run_op(self, op):
        """Run one operation; return its latency.  A wrong value raises
        ``CheckFailed`` out of here and ends the run."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # the program failed this operation
            latency = time.perf_counter() - start
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return latency
        latency = time.perf_counter() - start
        try:
            op.check(out, self.worst)
        except workloads.OpFailed as exc:
            self._fail(op, str(exc))
        except oracles.CheckFailed:
            raise
        except Exception as exc:  # output the check cannot even read
            raise oracles.CheckFailed(f"{op.label}: unreadable output: {exc!r}") from exc
        return latency

    def _fail(self, op, reason):
        self.failed += 1
        self.failures[op.label] = reason[:300]

    def round(self, ops, tracer=None, pacer=None):
        """One pass over every op; returns their latencies.  With a
        ``pacer``, the pace kernel is timed between ops."""
        latencies = []
        if pacer is not None:
            pacer.start_round()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op += 1
            failed = self.failed
            latencies.append(self.run_op(op))
            if self.failed > failed:
                self.failed_ops.add(index)
            if pacer is not None:
                pacer.tick()
        return latencies


def op_medians(rounds):
    """Each op's median latency over the rounds."""
    return [statistics.median(times) for times in zip(*rounds)]


def setup(args):
    """The package, the ops, and the set-up time at the reference pace,
    as the pace right after it gives it."""
    pv = load_package()
    ops = build(args.workload, args.seed, pv, cli_in_process=bool(args.trace))
    warmup = Tally()
    warmup.run_op(ops[0])
    setup_s = time.perf_counter() - T0
    return pv, ops, setup_s * pace.REFERENCE_S / pace.settled()


def fresh_setup_times(args):
    """Set-up time of fresh processes doing exactly what this one did, at
    the reference pace."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def import_times():
    """``import povmrobust.cli`` in fresh interpreters, in seconds."""
    code = ("import time; t = time.perf_counter(); import povmrobust.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout))
    return times


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def repeat(seconds, one_round):
    """Call ``one_round`` until ``seconds`` have passed, at least once."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(one_round())
    return results


def untraced(args, ops, tally, setup_s):
    pacer = pace.Pacer.for_processes() if args.workload == "cli" else pace.Pacer()
    rounds = repeat(args.seconds, lambda: tally.round(ops, pacer=pacer))
    if args.workload == "cli":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [setup_s] + fresh_setup_times(args)
    factors = pacer.factors()
    paced = op_medians([[t * f for t in latencies] for latencies, f in zip(rounds, factors)])
    # A failed operation misses any latency limit: it ranks above every
    # success, so its own latency cannot set the median.
    ranked = [math.inf if i in tally.failed_ops else t for i, t in enumerate(paced)]
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(sum(paced), "s"),
        "op_p50_ms": metric(1e3 * statistics.median(ranked), "ms"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
        "accuracy_digits": metric(-math.log10(max(tally.worst.worst, 1e-16)), "digits"),
    }, {"paced_latency_s": paced, "raw_latency_s": op_medians(rounds),
        "rounds": len(rounds), "failed_ops": sorted(tally.failed_ops),
        "pace_factors": factors, "pace_samples_s": pacer.rounds,
        "setup_samples_s": setups, "round_latencies_s": rounds}


def traced(args, ops, tally, pv):
    """Untraced and traced rounds alternate, so both see the same slow
    phases of the machine; the overhead is the difference of their
    per-op medians, summed.

    Each traced round is followed, still traced, by the census: the cli
    commands that succeed, run in-process.  It reaches every layer, so
    every per-layer figure is a measurement on every workload, and its
    own share is the same on all of them.  The census is checked but not
    counted among the operations."""
    tracer = tracing.Tracer()
    plain, with_spans, per_round = [], [], []
    census = [] if args.workload == "cli" else build("cli", args.seed, pv, True)[
        :workloads.CLI_CENSUS]

    def both():
        plain.append(tally.round(ops))
        first, before = len(tracer.spans), dict(tracer.counters)
        tracer.op = tally.attempted - 1
        with tracer:
            with_spans.append(tally.round(ops, tracer))
            Tally().round(census, tracer)
        figures = {key: value - before.get(key, 0.0) for key, value in tracer.counters.items()}
        for layer, seconds in tracer.self_times(first).items():
            figures[layer + ".self_s"] = seconds
        per_round.append(figures)

    repeat(args.seconds, both)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics = {}
    for name, unit in per_layer_metrics():
        if name == "cli.import_s":
            value = statistics.median(import_times())
        elif name == "trace.overhead_s":
            value = sum(op_medians(with_spans)) - sum(op_medians(plain))
        elif name.endswith("_s"):
            value = min(f.get(name, 0.0) for f in per_round)
        else:
            value = statistics.median(f.get(name, 0.0) for f in per_round)
        metrics[name] = metric(value, unit)
    return metrics, {"raw_latency_s": op_medians(plain), "rounds": len(plain)}


def per_layer_metrics():
    """``(name, unit)`` of the per-layer metrics, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(entry["name"], entry["unit"]) for entry in spec["per_layer"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    pv, ops, setup_s = setup(args)
    if args.setup_only:
        print(setup_s)
        return 0
    tally = Tally()
    try:
        if args.trace:
            metrics, detail = traced(args, ops, tally, pv)
        else:
            metrics, detail = untraced(args, ops, tally, setup_s)
        correct = True
    except oracles.CheckFailed as exc:
        print(f"perfbench: wrong value: {exc}", file=sys.stderr)
        metrics, detail, correct = {}, {"wrong": str(exc)}, False
    OUT.mkdir(exist_ok=True)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "ops_per_round": len(ops), "failures": tally.failures,
               "worst_error_by_check": tally.worst.by_check,
               "ops": [op.label for op in ops], **detail}
    (OUT / f"summary-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
