"""trithermal benchmark: one client sends CLI requests in a closed loop.

    python3 bench/run.py --workload {sweep,phase_map,operating_points}
        --seed N --seconds S --trace {0,1}

Run from anywhere; it imports trithermal from the checkout's src/ and
writes only under the checkout's .bench_scratch/. Each request is
``trithermal.cli.main(argv)`` called in-process on one thread, so
interpreter start-up does not swamp the work; start-up is measured on its
own in ``setup_s``. Every output is checked outside the timed region.

--trace 0 prints the end-to-end metrics. --trace 1 runs half the time
untraced and half traced and prints the per-layer metrics. The last line of
stdout is the JSON result; lines before it record the host and each metric.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_scratch"

#: set-ups per untraced run, spread over its loop; setup_s is their median
SETUP_REPEATS = 5

#: traced functions whose self time is reported one by one; the analysis
#: functions not called on every workload count only in analysis.self_us
SELF_TIMED = ("model.validate", "rates.transition_rates",
              "generator.build_partial_secular", "solver.steady_state",
              "observables.steady_state_report", "analysis.currents_at",
              "cli.load_config", "cli.csv", "cli.main", "linalg.svd",
              "linalg.solve")
COUNTED = SELF_TIMED + ("analysis.find_current_zero",
                        "analysis.amplification_factor",
                        "analysis.measure_temperature")


class Tally:
    """Items checked and failed, and whether any output was wrong.

    Each distinct request of the pool counts its items once, and an item
    fails if any run of its request failed it. Every run checks the whole
    pool, so ``attempted`` and ``failed`` depend on the seed alone.
    """

    def __init__(self, gross: float):
        self.gross_bound = gross
        self.items: dict[tuple, int] = {}
        self.bad: dict[tuple, set[int]] = {}
        self.gross = 0
        self.malformed = 0
        self.worst = 0.0
        self.notes: list[str] = []

    def add(self, request, code) -> None:
        key = tuple(request.argv)
        self.items[key] = request.items
        errors = [None] * request.items
        if code is not None:
            try:
                errors = request.check(request.out, code)
            except (OSError, ValueError, IndexError) as exc:
                self.malformed += 1
                self._note(f"malformed output of {request.argv[0]}: {exc}")
        # own-scale ratio decides failure, request-scale ratio grossness
        ratios = [None if e is None else e[0] for e in errors]
        bad = [i for i, r in enumerate(ratios) if r is None or not r <= 1.0]
        self.bad.setdefault(key, set()).update(bad)
        self.gross += sum(1 for i in bad if errors[i] is not None
                          and not errors[i][1] <= self.gross_bound)
        self.worst = max([self.worst] + [r for r in ratios
                                         if r is not None and r <= 1e300])
        if bad:
            worst = max((ratios[i] for i in bad), key=_sort_key)
            self._note(f"{request.argv[0]}: {len(bad)} of {request.items} "
                       f"item(s) failed, worst {worst}")

    def _note(self, text: str) -> None:
        if len(self.notes) < 10:
            self.notes.append(text)

    @property
    def attempted(self) -> int:
        return sum(self.items.values())

    @property
    def failed(self) -> int:
        return sum(len(bad) for bad in self.bad.values())

    @property
    def correct(self) -> bool:
        return self.gross == 0 and self.malformed == 0


def _sort_key(ratio):
    return float("inf") if ratio is None else ratio


class Runner:
    """Calls the CLI in-process with stderr sent to a log file."""

    def __init__(self, cli_main, log, tracer=None):
        self.cli_main = cli_main
        self.log = log
        self.tracer = tracer

    def __call__(self, request) -> tuple[int | None, float]:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(self.log):
                if self.tracer is None:
                    code = self.cli_main(request.argv)
                else:
                    code = self.tracer.root("cli.main", self.cli_main,
                                            request.argv)
        except Exception:  # noqa: BLE001 - a traceback is a failed request
            code = None
            traceback.print_exc(file=self.log)
        return code, time.perf_counter() - start


def closed_loop(requests, seconds, run, after, min_requests=0, before=None):
    """Send requests[1:] in order, cycling, until their latencies add up to
    ``seconds``; returns the latencies and the items completed."""
    latencies = []
    items = 0
    pool = requests[1:]
    while sum(latencies) < seconds or len(latencies) < min_requests:
        index = len(latencies)
        request = pool[index % len(pool)]
        if before is not None:
            before(index)
        code, latency = run(request)
        latencies.append(latency)
        items += request.items
        after(request, code)
    return latencies, items


def finish_pool(requests, sent, run, after) -> None:
    """Send, untimed, the pool requests the timed loop did not reach, so
    that every run checks the same items."""
    for request in requests[1 + sent:]:
        code, _ = run(request)
        after(request, code)


def set_up(workload, seed, directory: Path, cli_main, log):
    """One timed set-up: a fresh interpreter importing trithermal.cli,
    writing the inputs, and one warm-up request."""
    from workloads import make_requests

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import trithermal.cli"],
                   env=env, cwd=ROOT, check=True, timeout=120)
    directory.mkdir()
    requests = make_requests(workload, seed, directory)
    Runner(cli_main, log)(requests[0])
    return time.perf_counter() - start, requests


def host_record() -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var, "unset") for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "complex256": hasattr(numpy, "complex256"),
    }


def end_to_end(workload, seed, seconds, work, cli_main, log):
    import numpy

    from workloads import GROSS

    setups = []

    def set_up_again():
        duration, requests = set_up(workload, seed,
                                    work / f"inputs-{len(setups)}",
                                    cli_main, log)
        setups.append(duration)
        return requests

    # the loop uses the first set-up's inputs; the others are spread over
    # the loop, outside its timing, so that their median sees as much of
    # the host's drift as the loop does
    requests = set_up_again()
    start = time.perf_counter()

    def before(index):
        due = len(setups) * seconds / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and time.perf_counter() - start >= due:
            set_up_again()

    tally = Tally(GROSS)
    runner = Runner(cli_main, log)
    latencies, items = closed_loop(requests, seconds, runner, tally.add,
                                   before=before)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_REPEATS:
        set_up_again()
    setup_s = statistics.median(setups)
    finish_pool(requests, len(latencies), runner, tally.add)
    tail = float(numpy.percentile(latencies, workload.tail_percentile))
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (items / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "latency_p50_ms": f"{len(latencies)} requests; latency_tail_ms = "
                          f"{1e3 * tail:.6g} ms at "
                          f"p{workload.tail_percentile:g}, "
                          f"{sum(1 for x in latencies if x > tail)} beyond",
        "ok_frac": f"failed_frac = {tally.failed / tally.attempted:.6g}",
    }
    return metrics, notes, tally


def per_layer(workload, seed, seconds, work, cli_main, log):
    from tracer import Tracer
    from workloads import GROSS

    _, requests = set_up(workload, seed, work / "inputs", cli_main, log)
    tally = Tally(GROSS)
    runner = Runner(cli_main, log)
    plain, plain_items = closed_loop(requests, seconds / 2, runner, tally.add)
    tracer = Tracer()
    tracer.install()
    counted = {"items": 0, "bytes": 0}

    def before(index):
        tracer.request = index
        tracer.counting = index < workload.counted

    def after(request, code):
        if tracer.counting:
            counted["items"] += request.items
            if request.out.exists():
                counted["bytes"] += request.out.stat().st_size
        tally.add(request, code)

    try:
        tracer.enabled = True
        traced, traced_items = closed_loop(
            requests, seconds / 2, Runner(cli_main, log, tracer), after,
            workload.counted, before)
    finally:
        tracer.enabled = False
        tracer.close()
    finish_pool(requests, max(len(plain), len(traced)), runner, tally.add)
    spans_dir = SCRATCH / "spans"
    spans_dir.mkdir(exist_ok=True)
    tracer.write_spans(spans_dir / f"{workload.name}-seed{seed}.csv")

    metrics = {}
    for name in COUNTED:
        metrics[f"{name}.calls_per_item"] = (
            tracer.calls[name] / counted["items"], "calls/item")
        metrics[f"{name}.errors"] = (tracer.errors[name], "count")
    for name in SELF_TIMED:
        metrics[f"{name}.self_us"] = (
            1e6 * tracer.self_time[name] / traced_items, "us/item")
    metrics["analysis.self_us"] = (1e6 * sum(
        t for name, t in tracer.self_time.items()
        if name.startswith("analysis.")) / traced_items, "us/item")
    metrics["cli.bytes_out_per_item"] = (counted["bytes"] / counted["items"],
                                         "B/item")
    metrics["tracing.slowdown"] = ((plain_items / sum(plain))
                                   / (traced_items / sum(traced)), "x")
    notes = {"tracing.slowdown": f"{len(plain)} untraced and {len(traced)} "
                                 f"traced requests, spans in {spans_dir}"}
    return metrics, notes, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "phase_map", "operating_points"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trithermal" / "cli.py").is_file():
        print(f"error: no trithermal sources in {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import trithermal.cli

    if not Path(trithermal.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: trithermal imported from outside {SRC}",
              file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH))
    try:
        with open(work / "stderr.log", "w", encoding="utf-8") as log:
            measure = per_layer if args.trace else end_to_end
            metrics, notes, tally = measure(workload, args.seed, args.seconds,
                                            work, trithermal.cli.main, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("host " + json.dumps(host_record(), sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"checked {tally.attempted} item(s): {tally.failed} failed, "
          f"{tally.gross} grossly wrong, {tally.malformed} malformed "
          f"output(s), worst error {tally.worst:.3g} of its bound")
    for note in tally.notes:
        print(f"  {note}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
