"""Run one benchmark workload and print its result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the program is imported from its
`src/` directory, and nothing needs building. The workload's inputs are made
from the seed; set-up is repeated and its median time reported; whole rounds
of the workload then run until S seconds have passed, each operation timed
against the machine's speed as `gauge.py` reads it; the first round's
outputs are checked. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones, recorded over
one set-up and the first round (later rounds run without the tracer).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import gauge

# One BLAS thread, whatever the caller's environment says: on two cores a
# second one brings no speed here (the matrices are small) and makes timings
# depend on what else the machine runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# set-up is repeated at least this many times and for at least this long
# (cheap set-ups take well under a second, so a few samples would be noisy)
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
# phase -> end-to-end metric and unit
RATES = {
    "train": ("train_tok_per_s", "tokens/s"),
    "resolve": ("resolve_tok_per_s", "tokens/s"),
    "select": ("subsets_per_s", "subsets/s"),
}


def _rates(recorders, meter) -> dict:
    """Units over seconds per phase, at the gauge's reference speed.

    Each operation's time is divided by the gauge's reading around it;
    every round repeats the same operations, so each one's cost is the
    median of these ratios over its repeats. The rate is the units of all
    operations over their costs, scaled to seconds at the reference speed.
    """
    out = {}
    for phase, (name, unit) in RATES.items():
        costs, units = defaultdict(list), {}
        for r in recorders:
            for key, n, start, end in r.samples[phase]:
                costs[key].append((end - start) / meter.reading(start, end))
                units[key] = n
        if costs:
            total = sum(statistics.median(c) for c in costs.values())
            out[name] = (sum(units.values()) / (total * gauge.REFERENCE_S), unit)
    return out


def _wall_rates(recorders) -> dict:
    """Units over seconds per phase, from wall time alone (for diagnostics)."""
    out = {}
    for phase, (name, _) in RATES.items():
        samples = [(n, end - start) for r in recorders for _, n, start, end in r.samples[phase]]
        if samples:
            out[name] = sum(n for n, _ in samples) / sum(seconds for _, seconds in samples)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "corefkit" / "__init__.py").is_file():
        print(f"error: no corefkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
        tracer.active = True
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, workload, workdir, tracer, checks, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def _run(args, workload, workdir, tracer, checks, workloads) -> int:
    # Set-ups and rounds alternate, so that every metric's samples spread over
    # the whole run: a shared machine's speed can drift over tens of seconds.
    setup_times, rounds = [], []
    state = first = None
    round_seconds = 0.0
    repeats = 1 if tracer else SETUP_REPEATS
    meter = gauge.Gauge()
    while True:
        setups_done = len(setup_times) >= repeats and (tracer or sum(setup_times) >= SETUP_SECONDS)
        rounds_done = round_seconds >= args.seconds
        if setups_done and rounds_done:
            break
        if not setups_done:
            state = None
            gc.collect()
            start = time.perf_counter()
            state = workload.setup(args.seed, workdir / str(len(setup_times)))
            setup_times.append(time.perf_counter() - start)
        if not rounds_done:
            rec = workloads.Recorder(meter)
            start = time.perf_counter()
            out = workload.round(state, rec)
            round_seconds += time.perf_counter() - start
            rounds.append(rec)
            if first is None:
                first = (state, out)
            if tracer:
                tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = [e for r in rounds for e in r.errors]
    failures = checks.scorer_cases()
    try:
        found, info = workload.check(*first)
        failures += found
        print(f"info: {info}", file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failed check
        failures.append(f"checks raised {type(exc).__name__}: {exc}")
    for line in errors[:10] + failures[:20]:
        print(f"FAIL: {line}", file=sys.stderr)

    e2e = {"setup_s": (statistics.median(setup_times), "s"), "peak_rss_mb": (peak_rss_mb, "MB"), **_rates(rounds, meter)}
    print(f"info: {len(rounds)} rounds in {round_seconds:.1f} s, {len(setup_times)} set-ups, "
          f"median {statistics.median(setup_times):.3f} s", file=sys.stderr)
    print(f"info: wall-time rates {json.dumps(_wall_rates(rounds))}; median gauge measurement "
          f"{statistics.median(meter.seconds) * 1e3:.3f} ms of {len(meter.seconds)} "
          f"(reference {gauge.REFERENCE_S * 1e3} ms)", file=sys.stderr)
    if tracer:
        # the tracer's cost: the first round ran traced, later ones did not
        for label, recs in (("traced", rounds[:1]), ("untraced", rounds[1:])):
            print(f"info: {label} rounds " + json.dumps({k: v[0] for k, v in _rates(recs, meter).items()}),
                  file=sys.stderr)
        for name, feeds in tracer.missing:
            print(f"info: {name} no longer exists; missing {', '.join(feeds)}", file=sys.stderr)
        metrics = tracer.metrics()
    else:
        metrics = e2e
    result = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
