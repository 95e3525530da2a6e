"""perfbench: seeded end-to-end and per-layer benchmark of petripoly.

Run from the repository root, for example:

    python3 perfbench/run.py --workload convert --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` next to this directory; the run
fails without printing a result when those sources are missing.  Each
run is a closed loop with one client: one item at a time, in this
process.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
records spans in every other pass of each item and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  BENCHMARK.json lists the workloads
and metrics, and README.md maps each per-layer metric to the end-to-end
metric it should move.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import speed
from spans import Tracer
from workloads import WORKLOADS, fresh_import

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# Set-up is timed SETUP_PASSES times, spread evenly over the run, and the
# median is reported.  Only the first pass's workload is measured.
SETUP_PASSES = 5
# Loop samples around a timed span that set its scale (see speed.py).
NEAREST_LOOPS = 5

FUNCTIONS = (
    "polynomial.parse_poly", "polynomial.print_poly", "polynomial.support",
    "polynomial.mul", "polynomial.add",
    "codec.encode", "codec.decode", "codec.canonical_poly",
    "net.read_net", "net.write_net", "net.product", "net.attach", "net.are_isomorphic",
    "factor.decompose",
)
TOTALS = (
    ("polynomial.mul", "terms_out"), ("codec.encode", "events_in"),
    ("net.product", "events_out"), ("factor.decompose", "factors_out"),
)
SERIES = (
    ("codec.canonical_poly", ("n6", "n7", "n8")),
    ("net.are_isomorphic", ("n6", "n8")),
    ("factor.decompose", ("bits10", "bits11", "bits12", "bits13")),
)
CLI_VERBS = ("encode", "decode", "mul", "add", "product", "attach", "decompose",
             "iso", "canon", "dot", "validate")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_program(module):
    """Import petripoly afresh from src/ and return the package."""
    fresh_import(module)
    lib = sys.modules["petripoly"]
    if Path(lib.__file__).resolve().parent != SRC / "petripoly":
        raise SystemExit(f"perfbench: petripoly was imported from {lib.__file__}, not from {SRC}")
    return lib


class Results:
    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.timings = []  # (traced, seconds, loop seconds just before)

    def scales(self):
        """Factor from seconds to seconds at the reference speed, per timing:
        REFERENCE_S over the median of the NEAREST_LOOPS loop samples
        nearest to it in time."""
        loops = [t[2] for t in self.timings]
        half = NEAREST_LOOPS // 2
        return [speed.REFERENCE_S / statistics.median(loops[max(0, j - half):j + half + 1])
                for j in range(len(loops))]

    def scaled(self, traced):
        return [seconds * scale for (on, seconds, _), scale in zip(self.timings, self.scales())
                if on == traced]


def attempt(wl, tracer, i, traced, results):
    """Make, run and check item i; a failure is counted, never raised."""
    results.attempted += 1
    tracer.item, tracer.timing = i, len(results.timings)
    try:
        x = wl.make(i)
        loop_s = speed.sample()
        tracer.on = traced
        start = perf_counter()
        with tracer.span("bench.item"):
            out = wl.run(x)
        results.timings.append((traced, perf_counter() - start, loop_s))
        with tracer.span("bench.check"):
            wl.check(x, out)
    except Exception as exc:  # the loop must go on: record and report
        results.failures.append(f"seed {wl.seed} item {i}: {type(exc).__name__}: {exc}")
        print(f"perfbench: {wl.name} seed {wl.seed} item {i} failed", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    finally:
        tracer.on = False


def set_up(cls, seed, tracer, scratch):
    """Import the program, make the workload's seeded inputs and warm up
    with item 0; returns the workload and the seconds this took."""
    gc.collect()
    loop_s = statistics.median(speed.sample() for _ in range(3))
    start = perf_counter()
    wl = cls(import_program(cls.module), seed, tracer, scratch)
    try:
        x = wl.make(0)
        wl.check(x, wl.run(x))
    except Exception:  # item 0 fails again in the timed loop, which counts it
        print("perfbench: warm-up failed", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    return wl, (perf_counter() - start) * speed.REFERENCE_S / loop_s


def quantiles(samples):
    """(p50, p90) with the exclusive method; a lone sample is both."""
    if len(samples) < 2:
        return samples[0], samples[0]
    cuts = statistics.quantiles(samples, n=10)
    return cuts[4], cuts[8]


def measure(wl, tracer, seconds, trace, set_up_again):
    """Run items for ``seconds`` and to the end of the schedule.  With
    ``trace`` every other item is traced, swapping parity each schedule.
    The remaining set-up passes run between items."""
    results = Results()
    start = perf_counter()
    due = [start + seconds * k / (SETUP_PASSES - 1) for k in range(1, SETUP_PASSES)]
    i = 0
    while i == 0 or i % wl.cycle or perf_counter() < start + seconds:
        attempt(wl, tracer, i, trace and (i % wl.cycle + i // wl.cycle) % 2 == 0, results)
        gc.collect()
        while due and perf_counter() >= due[0]:
            due.pop(0)
            set_up_again()
        i += 1
    for _ in due:
        set_up_again()
    return results


def end_to_end(results, setup_times):
    samples = results.scaled(False)
    p50, p90 = quantiles(samples)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    failed = len(results.failures)
    beyond = sum(s > p90 for s in samples)
    notes = [
        f"latency_p90_ms: {len(samples)} samples, {beyond} beyond the 90th percentile",
        f"fail_ratio {failed / results.attempted} ({failed} failed of {results.attempted} attempted)",
        f"setup_s: median of {SETUP_PASSES} set-up passes: "
        + ", ".join(f"{t:.4f}" for t in setup_times),
    ]
    metrics = {
        "throughput_items_per_s": (len(samples) / sum(samples), "items/s"),
        "latency_p50_ms": (1000 * p50, "ms"),
        "latency_p90_ms": (1000 * p90, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MiB"),
    }
    return metrics, notes


def per_layer(tracer, results):
    # Spans of a timed item get its scale; the cli probes' spans stay raw.
    scales = results.scales()
    raw = tracer.self_times()
    own = {s["id"]: raw[s["id"]] * (scales[s["timing"]] if s["timing"] in range(len(scales)) else 1.0)
           for s in tracer.spans}
    spans = defaultdict(list)
    for s in tracer.spans:
        if s["root"] != "bench.check":
            spans[s["name"]].append(s)

    def p50_ms(chosen):
        return 1000 * statistics.median(own[s["id"]] for s in chosen) if chosen else 0.0

    metrics = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = (len(spans[name]), "count")
        metrics[f"{name}.ms"] = (1000 * sum((own[s["id"]] for s in spans[name]), 0.0), "ms")
    for name, attr in TOTALS:
        metrics[f"{name}.{attr}"] = (sum(s["attrs"].get(attr, 0) for s in spans[name]), "count")
    iso = spans["net.are_isomorphic"]
    found = sum(s["attrs"]["found"] for s in iso)
    metrics["net.are_isomorphic.found_ratio"] = (found / len(iso) if iso else 0.0, "ratio")
    for name, keys in SERIES:
        for key in keys:
            chosen = [s for s in spans[name] if s["attrs"].get("series") == key]
            metrics[f"{name}.{key}.p50_ms"] = (p50_ms(chosen), "ms")
    # Spawn and import children alternate; pairing them cancels slow spells.
    pairs = zip(spans["cli.child.spawn"], spans["cli.child.import"])
    extra = [own[i["id"]] - own[s["id"]] for s, i in pairs]
    metrics["cli.spawn_ms"] = (p50_ms(spans["cli.child.spawn"]), "ms")
    metrics["cli.import_ms"] = (1000 * statistics.median(extra) if extra else 0.0, "ms")
    metrics["cli.process.p50_ms"] = (p50_ms(spans["cli.child.process"]), "ms")
    metrics["cli.reimport.p50_ms"] = (p50_ms(spans["cli.reimport"]), "ms")
    for verb in CLI_VERBS:
        metrics[f"cli.run.{verb}.p50_ms"] = (p50_ms(spans[f"cli.run.{verb}"]), "ms")

    traced, untraced = results.scaled(True), results.scaled(False)
    ratio = (len(traced) / sum(traced)) / (len(untraced) / sum(untraced)) if traced and untraced else 1.0
    metrics["bench.trace_overhead_ratio"] = (ratio, "ratio")
    notes = [
        f"bench.trace_overhead_ratio: traced over untraced throughput, "
        f"{len(traced)} traced and {len(untraced)} untraced items",
        f"fail_ratio {len(results.failures) / results.attempted} "
        f"({len(results.failures)} failed of {results.attempted} attempted)",
        f"spans: {len(tracer.spans)}",
    ]
    return metrics, notes


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "petripoly" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no petripoly sources at {SRC}")
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    scratch = OUT / f"tmp-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer()
        setup_times = []

        def set_up_pass():
            wl, seconds = set_up(cls, args.seed, tracer, scratch)
            setup_times.append(seconds)
            return wl

        wl = set_up_pass()
        results = measure(wl, tracer, args.seconds, args.trace == 1, set_up_pass)
        if args.trace:
            tracer.on, tracer.item, tracer.timing = True, "probe", None
            try:
                wl.probe()
            except Exception as exc:  # reported like a failed item
                results.failures.append(f"seed {args.seed} probe: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
            tracer.on = False
            metrics, notes = per_layer(tracer, results)
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            metrics, notes = end_to_end(results, setup_times)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"python {platform.python_version()}, {len(os.sched_getaffinity(0))} cpus")
    print(f"inputs: {results.attempted} items; {cls.sizes}")
    for line in notes + results.failures[:5]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not results.failures,
        "attempted": results.attempted,
        "failed": len(results.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
