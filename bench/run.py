"""Benchmark for the hurwitz decision engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
One closed-loop caller, single process and single thread, submits the next
datum only after the previous one is done, through the library's public
entry points.  A pass over the workload's data runs, for each datum in turn:

  decide      ``DecisionEngine.decide(text)``;
  crosscheck  ``hurwitz.oracle.decide``, the search alone, if degree <= 10;
  verify      ``verify(verdict, datum)``.

Every operation is timed, and every time is scaled to a nominal machine
speed measured by a reference loop as the run goes.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (see ``layertrace.py``) over a fixed share of the data, whose
counts must repeat exactly.  ``METRICS.md`` describes every metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from layertrace import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

CROSSCHECK_MAX_DEGREE = 10
SETUP_REPEATS = 9
PERCENTILES = (50, 75, 90, 95, 98, 99, 99.5, 99.9)

# The machine's speed drifts by up to half over spells of ten seconds and
# more, so every reported time is scaled to a nominal machine on which a
# fixed reference loop, timed throughout the run, takes REFERENCE_NOMINAL_S.
# The loop is the benchmark's own code and allocates nothing the collector
# tracks, so no change to the library can speed it up or slow it down.
REFERENCE_ITERATIONS = 12_800
REFERENCE_NOMINAL_S = 0.001
REFERENCE_EVERY_S = 0.05
_REFERENCE_DATA = list(range(256))


def reference_seconds() -> float:
    """Wall time of one run of the reference loop."""
    data = _REFERENCE_DATA
    acc = 0
    start = time.perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        acc += data[i & 255] * 3 % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Times the reference loop at most every REFERENCE_EVERY_S while polled."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.due = 0.0

    def poll(self, force: bool = False) -> None:
        if force or time.perf_counter() >= self.due:
            self.samples.append(reference_seconds())
            self.due = time.perf_counter() + REFERENCE_EVERY_S

    def scale(self) -> float:
        """Factor from measured seconds to seconds on the nominal machine."""
        return REFERENCE_NOMINAL_S / statistics.mean(self.samples)


@dataclass(frozen=True)
class Workload:
    cells: tuple[tuple[int, int], ...]
    structured: bool  # keep only data with a shared divisor; add corpus and family
    shared_engine: bool  # one engine per pass (memo shared) or one per datum
    trace_count: int  # data in the traced run's fixed work (0: all)


# Each workload is its whole population in a seeded order: per-datum search
# cost is so heavy-tailed that a seeded subsample spreads by 5-11% from seed
# to seed (a handful of data hold a quarter of the time), while the whole
# population repeats to within timing noise.
WORKLOADS = {
    # the range where `scan --degree-max 10 --branch-points-max 3` spends its
    # time; the search takes ~98% of decide time
    "search-n3": Workload(((8, 3), (9, 3), (10, 3)), False, False, 300),
    # two enumerated middle factors: deeper trees, orbit pruning across
    # factors, more pairs for the filters
    "search-n4": Workload(((8, 4),), False, False, 200),
    # shared divisors: filters, closed form and reductions decide nearly all,
    # and the cross-check must exhaust the exceptional data itself
    "structured": Workload(
        ((8, 3), (9, 3), (10, 3), (8, 4), (12, 3), (14, 3), (15, 3), (12, 4)), True, True, 0),
}


# -- setup --


def import_library():
    """Import ``hurwitz`` afresh from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "hurwitz" or m.startswith("hurwitz.")]:
        del sys.modules[name]
    lib = importlib.import_module("hurwitz")
    if Path(lib.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported hurwitz from {lib.__file__}, not from {SRC}")
    return lib


def timed_setup():
    """The library, and the median nominal seconds to import it and build an engine."""
    times = []
    probe = SpeedProbe()
    for _ in range(SETUP_REPEATS):
        probe.poll(force=True)
        start = time.perf_counter()
        lib = import_library()
        lib.DecisionEngine(lib.SearchBudget())
        times.append(time.perf_counter() - start)
    probe.poll(force=True)
    return lib, statistics.median(times) * probe.scale()


def make_inputs(name: str, seed: int, lib) -> list[tuple[str, str | None]]:
    """The workload's data in seeded order, as (text, expected status or None)."""
    workload = WORKLOADS[name]
    data = [x for cell in workload.cells for x in gen.candidates(*cell)]
    if workload.structured:
        data = [x for x in data if gen.shares_divisor(x[1])]
    expected: dict[str, str | None] = {gen.render(x): None for x in data}
    if workload.structured:
        corpus = importlib.import_module("hurwitz.corpus")
        for entry in corpus.load_corpus():
            expected[lib.parse_datum(entry.datum_text).render()] = entry.expected
        for x in gen.family(2, 4, 2):
            expected[gen.render(x)] = "exceptional"
    items = sorted(expected.items())
    random.Random(f"{name}:{seed}").shuffle(items)
    return items


# -- one pass: decide, crosscheck and verify each datum in turn --


KINDS = ("decide", "crosscheck", "verify")


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)


@dataclass
class Pass:
    """Per-operation timings of one pass over the data.

    For each kind of operation, ``seconds`` holds what each one took and
    ``marks`` how many speed samples had been taken when it started.
    """

    seconds: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in KINDS})
    marks: dict[str, list[int]] = field(default_factory=lambda: {k: [] for k in KINDS})
    resolved: int = 0
    signatures: list[tuple] = field(default_factory=list)
    speed: SpeedProbe = field(default_factory=SpeedProbe)

    def add(self, kind: str, seconds: float) -> None:
        self.seconds[kind].append(seconds)
        self.marks[kind].append(len(self.speed.samples))

    def scaled(self, kind: str) -> list[float]:
        """Seconds on the nominal machine, each scaled by the speed sampled around it."""
        samples = self.speed.samples
        return [t * REFERENCE_NOMINAL_S / statistics.median(samples[max(0, m - 2):m + 2])
                for t, m in zip(self.seconds[kind], self.marks[kind])]


def decide_one(engine, text: str, expected: str | None, tally: Tally):
    """``engine.decide(text)``; returns the verdict (None if it raised) and seconds."""
    start = time.perf_counter()
    try:
        verdict = engine.decide(text)
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        seconds = time.perf_counter() - start
        tally.fail(f"decide {text}: {type(exc).__name__}: {exc}")
        return None, seconds
    seconds = time.perf_counter() - start
    if expected is not None and verdict.status != expected:
        tally.fail(f"decide {text}: {verdict.status}, expected {expected}")
    else:
        tally.ok()
    return verdict, seconds


def crosscheck_one(lib, text: str, datum, verdict, budget, tally: Tally) -> float:
    """The search alone on ``datum``; a conflict with the pipeline's verdict fails."""
    start = time.perf_counter()
    try:
        found = lib.oracle.decide(datum, budget)
    except Exception as exc:
        seconds = time.perf_counter() - start
        tally.fail(f"crosscheck {text}: {type(exc).__name__}: {exc}")
        return seconds
    seconds = time.perf_counter() - start
    mine = verdict.status if verdict is not None else lib.UNKNOWN
    if lib.UNKNOWN not in (mine, found.status) and mine != found.status:
        tally.fail(f"crosscheck {text}: pipeline {mine}, search {found.status}")
    else:
        tally.ok()
    return seconds


def verify_one(lib, text: str, datum, verdict, tally: Tally) -> float:
    """``verify(verdict, datum)``; False or an exception fails."""
    start = time.perf_counter()
    try:
        ok = lib.verify(verdict, datum)
    except Exception as exc:
        seconds = time.perf_counter() - start
        tally.fail(f"verify {text}: {type(exc).__name__}: {exc}")
        return seconds
    seconds = time.perf_counter() - start
    if ok:
        tally.ok()
    else:
        tally.fail(f"verify {text}: rejected {verdict.method}")
    return seconds


def run_pass(lib, items, datums, shared_engine: bool, tally: Tally, tracer=None) -> Pass:
    """Decide, crosscheck and verify each datum before the next is submitted.

    Doing the three operations datum by datum, as ``scan`` does, spreads
    each one's samples over the whole pass, so a slow spell of the machine
    weighs on all three alike instead of on whichever ran during it.
    """
    budget = lib.SearchBudget()
    engine = lib.DecisionEngine(budget)
    out = Pass()
    for index, (text, expected) in enumerate(items):
        out.speed.poll()
        datum = datums[text]
        if not shared_engine:
            engine = lib.DecisionEngine(budget)
        if tracer is not None:
            tracer.datum = index
            tracer.phase = "decide"
        verdict, seconds = decide_one(engine, text, expected, tally)
        out.add("decide", seconds)
        if verdict is None:
            out.signatures.append((text, None))
            continue
        out.signatures.append((text, verdict.status, verdict.method, verdict.stats.nodes,
                               verdict.stats.cache_hits))
        out.resolved += verdict.status != lib.UNKNOWN
        if datum.degree <= CROSSCHECK_MAX_DEGREE:
            if tracer is not None:
                tracer.phase = "crosscheck"
            out.add("crosscheck", crosscheck_one(lib, text, datum, verdict, budget, tally))
        if tracer is not None:
            tracer.phase = "verify"
        out.add("verify", verify_one(lib, text, datum, verdict, tally))
    out.speed.poll(force=True)
    return out


def parse_all(lib, items) -> dict:
    return {text: lib.parse_datum(text) for text, _ in items}


# -- untraced run: end-to-end metrics --


def percentile_label(samples_per_pass: int) -> float:
    """Highest of PERCENTILES with at least ten samples of one pass beyond it."""
    usable = [p for p in PERCENTILES if samples_per_pass * (100 - p) / 100 >= 10]
    return usable[-1] if usable else PERCENTILES[0]


def percentile(values: list[float], p: float) -> float:
    """Mean of the nine order statistics nearest the rank of the p-th percentile.

    In a sparse tail one order statistic jumps by the gap to its neighbour
    whenever timing jitter swaps two data; averaging neighbours damps that.
    """
    ordered = sorted(values)
    rank = round(p / 100 * (len(ordered) - 1))
    near = ordered[max(0, rank - 4):rank + 5]
    return sum(near) / len(near)


def run_untraced(name: str, lib, items, seconds: float) -> tuple[dict, Tally, list[str]]:
    workload = WORKLOADS[name]
    datums = parse_all(lib, items)
    tally = Tally()

    # whole passes only, so every run weighs each datum alike
    start = time.perf_counter()
    passes = [run_pass(lib, items, datums, workload.shared_engine, tally)]
    first = time.perf_counter() - start
    for _ in range(max(1, round(seconds / first)) - 1):
        passes.append(run_pass(lib, items, datums, workload.shared_engine, tally))

    def per_pass(value) -> float:
        return statistics.median(value(p) for p in passes)

    def rate(kind: str) -> float:
        return per_pass(lambda p: len(p.seconds[kind]) / sum(p.scaled(kind)))

    def latency_ms(q: float) -> float:
        return 1000 * per_pass(lambda p: percentile(p.scaled("decide"), q))

    tail = percentile_label(len(items))
    metrics = {
        "decide_per_s": (rate("decide"), "1/s"),
        "decide_p50_ms": (latency_ms(50), "ms"),
        "decide_tail_ms": (latency_ms(tail), "ms"),
        "crosscheck_per_s": (rate("crosscheck"), "1/s"),
        "verify_per_s": (rate("verify"), "1/s"),
        "decided_share": (sum(p.resolved for p in passes) / (len(items) * len(passes)), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"{len(passes)} pass(es) of {len(items)} data; rates and latencies are medians over"
        f" passes; decide_tail_ms is p{tail:g}",
        f"machine speed: reference loop took"
        f" {1000 * REFERENCE_NOMINAL_S / per_pass(lambda p: p.speed.scale()):.4f} ms"
        f" on average, nominal {1000 * REFERENCE_NOMINAL_S:g} ms; unscaled decide_per_s"
        f" {per_pass(lambda p: len(p.seconds['decide']) / sum(p.seconds['decide'])):.6g}",
        "samples per pass: " + ", ".join(f"{k} {len(passes[0].seconds[k])}" for k in KINDS)
        + f" (crosscheck: degree <= {CROSSCHECK_MAX_DEGREE})",
        f"failed_share {tally.failed / max(tally.attempted, 1):.6g} share"
        f" ({tally.failed} of {tally.attempted} operations)",
    ]
    return metrics, tally, notes


# -- traced run: per-layer metrics --


def oracle_metrics(layers: dict, prefix: str) -> dict[str, float]:
    """Search calls, nodes and self time, split by what the search returned."""
    entry = layers.get("oracle.decide", {"calls": 0, "self_s": 0.0, "summaries": []})
    by_status = entry["summaries"]  # (status, nodes, self seconds) per call
    nodes = sum(n for _, n, _ in by_status)
    out = {
        "oracle.decide.calls": entry["calls"],
        "oracle.decide.self_s": entry["self_s"],
        "oracle.nodes": nodes,
        "oracle.nodes_per_s": nodes / entry["self_s"] if entry["self_s"] else 0.0,
    }
    for label, status in (("witness", "realizable"), ("exhaust", "exceptional")):
        mine = [(n, own) for s, n, own in by_status if s == status]
        out[f"oracle.{label}.calls"] = len(mine)
        out[f"oracle.{label}.self_s"] = sum(own for _, own in mine)
        out[f"oracle.{label}.nodes"] = sum(n for n, _ in mine)
    out["oracle.unknown.calls"] = sum(1 for s, _, _ in by_status if s == "unknown")
    check = layers.get("oracle.check_witness", {"calls": 0, "self_s": 0.0})
    out["oracle.check_witness.calls"] = check["calls"]
    out["oracle.check_witness.self_s"] = check["self_s"]
    return {prefix + k: v for k, v in out.items()}


def layer_metrics(tracer: Tracer, decisions: int, scale: float) -> dict[str, float]:
    """Per-layer metrics of a traced run; see METRICS.md.

    Decide and verify operations give the unprefixed metrics; the search
    metrics of the crosscheck operations carry the prefix ``crosscheck.``.
    Times are multiplied by ``scale``, the machine-speed factor of the pass.
    """
    main = tracer.layers(("decide", "verify"))
    out = oracle_metrics(main, "")
    out.update(oracle_metrics(tracer.layers(("crosscheck",)), "crosscheck."))

    def layer(name: str) -> dict:
        return main.get(name, {"calls": 0, "self_s": 0.0, "summaries": []})

    def count(name: str) -> int:
        return sum(tracer.counts[phase, name] for phase in ("decide", "verify"))

    for name in ("criteria.detect_structures", "criteria.filters", "criteria.songxu",
                 "partitions.decompose", "engine.decide", "engine.verify", "partitions.parse"):
        out[name + ".calls"] = layer(name)["calls"]
        out[name + ".self_s"] = layer(name)["self_s"]
    out["criteria.filters.fired"] = sum(layer("criteria.filters")["summaries"])
    out["criteria.songxu.matched"] = sum(layer("criteria.songxu")["summaries"])
    out["partitions.decompose.splits"] = sum(layer("partitions.decompose")["summaries"])
    out["reduction.children.plans"] = count("reduction.children.plans")
    out["reduction.children.steps"] = sum(layer("reduction.children")["summaries"])
    out["reduction.children.self_s"] = layer("reduction.children")["self_s"]
    out["reduction.steps_per_decision"] = out["reduction.children.steps"] / max(decisions, 1)
    out["engine.memo_hits"] = sum(layer("engine.decide")["summaries"])
    out["engine.verify.rejects"] = sum(1 for ok in layer("engine.verify")["summaries"] if not ok)
    out["partitions.rh_defect.calls"] = count("partitions.rh_defect.calls")
    for key in out:
        if key.endswith("_per_s"):
            out[key] /= scale
        elif key.endswith("_s"):
            out[key] *= scale
    return out


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The per-layer values that must repeat exactly from run to run."""
    exact = {"engine.memo_hits", "partitions.decompose.splits", "reduction.children.plans",
             "reduction.children.steps", "criteria.filters.fired", "criteria.songxu.matched"}
    return {k: v for k, v in metrics.items()
            if k in exact or k.endswith((".calls", ".nodes"))}


def layer_shares(tracer: Tracer) -> list[tuple[str, float]]:
    """Each layer's self time as a share of the traced decide time."""
    selfs = {k: v["self_s"] for k, v in tracer.layers(("decide",)).items()}
    total = sum(selfs.values())
    return sorted(((k, v / total) for k, v in selfs.items()), key=lambda kv: -kv[1])


def run_traced(name: str, lib, items, seed: int, write_spans: bool = True):
    """Traced, untraced and traced again over the same fixed work; checks they agree.

    Returns the per-layer metrics, the tally, notes to print and the list of
    problems (verdicts that differ with tracing, or counts that did not
    repeat), which make the run incorrect.
    """
    workload = WORKLOADS[name]
    if workload.trace_count:
        items = items[:workload.trace_count]
    datums = parse_all(lib, items)
    tally = Tally()
    problems: list[str] = []

    traced = []
    for i in range(3):
        if i == 1:  # untraced in the middle, so neither side runs first and cold
            plain = run_pass(lib, items, datums, workload.shared_engine, tally)
            continue
        tracer = Tracer(lib)
        tracer.install()
        try:
            done = run_pass(lib, items, datums, workload.shared_engine, tally, tracer)
        finally:
            tracer.uninstall()
        traced.append((tracer, done, layer_metrics(tracer, len(items), done.speed.scale())))

    for _, done, _ in traced:
        for a, b in zip(plain.signatures, done.signatures):
            if a != b:
                problems.append(f"traced verdict differs from untraced: {a} vs {b}")
                break
    first, second = exact_counts(traced[0][2]), exact_counts(traced[1][2])
    for key in sorted(first):
        if first[key] != second[key]:
            problems.append(f"count {key} did not repeat: {first[key]} vs {second[key]}")

    tracer, _, metrics = traced[0]
    traced_s = statistics.mean(sum(done.scaled("decide")) for _, done, _ in traced)
    metrics["trace.overhead"] = traced_s / sum(plain.scaled("decide")) - 1
    notes = [f"traced work: {len(items)} data, {len(tracer.spans)} spans per traced pass;"
             f" tracing adds {metrics['trace.overhead']:+.1%} to decide time"]
    notes += [f"  decide share {k:<28} {v:7.2%}" for k, v in layer_shares(tracer)]
    if write_spans:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{name}-{seed}.csv"
        tracer.write(path)
        notes.append(f"spans written to {path.relative_to(ROOT)}")
    return metrics, tally, notes + problems, problems


# -- entry point --


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib, setup_s = timed_setup()
    items = make_inputs(args.workload, args.seed, lib)
    print(f"workload {args.workload} seed {args.seed}: {len(items)} data,"
          f" digest {gen.digest([text for text, _ in items])}")

    if args.trace:
        values, tally, notes, problems = run_traced(args.workload, lib, items, args.seed)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    else:
        values, tally, notes = run_untraced(args.workload, lib, items, args.seconds)
        problems = []
        values["setup_s"] = (setup_s, "s")
        notes.append(f"setup_s: median of {SETUP_REPEATS} imports and engine constructions")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        for k, m in metrics.items():
            notes.append(f"{k} {m['value']:.6g} {m['unit']}")

    for line in notes + tally.messages:
        print(line)
    print(json.dumps({
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def _unit(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key in ("trace.overhead",):
        return "share"
    if key.endswith("per_decision"):
        return "count/decision"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
