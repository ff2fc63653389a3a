"""Self-tests of the benchmark itself; run as ``python3 bench/selftest.py``.

Exits non-zero on the first failed check.  They cover what the benchmark
relies on but cannot see in a normal run:

  * the generator's populations equal the library's enumeration;
  * a forged verdict that ``verify`` accepts still counts as failed,
    because the cross-check disagrees with it;
  * tracing changes no verdict, its counts repeat exactly, it records as
    many calls of each traced function as the interpreter's profiler sees
    (so no binding was missed), every traced layer records a call on some
    workload, and uninstalling restores the library.
"""

from __future__ import annotations

import sys
import time
import types
from collections import Counter

import gen
import run
from layertrace import COUNTED, GENERATORS, LAYERS, Tracer


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")
    print(f"ok   {message}")


def test_generator_populations(lib) -> None:
    for (d, n), size in (((10, 3), 1447), ((8, 4), 773), ((9, 4), 2273)):
        mine = [gen.render(x) for x in gen.candidates(d, n)]
        theirs = [c.render() for c in lib.enumerate_candidates(d, n)]
        check(mine == theirs and len(mine) == size,
              f"generator matches enumerate_candidates at ({d},{n}): {len(mine)} data")
    total = 0
    for d, n in run.WORKLOADS["structured"].cells:
        mine = {gen.render(x) for x in gen.candidates(d, n) if gen.shares_divisor(x[1])}
        theirs = {c.render() for c in lib.enumerate_candidates(d, n) if lib.detect_structures(c)}
        check(mine == theirs, f"shared-divisor test matches detect_structures at ({d},{n})")
        total += len(mine)
    check(total == 3087, f"structured cells hold {total} data")
    family = {gen.render(x) for x in gen.family(2, 4, 2)}
    check(family == {datum.render() for datum, _ in lib.family_instances(2, 4, 2)},
          f"family generator matches family_instances(2, 4, 2): {len(family)} data")


def test_failure_gate(lib) -> None:
    """A pass whose engine forges an exceptional verdict for a realizable datum."""
    text = "4: [2,2] [2,2] [2,2]"  # realizable: the Klein four-group
    forged = lib.Verdict(lib.EXCEPTIONAL, "oracle")

    class ForgingEngine:
        def __init__(self, budget=None) -> None:
            pass

        def decide(self, text):
            return forged

    shim = types.SimpleNamespace(
        DecisionEngine=ForgingEngine, SearchBudget=lib.SearchBudget, UNKNOWN=lib.UNKNOWN,
        oracle=lib.oracle, verify=lib.verify)
    tally = run.Tally()
    run.run_pass(shim, [(text, None)], {text: lib.parse_datum(text)}, False, tally)
    accepted = not any(m.startswith("verify") for m in tally.messages)
    print(f"     verify {'accepts' if accepted else 'rejects'} the forged verdict")
    check(any(m.startswith("crosscheck") for m in tally.messages),
          f"the cross-check fails the forged verdict: failed_share {tally.failed}/{tally.attempted}")


def profiled_calls(lib, work) -> Counter:
    """Calls of every traced plain function while ``work()`` runs, as the profiler sees them."""
    codes = {}
    for layer, targets in list(LAYERS.items()) + [(k, [v]) for k, v in COUNTED.items()]:
        for module, attr, *_ in targets:
            owner = sys.modules[f"hurwitz.{module}"]
            for part in attr.split("."):
                owner = getattr(owner, part)
            codes[owner.__code__] = layer
    seen: Counter = Counter()

    def profile(frame, event, arg) -> None:
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return seen


def test_trace(lib) -> None:
    called: set[str] = set()
    for name, limit in (("search-n3", 40), ("search-n4", 40), ("structured", 800)):
        items = run.make_inputs(name, 7, lib)[:limit]
        metrics, tally, _, problems = run.run_traced(name, lib, items, 7, write_spans=False)
        check(not problems, f"{name}: traced verdicts equal untraced ones and counts repeat")
        check(tally.failed == 0, f"{name}: no operation failed in {tally.attempted}")

        shared = run.WORKLOADS[name].shared_engine
        datums = run.parse_all(lib, items)

        expected = profiled_calls(
            lib, lambda: run.run_pass(lib, items, datums, shared, run.Tally()))
        tracer = Tracer(lib)
        tracer.install()
        try:
            run.run_pass(lib, items, datums, shared, run.Tally(), tracer)
        finally:
            tracer.uninstall()
        recorded: Counter = Counter()
        for layer, entry in tracer.layers(("decide", "crosscheck", "verify")).items():
            if layer in LAYERS:
                recorded[layer] = entry["calls"]
        for (_, counter), calls in tracer.counts.items():
            if counter.endswith(".calls"):
                recorded[counter[:-len(".calls")]] += calls
        check(recorded == expected, f"{name}: the tracer sees every call the profiler sees")
        called |= {k[:-len(".calls")] for k, v in metrics.items() if k.endswith(".calls") and v}
        called |= {k[:-len(".plans")] for k, v in metrics.items() if k.endswith(".plans") and v}
    for layer in list(LAYERS) + list(GENERATORS) + list(COUNTED):
        check(layer in called, f"layer {layer} records calls on some workload")
    leftovers = [f"{mod.__name__}.{key}" for mod in list(sys.modules.values())
                 if mod is not None and mod.__name__.startswith("hurwitz")
                 for key, value in vars(mod).items() if hasattr(value, "__wrapped__")]
    leftovers += [key for key, value in vars(lib.DecisionEngine).items()
                  if hasattr(value, "__wrapped__")]
    check(not leftovers, "uninstalling the tracer restores every binding")


def main() -> int:
    start = time.perf_counter()
    lib = run.import_library()
    test_generator_populations(lib)
    test_failure_gate(lib)
    test_trace(lib)
    print(f"all self-tests passed in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
