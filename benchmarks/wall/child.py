"""One run of one workload, in a fresh process.

``python3 child.py '<spec json>'`` builds the workload, answers its
questions one at a time (a closed loop: one client, one thread, no pool)
and prints one JSON line with the set-up time, the time spent answering,
every question's latency, the peak RSS, the operations attempted and
failed, and — for a traced run — the per-layer metrics.  Times are
normalized to a reference host speed (``hostclock.py``).  ``run.py``
launches one child per run, so every run starts cold.

The program under test only ever sees the generated inputs: the panel
order of the warm passes and the A/B noise seed.
"""

import dataclasses
import hashlib
import json
import os
import random
import resource
import sys
import time

from hostclock import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

#: Seed-shuffled passes over the panels in one ``sweep-warm`` run.
#: ``sweep-cold`` and ``tune`` ask once per panel in the paper's order:
#: in a shuffled cold run, 0.5 s garbage-collection pauses land on other
#: questions and deep-speech-2's position alone moves peak RSS from 301
#: to 362 MiB, so the order would set p80 and RSS more than the code.
WARM_PASSES = 300
#: ``tbd conformance run`` settings.  The fuzz seed stays at the CLI
#: default: fuzz cases pick models at random, and across seeds 1-12 one
#: run took 17-30 s on a 2-vCPU sandbox, an input-driven spread wider
#: than any bound here.
CONFORMANCE_BUDGET = 10
CONFORMANCE_SEED = 7


def panel_orders(panels, seed: int, passes: int) -> list:
    """``passes`` seed-shuffled orders of the ``(model, framework)`` panels."""
    rng = random.Random(seed)
    orders = []
    for _ in range(passes):
        order = [tuple(panel) for panel in panels]
        rng.shuffle(order)
        orders.append(order)
    return orders


def _plain(value):
    """A JSON-able form of a result: dataclass fields by name, floats as
    their exact ``repr``."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def panel_digest(points) -> str:
    """sha256 of one panel's sweep points, independent of the engine's
    own export code."""
    text = json.dumps([_plain(point) for point in points], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class PanelCheck:
    """Checks every sweep answer against the golden digests.  The first
    answer for a panel is digested; later answers must equal it.  Like
    every check here it returns ``(operations, failure messages)``."""

    def __init__(self, golden):
        self.golden = golden
        self.first: dict = {}
        self.digests: dict = {}

    def __call__(self, panel: str, points) -> tuple:
        if panel not in self.first:
            self.first[panel] = points
            self.digests[panel] = panel_digest(points)
            if self.golden is not None and self.golden.get(panel) != self.digests[panel]:
                return 1, [f"{panel}: digest {self.digests[panel][:12]} differs from golden"]
            return 1, []
        if points != self.first[panel]:
            return 1, [f"{panel}: answer differs from the first answer in this run"]
        return 1, []


def _panel_key(model: str, framework: str) -> str:
    return f"{model}/{framework}"


def _panels(spec) -> list:
    if spec.get("panels") is not None:
        return [tuple(panel) for panel in spec["panels"]]
    from repro.experiments.common import SWEEP_PANELS

    return [(model, fw) for model, frameworks in SWEEP_PANELS for fw in frameworks]


def _golden(spec):
    if not spec.get("golden", True):
        return None
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# workloads: set-up returns the run's questions as (label, ask, check)
# and the dict the run's panel digests collect in
# ----------------------------------------------------------------------


def setup_sweep(spec) -> tuple:
    from repro.engine.cache import ResultCache
    from repro.engine.executor import SweepEngine

    engine = SweepEngine(jobs=1, cache=ResultCache(spec["cache"]))
    if spec["workload"] == "sweep-warm":
        orders = panel_orders(_panels(spec), spec["seed"], WARM_PASSES)
    else:
        orders = [_panels(spec)]
    check = PanelCheck(_golden(spec))
    questions = []
    for order in orders:
        for model, framework in order:
            key = _panel_key(model, framework)
            questions.append(
                (
                    key,
                    lambda m=model, f=framework: engine.sweep(m, f),
                    lambda points, key=key: check(key, points),
                )
            )
    return questions, check.digests


def setup_tune(spec) -> tuple:
    from repro.bench.noise import NoiseModel
    from repro.bench.runner import InterleavedRunner
    from repro.engine.cache import ResultCache
    from repro.tune.search import Autotuner

    cache = ResultCache(spec["cache"])
    runner = InterleavedRunner(noise=NoiseModel(seed=spec["seed"]))
    questions = []
    for model, framework in _panels(spec):
        tuner = Autotuner(model, framework)
        questions.append(
            (
                _panel_key(model, framework),
                lambda t=tuner: t.tune(cache=cache, confirm=True, runner=runner),
                check_tune,
            )
        )
    return questions, {}


def check_tune(result) -> tuple:
    """A tuned answer must fit, must not be slower than the baseline, and
    its A/B confirmation must not call it a regression."""
    label = f"{result.model}/{result.framework}"
    winner = result.winner
    if winner is None:
        return 1, []
    problems = []
    if not winner.fits:
        problems.append(f"{label}: winner {winner.spec} does not fit")
    if winner.makespan_s > result.baseline_makespan_s:
        problems.append(f"{label}: winner {winner.spec} is slower than the baseline")
    if result.confirmation is not None and result.confirmation["verdict"] == "regression":
        problems.append(f"{label}: winner {winner.spec} confirmed as a regression")
    return 1, problems


def setup_conformance(spec) -> tuple:
    from repro.conformance.runner import ConformanceRunner
    from repro.engine.cache import ResultCache

    runner = ConformanceRunner(
        seed=CONFORMANCE_SEED,
        budget=CONFORMANCE_BUDGET,
        jobs=1,
        cache=ResultCache(spec["cache"]),
    )
    return [("conformance", runner.run, check_conformance)], {}


def check_conformance(report) -> tuple:
    """One operation per invariant or relation checked; each violation
    is a failed one, and a run that checked nothing fails."""
    if report.checked_total == 0:
        return 1, ["conformance: no checks ran"]
    return report.checked_total, [
        f"conformance: [{v.check}] {v.message}" for v in report.violations
    ]


SETUPS = {
    "sweep-cold": setup_sweep,
    "sweep-warm": setup_sweep,
    "tune": setup_tune,
    "conformance": setup_conformance,
}


def run(spec) -> dict:
    """Set up, answer every question, check every answer.

    Set-up counts from before ``repro`` is imported until the workload is
    built.  Every time reported is host-normalized (see ``hostclock.py``),
    except ``raw_wall_s``, the plain wall time of the questions."""
    host = HostClock()
    host.start()
    try:
        setup_start = time.perf_counter()
        tracer = None
        if spec.get("trace"):
            import layers

            tracer = layers.Tracer(run_id=f"{spec['workload']}/{spec['seed']}")
            layers.install(tracer)
        questions, digests = SETUPS[spec["workload"]](spec)
        built = time.perf_counter()
        if spec.get("setup_only"):
            questions = []
        spans = []
        attempted = 0
        failures = []
        clock = time.perf_counter
        for label, ask, check in questions:
            start = clock()
            try:
                answer = ask()
            except Exception as exc:  # a failed question is counted, not fatal
                spans.append((start, clock()))
                attempted += 1
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            spans.append((start, clock()))
            operations, problems = check(answer)
            attempted += operations
            failures.extend(problems)
    finally:
        host.stop()
    at = host.timeline()
    result = {"setup_s": at(built) - at(setup_start)}
    if spec.get("setup_only"):
        return result
    latencies_ms = [(at(end) - at(start)) * 1e3 for start, end in spans]
    raw_wall_s = sum(end - start for start, end in spans)
    result.update(
        wall_s=sum(latencies_ms) / 1e3,
        raw_wall_s=raw_wall_s,
        questions_ms=latencies_ms,
        attempted=attempted,
        failed=len(failures),
        failures=failures[:20],
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        digests=digests,
    )
    if tracer is not None:
        import layers

        result["layers"] = layers.layer_metrics(tracer, raw_wall_s)
        with open(spec["trace"], "w", encoding="utf-8") as handle:
            json.dump(tracer.chrome_trace(), handle)
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))), flush=True)
    # Skip interpreter teardown: freeing a cold run's object graph takes
    # seconds that no metric counts, and every file is already closed.
    os._exit(0)
