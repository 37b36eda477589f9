"""The cost-model-guided autotuner end to end.

``tbd tune`` drives the same machinery from the shell; this example walks
it programmatically:

1. parse and normalize a transform-pipeline spec (every token order
   shares one canonical spelling — the cache dimension);
2. search the pipeline space for an RNN workload: applicability-gated
   enumeration, makespan ranking under the analytic OOM boundary, and an
   interleaved A/B confirmation of the winner;
3. show the OOM boundary doing its job on a residual network, where the
   bare depth rewrites bust the GPU but offload+fp16 buy them back in;
4. persist the tuned config in the content-addressed cache and show the
   re-tune is a cache hit, then feed the cached config to the advisor,
   which cites the measured pipeline ahead of its heuristics.
"""

import os

from repro.bench import InterleavedRunner, NoiseModel
from repro.core.analysis import AnalysisPipeline
from repro.core.recommendations import advise
from repro.engine.cache import ResultCache
from repro.plan.pipeline import parse_transform_spec
from repro.tune import Autotuner

CACHE_DIR = os.path.join("artifacts", "tune-cache")
SEED = 7


def main() -> None:
    print("== the --transforms mini-language ==")
    spec = "fp16+offload:0.5+fused_rnn"
    print(f"  raw:       {spec}")
    print(f"  canonical: {parse_transform_spec(spec).canonical}")
    print(parse_transform_spec(spec).describe())

    print("\n== tune an RNN workload (nmt/tensorflow b=64) ==")
    runner = InterleavedRunner(noise=NoiseModel(seed=SEED))
    tuner = Autotuner("nmt", "tensorflow", batch_size=64)
    result = tuner.tune(cache=None, runner=runner, samples=30)
    print(result.format_report())
    assert result.winner is not None
    assert result.confirmation["verdict"] == "improvement"

    print("\n== the OOM boundary on a residual network (resnet-50 b=64) ==")
    ranked = Autotuner("resnet-50", "mxnet", batch_size=64).rank()
    print(ranked.format_report())
    assert ranked.pruned > 0

    print("\n== persistence: the second tune is a cache hit ==")
    cache = ResultCache(CACHE_DIR)
    tuner.tune(cache=cache, runner=runner, samples=30)
    cached = tuner.tune(cache=cache, runner=runner, samples=30)
    print(f"  cached={cached.cached} winner={cached.winner.spec}")
    assert cached.cached

    print("\n== the advisor cites the measured config ==")
    report = AnalysisPipeline("nmt", "tensorflow").run(64)
    first = advise(report, cache=cache)[0]
    print(f"  {first}")
    assert first.rule == "measured tuned config"


if __name__ == "__main__":
    main()
