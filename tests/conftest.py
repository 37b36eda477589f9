"""Shared fixtures.

Expensive simulator runs are cached at session scope: the suite object is
stateless, and profiles for commonly-asserted configurations are computed
once and shared across test modules.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.suite import standard_suite
from repro.training.session import TrainingSession
from tests.sweeps import sweep_directly


def pytest_collection_modifyitems(config, items):
    """Shuffle test order when ``TBD_TEST_SHUFFLE`` is set.

    The suite must not depend on collection order (shared tmp dirs, warm
    caches, leaked globals all show up as order sensitivity).  CI runs one
    job with ``TBD_TEST_SHUFFLE=<seed>`` to enforce that; the seed is
    printed so a failing order can be reproduced locally with
    ``TBD_TEST_SHUFFLE=<seed> pytest ...``.
    """
    seed_text = os.environ.get("TBD_TEST_SHUFFLE", "")
    if not seed_text:
        return
    seed = int(seed_text) if seed_text.isdigit() else seed_text
    # Shuffle whole modules, then tests within each module: class/module
    # scoped fixtures stay coherent while cross-module ordering is random.
    rng = random.Random(seed)
    by_module: dict = {}
    for item in items:
        by_module.setdefault(item.module.__name__, []).append(item)
    modules = list(by_module)
    rng.shuffle(modules)
    items[:] = [item for module in modules for item in by_module[module]]
    print(f"\n[conftest] TBD_TEST_SHUFFLE={seed_text}: shuffled {len(modules)} modules")


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path, monkeypatch):
    """Point the sweep engine's default cache at a per-test temp dir so no
    test (CLI tests especially) writes ``.tbd-cache`` into the repo."""
    monkeypatch.setenv("TBD_CACHE_DIR", str(tmp_path / "tbd-cache"))


@pytest.fixture(scope="session")
def suite():
    return standard_suite()


@pytest.fixture(scope="session")
def direct_sweep(suite):
    """Memoized (model, framework) -> :func:`sweep_directly`."""
    cache = {}

    def get(model: str, framework: str):
        key = (model, framework)
        if key not in cache:
            cache[key] = sweep_directly(suite, model, framework)
        return list(cache[key])

    return get


@pytest.fixture(scope="session")
def profile_cache():
    """Memoized (model, framework, batch) -> IterationProfile."""
    cache = {}

    def get(model: str, framework: str, batch: int):
        key = (model, framework, batch)
        if key not in cache:
            cache[key] = TrainingSession(model, framework).run_iteration(batch)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def resnet_mxnet_32(profile_cache):
    return profile_cache("resnet-50", "mxnet", 32)


@pytest.fixture(scope="session")
def nmt_tf_128(profile_cache):
    return profile_cache("nmt", "tensorflow", 128)
