"""Cache hits import only what they run.

``repro list`` and a fully cached ``repro run``/``repro all`` need the
CLI, the engine, observability, faults and the experiment table — never
numpy or the substrate.  A runner module imports on its result's first
cache miss, a stage builder on its stage's first build, and an unpickled
stage imports the modules of its own classes.  Import checks run in
fresh interpreters: this test process already holds the whole substrate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import import_module
from pathlib import Path

import pytest

from repro.engine import ArtifactCache, params_digest, run_experiments
from repro.experiments import STAGES, Scenario, list_experiments
from repro.experiments.base import EXPERIMENT_MODULES
from repro.obs import metrics

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_IDS = sorted(
    json.loads((Path(__file__).parent / "goldens" / "small_seed0.json").read_text())["digests"]
)

#: ``params_digest`` of each scale's seed-0 config.
PARAMS_DIGESTS = {
    "small": "cb880e6ccf2831b13124fcc426519d7f802c6163a6bd899d36e35b2c2b7677c1",
    "medium": "214fe7437eb917ca4ab41d454002cf3c3fb8b2ff8a06e62e11fe8d0dd5a96d9e",
}

#: Modules (and their submodules) a cache hit must not import.
FORBIDDEN = (
    "numpy",
    *(
        f"repro.{package}"
        for package in (
            "anycast", "bgp", "core", "ditl", "dns", "geo",
            "measurement", "net", "serve", "users", "web",
        )
    ),
    *(f"repro.experiments.{module}" for module in sorted(set(EXPERIMENT_MODULES.values()))),
)


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def _forbidden_imports(importtime_stderr: str) -> list[str]:
    """The forbidden modules named in ``python -X importtime`` output."""
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in importtime_stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro.cli" in modules
    return sorted(
        name for name in modules
        if any(name == prefix or name.startswith(f"{prefix}.") for prefix in FORBIDDEN)
    )


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    """A small-scale cache that a serial run of every experiment filled."""
    root = tmp_path_factory.mktemp("filled-cache")
    results = run_experiments(
        list_experiments(), Scenario(scale="small", seed=0, cache=ArtifactCache(root=root))
    )
    assert results.ok
    return root


class TestExperimentTable:
    def test_entries_name_their_runner(self):
        assert list_experiments() == GOLDEN_IDS
        for experiment_id, module in EXPERIMENT_MODULES.items():
            runner = getattr(import_module(f"repro.experiments.{module}"), experiment_id)
            assert callable(runner) and runner.__name__ == experiment_id

    @pytest.mark.parametrize("scale", sorted(PARAMS_DIGESTS))
    def test_params_digest_is_pinned(self, scale):
        # Part of every cache key: moving or editing TopologyParams must
        # not change it silently.
        assert params_digest(Scenario(scale=scale, seed=0).config) == PARAMS_DIGESTS[scale]


class TestImportBudget:
    def test_list_imports_no_substrate(self):
        proc = _python("-X", "importtime", "-m", "repro", "list")
        assert proc.stdout.split() == GOLDEN_IDS
        assert _forbidden_imports(proc.stderr) == []

    @pytest.mark.parametrize("command", [["run", "table1"], ["all"]], ids=["run", "all"])
    def test_warm_run_imports_no_substrate(self, filled_cache, tmp_path, command):
        metrics_path = tmp_path / "metrics.json"
        proc = _python(
            "-X", "importtime", "-m", "repro", *command, "--scale", "small",
            "--cache-dir", str(filled_cache), "--metrics", str(metrics_path),
        )
        counters = json.loads(metrics_path.read_text())["counters"]
        assert counters["engine.experiments.cache_hits.total"] == counters[
            "engine.experiments.total"
        ]
        assert "engine.stages.built.total" not in counters
        assert "cache.write.total" not in counters
        assert _forbidden_imports(proc.stderr) == []


_LOAD_STAGE = """
import json, sys
from repro.engine import ArtifactCache
from repro.experiments import Scenario
from repro.obs import metrics

scenario = Scenario(scale="small", seed=0, cache=ArtifactCache(root=sys.argv[1]))
getattr(scenario, sys.argv[2])
print(json.dumps(metrics.snapshot()["counters"]))
"""


def test_each_stage_loads_as_a_hit_in_a_fresh_interpreter(filled_cache):
    # The cache counts an ImportError raised while unpickling as
    # corruption and rebuilds, so an import cycle that only an unpickle
    # triggers would show up here as a miss, not as an error.
    def load(stage):
        return json.loads(_python("-c", _LOAD_STAGE, str(filled_cache), stage).stdout)

    with ThreadPoolExecutor(max_workers=2) as pool:
        counters = dict(zip(STAGES, pool.map(load, STAGES)))
    for stage, seen in counters.items():
        assert seen.get("engine.stages.cache_hits.total") == 1, (stage, seen)
        assert "cache.corrupt.total" not in seen, (stage, seen)
        assert "cache.write.total" not in seen, (stage, seen)


def test_pooled_warm_run_loads_no_stage(filled_cache):
    before = metrics.snapshot()
    results = run_experiments(
        list_experiments(),
        Scenario(scale="small", seed=0, cache=ArtifactCache(root=filled_cache)),
        workers=2,
    )
    assert results.ok
    assert results.report.stages == []
    assert all(result.report.cache_hit for result in results)
    delta = metrics.diff(metrics.snapshot(), before)
    assert delta["counters"].get("engine.stages.built.total", 0) == 0
