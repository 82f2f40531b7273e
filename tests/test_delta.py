"""Delta equivalence suite: incremental what-ifs vs the rebuild oracle.

The contract under test (ISSUE 9): applying a
:class:`~repro.anycast.delta.DeploymentMutation` through the delta path
(:func:`repro.bgp.repropagate` + ``FlowKernel.apply_delta``) produces a
deployment **bitwise identical** to a cold rebuild — same routing dict,
same padded numpy tables, same resolutions, same experiment digest.

Four layers of proof:

* hypothesis-driven random withdraw/add/add-then-withdraw sequences,
  compared table-by-table (``np.array_equal`` on every kernel array);
* the golden-locked ``whatif01`` experiment digest, stable across
  ``workers=1`` and ``workers=4``;
* a chaos meta-test — the ``delta_corrupt`` fault perturbs a patched
  table and the equivalence check *must* catch it (the suite has teeth);
* explicit fallback coverage: unsupported deployments, seed changes,
  and :class:`RepropagationOverflow` all land on the rebuild path and
  are counted in ``kernel.delta.fallbacks.total``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import faults
from repro.anycast import (
    DeltaKernel,
    DeltaUnsupported,
    apply_mutation,
    plan_add_regions,
    plan_withdraw,
    rebuild,
)
from repro.bgp import RepropagationOverflow
from repro.engine import ArtifactCache, run_experiments
from repro.experiments import Scenario, result_digest
from repro.experiments.whatif import KERNEL_TABLES, kernels_identical
from repro.obs import metrics


@pytest.fixture(autouse=True)
def _no_fault_plan():
    """Each test starts and ends with no fault plan installed."""
    faults.install(None)
    yield
    faults.install(None)


def assert_bitwise_equal(via_delta, via_rebuild) -> None:
    """Table-by-table equality with a named-failure message."""
    routes_d = dict(via_delta.routing.items())
    routes_r = dict(via_rebuild.routing.items())
    assert routes_d == routes_r, "routing tables diverged"
    assert via_delta.routing.attachments == via_rebuild.routing.attachments
    kd, kr = via_delta.kernel, via_rebuild.kernel
    for name in KERNEL_TABLES:
        x, y = getattr(kd, name), getattr(kr, name)
        assert x.shape == y.shape, f"{name}: shape {x.shape} != {y.shape}"
        assert np.array_equal(x, y), f"{name}: values diverged"
    assert kd._max_mid == kr._max_mid
    assert kd._host_row == kr._host_row


def assert_resolutions_equal(via_delta, via_rebuild, user_base) -> None:
    """Spot-check end-to-end resolution over a user-base sample."""
    sample = list(user_base)[:200]
    asns = [loc.asn for loc in sample]
    regions = [loc.region_id for loc in sample]
    bd = via_delta.resolve_many(asns, regions)
    br = via_rebuild.resolve_many(asns, regions)
    assert np.array_equal(bd.ok, br.ok)
    assert np.array_equal(bd.site_ids, br.site_ids)
    assert np.array_equal(bd.site_region_ids, br.site_region_ids)
    assert np.array_equal(bd.base_rtt_ms, br.base_rtt_ms, equal_nan=True)


def draw_step(data, deployment):
    """One random mutation valid for the deployment's current state.

    Withdraws keep at least one global site alive (the planner raises
    otherwise — correctly, but that is not what this suite probes).
    """
    n_regions = len(deployment.topology.world.regions)
    global_ids = [s.site_id for s in deployment.sites if s.is_global]
    can_withdraw = len(global_ids) > 1
    kind = data.draw(
        st.sampled_from(["withdraw", "add"] if can_withdraw else ["add"])
    )
    if kind == "withdraw":
        spare = data.draw(st.sampled_from(global_ids))
        candidates = [s.site_id for s in deployment.sites if s.site_id != spare]
        failed = data.draw(
            st.lists(st.sampled_from(candidates), min_size=1, max_size=3, unique=True)
        )
        return ("withdraw", tuple(sorted(failed)))
    regions = data.draw(
        st.lists(st.integers(0, n_regions - 1), min_size=1, max_size=2, unique=True)
    )
    return ("add", tuple(regions))


def plan_step(step, deployment):
    kind, arg = step
    if kind == "withdraw":
        return plan_withdraw(deployment, list(arg))
    return plan_add_regions(deployment, list(arg))


class TestEquivalence:
    """Random mutation sequences: delta path == rebuild oracle, bitwise."""

    @given(data=st.data())
    def test_random_sequences(self, scenario, data):
        name = data.draw(st.sampled_from(sorted(scenario.letters_2018)))
        via_delta = via_rebuild = scenario.letters_2018[name]
        steps = data.draw(st.integers(1, 3))
        for _ in range(steps):
            step = draw_step(data, via_delta)
            via_delta = apply_mutation(via_delta, plan_step(step, via_delta))
            via_rebuild = rebuild(via_rebuild, plan_step(step, via_rebuild))
            assert_bitwise_equal(via_delta, via_rebuild)
        assert_resolutions_equal(via_delta, via_rebuild, scenario.user_base)

    @given(data=st.data())
    def test_add_then_remove_returns_to_same_shape(self, scenario, data):
        """Adding sites then withdrawing exactly those sites round-trips.

        Not an identity on the *deployment* (site ids renumber and the
        name records the history) but the delta path must track the
        rebuild oracle through the full excursion.
        """
        name = data.draw(st.sampled_from(sorted(scenario.letters_2018)))
        base = scenario.letters_2018[name]
        n_regions = len(scenario.internet.world.regions)
        regions = data.draw(
            st.lists(st.integers(0, n_regions - 1), min_size=1, max_size=2, unique=True)
        )
        grown_d = apply_mutation(base, plan_add_regions(base, regions))
        grown_r = rebuild(base, plan_add_regions(base, regions))
        assert_bitwise_equal(grown_d, grown_r)
        added = [s.site_id for s in grown_d.sites if s.site_id >= len(base.sites)]
        back_d = apply_mutation(grown_d, plan_withdraw(grown_d, added))
        back_r = rebuild(grown_r, plan_withdraw(grown_r, added))
        assert_bitwise_equal(back_d, back_r)
        assert len(back_d.sites) == len(base.sites)

    def test_delta_path_actually_taken(self, scenario):
        """The equivalence above must be delta-vs-rebuild, not rebuild-vs-rebuild."""
        dep = scenario.letters_2018["K"]
        applies = metrics.counter("kernel.delta.applies.total").value
        fallbacks = metrics.counter("kernel.delta.fallbacks.total").value
        apply_mutation(dep, plan_withdraw(dep, [0]))
        assert metrics.counter("kernel.delta.applies.total").value == applies + 1
        assert metrics.counter("kernel.delta.fallbacks.total").value == fallbacks


class TestWorkerDigests:
    """whatif01's digest is identical under workers=1 and workers=4."""

    def test_digest_stable_across_worker_counts(self, tmp_path):
        digests = {}
        for workers in (1, 4):
            cache = ArtifactCache(root=tmp_path / f"cache-w{workers}")
            results = run_experiments(
                ["whatif01"],
                Scenario(scale="small", seed=0, cache=cache),
                workers=workers,
            )
            (result,) = list(results)
            assert result.data["delta_matches_rebuild"] is True
            digests[workers] = result_digest(result)
        assert digests[1] == digests[4]


class TestChaosHasTeeth:
    """``delta_corrupt`` perturbs a patched table — and we must notice."""

    def test_corruption_is_detected(self, scenario):
        faults.install(faults.FaultPlan.from_string("delta_corrupt"))
        dep = scenario.letters_2018["K"]
        fired_before = metrics.counter("faults.delta_corrupt.fired.total").value
        corrupted = DeltaKernel(dep).apply(plan_withdraw(dep, [0]))
        assert (
            metrics.counter("faults.delta_corrupt.fired.total").value
            == fired_before + 1
        )
        faults.install(None)
        oracle = rebuild(dep, plan_withdraw(dep, [0]))
        assert not kernels_identical(corrupted.kernel, oracle.kernel), (
            "the equivalence check failed to detect an injected table corruption"
        )

    def test_clean_run_after_clear_matches_again(self, scenario):
        faults.install(None)
        dep = scenario.letters_2018["K"]
        clean = DeltaKernel(dep).apply(plan_withdraw(dep, [0]))
        oracle = rebuild(dep, plan_withdraw(dep, [0]))
        assert kernels_identical(clean.kernel, oracle.kernel)


class TestFallbacks:
    """Every delta-ineligible case rebuilds — correctly and countedly."""

    def test_letters_support_delta_rings_do_not(self, scenario):
        assert scenario.letters_2018["K"].supports_delta is True
        ring = next(iter(scenario.cdn.rings.values()))
        assert ring.supports_delta is False
        with pytest.raises(DeltaUnsupported):
            DeltaKernel(ring)

    def test_unsupported_deployment_falls_back(self, scenario, monkeypatch):
        from repro.anycast.deployment import IndependentDeployment

        dep = scenario.letters_2018["K"]
        monkeypatch.setattr(
            IndependentDeployment, "supports_delta", property(lambda self: False)
        )
        fallbacks = metrics.counter("kernel.delta.fallbacks.total").value
        mutation = plan_withdraw(dep, [0])
        result = apply_mutation(dep, mutation)
        assert metrics.counter("kernel.delta.fallbacks.total").value == fallbacks + 1
        monkeypatch.undo()
        assert_bitwise_equal(result, rebuild(dep, mutation))

    def test_seed_change_falls_back(self, scenario):
        dep = scenario.letters_2018["K"]
        mutation = plan_withdraw(dep, [0], seed=dep.seed + 1)
        with pytest.raises(DeltaUnsupported):
            DeltaKernel(dep).apply(mutation)
        fallbacks = metrics.counter("kernel.delta.fallbacks.total").value
        result = apply_mutation(dep, mutation)
        assert metrics.counter("kernel.delta.fallbacks.total").value == fallbacks + 1
        assert_bitwise_equal(result, rebuild(dep, mutation))

    def test_repropagation_overflow_falls_back(self, scenario, monkeypatch):
        import repro.anycast.delta as delta_mod

        def _blow_budget(*args, **kwargs):
            raise RepropagationOverflow("injected: work budget exceeded")

        monkeypatch.setattr(delta_mod, "repropagate", _blow_budget)
        dep = scenario.letters_2018["K"]
        mutation = plan_withdraw(dep, [0])
        fallbacks = metrics.counter("kernel.delta.fallbacks.total").value
        result = apply_mutation(dep, mutation)
        assert metrics.counter("kernel.delta.fallbacks.total").value == fallbacks + 1
        monkeypatch.undo()
        assert_bitwise_equal(result, rebuild(dep, mutation))

    def test_prefer_delta_false_always_rebuilds(self, scenario):
        dep = scenario.letters_2018["K"]
        mutation = plan_withdraw(dep, [0])
        applies = metrics.counter("kernel.delta.applies.total").value
        result = apply_mutation(dep, mutation, prefer_delta=False)
        assert metrics.counter("kernel.delta.applies.total").value == applies
        assert_bitwise_equal(result, rebuild(dep, mutation))
