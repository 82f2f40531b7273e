"""Batch/scalar equivalence: the columnar kernel must be bitwise exact.

The batch resolve path (`repro.anycast.batch` + `resolve_many`) is only
allowed to be a *faster spelling* of the original scalar walk — every
site choice, AS-hop count, and RTT float must come out identical.  The
original scalar implementations are retained as `_resolve_reference`
oracles precisely so these tests stay non-trivial.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.anycast.batch import FlowKernel, region_distance_matrix
from repro.anycast.cdn import _mix, _mix_many
from repro.geo import great_circle_km


@pytest.fixture(scope="module")
def all_asns(topology):
    return sorted(topology.nodes)


@pytest.fixture(scope="module")
def letter(letters):
    return letters[sorted(letters)[0]]


@pytest.fixture(scope="module")
def ring(cdn):
    return cdn.rings[sorted(cdn.rings)[0]]


def assert_batch_matches_reference(deployment, asns, regions):
    """Element-wise bitwise comparison of resolve_many vs the oracle."""
    batch = deployment.resolve_many(asns, regions)
    assert len(batch.asns) == len(asns)
    for i, (asn, region_id) in enumerate(zip(asns, regions)):
        flow = deployment._resolve_reference(asn, region_id)
        if flow is None:
            assert not batch.ok[i]
            assert batch.site_ids[i] == -1
            assert batch.site_region_ids[i] == -1
            assert math.isnan(batch.base_rtt_ms[i])
            continue
        assert batch.ok[i]
        assert int(batch.site_ids[i]) == flow.site.site_id
        assert int(batch.site_region_ids[i]) == flow.site.region_id
        assert int(batch.as_hops[i]) == len(flow.as_path)
        # Bitwise float equality — not almost-equal.
        assert float(batch.base_rtt_ms[i]) == flow.base_rtt_ms


class TestLetterEquivalence:
    @given(data=st.data())
    def test_resolve_many_matches_reference(self, letter, all_asns, data):
        n_regions = len(letter.topology.world)
        asns = data.draw(st.lists(st.sampled_from(all_asns), min_size=1, max_size=30))
        regions = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n_regions - 1),
                min_size=len(asns),
                max_size=len(asns),
            )
        )
        assert_batch_matches_reference(letter, asns, regions)

    def test_all_letters_full_sweep(self, letters, all_asns):
        """Every letter, every AS at its home region — exhaustive at small."""
        for deployment in letters.values():
            regions = [
                deployment.topology.node(asn).home_region for asn in all_asns
            ]
            assert_batch_matches_reference(deployment, all_asns, regions)

    def test_scalar_resolve_matches_reference(self, letter, all_asns):
        for asn in all_asns[:60]:
            region_id = letter.topology.node(asn).home_region
            assert letter.resolve(asn, region_id) == letter._resolve_reference(
                asn, region_id
            )


class TestCdnEquivalence:
    @given(data=st.data())
    def test_resolve_many_matches_reference(self, ring, all_asns, data):
        n_regions = len(ring.topology.world)
        asns = data.draw(st.lists(st.sampled_from(all_asns), min_size=1, max_size=30))
        regions = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n_regions - 1),
                min_size=len(asns),
                max_size=len(asns),
            )
        )
        assert_batch_matches_reference(ring, asns, regions)

    def test_all_rings_full_sweep(self, cdn, all_asns):
        regions = [cdn.fabric.topology.node(asn).home_region for asn in all_asns]
        for ring in cdn.rings.values():
            assert_batch_matches_reference(ring, all_asns, regions)

    def test_ingress_many_matches_scalar(self, cdn, all_asns):
        fabric = cdn.fabric
        regions = [fabric.topology.node(asn).home_region for asn in all_asns]
        batch = fabric.ingress_many(all_asns, regions)
        for i, (asn, region_id) in enumerate(zip(all_asns, regions)):
            ingress = fabric._ingress_uncached(asn, region_id)
            if ingress is None:
                assert not batch.ok[i]
                continue
            assert batch.ok[i]
            assert int(batch.pop_ids[i]) == ingress.pop_id
            assert bool(batch.corrected[i]) == ingress.corrected
            assert int(batch.as_hops[i]) == len(ingress.as_path)
            assert int(batch.external_legs[i]) == len(ingress.external_waypoints) - 1

    def test_system_resolve_many_shares_ingress(self, cdn, all_asns):
        """CdnSystem.resolve_many equals each ring's own resolve_many."""
        asns = all_asns[:80]
        regions = [cdn.fabric.topology.node(asn).home_region for asn in asns]
        by_ring = cdn.resolve_many(asns, regions)
        assert set(by_ring) == set(cdn.rings)
        for name, ring in cdn.rings.items():
            own = ring.resolve_many(asns, regions)
            got = by_ring[name]
            np.testing.assert_array_equal(got.ok, own.ok)
            np.testing.assert_array_equal(got.site_ids, own.site_ids)
            np.testing.assert_array_equal(got.base_rtt_ms, own.base_rtt_ms)

    def test_scalar_resolve_matches_reference(self, ring, all_asns):
        for asn in all_asns[:60]:
            region_id = ring.topology.node(asn).home_region
            assert ring.resolve(asn, region_id) == ring._resolve_reference(
                asn, region_id
            )


class TestBatchColumns:
    def test_derived_columns(self, letter, all_asns):
        regions = [letter.topology.node(asn).home_region for asn in all_asns]
        batch = letter.resolve_many(all_asns, regions)
        ok = batch.ok
        np.testing.assert_array_equal(
            batch.min_km, letter.min_global_distance_km_many(regions)
        )
        assert np.all(batch.inflation_km[ok] == (batch.site_km - batch.min_km)[ok])
        assert np.all(batch.optimal_rtt_ms[ok] >= 0.0)
        assert batch.n_served == int(ok.sum())

    def test_duplicate_rows_identical(self, letter, all_asns):
        """The kernel's dedupe must scatter identical rows back."""
        asn = all_asns[0]
        region_id = letter.topology.node(asn).home_region
        batch = letter.resolve_many([asn] * 5, [region_id] * 5)
        assert np.all(batch.site_ids == batch.site_ids[0])
        assert np.all(batch.base_rtt_ms == batch.base_rtt_ms[0])


class TestDistanceMatrix:
    def test_matches_scalar_great_circle(self, topology):
        matrix = region_distance_matrix(topology)
        world = topology.world
        n = len(world)
        assert matrix.shape == (n, n)
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = int(rng.integers(n)), int(rng.integers(n))
            pa, pb = world.region(a).location, world.region(b).location
            assert matrix[a, b] == great_circle_km(pa.lat, pa.lon, pb.lat, pb.lon)

    def test_readonly_and_cached(self, topology):
        matrix = region_distance_matrix(topology)
        assert region_distance_matrix(topology) is matrix
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0


class TestEarlyExitTable:
    """One read-only ``exit[as_row, region]`` table per world."""

    def test_matches_scalar_nearest_pop(self, letter, topology):
        kernel = letter.kernel
        world = topology.world
        assert kernel._exit.shape == (len(topology.nodes), len(world))
        for row, asn in enumerate(kernel._as_ids.tolist()):
            node = topology.node(asn)
            for region in world.regions:
                assert kernel._exit[row, region.region_id] == node.nearest_pop(
                    region.location, world
                ), (asn, region.region_id)

    def test_readonly(self, letter):
        with pytest.raises(ValueError):
            letter.kernel._exit[0, 0] = 0

    def test_shared_by_every_kernel(self, letters, cdn):
        kernels = [d.kernel for d in letters.values()] + [cdn.fabric.kernel]
        first = kernels[0]
        for kernel in kernels[1:]:
            assert kernel._exit is first._exit
            assert kernel.distances is first.distances
            assert kernel._as_ids is first._as_ids

    def test_pickled_topology_copy_shares_the_tables(self, letter, topology):
        copy = pickle.loads(pickle.dumps(topology))
        assert copy is not topology
        assert region_distance_matrix(copy) is region_distance_matrix(topology)
        kernel = FlowKernel(copy, letter.routing)
        assert kernel._exit is letter.kernel._exit
        assert kernel.distances is letter.kernel.distances


class TestMixMany:
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        asns=st.lists(st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=20),
    )
    def test_matches_scalar(self, seed, asns):
        regions = [(a * 7) % 509 for a in asns]
        out = _mix_many(seed, np.array(asns, dtype=np.int64), np.array(regions, dtype=np.int64))
        for i, (asn, region_id) in enumerate(zip(asns, regions)):
            assert out[i] == _mix(seed, asn, region_id)


class TestKernelEdges:
    def test_empty_input(self, letter):
        batch = letter.resolve_many([], [])
        assert len(batch.asns) == 0
        assert batch.n_served == 0

    def test_unrouted_asn_not_ok(self, letter, topology):
        kernel = FlowKernel(topology, letter.routing)
        routed = set(letter.routing._routes)
        unrouted = [asn for asn in topology.nodes if asn not in routed]
        if not unrouted:
            pytest.skip("every AS holds a route at this scale")
        flows = kernel.resolve(
            np.array(unrouted[:5], dtype=np.int64),
            np.zeros(min(5, len(unrouted)), dtype=np.int64),
        )
        assert not flows.ok.any()
