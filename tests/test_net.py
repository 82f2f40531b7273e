"""Addressing substrate: IPv4 arithmetic, allocation, IP→ASN mapping."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.net import (
    PRIVATE_PREFIXES,
    AddressPlan,
    IpToAsnMapper,
    Prefix,
    ip_to_str,
    is_private,
    is_private_many,
    slash24_of,
    slash24_to_str,
    str_to_ip,
)


class TestAddressArithmetic:
    @pytest.mark.parametrize(
        "text,value",
        [("0.0.0.0", 0), ("255.255.255.255", 0xFFFFFFFF), ("10.1.2.3", 0x0A010203)],
    )
    def test_round_trip(self, text, value):
        assert str_to_ip(text) == value
        assert ip_to_str(value) == text

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            str_to_ip(bad)

    def test_ip_to_str_range_checked(self):
        with pytest.raises(ValueError):
            ip_to_str(-1)
        with pytest.raises(ValueError):
            ip_to_str(1 << 32)

    def test_slash24_of(self):
        assert slash24_of(str_to_ip("11.22.33.44")) == str_to_ip("11.22.33.0") >> 8

    def test_slash24_to_str(self):
        assert slash24_to_str(str_to_ip("11.22.33.0") >> 8) == "11.22.33.0/24"


class TestPrefix:
    def test_parse_and_str(self):
        prefix = Prefix.parse("11.0.0.0/16")
        assert str(prefix) == "11.0.0.0/16"
        assert prefix.size == 65_536

    def test_contains(self):
        prefix = Prefix.parse("11.5.0.0/16")
        assert prefix.contains(str_to_ip("11.5.200.3"))
        assert not prefix.contains(str_to_ip("11.6.0.1"))

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Prefix(str_to_ip("11.5.0.1"), 16)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            Prefix(0, 33)

    def test_nth_bounds(self):
        prefix = Prefix.parse("11.5.5.0/24")
        assert prefix.nth(0) == str_to_ip("11.5.5.0")
        assert prefix.nth(255) == str_to_ip("11.5.5.255")
        with pytest.raises(IndexError):
            prefix.nth(256)

    def test_zero_length_prefix_contains_everything(self):
        prefix = Prefix(0, 0)
        assert prefix.contains(str_to_ip("200.1.2.3"))


class TestPrivateSpace:
    @pytest.mark.parametrize(
        "ip", ["10.0.0.1", "172.16.5.5", "192.168.1.1", "127.0.0.1", "100.64.3.2"]
    )
    def test_private_detected(self, ip):
        assert is_private(str_to_ip(ip))

    @pytest.mark.parametrize("ip", ["11.0.0.1", "8.8.8.8", "172.15.0.1", "100.63.0.1"])
    def test_public_not_flagged(self, ip):
        assert not is_private(str_to_ip(ip))

    @pytest.mark.parametrize("prefix", PRIVATE_PREFIXES, ids=str)
    def test_agrees_with_prefix_contains_at_edges(self, prefix):
        first, last = prefix.network, prefix.network + prefix.size - 1
        for ip in (first - 1, first, first + 1, last - 1, last, last + 1):
            expected = any(p.contains(ip) for p in PRIVATE_PREFIXES)
            assert is_private(ip) == expected, ip_to_str(ip)
        assert is_private(first) and is_private(last)


    def test_vector_agrees_at_every_edge(self):
        edges = [
            ip
            for p in PRIVATE_PREFIXES
            for end in (p.network, p.network + p.size - 1)
            for ip in (end - 1, end, end + 1)
        ]
        ips = np.array([0, 0xFFFFFFFF, *edges], dtype=np.uint32)
        assert is_private_many(ips).tolist() == [is_private(ip) for ip in ips.tolist()]

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=50))
    def test_vector_agrees_with_scalar(self, ips):
        mask = is_private_many(np.array(ips, dtype=np.uint32))
        assert mask.dtype == bool
        assert mask.tolist() == [is_private(ip) for ip in ips]

class TestAddressPlan:
    def test_allocation_is_disjoint(self):
        plan = AddressPlan()
        plan.register(1, "a")
        plan.register(2, "b")
        p1 = plan.allocate_slash16(1)
        p2 = plan.allocate_slash16(2)
        assert p1.network != p2.network
        assert plan.asn_of(p1.nth(5)) == 1
        assert plan.asn_of(p2.nth(5)) == 2

    def test_allocation_skips_special_space(self):
        plan = AddressPlan()
        plan.register(1, "a")
        for _ in range(300):
            prefix = plan.allocate_slash16(1)
            assert (prefix.network >> 24) not in {10, 100, 127, 169, 172, 192}

    def test_unregistered_asn_rejected(self):
        plan = AddressPlan()
        with pytest.raises(KeyError):
            plan.allocate_slash16(99)

    def test_register_idempotent(self):
        plan = AddressPlan()
        record1 = plan.register(5, "x")
        record2 = plan.register(5, "x")
        assert record1 is record2

    def test_address_in_spans_blocks(self):
        plan = AddressPlan()
        plan.register(7, "x")
        first = plan.allocate_slash16(7)
        second = plan.allocate_slash16(7)
        assert plan.address_in(7, 0) == first.nth(0)
        assert plan.address_in(7, first.size) == second.nth(0)
        with pytest.raises(IndexError):
            plan.address_in(7, first.size + second.size)

    def test_first_address_requires_space(self):
        plan = AddressPlan()
        plan.register(8, "empty")
        with pytest.raises(ValueError):
            plan.first_address(8)

    def test_describe_lists_blocks(self):
        plan = AddressPlan()
        plan.register(9, "named")
        plan.allocate_slash16(9)
        text = plan.describe(9)
        assert "AS9" in text and "/16" in text


class TestIpToAsnMapper:
    def _plan(self):
        plan = AddressPlan()
        plan.register(42, "x")
        prefix = plan.allocate_slash16(42)
        return plan, prefix

    def test_lookup_hits_ground_truth(self):
        plan, prefix = self._plan()
        mapper = IpToAsnMapper(plan, miss_rate=0.0)
        assert mapper.lookup(prefix.nth(10)) == 42

    def test_private_space_unmapped(self):
        plan, _ = self._plan()
        mapper = IpToAsnMapper(plan, miss_rate=0.0)
        assert mapper.lookup(str_to_ip("10.1.2.3")) is None

    def test_unallocated_space_unmapped(self):
        plan, _ = self._plan()
        mapper = IpToAsnMapper(plan, miss_rate=0.0)
        assert mapper.lookup(str_to_ip("200.0.0.1")) is None

    def test_miss_rate_applies_deterministically(self):
        plan, prefix = self._plan()
        mapper = IpToAsnMapper(plan, miss_rate=0.5, seed=3)
        results = [mapper.lookup_slash24((prefix.network >> 8) + i) for i in range(256)]
        misses = sum(1 for r in results if r is None)
        assert 50 < misses < 200  # ~half, deterministic
        again = [mapper.lookup_slash24((prefix.network >> 8) + i) for i in range(256)]
        assert results == again

    def test_bad_miss_rate_rejected(self):
        plan, _ = self._plan()
        with pytest.raises(ValueError):
            IpToAsnMapper(plan, miss_rate=1.5)
