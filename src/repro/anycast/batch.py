"""Columnar resolve kernel: whole-population catchments in one shot.

The paper's headline numbers are aggregates over every ``(client_asn,
region)`` pair of a billion-user world, yet ``resolve_flow`` walks one
client at a time through Python objects.  This module rebuilds that walk
as a handful of numpy gathers:

* every geometric quantity in the scalar path — the client, each
  intermediate AS's early-exit PoP, the terminal AS's attachment entry
  points — is the location of a *world region*, so the whole kernel
  reduces to integer indexing into one region×region great-circle
  distance matrix;
* the AS-path walk is a short loop over hop *depth* (max path length is
  small), each step one gather from a per-world early-exit table
  (``exit[as_row, region]``: that AS's PoP nearest to the region) plus
  one distance gather, so a walk costs O(rows) per depth;
* the terminal early-exit (``min`` by ``(distance, attachment_id)``) is
  an argmin plus a tie-break gather over padded per-host candidate
  tables.

The distance matrix, the sorted ASN column and the early-exit table
depend only on the world and its AS footprints, so they are built once
per world and shared, read-only, by every kernel, clone and forked
worker over it — including kernels over separately unpickled copies of
the same topology, which each cached artifact carries.

Bitwise fidelity matters: the scalar path is the reference the paper
figures were produced with, and ``resolve_many`` must return *identical*
floats.  numpy's vectorised ``sin``/``cos``/``arcsin`` differ from the
``math`` module in the last ulp on this platform, so the distance matrix
is built with the scalar :func:`~repro.geo.coords.great_circle_km` (once
per world, mirrored across the diagonal — the haversine form is exactly
symmetric) and every RTT is accumulated in the same operation order as
:func:`~repro.geo.latency.path_rtt_ms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from weakref import WeakKeyDictionary, WeakValueDictionary

import numpy as np

from ..faults.plan import maybe_fire
from ..geo.coords import great_circle_km
from ..geo.latency import SPEED_OF_LIGHT_FIBER_KM_PER_MS
from ..obs import metrics, trace
from ..topology.graph import Topology

__all__ = [
    "ResolvedBatch",
    "FlowBatch",
    "FlowKernel",
    "KernelDelta",
    "region_distance_matrix",
]

_NO_ROW = -1  #: sentinel for "no route / no candidate" integer columns


def _distance_matrix(world) -> np.ndarray:
    """Scalar-exact R×R great-circle km, computed above the diagonal and
    mirrored (the haversine form is exactly symmetric)."""
    lats = [float(v) for v in world.latitudes]
    lons = [float(v) for v in world.longitudes]
    n = len(lats)
    matrix = np.zeros((n, n))
    for i in range(n):
        lat1, lon1 = lats[i], lons[i]
        row = matrix[i]
        for j in range(i + 1, n):
            row[j] = great_circle_km(lat1, lon1, lats[j], lons[j])
    lower = matrix.T.copy()
    matrix += lower
    return matrix


def _early_exit_table(distances: np.ndarray, footprints: list) -> np.ndarray:
    """``exit[as_row, region]``: the AS's PoP region nearest to ``region``.

    The distance matrix is exactly symmetric, so row ``pop`` holds the
    distance from every region to that PoP, and an argmin over the
    footprint's rows keeps the first minimum in footprint order — the
    strict ``<`` scan of :meth:`~repro.topology.graph.AsNode.nearest_pop`.
    """
    n_regions = len(distances)
    table = np.empty(
        (len(footprints), n_regions), dtype=np.min_scalar_type(n_regions - 1)
    )
    for as_row, pops in enumerate(footprints):
        if len(pops) == 1:
            table[as_row] = pops[0]
        else:
            pops = np.array(pops, dtype=np.intp)
            table[as_row] = pops[np.argmin(distances[pops], axis=0)]
    return table


class _WorldTables:
    """Read-only tables fixed by a world's regions and AS footprints:
    the region ``distances``, the sorted ASN column ``as_ids`` (a
    kernel's hop rows index it) and the ``exit`` table over its rows."""

    __slots__ = ("distances", "as_ids", "exit", "__weakref__")

    def __init__(self, world, as_ids: np.ndarray, footprints: list) -> None:
        with trace.span(
            "kernel.distance_matrix", n_regions=len(world), n_ases=len(as_ids)
        ):
            self.distances = _distance_matrix(world)
            self.exit = _early_exit_table(self.distances, footprints)
            self.as_ids = as_ids
            for table in (self.distances, self.exit, self.as_ids):
                table.setflags(write=False)
        metrics.counter("kernel.distance_matrix.builds.total").inc()


#: World tables per topology object: the fast path.  Keyed weakly so a
#: discarded world releases its tables; never pickled into artifacts.
_TABLES_BY_TOPOLOGY: WeakKeyDictionary[Topology, _WorldTables] = WeakKeyDictionary()
#: The same records keyed by content (region coordinates, ASN column,
#: footprints), so every unpickled copy of one world shares one record.
_TABLES_BY_CONTENT: WeakValueDictionary[tuple, _WorldTables] = WeakValueDictionary()


def _world_tables(topology: Topology) -> _WorldTables:
    """The shared :class:`_WorldTables` of ``topology``'s world.

    The AS set and footprints must be final: kernels are built over a
    generated topology, never while it is still being grown.
    """
    tables = _TABLES_BY_TOPOLOGY.get(topology)
    if tables is None:
        nodes = topology.nodes
        as_ids = np.fromiter(nodes, dtype=np.int64, count=len(nodes))
        as_ids.sort()
        footprints = [nodes[asn].region_ids for asn in as_ids.tolist()]
        world = topology.world
        key = (
            world.latitudes.tobytes(),
            world.longitudes.tobytes(),
            as_ids.tobytes(),
            np.fromiter(map(len, footprints), dtype=np.int64).tobytes(),
            np.fromiter(chain.from_iterable(footprints), dtype=np.int64).tobytes(),
        )
        tables = _TABLES_BY_CONTENT.get(key)
        if tables is None:
            tables = _WorldTables(world, as_ids, footprints)
            _TABLES_BY_CONTENT[key] = tables
        _TABLES_BY_TOPOLOGY[topology] = tables
    return tables


def region_distance_matrix(topology: Topology) -> np.ndarray:
    """R×R great-circle km between world regions, bitwise-equal to the
    scalar ``GeoPoint.distance_km`` for every pair.

    Built once per world with the scalar haversine (numpy's libm is not
    bitwise-identical to ``math``'s), exploiting exact symmetry to halve
    the work.  Read-only; shared by every kernel over the world and by
    every copy of its topology.
    """
    return _world_tables(topology).distances


@dataclass(frozen=True, slots=True)
class FlowBatch:
    """Vectorised :func:`~repro.bgp.flows.resolve_flow` over many clients.

    All arrays are aligned with the input ``(asns, regions)`` rows.
    Integer columns hold ``-1`` and float columns ``nan`` where ``ok`` is
    False (the client AS holds no route).
    """

    asns: np.ndarray  #: int64 — client AS per row
    region_ids: np.ndarray  #: int64 — client region per row
    ok: np.ndarray  #: bool — the client AS holds a route
    attachment_ids: np.ndarray  #: int32 — attachment the flow lands on
    entry_region_ids: np.ndarray  #: int32 — region of that attachment
    pre_entry_region_ids: np.ndarray  #: int32 — last waypoint before entry
    path_len: np.ndarray  #: int32 — ASes on the selected route (as_hops)
    km_before_entry: np.ndarray  #: float64 — client→…→pre-entry leg sum
    total_km: np.ndarray  #: float64 — full client→entry leg sum
    #: Per-row tuple of intermediate early-exit regions (client and entry
    #: excluded); only populated under ``want_chain=True``, else ``None``.
    chains: list[tuple[int, ...]] | None = None

    def __len__(self) -> int:
        return len(self.asns)


@dataclass(frozen=True, slots=True)
class ResolvedBatch:
    """Columnar answer to "how is each of these clients served?".

    The batch analogue of a list of :class:`ServedFlow`: one row per
    input ``(asn, region)`` pair, in input order.  Rows with ``ok`` False
    (no route — possible for purely local announcements) carry ``-1`` in
    the integer columns and ``nan`` in the float columns; mask with
    ``ok`` before aggregating.
    """

    asns: np.ndarray  #: int64 — client AS per row
    region_ids: np.ndarray  #: int64 — client region per row
    ok: np.ndarray  #: bool — served at all
    site_ids: np.ndarray  #: int32 — serving site (ring front-end for CDNs)
    site_region_ids: np.ndarray  #: int32 — region of the serving site
    as_hops: np.ndarray  #: int32 — AS-path length (Fig. 6a's quantity)
    base_rtt_ms: np.ndarray  #: float64 — deterministic baseline RTT
    site_km: np.ndarray  #: float64 — client region → serving site
    min_km: np.ndarray  #: float64 — client region → closest global site

    def __len__(self) -> int:
        return len(self.asns)

    @property
    def n_served(self) -> int:
        return int(self.ok.sum())

    @property
    def optimal_rtt_ms(self) -> np.ndarray:
        """Eq. 2's achievable lower bound per client: ``3 d / c_f``."""
        return 3.0 * self.min_km / SPEED_OF_LIGHT_FIBER_KM_PER_MS

    @property
    def inflation_km(self) -> np.ndarray:
        """Extra great-circle km over the closest global site (Eq. 1)."""
        return self.site_km - self.min_km

    @property
    def inflation_ms(self) -> np.ndarray:
        """Eq. 1's geographic inflation in ms: ``2 Δd / c_f``."""
        return 2.0 * self.inflation_km / SPEED_OF_LIGHT_FIBER_KM_PER_MS

    @property
    def latency_inflation_ms(self) -> np.ndarray:
        """Eq. 2's latency inflation: measured baseline minus optimal."""
        return self.base_rtt_ms - self.optimal_rtt_ms


def _as_index_arrays(asns, regions) -> tuple[np.ndarray, np.ndarray]:
    asns = np.ascontiguousarray(asns, dtype=np.int64)
    regions = np.ascontiguousarray(regions, dtype=np.int64)
    if asns.shape != regions.shape or asns.ndim != 1:
        raise ValueError(
            f"asns and regions must be equal-length 1-D arrays, "
            f"got {asns.shape} and {regions.shape}"
        )
    return asns, regions


@dataclass(frozen=True, slots=True)
class KernelDelta:
    """A repaired routing table plus the ASes whose selected route changed.

    Produced from a :class:`repro.bgp.RoutingDelta` (scoped re-propagation)
    and consumed by :meth:`FlowKernel.apply_delta`.  ``changed_asns`` must
    list, in any order, every AS whose route was gained, lost, or modified
    relative to the kernel's current table; rows for every other AS are
    carried over untouched.

    The optional attachment-level diff (``removed_attachment_ids``,
    ``changed_attachments``, ``touched_hosts`` — the corresponding
    :class:`repro.bgp.RoutingDelta` fields) lets ``apply_delta`` patch
    the attachment-geometry and candidate tables incrementally.  When
    ``touched_hosts`` is ``None`` the diff is unknown and those tables
    are rebuilt wholesale instead; the result is identical either way.
    """

    routing: object  #: the post-delta :class:`repro.bgp.RoutingTable`
    changed_asns: tuple[int, ...]
    removed_attachment_ids: tuple[int, ...] | None = None
    changed_attachments: tuple | None = None
    touched_hosts: tuple[int, ...] | None = None

    @classmethod
    def from_routing_delta(cls, delta) -> "KernelDelta":
        """Adapt a :class:`repro.bgp.RoutingDelta` (keeps the diff)."""
        return cls(
            routing=delta.table,
            changed_asns=delta.changed_asns,
            removed_attachment_ids=delta.removed_attachment_ids,
            changed_attachments=delta.changed_attachments,
            touched_hosts=delta.touched_hosts,
        )


class FlowKernel:
    """Precomputed batch resolver for one ``(topology, routing)`` pair.

    Everything that is fixed once BGP has converged — selected paths and
    per-host attachment candidates — is packed into padded integer
    matrices at construction; the world's distance matrix and early-exit
    table are shared with every other kernel over the same world.
    :meth:`resolve` is then pure array code with no per-client Python
    dispatch.
    """

    def __init__(self, topology: Topology, routing) -> None:
        with trace.span("kernel.build") as span:
            self._build(topology, routing)
            span.set(n_ases=len(self._as_ids), n_routes=len(self._routed_asns))
        metrics.counter("kernel.builds.total").inc()

    def _build(self, topology: Topology, routing) -> None:
        self.topology = topology
        self.routing = routing
        tables = _world_tables(topology)
        self.distances = tables.distances
        self._as_ids = as_ids = tables.as_ids
        self._exit = tables.exit

        self._build_attachment_tables(routing)

        # -- per-route tables ---------------------------------------------
        host_row = self._host_row
        routed = sorted(asn for asn, _ in routing.items())
        route_row = {asn: row for row, asn in enumerate(routed)}
        self._routed_asns = np.array(routed, dtype=np.int64)
        n_routes = len(routed)
        path_len = np.zeros(n_routes, dtype=np.int32)
        fallback_att = np.zeros(n_routes, dtype=np.int32)
        terminal_host = np.full(n_routes, _NO_ROW, dtype=np.int32)
        max_mid = 0
        for asn in routed:
            max_mid = max(max_mid, len(routing.route(asn).path) - 2)
        # Intermediate hops as ``as_ids`` row indices, padded with -1.
        hops = np.full((n_routes, max(max_mid, 0)), _NO_ROW, dtype=np.int32)
        for asn, row in route_row.items():
            route = routing.route(asn)
            path = route.path
            path_len[row] = len(path)
            fallback_att[row] = route.attachment_id
            terminal_asn = path[-2] if len(path) >= 2 else asn
            terminal_host[row] = host_row.get(terminal_asn, _NO_ROW)
            for depth, hop_asn in enumerate(path[1:-1]):
                hops[row, depth] = np.searchsorted(as_ids, hop_asn)
        self._path_len = path_len
        self._fallback_att = fallback_att
        self._terminal_host = terminal_host
        self._hops = hops
        self._max_mid = max_mid

    def _build_attachment_tables(self, routing) -> None:
        """(Re)build the attachment-geometry and candidate tables.

        These are O(attachments + hosts) — cheap enough that
        :meth:`apply_delta` rebuilds them wholesale rather than patching.
        """
        # -- attachment geometry ------------------------------------------
        attachments = routing.attachments
        n_atts = len(attachments)
        max_attachment = max(attachments) if attachments else 0
        att_region = np.full(max_attachment + 1, _NO_ROW, dtype=np.int32)
        if n_atts:
            att_ids = np.fromiter(attachments.keys(), dtype=np.int64, count=n_atts)
            att_region[att_ids] = np.fromiter(
                (a.region_id for a in attachments.values()),
                dtype=np.int32,
                count=n_atts,
            )
        self.attachment_region_ids = att_region

        # -- per-host candidate tables (terminal early exit) --------------
        # Rows follow sorted host order, columns the per-host list order;
        # both are packed with vectorized scatters (row r spans columns
        # [0, counts[r])), keeping the rebuild cheap on the delta path.
        by_host = routing.attachments_by_host
        hosts = sorted(by_host)
        n_hosts = len(hosts)
        host_row = {asn: row for row, asn in enumerate(hosts)}
        counts = np.fromiter(
            (len(by_host[asn]) for asn in hosts), dtype=np.intp, count=n_hosts
        )
        total = int(counts.sum()) if n_hosts else 0
        max_candidates = max(int(counts.max()) if n_hosts else 1, 1)
        shape = (max(n_hosts, 1), max_candidates)
        cand_att = np.full(shape, _NO_ROW, dtype=np.int32)
        cand_region = np.zeros(shape, dtype=np.int32)
        cand_ok = np.zeros(shape, dtype=bool)
        if total:
            row_idx = np.repeat(np.arange(n_hosts, dtype=np.intp), counts)
            col_idx = np.arange(total, dtype=np.intp)
            col_idx -= np.repeat(np.cumsum(counts) - counts, counts)
            flat = [a for asn in hosts for a in by_host[asn]]
            cand_att[row_idx, col_idx] = np.fromiter(
                (a.attachment_id for a in flat), dtype=np.int32, count=total
            )
            cand_region[row_idx, col_idx] = np.fromiter(
                (a.region_id for a in flat), dtype=np.int32, count=total
            )
            cand_ok[row_idx, col_idx] = True
        self._cand_att = cand_att
        self._cand_region = cand_region
        self._cand_ok = cand_ok
        self._cand_counts = counts
        self._hosts = np.array(hosts, dtype=np.int64)
        self._host_row = host_row

    def _patch_attachment_tables(
        self, routing, removed_ids, changed_atts, touched_hosts
    ) -> None:
        """Patch the attachment tables for a known attachment-level diff.

        Bitwise-identical to :meth:`_build_attachment_tables` over the new
        routing table, but only rows of ``touched_hosts`` are recomputed;
        everything else is carried over (remapped when the host set — and
        hence the row order — shifted).
        """
        attachments = routing.attachments
        # -- attachment geometry: copy + point writes ---------------------
        old_region = self.attachment_region_ids
        max_attachment = max(attachments) if attachments else 0
        att_region = np.full(max_attachment + 1, _NO_ROW, dtype=np.int32)
        copy_len = min(len(old_region), max_attachment + 1)
        att_region[:copy_len] = old_region[:copy_len]
        for att_id in removed_ids:
            if att_id <= max_attachment:
                att_region[att_id] = _NO_ROW
        for a in changed_atts:
            att_region[a.attachment_id] = a.region_id
        self.attachment_region_ids = att_region

        # -- candidate tables: carry untouched host rows ------------------
        by_host = routing.attachments_by_host
        hosts = sorted(by_host)
        n_hosts = len(hosts)
        host_row = {asn: row for row, asn in enumerate(hosts)}
        new_hosts = np.array(hosts, dtype=np.int64)
        old_hosts = self._hosts
        touched = set(touched_hosts)

        if len(old_hosts):
            carried_mask = np.ones(len(old_hosts), dtype=bool)
            if touched:
                probe = np.fromiter(touched, dtype=np.int64, count=len(touched))
                i = np.minimum(old_hosts.searchsorted(probe), len(old_hosts) - 1)
                carried_mask[i[old_hosts[i] == probe]] = False
            old_rows = np.nonzero(carried_mask)[0]
        else:
            old_rows = np.zeros(0, dtype=np.intp)
        # Untouched hosts keep their candidate lists, so every carried old
        # row has an exact match in the new (sorted) host order.
        new_rows = new_hosts.searchsorted(old_hosts[old_rows])

        counts = np.zeros(n_hosts, dtype=np.intp)
        counts[new_rows] = self._cand_counts[old_rows]
        for h in touched:
            row = host_row.get(h)
            if row is not None:
                counts[row] = len(by_host[h])
        max_candidates = max(int(counts.max()) if n_hosts else 1, 1)
        shape = (max(n_hosts, 1), max_candidates)
        cand_att = np.full(shape, _NO_ROW, dtype=np.int32)
        cand_region = np.zeros(shape, dtype=np.int32)
        cand_ok = np.zeros(shape, dtype=bool)
        # Carried rows: copy up to the narrower width; cells beyond a
        # row's count are padding on both sides, so values line up.
        width = min(max_candidates, self._cand_att.shape[1])
        if len(new_rows) and width:
            cand_att[new_rows, :width] = self._cand_att[old_rows, :width]
            cand_region[new_rows, :width] = self._cand_region[old_rows, :width]
            cand_ok[new_rows, :width] = self._cand_ok[old_rows, :width]
        for h in touched:
            row = host_row.get(h)
            if row is None:
                continue
            for col, a in enumerate(by_host[h]):
                cand_att[row, col] = a.attachment_id
                cand_region[row, col] = a.region_id
                cand_ok[row, col] = True
        self._cand_att = cand_att
        self._cand_region = cand_region
        self._cand_ok = cand_ok
        self._cand_counts = counts
        self._hosts = new_hosts
        self._host_row = host_row

    # ------------------------------------------------------------------
    def clone(self) -> "FlowKernel":
        """A shallow, independent view sharing every table.

        O(1): tables are shared by reference.  Safe because
        :meth:`apply_delta` replaces tables wholesale instead of writing
        into them, so mutating the clone never disturbs the original.
        """
        other = object.__new__(FlowKernel)
        other.__dict__.update(self.__dict__)
        return other

    def apply_delta(self, delta: KernelDelta) -> None:
        """Patch the kernel in place for a repaired routing table.

        Only the rows named in ``delta.changed_asns`` are recomputed; all
        other per-route rows are carried over (scattered into the new row
        order), and the small attachment/candidate tables are rebuilt
        wholesale.  The result is **bitwise-identical** to a cold
        ``FlowKernel(topology, delta.routing)`` — same array contents,
        same padding widths — which the equivalence suite asserts.
        """
        with trace.span("kernel.delta", changed=len(delta.changed_asns)) as span:
            self._apply_delta(delta)
            span.set(n_routes=len(self._routed_asns))
        metrics.counter("kernel.delta.applies.total").inc()
        if maybe_fire("delta_corrupt", f"AS{delta.routing.origin_asn}") is not None:
            # Chaos meta-fault: shift every patched path length by one so
            # any downstream equivalence check must detect the corruption.
            self._path_len = self._path_len + 1

    def _apply_delta(self, delta: KernelDelta) -> None:
        routing = delta.routing
        old_routed = self._routed_asns
        old_path_len = self._path_len
        old_fallback = self._fallback_att
        old_terminal = self._terminal_host
        old_hops = self._hops
        old_hosts = self._hosts

        if delta.touched_hosts is None:
            self._build_attachment_tables(routing)
        else:
            self._patch_attachment_tables(
                routing,
                delta.removed_attachment_ids or (),
                delta.changed_attachments or (),
                delta.touched_hosts,
            )
        new_hosts = self._hosts
        host_row = self._host_row

        changed = np.array(sorted(set(delta.changed_asns)), dtype=np.int64)
        present = np.fromiter(
            (asn in routing for asn in changed.tolist()), dtype=bool, count=len(changed)
        )
        added = changed[present]  # routes gained or modified
        if len(changed) and len(old_routed):
            # Both sides are sorted-unique: a searchsorted probe of the
            # tiny ``changed`` set beats np.isin's merge, and the carried
            # positions fall straight out of the survivor mask.
            pos = np.minimum(
                old_routed.searchsorted(changed), len(old_routed) - 1
            )
            survives = np.ones(len(old_routed), dtype=bool)
            survives[pos[old_routed[pos] == changed]] = False
            carried = old_routed[survives]
            carried_pos = np.nonzero(survives)[0]
        else:
            carried = old_routed
            carried_pos = np.arange(len(old_routed), dtype=np.intp)
        new_routed = np.sort(np.concatenate((carried, added)))
        n_routes = len(new_routed)
        added_rows_arr = new_routed.searchsorted(added)

        # Padding width must match a cold build exactly: the max mid-path
        # length over *all* surviving routes, carried rows included.
        carried_mid = (
            int((old_path_len[carried_pos] - 2).max()) if len(carried) else 0
        )
        added_routes = [routing.route(int(asn)) for asn in added.tolist()]
        added_mid = max((len(r.path) - 2 for r in added_routes), default=0)
        max_mid = max(carried_mid, added_mid, 0)

        path_len = np.zeros(n_routes, dtype=np.int32)
        fallback_att = np.zeros(n_routes, dtype=np.int32)
        terminal_host = np.full(n_routes, _NO_ROW, dtype=np.int32)
        hops = np.full((n_routes, max_mid), _NO_ROW, dtype=np.int32)

        if len(carried):
            # Carried rows occupy every new slot the added rows don't.
            new_mask = np.ones(n_routes, dtype=bool)
            new_mask[added_rows_arr] = False
            new_pos = np.nonzero(new_mask)[0]
            path_len[new_pos] = old_path_len[carried_pos]
            fallback_att[new_pos] = old_fallback[carried_pos]
            # Terminal hosts are stored as candidate-table row indices;
            # remap old host rows to new ones (hosts no longer hosting any
            # attachment map to -1, exactly as a cold build would).
            remap = np.full(len(old_hosts) + 1, _NO_ROW, dtype=np.int32)
            if len(old_hosts) and len(new_hosts):
                idx = np.minimum(
                    new_hosts.searchsorted(old_hosts), len(new_hosts) - 1
                )
                valid = new_hosts[idx] == old_hosts
                remap[: len(old_hosts)][valid] = idx[valid]
            terminal_host[new_pos] = remap[old_terminal[carried_pos]]
            keep = min(max_mid, old_hops.shape[1])
            if keep:
                hops[new_pos, :keep] = old_hops[carried_pos, :keep]

        added_rows = added_rows_arr.tolist()
        hop_rows: list[int] = []
        hop_depths: list[int] = []
        hop_asns: list[int] = []
        for asn, row, route in zip(added.tolist(), added_rows, added_routes):
            path = route.path
            path_len[row] = len(path)
            fallback_att[row] = route.attachment_id
            terminal_asn = path[-2] if len(path) >= 2 else asn
            terminal_host[row] = host_row.get(terminal_asn, _NO_ROW)
            mid = len(path) - 2
            if mid > 0:
                hop_rows.extend([row] * mid)
                hop_depths.extend(range(mid))
                hop_asns.extend(path[1:-1])
        if hop_rows:
            hops[
                np.array(hop_rows, dtype=np.intp), np.array(hop_depths, dtype=np.intp)
            ] = self._as_ids.searchsorted(np.array(hop_asns, dtype=np.int64))

        self.routing = routing
        self._routed_asns = new_routed
        self._path_len = path_len
        self._fallback_att = fallback_att
        self._terminal_host = terminal_host
        self._hops = hops
        self._max_mid = max_mid

    # ------------------------------------------------------------------
    def resolve(self, asns, regions, want_chain: bool = False) -> FlowBatch:
        """Resolve every ``(asns[i], regions[i])`` flow at once.

        Duplicate pairs are computed once and scattered back, so callers
        may pass raw per-client columns without deduplicating first.
        """
        asns, regions = _as_index_arrays(asns, regions)
        with trace.span("kernel.resolve", rows=len(asns)) as span:
            n_regions = len(self.topology.world)
            pair_key = asns * n_regions + regions
            unique_keys, inverse = np.unique(pair_key, return_inverse=True)
            u_asns = unique_keys // n_regions
            u_regions = unique_keys % n_regions
            span.set(unique=len(unique_keys))
            unique = self._resolve_unique(u_asns, u_regions, want_chain)
        metrics.counter("kernel.resolves.total").inc()
        metrics.histogram("kernel.batch.rows").observe(len(asns))

        def scatter(column: np.ndarray) -> np.ndarray:
            return column[inverse]

        chains = None
        if want_chain and unique.chains is not None:
            chains = [unique.chains[i] for i in inverse]
        return FlowBatch(
            asns=asns,
            region_ids=regions,
            ok=scatter(unique.ok),
            attachment_ids=scatter(unique.attachment_ids),
            entry_region_ids=scatter(unique.entry_region_ids),
            pre_entry_region_ids=scatter(unique.pre_entry_region_ids),
            path_len=scatter(unique.path_len),
            km_before_entry=scatter(unique.km_before_entry),
            total_km=scatter(unique.total_km),
            chains=chains,
        )

    def _resolve_unique(
        self, asns: np.ndarray, regions: np.ndarray, want_chain: bool
    ) -> FlowBatch:
        n = len(asns)
        distances = self.distances

        if not len(self._routed_asns):  # nothing routed anywhere
            nothing = np.full(n, _NO_ROW, dtype=np.int32)
            nan = np.full(n, np.nan)
            return FlowBatch(
                asns=asns, region_ids=regions, ok=np.zeros(n, dtype=bool),
                attachment_ids=nothing, entry_region_ids=nothing,
                pre_entry_region_ids=nothing,
                path_len=np.zeros(n, dtype=np.int32),
                km_before_entry=nan, total_km=nan,
                chains=[()] * n if want_chain else None,
            )

        row = np.searchsorted(self._routed_asns, asns)
        row = np.minimum(row, len(self._routed_asns) - 1)
        ok = self._routed_asns[row] == asns
        row = np.where(ok, row, 0)

        current = regions.astype(np.int32, copy=True)
        km_before_entry = np.zeros(n)
        chains: list[list[int]] | None = [[] for _ in range(n)] if want_chain else None

        # Walk intermediate ASes depth by depth: each step looks up the
        # hop AS's early-exit PoP for the flow's current region (exactly
        # the scalar ``AsNode.nearest_pop``).  Hop rows are contiguous
        # from depth 0, so the rows still walking only ever shrink.
        live = np.flatnonzero(ok)
        for depth in range(self._max_mid):
            hop_rows = self._hops[row[live], depth]
            walking = hop_rows != _NO_ROW
            live, hop_rows = live[walking], hop_rows[walking]
            if not len(live):
                break
            here = current[live]
            next_region = self._exit[hop_rows, here]
            km_before_entry[live] += distances[here, next_region]
            current[live] = next_region
            if chains is not None:
                for i, region in zip(live.tolist(), next_region.tolist()):
                    chains[i].append(region)

        # Terminal early exit among the terminal AS's own attachments:
        # lexicographic min by (distance, attachment_id), falling back to
        # the route's recorded attachment when the terminal hosts none.
        attachment = np.where(ok, self._fallback_att[row], _NO_ROW).astype(np.int32)
        host = np.where(ok, self._terminal_host[row], _NO_ROW)
        hosted = host != _NO_ROW
        if hosted.any():
            cand_region = self._cand_region[host[hosted]]
            cand_ok = self._cand_ok[host[hosted]]
            cand_km = np.where(
                cand_ok, distances[current[hosted, None], cand_region], np.inf
            )
            min_km = cand_km.min(axis=1)
            ties = cand_km == min_km[:, None]
            cand_att = np.where(ties, self._cand_att[host[hosted]], np.iinfo(np.int32).max)
            attachment[hosted] = cand_att.min(axis=1)

        entry = np.where(ok, self.attachment_region_ids[attachment], _NO_ROW).astype(
            np.int32
        )
        entry_km = np.where(ok, distances[current, np.where(ok, entry, 0)], np.nan)
        total_km = km_before_entry + entry_km
        return FlowBatch(
            asns=asns,
            region_ids=regions,
            ok=ok,
            attachment_ids=np.where(ok, attachment, _NO_ROW).astype(np.int32),
            entry_region_ids=entry,
            pre_entry_region_ids=np.where(ok, current, _NO_ROW).astype(np.int32),
            path_len=np.where(ok, self._path_len[row], 0).astype(np.int32),
            km_before_entry=np.where(ok, km_before_entry, np.nan),
            total_km=total_km,
            chains=[tuple(c) for c in chains] if chains is not None else None,
        )
