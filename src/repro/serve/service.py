"""The warm anycast-planning service behind every ``/v1`` endpoint.

:class:`AnycastService` loads one scenario at startup and keeps the
expensive state resident: every deployment (root letters for both DITL
years, every CDN ring), their lazily built :class:`FlowKernel`\\ s, the
region distance matrix, and the user-base columns the catchment and
inflation aggregates run over.  Query execution is a pure function of
that state, so the same :meth:`execute` answers requests whether it
runs on the daemon's event loop (every resolve), on a thread, or inside
a forked :class:`~repro.engine.pool.MonitoredPool` worker — forked
*after* the warm-up, so workers share the resident tables
copy-on-write, exactly like the experiment engine's prewarm path.

Results are bitwise-identical to the library path: the service calls
the same ``resolve_many`` on the same warm kernels, and JSON's
shortest-repr float round-trip is exact.
"""

from __future__ import annotations

import os
from itertools import chain

import numpy as np

from .. import faults
from ..anycast import IndependentDeployment
from ..anycast.delta import apply_mutation, plan_add_regions, plan_withdraw, rebuild
from ..anycast.deployment import Deployment
from ..anycast.resilience import batch_impact
from ..core.cdf import WeightedCdf
from ..obs import MetricsRegistry, get_logger, metrics, set_trace_id, trace

__all__ = [
    "ServiceError",
    "AnycastService",
    "install_service",
    "service_task",
    "MAX_RESOLVE_ROWS",
    "MAX_WHATIF_SITES",
    "MAX_ASN",
]

_log = get_logger("serve.service")

#: Hard cap on one ``/v1/resolve`` batch (requests beyond it are a 400,
#: not an OOM).
MAX_RESOLVE_ROWS = 100_000

#: Hard cap on sites added/removed by one what-if (re-propagation is the
#: most expensive operation a compute slot runs).
MAX_WHATIF_SITES = 16

#: ASNs are 32-bit (RFC 6793).  The bound also keeps the kernel's int64
#: ``asn × regions + region`` pair keys from overflowing.
MAX_ASN = 2**32


class ServiceError(Exception):
    """A client-attributable failure, mapped to an HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _bad_request(message: str) -> ServiceError:
    return ServiceError(400, message)


def _not_found(message: str) -> ServiceError:
    return ServiceError(404, message)


def _floats_or_none(column: np.ndarray) -> list:
    """JSON-safe floats: masked (NaN) rows serialise as ``null``."""
    values = column.tolist()
    for index in np.flatnonzero(np.isnan(column)).tolist():
        values[index] = None
    return values


def _pair_columns(pairs: list) -> np.ndarray | None:
    """``pairs`` as a 2×N int64 ``[asns, regions]`` array, or None.

    None unless every pair is a list or tuple of exactly two ints (bools
    excluded) that fit in int64 — the shape :func:`_check_pairs`
    accepts, checked in bulk.  Ranges are the caller's to check.
    """
    if not all(issubclass(kind, (list, tuple)) for kind in set(map(type, pairs))):
        return None
    if set(map(len, pairs)) != {2}:
        return None
    values = list(chain.from_iterable(pairs))
    if not all(
        issubclass(kind, int) and not issubclass(kind, bool)
        for kind in set(map(type, values))
    ):
        return None
    try:
        return np.array(values, dtype=np.int64).reshape(-1, 2).T
    except OverflowError:  # beyond int64: out of range whatever the bound
        return None


def _check_pairs(pairs: list, n_regions: int) -> None:
    """Raise the 400 for the first malformed or out-of-range pair."""
    for index, pair in enumerate(pairs):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
        ):
            raise _bad_request(f"pairs[{index}] is not an [asn, region] integer pair")
        asn, region = pair
        if not 0 <= asn < MAX_ASN:
            raise _bad_request(f"pairs[{index}]: asn {asn} outside [0, 2**32)")
        if not 0 <= region < n_regions:
            raise _bad_request(
                f"pairs[{index}]: region {region} outside [0, {n_regions})"
            )


class AnycastService:
    """One warm scenario plus every deployment table, ready to query."""

    def __init__(self, scenario, *, warm: bool = True):
        self.scenario = scenario
        self.deployments: dict[str, Deployment] = {}
        for letter, deployment in scenario.letters_2018.items():
            self.deployments[f"2018-{letter}"] = deployment
        for letter, deployment in scenario.letters_2020.items():
            self.deployments[f"2020-{letter}"] = deployment
        for ring_name, ring in scenario.cdn.rings.items():
            self.deployments[ring_name] = ring
        locations = list(scenario.user_base)
        self._pop_asns = np.array([loc.asn for loc in locations], dtype=np.int64)
        self._pop_regions = np.array(
            [loc.region_id for loc in locations], dtype=np.int64
        )
        self._pop_users = np.array([loc.users for loc in locations], dtype=np.float64)
        self._user_batches: dict[str, object] = {}
        if warm:
            self.warm()

    def warm(self) -> None:
        """Build every kernel and distance table before serving traffic.

        One single-row resolve per deployment forces the lazy kernel
        (and the world's shared distance matrix and early-exit table,
        built once however many artifacts carry a topology copy) to
        materialise now, so the first real request pays nothing and
        forked pool workers inherit the tables copy-on-write.
        """
        probe_asn = int(self._pop_asns[0])
        probe_region = int(self._pop_regions[0])
        for name, deployment in self.deployments.items():
            deployment.resolve_many([probe_asn], [probe_region])
            _log.debug("warmed deployment %s", name)
        metrics.gauge("serve.deployments.resident").set(len(self.deployments))

    # -- lookup helpers ----------------------------------------------------
    def _deployment(self, name) -> Deployment:
        if not isinstance(name, str):
            raise _bad_request("deployment must be a string")
        deployment = self.deployments.get(name)
        if deployment is None:
            known = ", ".join(sorted(self.deployments))
            raise _not_found(f"unknown deployment {name!r}; known: {known}")
        return deployment

    def _user_batch(self, name: str):
        """The whole user base resolved against one deployment (memoised)."""
        batch = self._user_batches.get(name)
        if batch is None:
            deployment = self._deployment(name)
            batch = deployment.resolve_many(self._pop_asns, self._pop_regions)
            self._user_batches[name] = batch
        return batch

    # -- operations --------------------------------------------------------
    def scenario_payload(self) -> dict:
        scenario = self.scenario
        # Every resident deployment carries the world's topology, so no
        # query needs (or unpickles) the ``internet`` artifact.
        topology = next(iter(self.deployments.values())).topology
        deployments = {}
        for name, deployment in sorted(self.deployments.items()):
            deployments[name] = {
                "kind": "letter" if isinstance(deployment, IndependentDeployment)
                        else "cdn-ring",
                "sites": len(deployment.sites),
                "global_sites": deployment.n_global_sites,
                "whatif": isinstance(deployment, IndependentDeployment),
            }
        return {
            "scale": scenario.params.scale,
            "seed": scenario.params.seed,
            "regions": len(topology.world.regions),
            "ases": len(topology.nodes),
            "total_users": scenario.user_base.total_users,
            "user_locations": len(scenario.user_base),
            "deployments": deployments,
        }

    def resolve_payload(self, deployment_name, pairs) -> dict:
        deployment = self._deployment(deployment_name)
        if not isinstance(pairs, list) or not pairs:
            raise _bad_request("pairs must be a non-empty list of [asn, region]")
        if len(pairs) > MAX_RESOLVE_ROWS:
            raise _bad_request(
                f"batch of {len(pairs)} rows exceeds the {MAX_RESOLVE_ROWS}-row cap"
            )
        n_regions = len(deployment.topology.world.regions)
        columns = _pair_columns(pairs)
        if columns is None or not (
            columns.min() >= 0
            and columns[0].max() < MAX_ASN
            and columns[1].max() < n_regions
        ):
            _check_pairs(pairs, n_regions)  # raises the first bad pair's 400
        batch = deployment.resolve_many(columns[0], columns[1])
        ok = batch.ok
        # ``tolist()`` yields the same Python ints, floats and bools the
        # per-element conversions did, so the JSON text is unchanged.
        return {
            "deployment": deployment_name,
            "rows": len(batch),
            "served": int(ok.sum()),
            "ok": ok.tolist(),
            "site_ids": batch.site_ids.tolist(),
            "site_region_ids": batch.site_region_ids.tolist(),
            "as_hops": batch.as_hops.tolist(),
            "base_rtt_ms": _floats_or_none(batch.base_rtt_ms),
            "site_km": _floats_or_none(batch.site_km),
            "min_km": batch.min_km.tolist(),
        }

    def catchment_payload(self, deployment_name) -> dict:
        deployment = self._deployment(deployment_name)
        batch = self._user_batch(deployment_name)
        ok = batch.ok
        served_users = float(self._pop_users[ok].sum())
        site_users = np.zeros(len(deployment.sites))
        np.add.at(site_users, batch.site_ids[ok], self._pop_users[ok])
        sites = []
        for site in deployment.sites:
            users = float(site_users[site.site_id])
            sites.append(
                {
                    "site_id": site.site_id,
                    "name": site.name,
                    "region_id": site.region_id,
                    "is_global": site.is_global,
                    "users": int(users),
                    "share": users / served_users if served_users else 0.0,
                }
            )
        sites.sort(key=lambda s: s["users"], reverse=True)
        return {
            "deployment": deployment_name,
            "total_users": int(self._pop_users.sum()),
            "served_users": int(served_users),
            "max_site_share": max((s["share"] for s in sites), default=0.0),
            "sites": sites,
        }

    def inflation_payload(self, deployment_name) -> dict:
        deployment = self._deployment(deployment_name)
        batch = self._user_batch(deployment_name)
        ok = batch.ok
        weights = self._pop_users[ok]

        def summary(values: np.ndarray) -> dict:
            cdf = WeightedCdf(values, weights)
            return {
                "zero_fraction": cdf.fraction_at_zero(eps=1.0),
                "median": cdf.median,
                "p90": cdf.quantile(0.9),
                "p99": cdf.quantile(0.99),
                "over_100ms_fraction": cdf.fraction_above(100.0),
            }

        return {
            "deployment": deployment_name,
            "served_users": int(weights.sum()),
            "n_global_sites": deployment.n_global_sites,
            "geographic_inflation_ms": summary(batch.inflation_ms[ok]),
            "latency_inflation_ms": summary(batch.latency_inflation_ms[ok]),
        }

    def whatif_payload(self, deployment_name, remove_sites, add_regions,
                       degraded: bool = False) -> dict:
        deployment = self._deployment(deployment_name)
        if not isinstance(deployment, IndependentDeployment):
            raise _bad_request(
                f"what-if needs an independently attached deployment; "
                f"{deployment_name!r} is a CDN ring"
            )
        remove_sites = self._int_list(remove_sites, "remove_sites")
        add_regions = self._int_list(add_regions, "add_regions")
        if not remove_sites and not add_regions:
            raise _bad_request("what-if changes nothing: give remove_sites or add_regions")
        if len(remove_sites) + len(add_regions) > MAX_WHATIF_SITES:
            raise _bad_request(
                f"what-if touches {len(remove_sites) + len(add_regions)} sites; "
                f"cap is {MAX_WHATIF_SITES}"
            )
        n_regions = len(deployment.topology.world.regions)
        for region in add_regions:
            if not 0 <= region < n_regions:
                raise _bad_request(f"add_regions: region {region} outside [0, {n_regions})")
        modified = deployment
        # Each step plans the edit then applies it.  The normal path is
        # the delta kernel (scoped re-propagation + kernel patch);
        # ``degraded`` — set while the circuit breaker is open — takes
        # the full-rebuild oracle instead: slower, but the simplest code
        # path in the system, which is exactly what a browned-out daemon
        # should be running.
        apply = rebuild if degraded else apply_mutation
        if degraded:
            metrics.counter("serve.whatif.degraded_rebuilds.total").inc()
        try:
            if remove_sites:
                modified = apply(modified, plan_withdraw(modified, remove_sites))
            if add_regions:
                modified = apply(modified, plan_add_regions(modified, add_regions))
        except ValueError as error:
            raise _bad_request(str(error)) from None
        # The baseline is the memoised whole-user-base batch, so a
        # what-if resolves only the modified deployment.
        impact = batch_impact(
            f"{deployment.name} → {modified.name}",
            self._user_batch(deployment_name),
            modified.resolve_many(self._pop_asns, self._pop_regions),
            self._pop_users,
        )
        return {
            "deployment": deployment_name,
            "removed_sites": remove_sites,
            "added_regions": add_regions,
            "sites_before": len(deployment.sites),
            "sites_after": len(modified.sites),
            "users_measured": impact.users_measured,
            "users_rerouted": impact.users_rerouted,
            "rerouted_fraction": impact.rerouted_fraction,
            "median_rtt_before_ms": impact.median_rtt_before_ms,
            "median_rtt_after_ms": impact.median_rtt_after_ms,
            "p95_rtt_before_ms": impact.p95_rtt_before_ms,
            "p95_rtt_after_ms": impact.p95_rtt_after_ms,
            "max_site_share_before": impact.max_site_share_before,
            "max_site_share_after": impact.max_site_share_after,
        }

    @staticmethod
    def _int_list(values, name: str) -> list[int]:
        if values is None:
            return []
        if not isinstance(values, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in values
        ):
            raise _bad_request(f"{name} must be a list of integers")
        return values

    # -- dispatch ----------------------------------------------------------
    def execute(self, op: str, kwargs: dict) -> dict:
        """Run one named operation; raises :class:`ServiceError` on bad input."""
        if op == "scenario":
            return self.scenario_payload()
        if op == "resolve":
            return self.resolve_payload(kwargs.get("deployment"), kwargs.get("pairs"))
        if op == "catchment":
            return self.catchment_payload(kwargs.get("deployment"))
        if op == "inflation":
            return self.inflation_payload(kwargs.get("deployment"))
        if op == "whatif":
            return self.whatif_payload(
                kwargs.get("deployment"),
                kwargs.get("remove_sites"),
                kwargs.get("add_regions"),
                degraded=bool(kwargs.get("degraded", False)),
            )
        raise _bad_request(f"unknown operation {op!r}")

    def execute_safe(self, op: str, kwargs: dict) -> tuple:
        """:meth:`execute` with errors reified: the pool wire format.

        Returns ``("ok", payload)`` or ``("error", status, message)``.
        Only genuinely unexpected exceptions propagate (a worker-side
        bug — the caller maps those to a 500).
        """
        try:
            return ("ok", self.execute(op, kwargs))
        except ServiceError as error:
            return ("error", error.status, str(error))


#: The per-process service, inherited by forked pool workers.  Set in
#: the parent *before* the pool spawns (same pattern as the engine
#: runner's ``_WORKER_SCENARIO``).
_SERVICE: AnycastService | None = None


def install_service(service: AnycastService | None) -> None:
    global _SERVICE
    _SERVICE = service


def service_task(op: str, kwargs: dict, trace_ctx: tuple | None = None,
                 seq: int = 0, attempt: int = 0) -> tuple:
    """``MonitoredPool`` task: run one op against the inherited service.

    Returns ``(ok, (verdict, metrics_delta, task_dur_s))`` — the delta
    is this task's metrics snapshot diff, merged into the parent
    registry so ``/v1/metrics`` reports kernel/trace counters no matter
    where the query ran (the same contract the experiment engine uses);
    ``task_dur_s`` is the worker-side wall time of the ``serve.task``
    span, which the parent attributes to its compute frame so exclusive
    times telescope across the process hop.

    ``seq`` is a parent-assigned, monotonically increasing submission
    number.  It stands in for the batch engine's attempt counter in the
    fault layer (``faults.set_attempt``), so worker-kind fault plans
    stay deterministic under ``repro serve``: a ``worker_crash:p=...`` draw
    differs per submission (a parent-side retry is a *new* submission,
    so it is not doomed to the same draw), and ``worker_crash:n=1``
    kills exactly the first submitted task rather than every task a
    freshly forked worker ever sees.  The ``worker_crash`` chokepoint
    fires here — only ever inside a forked pool worker, never on the
    event loop (resolve) or the thread/degraded path, where
    ``os._exit`` would kill the daemon.

    ``trace_ctx`` is ``(shard_dir, parent_span_id, trace_id)`` when the
    daemon is tracing: the worker shards into ``shard_dir`` (a no-op
    when the forked tracer already does — then it just re-roots, one
    contextvar set per request) and its spans carry the request's
    parent-side compute span as their parent.
    """
    if _SERVICE is None:  # pragma: no cover - wiring bug
        return False, None
    faults.set_attempt(seq)
    if faults.maybe_fire("worker_crash", f"serve.{op}") is not None:
        os._exit(faults.CRASH_EXIT_CODE)
    if trace_ctx is not None:
        shard_dir, parent_id, trace_id = trace_ctx
        if trace.shard_dir is None or str(trace.shard_dir) != str(shard_dir):
            trace.adopt(shard_dir, parent_id)
        else:
            trace.reroot(parent_id)
        set_trace_id(trace_id)
    before = metrics.snapshot()
    try:
        with trace.span("serve.task", op=op) as span:
            verdict = _SERVICE.execute_safe(op, kwargs)
    finally:
        if trace_ctx is not None:
            set_trace_id(None)
    delta = MetricsRegistry.diff(metrics.snapshot(), before)
    return True, (verdict, delta, span.dur_s)
