"""``/v1`` endpoint handlers: routing, validation, serialization.

Every JSON response is wrapped in the :mod:`repro.serve.schema`
envelope; ``/v1/metrics`` alone speaks the Prometheus text exposition
(that format has no room for an envelope — it is the one documented
exemption).  Serializing a response is the request's ``serve.serialize``
phase span.  The request counters and latency histograms are not
counted here: they are derived from the closed ``serve.request`` span
(see :mod:`repro.serve.telemetry`).  ``/v1/metrics`` and
``/v1/debug/vars`` set the resource and load gauges as they are
scraped, so the registry they expose is current without a sampler.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from ..obs import metrics, sample_process_stats, trace
from .overload import DRAIN_RETRY_AFTER_S, Deadline, count_shed
from .schema import envelope
from .service import ServiceError

__all__ = ["Request", "Response", "handle", "ENDPOINTS"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: The public surface: (method, endpoint name).  Path routing below must
#: stay in lockstep with the docs/API.md endpoint table.
ENDPOINTS = (
    ("GET", "healthz"),
    ("GET", "scenario"),
    ("POST", "resolve"),
    ("GET", "catchment"),
    ("GET", "inflation"),
    ("POST", "whatif"),
    ("GET", "metrics"),
    ("GET", "debug.tracez"),
    ("GET", "debug.statusz"),
    ("GET", "debug.vars"),
)

#: Endpoints still answered while draining: health checks must keep
#: working so orchestrators see the drain, and the debug surface is most
#: useful exactly when a daemon is wedged mid-shutdown.
_DRAIN_EXEMPT = ("healthz", "debug.tracez", "debug.statusz", "debug.vars")


@dataclass(slots=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        if not self.body:
            raise ServiceError(400, "request body must be a JSON object")
        try:
            data = json.loads(self.body)
        except json.JSONDecodeError as error:
            raise ServiceError(400, f"request body is not JSON: {error}") from None
        if not isinstance(data, dict):
            raise ServiceError(400, "request body must be a JSON object")
        return data


@dataclass(slots=True)
class Response:
    """One response, ready for the wire."""

    status: int
    body: bytes
    content_type: str = "application/json"
    endpoint: str = "unrouted"  #: routed endpoint name (access-log field)
    headers: dict = field(default_factory=dict)  #: extra response headers

    @property
    def reason(self) -> str:
        return _REASONS.get(self.status, "Unknown")


def _json_response(status: int, endpoint: str, payload: dict) -> Response:
    with trace.span("serve.serialize"):
        body = json.dumps(envelope(endpoint, payload)).encode("utf-8")
    return Response(status=status, body=body, endpoint=endpoint)


def _scrape_gauges(app) -> dict:
    """Set the resource and load gauges now; returns the process sample."""
    stats = sample_process_stats()
    if stats["rss_bytes"] is not None:
        metrics.gauge("process.rss_bytes").set(stats["rss_bytes"])
    if stats["open_fds"] is not None:
        metrics.gauge("process.open_fds").set(stats["open_fds"])
    metrics.gauge("serve.inflight").set(app.lifecycle.inflight)
    metrics.gauge("serve.admission.inflight").set(app.admission.inflight)
    metrics.gauge("serve.admission.queued").set(app.admission.queued)
    return stats


def error_response(status: int, endpoint: str, message: str, *,
                   retry_after_s: float | None = None,
                   details: dict | None = None) -> Response:
    """The standard error envelope, with the overload-contract extras.

    ``details`` (``reason`` / ``deadline_ms`` / ``where``) land as extra
    keys of ``payload.error``; ``retry_after_s`` additionally sets a
    ``Retry-After`` header (whole seconds, rounded up — every shed
    answer tells the client when coming back is worth it).
    """
    error = {"status": status, "message": message}
    if details:
        error.update(details)
    if retry_after_s is not None:
        error["retry_after_s"] = retry_after_s
    response = _json_response(status, endpoint, {"error": error})
    if retry_after_s is not None:
        response.headers["Retry-After"] = str(max(1, math.ceil(retry_after_s)))
    return response


def _route(method: str, path: str) -> tuple[str, str | None]:
    """Resolve ``(endpoint, path_argument)``; raises ServiceError otherwise."""
    parts = [part for part in path.split("/") if part]
    if not parts or parts[0] != "v1":
        raise ServiceError(404, f"no such path {path!r}; the API lives under /v1/")
    if len(parts) == 2 and parts[1] in ("healthz", "scenario", "resolve", "whatif", "metrics"):
        endpoint, argument = parts[1], None
    elif len(parts) == 3 and parts[1] in ("catchment", "inflation"):
        endpoint, argument = parts[1], parts[2]
    elif len(parts) == 3 and parts[1] == "debug" and parts[2] in ("tracez", "statusz", "vars"):
        endpoint, argument = f"debug.{parts[2]}", None
    else:
        raise ServiceError(404, f"no such path {path!r}")
    expected = {"resolve": "POST", "whatif": "POST"}.get(endpoint, "GET")
    if method != expected:
        raise ServiceError(405, f"/v1/{endpoint} expects {expected}, got {method}")
    return endpoint, argument


async def handle(app, request: Request, *, reject_draining: bool = False) -> Response:
    """Route one request through the app; never raises.

    ``reject_draining`` is set by the server for requests that *arrived
    after* the drain began (keep-alive stragglers); requests already in
    flight when the drain started are answered normally — that is the
    grace window's whole point.
    """
    endpoint = "unrouted"
    try:
        endpoint, argument = _route(request.method, request.path)
        if reject_draining and endpoint not in _DRAIN_EXEMPT:
            count_shed("drain")
            return error_response(
                503, endpoint,
                f"draining ({app.lifecycle.reason}); not accepting work",
                retry_after_s=DRAIN_RETRY_AFTER_S, details={"reason": "drain"},
            )
        # The compute budget starts here: per-endpoint default,
        # overridable (either way) by X-Deadline-Ms.
        deadline = Deadline.for_request(
            endpoint, request.headers, app.config.deadline_ms
        )
        return await _dispatch(app, endpoint, argument, request, deadline)
    except ServiceError as error:
        return error_response(
            error.status, endpoint, str(error),
            retry_after_s=getattr(error, "retry_after_s", None),
            details=getattr(error, "details", None),
        )
    except Exception as error:  # noqa: BLE001 - the daemon must not die per-request
        return error_response(500, endpoint, f"{type(error).__name__}: {error}")


async def _dispatch(app, endpoint: str, argument: str | None, request: Request,
                    deadline: Deadline | None = None) -> Response:
    if endpoint == "healthz":
        lifecycle = app.lifecycle
        return _json_response(200, endpoint, {
            "status": "draining" if lifecycle.draining else "ok",
            "uptime_s": lifecycle.uptime_s,
            "inflight": lifecycle.inflight,
            "breaker": app.breaker.state,
            "scale": app.service.scenario.params.scale,
            "seed": app.service.scenario.params.seed,
            "workers": app.config.workers,
        })
    if endpoint == "metrics":
        _scrape_gauges(app)
        with trace.span("serve.serialize"):
            body = metrics.to_text().encode("utf-8")
        return Response(
            status=200,
            body=body,
            content_type="text/plain; version=0.0.4",
            endpoint=endpoint,
        )
    if endpoint == "debug.tracez":
        telemetry = app.telemetry
        return _json_response(200, endpoint, {
            "records_total": telemetry.records_total,
            "recent": telemetry.recent(),
            "slowest": telemetry.slowest(),
        })
    if endpoint == "debug.statusz":
        lifecycle = app.lifecycle
        config = app.config
        return _json_response(200, endpoint, {
            "pid": os.getpid(),
            "uptime_s": lifecycle.uptime_s,
            "draining": lifecycle.draining,
            "drain_reason": lifecycle.reason,
            "inflight": lifecycle.inflight,
            "workers": config.workers,
            "max_inflight": app.admission.max_inflight,
            "max_queue": config.max_queue,
            "admission_inflight": app.admission.inflight,
            "admission_queued": app.admission.queued,
            "breaker": app.breaker.state,
            "breaker_threshold": config.breaker_threshold,
            "breaker_cooldown": config.breaker_cooldown,
            "grace": config.grace,
            "scale": app.service.scenario.params.scale,
            "seed": app.service.scenario.params.seed,
            "trace_enabled": trace.enabled,
            "access_log": config.access_log,
        })
    if endpoint == "debug.vars":
        process = _scrape_gauges(app)
        return _json_response(200, endpoint, {
            "process": process,
            "metrics": metrics.snapshot(),
        })
    if endpoint == "scenario":
        return _json_response(200, endpoint, await app.execute("scenario", {}, deadline))
    if endpoint == "resolve":
        data = request.json()
        payload = await app.execute(
            "resolve",
            {"deployment": data.get("deployment"), "pairs": data.get("pairs")},
            deadline,
        )
        return _json_response(200, endpoint, payload)
    if endpoint in ("catchment", "inflation"):
        payload = await app.execute(endpoint, {"deployment": argument}, deadline)
        return _json_response(200, endpoint, payload)
    if endpoint == "whatif":
        data = request.json()
        payload = await app.execute("whatif", {
            "deployment": data.get("deployment"),
            "remove_sites": data.get("remove_sites"),
            "add_regions": data.get("add_regions"),
        }, deadline)
        return _json_response(200, endpoint, payload)
    raise ServiceError(404, f"unrouted endpoint {endpoint!r}")  # pragma: no cover
