"""Seeded request schedules and a single-process asyncio HTTP/1.1 client.

Every request is encoded to raw bytes before any clock starts, so during
a timed window the generator only writes prepared bytes and reads
responses: it competes with the daemon for as little CPU as possible.
A fixed number of keep-alive connections (never more than the host has
CPUs) carry all traffic.

* **Closed loop**: each connection sends its next request when the
  previous answer arrives — the daemon's throughput with that many
  waiting callers.
* **Open loop**: requests fall due on a Poisson schedule whatever the
  daemon does; a due request takes the next idle connection.  Latency
  runs from the *due* time, so a stall also charges the requests that
  queued behind it, and ``lag`` (send − due) shows how late the
  generator actually sent.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

import numpy as np

#: Per-request ceiling; an answer slower than this counts as failed.
REQUEST_TIMEOUT_S = 10.0
#: Pairs per ``/v1/resolve`` request.
RESOLVE_PAIRS = 64


@dataclass(frozen=True, slots=True)
class Request:
    kind: str  #: resolve | catchment | inflation | whatif
    request_id: str  #: sent as X-Request-Id; the daemon's access log echoes it
    wire: bytes  #: the complete HTTP/1.1 request


@dataclass(slots=True)
class Sample:
    """One completed (or failed) exchange."""

    index: int
    kind: str
    request_id: str
    due: float  #: seconds from phase start (open loop) or send time (closed)
    sent: float
    done: float
    status: int  #: 0 on a socket error or timeout
    body: bytes | None = None  #: kept only for requests chosen for checking


@dataclass(slots=True)
class Phase:
    """Everything one timed window produced."""

    samples: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(sample.status != 200 for sample in self.samples)


def encode(method: str, path: str, request_id: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: bench\r\n"
        f"X-Request-Id: {request_id}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


@dataclass(frozen=True, slots=True)
class Catalogue:
    """What valid requests may name, as the daemon's ``/v1/scenario`` reports it."""

    deployments: tuple  #: every deployment name
    whatif_letters: tuple  #: (name, sites) for letters where any one withdraw is valid
    regions: int
    pairs: np.ndarray  #: (n, 2) int64 [asn, region] rows of the user base

    @classmethod
    def from_scenario_payload(cls, payload: dict, pairs) -> "Catalogue":
        deployments = payload["deployments"]
        # A withdraw must leave a global site up: with two or more global
        # sites every single-site withdraw does (H-root has one site, and
        # withdrawing it answers 400).
        letters = tuple(
            (name, info["sites"])
            for name, info in sorted(deployments.items())
            if info["whatif"] and info["global_sites"] >= 2
        )
        return cls(
            deployments=tuple(sorted(deployments)),
            whatif_letters=letters,
            regions=payload["regions"],
            pairs=np.asarray(pairs, dtype=np.int64),
        )


#: Request mixes: kind -> share.
MIXES = {
    "resolve": {"resolve": 1.0},
    "mixed": {"resolve": 0.85, "catchment": 0.05, "inflation": 0.05, "whatif": 0.05},
}


def make_request(rng: np.random.Generator, catalogue: Catalogue, kind: str,
                 request_id: str) -> Request:
    if kind == "resolve":
        deployment = catalogue.deployments[rng.integers(len(catalogue.deployments))]
        rows = catalogue.pairs[rng.integers(len(catalogue.pairs), size=RESOLVE_PAIRS)]
        body = json.dumps({"deployment": deployment, "pairs": rows.tolist()})
        return Request(kind, request_id,
                       encode("POST", "/v1/resolve", request_id, body.encode()))
    if kind in ("catchment", "inflation"):
        deployment = catalogue.deployments[rng.integers(len(catalogue.deployments))]
        return Request(kind, request_id,
                       encode("GET", f"/v1/{kind}/{deployment}", request_id))
    if kind == "whatif":
        name, sites = catalogue.whatif_letters[rng.integers(len(catalogue.whatif_letters))]
        if rng.random() < 0.5:
            change = {"remove_sites": [int(rng.integers(sites))]}
        else:
            change = {"add_regions": [int(rng.integers(catalogue.regions))]}
        body = json.dumps({"deployment": name, **change})
        return Request(kind, request_id,
                       encode("POST", "/v1/whatif", request_id, body.encode()))
    raise ValueError(f"unknown request kind {kind!r}")


def make_requests(rng: np.random.Generator, catalogue: Catalogue, mix: str,
                  count: int, prefix: str) -> list[Request]:
    """``count`` requests in the mix's exact shares, in a seeded random order.

    Exact shares keep e.g. the number of what-ifs in a window the same
    for every seed, so it adds no run-to-run noise.
    """
    shares = MIXES[mix]
    kinds = [kind for kind, share in shares.items() for _ in range(round(share * count))]
    kinds = (kinds + [next(iter(shares))] * count)[:count]
    order = rng.permutation(count)
    return [
        make_request(rng, catalogue, kinds[pick], f"{prefix}-{i}")
        for i, pick in enumerate(order)
    ]


def poisson_arrivals(rng: np.random.Generator, rate: float, duration_s: float) -> np.ndarray:
    """Due times (seconds from start) of Poisson arrivals over ``duration_s``.

    The count is fixed at ``rate * duration_s``: given its count, a
    Poisson process places arrivals uniformly, so only their pattern
    varies with the seed, not the load.
    """
    return np.sort(rng.uniform(0.0, duration_s, size=round(rate * duration_s)))


# -- the client -----------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection speaking prepared requests."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.reader = self.writer = None

    async def exchange(self, wire: bytes) -> tuple[int, bytes]:
        """Send one request and read its response; reconnects after a failure."""
        try:
            return await asyncio.wait_for(self._exchange(wire), REQUEST_TIMEOUT_S)
        except (asyncio.TimeoutError, ConnectionError, OSError,
                asyncio.IncompleteReadError, ValueError):
            await self.close()
            await self.open()
            return 0, b""

    async def _exchange(self, wire: bytes) -> tuple[int, bytes]:
        self.writer.write(wire)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("daemon closed the connection")
        status = int(status_line.split(None, 2)[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        body = await self.reader.readexactly(length) if length else b""
        return status, body


async def _connect(host: str, port: int, count: int) -> list[Connection]:
    connections = [Connection(host, port) for _ in range(count)]
    for connection in connections:
        await connection.open()
    return connections


async def closed_loop(host: str, port: int, requests: list[Request], duration_s: float,
                      connections: int) -> Phase:
    """Each connection sends back-to-back (cycling ``requests``) for ``duration_s``."""
    pool = await _connect(host, port, connections)
    phase = Phase()
    loop = asyncio.get_running_loop()
    cursor = iter(range(1 << 62))
    start = loop.time()
    stop_at = start + duration_s

    async def drive(connection: Connection) -> None:
        while loop.time() < stop_at:
            index = next(cursor)
            request = requests[index % len(requests)]
            sent = loop.time()
            status, _ = await connection.exchange(request.wire)
            done = loop.time()
            phase.samples.append(Sample(index, request.kind, request.request_id,
                                        sent - start, sent - start, done - start, status))

    try:
        await asyncio.gather(*(drive(connection) for connection in pool))
    finally:
        for connection in pool:
            await connection.close()
    phase.elapsed_s = loop.time() - start
    return phase


async def open_loop(host: str, port: int, requests: list[Request], due: np.ndarray,
                    connections: int, keep: frozenset = frozenset()) -> Phase:
    """Send ``requests[i]`` at ``due[i]`` on the next idle connection.

    Bodies of the requests whose index is in ``keep`` are retained for
    the correctness check after the window.
    """
    pool = await _connect(host, port, connections)
    idle: asyncio.Queue = asyncio.Queue()
    for connection in pool:
        idle.put_nowait(connection)
    phase = Phase()
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def send(index: int, connection: Connection) -> None:
        request = requests[index]
        sent = loop.time() - start
        status, body = await connection.exchange(request.wire)
        done = loop.time() - start
        idle.put_nowait(connection)
        phase.samples.append(Sample(index, request.kind, request.request_id,
                                    float(due[index]), sent, done, status,
                                    body if index in keep else None))

    tasks = []
    try:
        for index, when in enumerate(due):
            delay = start + when - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            connection = await idle.get()
            tasks.append(asyncio.ensure_future(send(index, connection)))
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        for connection in pool:
            await connection.close()
    phase.elapsed_s = loop.time() - start
    phase.samples.sort(key=lambda sample: sample.index)
    return phase


def latencies_ms(phase: Phase, kinds=("resolve",)) -> list[float]:
    """Due-to-done milliseconds of the successful requests of ``kinds``."""
    return [
        (sample.done - sample.due) * 1000.0
        for sample in phase.samples
        if sample.kind in kinds and sample.status == 200
    ]


def lags_ms(phase: Phase) -> list[float]:
    return [(sample.sent - sample.due) * 1000.0 for sample in phase.samples]
