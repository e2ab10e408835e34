"""The live exposition plane: ``/metrics``, ``/health``, ``/slo``.

A deliberately tiny HTTP/1.0-style server on ``asyncio.start_server``
— stdlib only, loopback by default, one request per connection — that
turns the service's pull-only dicts into endpoints a Prometheus
scraper, ``repro top``, or ``curl`` can hit while the service runs:

- ``GET /metrics`` — the Prometheus text exposition format (0.0.4):
  counters, gauges, timing count/sum pairs, plus labelled per-tenant
  SLO samples (`repro_slo_burn_rate{tenant="...",slo="latency"}`).
- ``GET /health`` — :meth:`PlacementService.health` as JSON.
- ``GET /slo`` — :meth:`SLOEngine.snapshot` as JSON.

The providers are plain callables so the server stays decoupled from
the service (and trivially testable).  The async scrape helper exists
because the obvious ``urllib`` call would *block the event loop the
server runs on* — in-process scrapes (:func:`repro.serve.serve_trace`) must
go through :func:`fetch`; a separate-process poller (``repro top``)
can use whatever it likes.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import Callable

#: Content type mandated by the Prometheus text format, version 0.0.4.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(name: str) -> str:
    """A dotted repro name as a Prometheus metric name."""
    return "repro_" + _INVALID_CHARS.sub("_", name)


def _render_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{str(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_prometheus(
    snapshot: dict, samples: list[tuple[str, dict, float]] | None = None
) -> str:
    """A metrics snapshot (+ extra labelled samples) as exposition text.

    ``snapshot`` is :meth:`MetricsRegistry.snapshot` shaped; ``samples``
    are ``(dotted_name, labels, value)`` triples for series the flat
    registry cannot express (per-tenant SLO gauges).
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = prometheus_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {snapshot['counters'][name]:g}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {snapshot['gauges'][name]:g}")
    for name in sorted(snapshot.get("timings", {})):
        entry = snapshot["timings"][name]
        metric = prometheus_name(name) + "_seconds"
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_count {entry['count']:g}")
        lines.append(f"{metric}_sum {entry['total']:g}")
    grouped: dict[str, list[tuple[dict, float]]] = {}
    for name, labels, value in samples or ():
        grouped.setdefault(prometheus_name(name), []).append((labels, value))
    for metric in sorted(grouped):
        lines.append(f"# TYPE {metric} gauge")
        for labels, value in sorted(
            grouped[metric], key=lambda pair: _render_labels(pair[0])
        ):
            lines.append(f"{metric}{_render_labels(labels)} {value:g}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, float]:
    """Exposition text -> ``{series: value}`` (labels kept verbatim).

    The inverse good enough for tests and bench scraping: comment lines
    are dropped, each remaining line splits on the last space.
    """
    series: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.rpartition(" ")
        try:
            series[key] = float(raw)
        except ValueError:
            continue
    return series


class ExpositionServer:
    """Serve ``/metrics`` + ``/health`` + ``/slo`` from three callables."""

    def __init__(
        self,
        *,
        metrics: Callable[[], str],
        health: Callable[[], dict],
        slo: Callable[[], dict],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._metrics = metrics
        self._health = health
        self._slo = slo
        self.host = host
        self.port = port  # 0 -> ephemeral; replaced by the bound port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> int:
        """Bind and listen; returns the actual port."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def close_nowait(self) -> None:
        """Synchronous close for crash paths (``PlacementService.kill``)."""
        if self._server is not None:
            self._server.close()
            self._server = None

    def _respond(self, path: str) -> tuple[int, str, str]:
        if path == "/metrics":
            return 200, PROMETHEUS_CONTENT_TYPE, self._metrics()
        if path == "/health":
            body = json.dumps(self._health(), sort_keys=True) + "\n"
            return 200, "application/json", body
        if path == "/slo":
            body = json.dumps(self._slo(), sort_keys=True) + "\n"
            return 200, "application/json", body
        return 404, "text/plain", f"unknown path {path}\n"

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await reader.readline()
            parts = request.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else "/"
            # Drain (bounded) headers so well-behaved clients are happy.
            for _ in range(64):
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            try:
                status, ctype, body = self._respond(path)
            except Exception as exc:  # provider blew up: surface as 500
                status, ctype, body = 500, "text/plain", f"{exc!r}\n"
            payload = body.encode("utf-8")
            reason = {200: "OK", 404: "Not Found", 500: "Error"}.get(
                status, "?"
            )
            writer.write(
                (
                    f"HTTP/1.1 {status} {reason}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + payload
            )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to clean up
        finally:
            writer.close()


async def fetch(host: str, port: int, path: str) -> str:
    """Async in-loop HTTP GET: the body of ``http://host:port{path}``.

    The only safe way to scrape an :class:`ExpositionServer` from the
    event loop it runs on — a blocking ``urllib`` call would deadlock.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (
                f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
    parts = status_line.split()
    if len(parts) < 2 or parts[1] != "200":
        raise ConnectionError(f"scrape of {path} failed: {status_line!r}")
    return body.decode("utf-8", "replace")


# ----------------------------------------------------------------------
# `repro top` rendering (pure function; the CLI owns the polling loop)
# ----------------------------------------------------------------------
def render_top(health: dict, slo: dict) -> str:
    """One terminal frame of the live service view."""
    latency = health.get("decision_latency", {})
    lines = [
        "repro top — placement service",
        (
            f"tenants={health.get('resident_tenants', 0)} "
            f"queue={health.get('queue_depth', 0)} "
            f"stopped={health.get('stopped', False)} "
            f"journal_corruptions={len(health.get('journal_corruptions') or ())}"
        ),
        (
            f"decisions={latency.get('count', 0)} "
            f"p50={latency.get('p50', 0.0):.4f}s "
            f"p99={latency.get('p99', 0.0):.4f}s "
            f"dropped={latency.get('samples_dropped', 0)}"
        ),
        "",
        f"{'tenant':<12} {'burn':>7} {'latency':>9} {'admission':>9} "
        f"{'budget':>7} alert",
    ]
    for tenant in sorted(slo):
        entry = slo[tenant]
        lines.append(
            f"{tenant:<12} {entry.get('burn', 0.0):>7.2f} "
            f"{entry['latency']['attainment']:>9.4f} "
            f"{entry['admission']['attainment']:>9.4f} "
            f"{entry['latency']['budget_remaining']:>7.2f} "
            f"{entry.get('alert', '') or '-'}"
        )
    if not slo:
        lines.append("(no tenants yet)")
    counters = health.get("counters", {})
    if counters:
        shown = ", ".join(
            f"{name}={int(counters[name])}" for name in sorted(counters)
        )
        lines.append("")
        lines.append(f"counters: {shown}")
    return "\n".join(lines)
