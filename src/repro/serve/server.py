"""The HTTP layer of the tuner service daemon (stdlib ``http.server``).

A :class:`TunerServer` binds one :class:`~repro.serve.app.TunerService` to a
``ThreadingHTTPServer``, so any number of concurrent clients can drive one
shared scheduler.  The API is JSON over plain HTTP:

=======  ==============================  =========================================
Method   Path                            Meaning
=======  ==============================  =========================================
GET      ``/health``                     liveness probe (status + uptime)
GET      ``/health/deep``                per-component health verdicts (503
                                         while any component is critical)
GET      ``/alerts``                     durable alert history
                                         (``?campaign_id=`` narrows to one)
GET      ``/stats``                      server/scheduler/cache statistics
GET      ``/campaigns``                  progress summary of every campaign
POST     ``/campaigns``                  submit a ``CampaignSpec`` JSON body
GET      ``/campaigns/<id>``             record + replayed progress of one campaign
GET      ``/campaigns/<id>/result``      final ``TuningResult`` (409 until done)
GET      ``/campaigns/<id>/log``         replayed event log as a JSON array
GET      ``/campaigns/<id>/events``      Server-Sent-Events live tail (cursor:
                                         ``Last-Event-ID`` header or ``?after=N``)
GET      ``/campaigns/<id>/report``      per-campaign analytics report
                                         (``?kind=summary|slices|fulfillment|cache``)
GET      ``/campaigns/<id>/spans``       per-campaign telemetry span summary
GET      ``/reports/summary``            fleet-wide ``repro.report/1`` payload
                                         (``?kind=`` selects any report kind)
GET      ``/metrics``                    merged metrics-registry snapshot
                                         (``?format=prometheus`` for text
                                         exposition)
POST     ``/campaigns/<id>/pause``       checkpoint + pause
POST     ``/campaigns/<id>/resume``      re-activate a paused/stored campaign
POST     ``/resume``                     re-activate every unfinished campaign
=======  ==============================  =========================================

Report payloads are built by :meth:`TunerService.report
<repro.serve.app.TunerService.report>` — the same builder behind ``cli
report --json`` — so the two surfaces emit equal JSON for the same store.

Library errors map onto statuses clients can act on: unknown campaign ids
are 404, invalid specs 400, "not completed yet" and other lifecycle
conflicts 409.  Every handler thread only touches the thread-safe service
facade, never campaign internals.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.serve.app import TunerService
from repro.serve.stream import stream_campaign_events
from repro.telemetry import get_tracer, render_prometheus
from repro.utils.exceptions import (
    CampaignError,
    ConfigurationError,
    ReproError,
    ServeError,
)

_ID = r"(?P<campaign_id>[A-Za-z0-9._-]+)"

#: ``(method, compiled path regex, handler attribute name)`` routing table.
_ROUTES: tuple[tuple[str, re.Pattern, str], ...] = (
    ("GET", re.compile(r"^/health/deep/?$"), "handle_health_deep"),
    ("GET", re.compile(r"^/health/?$"), "handle_health"),
    ("GET", re.compile(r"^/alerts/?$"), "handle_alerts"),
    ("GET", re.compile(r"^/stats/?$"), "handle_stats"),
    ("GET", re.compile(r"^/campaigns/?$"), "handle_list"),
    ("POST", re.compile(r"^/campaigns/?$"), "handle_submit"),
    ("POST", re.compile(r"^/resume/?$"), "handle_resume_all"),
    ("GET", re.compile(rf"^/campaigns/{_ID}/?$"), "handle_show"),
    ("GET", re.compile(rf"^/campaigns/{_ID}/result/?$"), "handle_result"),
    ("GET", re.compile(rf"^/campaigns/{_ID}/log/?$"), "handle_log"),
    ("GET", re.compile(rf"^/campaigns/{_ID}/events/?$"), "handle_events"),
    ("GET", re.compile(rf"^/campaigns/{_ID}/report/?$"), "handle_report"),
    ("GET", re.compile(rf"^/campaigns/{_ID}/spans/?$"), "handle_spans"),
    ("GET", re.compile(r"^/reports/summary/?$"), "handle_reports_summary"),
    ("GET", re.compile(r"^/metrics/?$"), "handle_metrics"),
    ("POST", re.compile(rf"^/campaigns/{_ID}/pause/?$"), "handle_pause"),
    ("POST", re.compile(rf"^/campaigns/{_ID}/resume/?$"), "handle_resume"),
)


def _status_for(error: Exception) -> int:
    """Map a library error onto the HTTP status the client should see."""
    if isinstance(error, CampaignError):
        return 404 if "unknown campaign" in str(error) else 409
    if isinstance(error, (ConfigurationError, ServeError)):
        return 400
    if isinstance(error, ReproError):
        return 400
    return 500


class _Handler(BaseHTTPRequestHandler):
    """One request; dispatches through the routing table above."""

    protocol_version = "HTTP/1.1"
    server: "TunerServer"  # type: ignore[assignment]

    # -- plumbing ----------------------------------------------------------------
    @property
    def app(self) -> TunerService:
        return self.server.app

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Route per-request logging through the server's optional logger."""
        if self.server.log is not None:
            self.server.log(f"{self.address_string()} {format % args}")

    @staticmethod
    def _cursor(value: str, source: str) -> int:
        """Parse an SSE cursor; a malformed one is the client's fault (400)."""
        try:
            return int(value)
        except ValueError:
            raise ServeError(
                f"{source} must be an integer event sequence, got {value!r}"
            ) from None

    def _read_json_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length", "0") or "0")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServeError(f"request body is not valid JSON: {error}") from None
        if not isinstance(body, dict):
            raise ServeError("request body must be a JSON object")
        return body

    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, status: int = 200) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        self.app.metrics.counter("serve.requests").inc()
        path = self.path.split("?", 1)[0]
        for route_method, pattern, attr in _ROUTES:
            if route_method != method:
                continue
            match = pattern.match(path)
            if match is None:
                continue
            handler: Callable[..., None] = getattr(self, attr)
            with get_tracer().span(
                "http.request",
                attributes={"method": method, "route": attr},
            ) as span:
                try:
                    handler(**match.groupdict())
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client went away mid-response; nothing to send
                except Exception as error:  # noqa: BLE001 - mapped to a status
                    self.app.metrics.counter("serve.errors").inc()
                    status = _status_for(error)
                    span.set_attribute("status_code", status)
                    self._send_json({"error": str(error)}, status=status)
            return
        self._send_json(
            {"error": f"no route for {method} {path}"}, status=404
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("POST")

    # -- endpoints ---------------------------------------------------------------
    def handle_health(self) -> None:
        self._send_json(
            {
                "status": "draining" if self.app.closing else "ok",
                "uptime_seconds": self.app.uptime_seconds(),
            }
        )

    def handle_health_deep(self) -> None:
        verdict = self.app.health_deep()
        # 503 while critical: load balancers and submitters can use this
        # route as an admission-control gate, not just a status page.
        status = 503 if verdict["status"] == "critical" else 200
        self._send_json(verdict, status=status)

    def handle_alerts(self) -> None:
        self._send_json(self.app.alerts(self._query_param("campaign_id")))

    def handle_stats(self) -> None:
        self._send_json(self.app.server_stats())

    def handle_list(self) -> None:
        self._send_json({"campaigns": self.app.list_campaigns()})

    def handle_submit(self) -> None:
        self._send_json(self.app.submit(self._read_json_body()), status=201)

    def handle_resume_all(self) -> None:
        self._send_json({"resumed": self.app.resume_all()})

    def handle_show(self, campaign_id: str) -> None:
        self._send_json(self.app.show(campaign_id))

    def handle_result(self, campaign_id: str) -> None:
        self._send_json(
            {"campaign_id": campaign_id, "result": self.app.result(campaign_id)}
        )

    def handle_log(self, campaign_id: str) -> None:
        self._send_json(
            {"campaign_id": campaign_id, "events": self.app.log(campaign_id)}
        )

    def _query_param(self, key: str) -> str | None:
        query = self.path.partition("?")[2]
        for pair in query.split("&"):
            name, _, value = pair.partition("=")
            if name == key and value:
                return value
        return None

    def handle_report(self, campaign_id: str) -> None:
        kind = self._query_param("kind") or "summary"
        self._send_json(self.app.report(kind, campaign_id))

    def handle_reports_summary(self) -> None:
        kind = self._query_param("kind") or "summary"
        self._send_json(self.app.report(kind))

    def handle_spans(self, campaign_id: str) -> None:
        self._send_json(self.app.span_summary(campaign_id))

    def handle_metrics(self) -> None:
        fmt = self._query_param("format")
        if fmt == "prometheus":
            self._send_text(render_prometheus(self.app.metrics_snapshot()))
            return
        if fmt is not None and fmt != "json":
            raise ServeError(
                f"unknown metrics format {fmt!r}; use json or prometheus"
            )
        self._send_json(self.app.metrics_snapshot())

    def handle_pause(self, campaign_id: str) -> None:
        self._send_json(self.app.pause(campaign_id))

    def handle_resume(self, campaign_id: str) -> None:
        self._send_json(self.app.resume(campaign_id))

    def handle_events(self, campaign_id: str) -> None:
        after = 0
        query = self.path.partition("?")[2]
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key == "after" and value:
                after = self._cursor(value, "after")
        header_cursor = self.headers.get("Last-Event-ID")
        if header_cursor:
            after = max(after, self._cursor(header_cursor, "Last-Event-ID"))
        # Validate before committing to the SSE content type, so unknown
        # campaigns still get a clean JSON 404 (the generator body does not
        # run until the first frame is pulled).
        self.app.store.get_campaign(campaign_id)
        frames = stream_campaign_events(self.app, campaign_id, after=after)
        self.app.metrics.counter("serve.sse_connections").inc()
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # SSE bodies have no predictable length; close delimits the stream.
        self.send_header("Connection", "close")
        self.end_headers()
        for frame in frames:
            self.wfile.write(frame.encode("utf-8"))
            self.wfile.flush()
            if not frame.startswith(":"):
                self.app.metrics.counter("serve.events_streamed").inc()
        self.close_connection = True


class TunerServer:
    """``ThreadingHTTPServer`` wrapper around one :class:`TunerService`.

    Parameters
    ----------
    app:
        The service core (its scheduler pump is *not* started here; call
        ``app.start()`` — or use :func:`serve_until` from the CLI).
    host / port:
        Bind address; port 0 picks a free port (see :attr:`port`).
    log:
        Optional ``callable(str)`` receiving one line per request; None
        (the default) disables request logging.
    """

    def __init__(
        self,
        app: TunerService,
        host: str = "127.0.0.1",
        port: int = 0,
        log: Callable[[str], None] | None = None,
    ) -> None:
        self.app = app
        self.log = log
        self._httpd = ThreadingHTTPServer((host, int(port)), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.app = app  # type: ignore[attr-defined]
        self._httpd.log = log  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        """Base URL clients should use."""
        return f"http://{self.host}:{self.port}"

    def start_background(self) -> "TunerServer":
        """Serve on a daemon thread; returns self."""
        if self._thread is not None and self._thread.is_alive():
            raise ServeError("the server is already running")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="tuner-http-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._httpd.serve_forever(poll_interval=0.1)

    def shutdown(self) -> None:
        """Stop accepting requests and join the background thread (if any)."""
        self._httpd.shutdown()
        if self._thread is not None and self._thread.is_alive():
            self._thread.join()
        self._thread = None
        self._httpd.server_close()
