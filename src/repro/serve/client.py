"""``urllib``-based client for the tuner service daemon.

:class:`TunerClient` mirrors the HTTP API one method per endpoint and is
what the CLI ``remote`` commands, the CI serve-smoke job, and the tests
drive the daemon with.  Highlights:

* **Error mapping** — HTTP error responses (and unreachable daemons or
  malformed URLs) raise :class:`~repro.utils.exceptions.ServeError` carrying
  the server's message and status code, so the CLI's ``ReproError -> exit 2``
  convention covers remote failures too.  Ids and query values are
  percent-encoded, so no id can break a request line.
* **Cursor-aware tailing** — :meth:`TunerClient.tail` parses the SSE stream
  into plain dicts and tracks :attr:`last_event_id`; after a disconnect,
  calling ``tail`` again resumes from the cursor (``Last-Event-ID``), and
  the concatenated frames equal one uninterrupted replay of the log.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from typing import Any, Iterator, Mapping
from urllib.parse import quote

from repro.campaigns import COMPLETED, FAILED
from repro.utils.exceptions import ServeError


class TunerClient:
    """Client for one tuner service daemon.

    Parameters
    ----------
    base_url:
        E.g. ``http://127.0.0.1:8731`` (a trailing slash is fine).
    timeout:
        Socket timeout in seconds for every request.  Streaming reads are
        also bounded by it; the server's idle heartbeats (every ~2s) keep
        healthy streams well under any sane value.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        #: Sequence number of the last persisted event seen by :meth:`tail`.
        self.last_event_id = 0

    # -- plumbing ----------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
        headers: Mapping[str, str] | None = None,
        stream: bool = False,
    ):
        data = None
        request_headers = {"Accept": "application/json", **(headers or {})}
        if body is not None:
            data = json.dumps(dict(body)).encode("utf-8")
            request_headers["Content-Type"] = "application/json"
        try:
            request = urllib.request.Request(
                self.base_url + path, data=data, headers=request_headers, method=method
            )
            response = urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as error:
            detail = ""
            parsed = None
            try:
                parsed = json.loads(error.read().decode("utf-8"))
                if isinstance(parsed, dict):
                    detail = parsed.get("error", "")
            except Exception:  # noqa: BLE001 - best-effort message extraction
                pass
            served = ServeError(
                f"{method} {path} failed with HTTP {error.code}"
                + (f": {detail}" if detail else "")
            )
            served.status = error.code  # type: ignore[attr-defined]
            served.body = parsed  # type: ignore[attr-defined]
            raise served from None
        except (OSError, ValueError, http.client.InvalidURL) as error:
            # OSError covers URLError and timeouts; a malformed URL raises the others.
            raise ServeError(
                f"cannot reach the tuner service at {self.base_url}: {error}"
            ) from None
        if stream:
            return response
        with response:
            return json.loads(response.read().decode("utf-8"))

    # -- health and stats --------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """``GET /health``."""
        return self._request("GET", "/health")

    def wait_ready(self, timeout: float = 10.0, poll: float = 0.1) -> dict[str, Any]:
        """Poll ``/health`` until the daemon answers (or raise ServeError)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except ServeError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll)

    def health_deep(self) -> dict[str, Any]:
        """``GET /health/deep``: per-component verdicts.

        A critical daemon answers 503 *with* the verdict document; that is
        a health report, not a failure, so the body is returned rather
        than raised.
        """
        try:
            return self._request("GET", "/health/deep")
        except ServeError as error:
            if getattr(error, "status", None) != 503:
                raise
            body = getattr(error, "body", None)
            if isinstance(body, dict) and "components" in body:
                return body
            raise

    def alerts(self, campaign_id: str | None = None) -> dict[str, Any]:
        """``GET /alerts``: the durable, replayed alert history."""
        path = "/alerts"
        if campaign_id is not None:
            path += f"?campaign_id={quote(campaign_id, safe='')}"
        return self._request("GET", path)

    def stats(self) -> dict[str, Any]:
        """``GET /stats``."""
        return self._request("GET", "/stats")

    def metrics(self, format: str | None = None) -> Any:
        """``GET /metrics``: snapshot dict, or exposition text when
        ``format="prometheus"``."""
        if format == "prometheus":
            response = self._request(
                "GET", "/metrics?format=prometheus", stream=True
            )
            with response:
                return response.read().decode("utf-8")
        return self._request("GET", "/metrics")

    # -- campaign control --------------------------------------------------------
    def submit(self, spec: Mapping[str, Any]) -> dict[str, Any]:
        """``POST /campaigns`` with a ``CampaignSpec`` JSON dict."""
        return self._request("POST", "/campaigns", body=spec)

    def pause(self, campaign_id: str) -> dict[str, Any]:
        """``POST /campaigns/<id>/pause``."""
        return self._request("POST", f"/campaigns/{quote(campaign_id, safe='')}/pause", body={})

    def resume(self, campaign_id: str) -> dict[str, Any]:
        """``POST /campaigns/<id>/resume``."""
        return self._request("POST", f"/campaigns/{quote(campaign_id, safe='')}/resume", body={})

    def resume_all(self) -> list[str]:
        """``POST /resume``: re-activate every unfinished stored campaign."""
        return list(self._request("POST", "/resume", body={})["resumed"])

    # -- read side ---------------------------------------------------------------
    def list_campaigns(self) -> list[dict[str, Any]]:
        """``GET /campaigns``."""
        return list(self._request("GET", "/campaigns")["campaigns"])

    def show(self, campaign_id: str) -> dict[str, Any]:
        """``GET /campaigns/<id>``."""
        return self._request("GET", f"/campaigns/{quote(campaign_id, safe='')}")

    def result(self, campaign_id: str) -> dict[str, Any]:
        """``GET /campaigns/<id>/result`` (ServeError with 409 until done)."""
        return self._request("GET", f"/campaigns/{quote(campaign_id, safe='')}/result")["result"]

    def log(self, campaign_id: str) -> list[dict[str, Any]]:
        """``GET /campaigns/<id>/log``: the replayed event log."""
        return list(self._request("GET", f"/campaigns/{quote(campaign_id, safe='')}/log")["events"])

    def report(
        self, kind: str = "summary", campaign_id: str | None = None
    ) -> dict[str, Any]:
        """``GET /reports/summary`` or ``GET /campaigns/<id>/report``.

        Returns the schema-tagged ``repro.report/1`` payload — identical to
        what ``cli report <kind> --json`` prints against the same store.
        """
        query = f"?kind={quote(kind, safe='')}"
        if campaign_id is None:
            return self._request("GET", f"/reports/summary{query}")
        return self._request("GET", f"/campaigns/{quote(campaign_id, safe='')}/report{query}")

    def wait(
        self, campaign_id: str, timeout: float = 300.0, poll: float = 0.2
    ) -> dict[str, Any]:
        """Poll :meth:`show` until the campaign completes (or fails/times out)."""
        deadline = time.monotonic() + timeout
        while True:
            summary = self.show(campaign_id)
            if summary["status"] in (COMPLETED, FAILED):
                return summary
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"campaign {campaign_id!r} did not finish within "
                    f"{timeout:.0f}s (status: {summary['status']})"
                )
            time.sleep(poll)

    # -- live tailing ------------------------------------------------------------
    def tail(
        self,
        campaign_id: str,
        after: int | None = None,
        reconnect: int = 0,
    ) -> Iterator[dict[str, Any]]:
        """Stream one campaign's events; yields ``{"event", "id", "data"}``.

        ``after`` is the resume cursor (defaults to :attr:`last_event_id`,
        so ``tail`` after a disconnect continues where the previous call
        stopped).  The stream ends after the server's ``end`` frame; with
        ``reconnect > 0``, dropped connections are retried that many times
        from the cursor instead of raising.
        """
        from repro.serve.stream import END_EVENT, parse_sse_stream

        cursor = self.last_event_id if after is None else int(after)
        self.last_event_id = cursor
        attempts_left = int(reconnect)
        while True:
            try:
                response = self._request(
                    "GET",
                    f"/campaigns/{quote(campaign_id, safe='')}/events",
                    headers={"Last-Event-ID": str(self.last_event_id)},
                    stream=True,
                )
                with response:
                    for frame in parse_sse_stream(response):
                        if frame["id"] is not None:
                            self.last_event_id = max(
                                self.last_event_id, int(frame["id"])
                            )
                        yield frame
                        if frame["event"] == END_EVENT:
                            return
                # The server closed without an end frame (e.g. hard stop).
                raise ServeError(
                    f"event stream for {campaign_id!r} ended without an "
                    f"end frame"
                )
            except (OSError, ServeError) as error:
                # Only dropped connections are worth retrying; an HTTP error
                # response (404/409/...) is the server's definitive answer.
                if getattr(error, "status", None) is not None:
                    raise
                if attempts_left <= 0:
                    raise
                attempts_left -= 1
                time.sleep(0.2)
