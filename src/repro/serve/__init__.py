"""The tuner service daemon: a multi-client HTTP layer over campaigns.

The serve subsystem turns the library into a long-running, multi-tenant
service.  It is stdlib-only (``http.server`` + ``urllib``) and adds four
pieces on top of the campaign subsystem:

* :mod:`repro.serve.app` — :class:`TunerService`, one shared
  :class:`~repro.campaigns.scheduler.CampaignScheduler` (background pump) +
  :class:`~repro.campaigns.store.CampaignStore` behind a thread-safe
  facade, with request/stream statistics and a graceful drain that
  checkpoints every running campaign;
* :mod:`repro.serve.server` — :class:`TunerServer`, a
  ``ThreadingHTTPServer`` JSON API (submit/list/show/pause/resume/result)
  plus the Server-Sent-Events endpoint;
* :mod:`repro.serve.stream` — SSE framing and the replay-then-tail event
  generator (resume from any ``Last-Event-ID`` cursor, exactly like
  :func:`~repro.campaigns.store.replay_events`);
* :mod:`repro.serve.client` — :class:`TunerClient`, the ``urllib``-based
  client the CLI ``remote`` commands and the tests drive the daemon with.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "TunerClient": ".client",
    "TunerServer": ".server",
    "TunerService": ".app",
    "format_sse_event": ".stream",
    "parse_sse_stream": ".stream",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
