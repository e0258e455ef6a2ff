"""The HTTP/JSON front end: stdlib ``http.server`` over a JobService.

Transport only — every route is a thin translation between HTTP and
the :mod:`repro.sweep.jobs` API, so the CLI and the server can never
disagree about behaviour.  Spec validation errors surface as HTTP 400
with the :meth:`repro.sweep.spec.SpecError.to_dict` body — the same
``{path, field, reason}`` structure the CLI renders as text — and
admission-control rejections as HTTP 429 with the
:meth:`repro.sweep.jobs.QuotaError.to_dict` body.  A request body is
bounded before it is read: a ``Content-Length`` that is not a
non-negative integer gets a 400 and one over :data:`MAX_BODY_BYTES` a
413, both ``{"error": {"reason", "field"}}``.  Any other exception
in a handler is logged with its traceback and answered with HTTP 500
``{"error": {"reason", "trace_id"}}`` (the trace id is in the log
line), unless the response had already started; then the connection
is closed, as it is, quietly, when the client went away.

The server is a ``ThreadingHTTPServer``: request threads only enqueue
jobs and read status snapshots; all simulation happens in the
service's dispatcher/worker processes.
"""

from __future__ import annotations

import json
import logging
import math
import re
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.sweep.jobs import JobService, QuotaError
from repro.sweep.registry import registry_payload
from repro.sweep.spec import SpecError

#: Longest a ``?wait=`` report request may block, seconds.
MAX_WAIT_S = 300.0

#: Longest an ``/events`` stream waits between events, seconds.
EVENTS_TIMEOUT_S = 300.0

#: Largest request body accepted, bytes.  A longer declared
#: ``Content-Length`` is answered 413 before any of the body is read.
MAX_BODY_BYTES = 1 << 20

log = logging.getLogger(__name__)

_CAMPAIGN_ROUTE = re.compile(
    r"^/campaigns/(?P<job_id>[\w.\-]+)"
    r"(?P<rest>/report|/cancel|/trace|/events)?$"
)


class _BodyRefused(Exception):
    """A request body refused on its declared length alone."""

    def __init__(self, status: int, reason: str):
        super().__init__(reason)
        self.status = status


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's JobService."""

    server_version = "repro-serve/1.0"
    #: Set by :func:`make_server` on the handler subclass.
    service: JobService = None
    quiet: bool = True

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, reason: str, **extra: Any) -> None:
        self._send_json(status, {"error": {"reason": reason, **extra}})

    def _read_body(self) -> Any:
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            raise _BodyRefused(
                400,
                f"invalid Content-Length {declared!r}: expected a "
                "non-negative integer",
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _BodyRefused(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        return json.loads(raw)

    def _split_query(self) -> tuple[str, dict[str, str]]:
        path, _, query = self.path.partition("?")
        params: dict[str, str] = {}
        for part in query.split("&"):
            if part:
                key, _, value = part.partition("=")
                params[key] = value
        return path, params

    def send_response(self, code: int, message: str | None = None) -> None:
        self._response_started = True
        super().send_response(code, message)

    def _guarded(self, route) -> None:
        """Run *route*; turn an unexpected exception into a logged 500.

        A client that went away is not an error.  A failure after the
        status line went out cannot be answered any more: it is logged
        and the connection closed.
        """
        self._response_started = False
        try:
            route()
        except ConnectionError:  # client went away
            self.close_connection = True
        except Exception:
            trace_id = uuid.uuid4().hex[:16]
            log.exception(
                "unhandled error in %s %s (trace_id=%s)",
                self.command, self.path, trace_id,
            )
            if self._response_started:
                self.close_connection = True
                return
            try:
                self._error(500, "internal server error", trace_id=trace_id)
            except ConnectionError:
                self.close_connection = True

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:
        self._guarded(self._get)

    def do_POST(self) -> None:
        self._guarded(self._post)

    def _get(self) -> None:
        path, params = self._split_query()
        if path == "/healthz":
            stats = self.service.stats()
            stats["status"] = "ok"
            return self._send_json(200, stats)
        if path == "/metrics":
            body = self.service.render_metrics().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", MetricsRegistry.CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return None
        if path == "/families":
            return self._send_json(200, registry_payload())
        if path == "/campaigns":
            return self._send_json(
                200, {"campaigns": self.service.list_jobs()}
            )
        match = _CAMPAIGN_ROUTE.match(path)
        if match and match.group("rest") in (
            None, "/report", "/trace", "/events",
        ):
            job_id = match.group("job_id")
            try:
                status = self.service.status(job_id)
            except KeyError:
                return self._error(404, f"unknown job id {job_id!r}")
            rest = match.group("rest")
            if rest is None:
                return self._send_json(200, status)
            if rest == "/report":
                return self._report(job_id, status, params)
            if rest == "/trace":
                return self._trace(job_id)
            return self._events(job_id)
        return self._error(404, f"no such route: GET {path}")

    def _trace(self, job_id: str) -> None:
        """The job's merged span list as newline-delimited JSON."""
        spans = self.service.trace(job_id)
        body = b"".join(
            json.dumps(span, default=str).encode("utf-8") + b"\n"
            for span in spans
        )
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _events(self, job_id: str) -> None:
        """Stream progress events as NDJSON until the job terminates.

        No ``Content-Length``: the response body is delimited by
        connection close (this handler speaks HTTP/1.0 by default), so
        plain ``urllib`` / ``curl -N`` consumers read line-by-line
        until EOF.  Each line is one JSON event; the terminal
        ``{"event": "job", "state": ...}`` line ends the stream.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        try:
            for event in self.service.events(
                job_id, timeout=EVENTS_TIMEOUT_S
            ):
                self.wfile.write(
                    json.dumps(event, default=str).encode("utf-8") + b"\n"
                )
                self.wfile.flush()
        except (BrokenPipeError, ConnectionError):  # client went away
            pass
        except TimeoutError:
            pass  # idle too long: close the stream, client may reconnect

    def _report(
        self, job_id: str, status: dict[str, Any], params: dict[str, str]
    ) -> None:
        raw = params.get("wait", "")
        try:
            wait = float(raw or 0)
        except ValueError:
            wait = math.nan
        if not math.isfinite(wait):
            return self._error(
                400, f"invalid wait {raw!r}: expected a finite number of "
                "seconds", field="wait",
            )
        wait = min(wait, MAX_WAIT_S)
        job = self.service.job(job_id)
        if wait and not job.done_event.is_set():
            job.done_event.wait(wait)
        if job.report is None:
            return self._error(
                409,
                f"job {job_id} has no report yet "
                f"(state {job.state!r}; poll or pass ?wait=seconds)",
                state=job.state,
            )
        return self._send_json(200, job.report)

    def _post(self) -> None:
        path, _params = self._split_query()
        if path == "/campaigns":
            try:
                data = self._read_body()
            except _BodyRefused as exc:
                # The unread body must not be parsed as a next request.
                self.close_connection = True
                return self._error(exc.status, str(exc), field="Content-Length")
            except ValueError as exc:
                return self._error(400, f"invalid JSON body: {exc}")
            try:
                if not isinstance(data, dict):
                    # Only a spec object: a JSON string would otherwise
                    # be taken as a path on the server's filesystem.
                    raise SpecError(
                        "request body must be a JSON object (the "
                        "campaign spec)", path="spec",
                    )
                job_id = self.service.submit(data)
            except SpecError as exc:
                return self._send_json(400, {"error": exc.to_dict()})
            except QuotaError as exc:
                return self._send_json(429, {"error": exc.to_dict()})
            return self._send_json(201, self.service.status(job_id))
        match = _CAMPAIGN_ROUTE.match(path)
        if match and match.group("rest") == "/cancel":
            job_id = match.group("job_id")
            try:
                cancelled = self.service.cancel(job_id)
            except KeyError:
                return self._error(404, f"unknown job id {job_id!r}")
            payload = self.service.status(job_id)
            payload["cancelled"] = cancelled
            return self._send_json(200, payload)
        return self._error(404, f"no such route: POST {path}")


def make_server(
    service: JobService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """Bind a campaign-service HTTP server (``port=0`` picks a free one).

    The caller owns both lifecycles: ``serve_forever()`` /
    ``shutdown()`` for the HTTP side, ``service.close()`` for the
    workers.
    """
    handler = type(
        "BoundServiceHandler",
        (ServiceHandler,),
        {"service": service, "quiet": quiet},
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server
