"""Hand-rolled HTTP/JSON front end for :class:`~repro.serve.service.EvalService`.

Built directly on :func:`asyncio.start_server` — no web framework, no
new dependencies. The protocol surface is deliberately small and
JSON-only:

====== ========================== ===========================================
Method Path                       Meaning
====== ========================== ===========================================
GET    /health                    liveness, queue depth, stranded-run counts
GET    /healthz                   alias of /health (probe convention)
POST   /jobs                      submit a job (202; 400/429/503 on reject)
GET    /jobs                      live job table (this process's lifetime)
GET    /jobs/<id>                 one job's status + progress
POST   /jobs/<id>/cancel          request cancellation
GET    /runs                      run store query (scenario/status/kind/tag)
GET    /runs/<id>                 one run row + its episode records
POST   /promote                   judge a checkpoint promotion (OPE gate)
GET    /promotions                promotion verdict history
POST   /shutdown                  graceful shutdown (drain, then exit)
====== ========================== ===========================================

Every response is a JSON object; errors carry ``{"error": ...}``.
Queue overflow maps to **429** — the backpressure contract: the
server sheds load instead of buffering unboundedly, and clients retry.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qs, urlsplit

import repro
from repro.serve.jobs import JobError
from repro.serve.service import EvalService, QueueFullError, ServiceClosedError

__all__ = ["ServeServer"]

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: request-body bound; a job payload is small, anything bigger is abuse
MAX_BODY_BYTES = 1 << 20


class ServeServer:
    """One TCP listener bound to an :class:`EvalService`.

    ``port=0`` binds an ephemeral port (the bound port is exposed as
    :attr:`port` after :meth:`start` — tests and the CLI print it).
    :meth:`serve_forever` blocks until a ``POST /shutdown`` arrives or
    :meth:`request_shutdown` is called, then drains the service.
    """

    def __init__(self, service: EvalService, *, host: str = "127.0.0.1",
                 port: int = 8642):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._shutdown_event: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._shutdown_event = asyncio.Event()
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def serve_forever(self) -> None:
        await self._shutdown_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop accepting connections, then drain the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.shutdown()

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, target = parts[0].upper(), parts[1]
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", 0) or 0)
            if length > MAX_BODY_BYTES:
                await self._respond(writer, 413,
                                    {"error": "request body too large"})
                return
            body = await reader.readexactly(length) if length else b""
            status, payload = await self._route(method, target, body)
            await self._respond(writer, status, payload)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing -------------------------------------------------------
    async def _route(self, method: str, target: str,
                     body: bytes) -> tuple[int, dict]:
        url = urlsplit(target)
        parts = [p for p in url.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        try:
            return self._dispatch(method, parts, query, body)
        except JobError as exc:
            return 400, {"error": str(exc)}
        except QueueFullError as exc:
            return 429, {"error": str(exc)}
        except ServiceClosedError as exc:
            return 503, {"error": str(exc)}
        except Exception as exc:  # route bug: report, keep serving
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def _dispatch(self, method: str, parts: list[str], query: dict,
                  body: bytes) -> tuple[int, dict]:
        service = self.service
        if parts in (["health"], ["healthz"]) and method == "GET":
            return 200, {
                "status": "closing" if service.closing else "ok",
                "version": repro.__version__,
                "queue_depth": service.queue_depth(),
                "max_queue": service.max_queue,
                "faults": service.fault_summary(),
                "jobs": len(service.jobs()),
            }
        if parts == ["jobs"] and method == "POST":
            job = service.submit(self._json_body(body))
            return 202, job.snapshot()
        if parts == ["jobs"] and method == "GET":
            return 200, {"jobs": [j.snapshot() for j in service.jobs()]}
        if len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            job = service.job(parts[1])
            if job is None:
                return 404, {"error": f"unknown job {parts[1]!r}"}
            return 200, job.snapshot()
        if (len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel"
                and method == "POST"):
            job = service.cancel(parts[1])
            if job is None:
                return 404, {"error": f"unknown job {parts[1]!r}"}
            return 200, job.snapshot()
        if parts == ["runs"] and method == "GET":
            limit = int(query.get("limit", 50))
            runs = service.store.list_runs(
                scenario=query.get("scenario"), status=query.get("status"),
                kind=query.get("kind"), tag=query.get("tag"), limit=limit,
            )
            return 200, {"runs": runs}
        if len(parts) == 2 and parts[0] == "runs" and method == "GET":
            run = service.store.get_run(parts[1])
            if run is None:
                return 404, {"error": f"unknown run {parts[1]!r}"}
            run["episode_records"] = service.store.episodes_of(parts[1])
            return 200, run
        if parts == ["promote"] and method == "POST":
            return 200, service.promote(self._json_body(body))
        if parts == ["promotions"] and method == "GET":
            limit = int(query.get("limit", 50))
            return 200, {"promotions": service.store.promotions(
                candidate_run_id=query.get("candidate"), limit=limit,
            )}
        if parts == ["shutdown"] and method == "POST":
            self.request_shutdown()
            return 202, {"status": "shutting down"}
        if parts and parts[0] in ("health", "healthz", "jobs", "runs",
                                  "shutdown", "promote", "promotions"):
            return 405, {"error": f"{method} not allowed on /{'/'.join(parts)}"}
        return 404, {"error": f"no such endpoint: /{'/'.join(parts)}"}

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            raise JobError("request body must be a JSON object")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JobError(f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise JobError("request body must be a JSON object")
        return payload
