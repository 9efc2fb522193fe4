"""Stdlib HTTP client for the clustering service.

A thin, dependency-free wrapper over :mod:`http.client` mirroring the
wire protocol one method per endpoint.  Domain failures surface as
:class:`ServiceClientError` carrying the HTTP status and the server's
error message, so callers distinguish "bad request" from "server died"
without parsing bodies themselves.

The transport holds **one persistent keep-alive connection** (the
server speaks HTTP/1.1): repeat requests skip the TCP handshake, which
both halves per-request overhead at bench scales and — against a
fleet — pins a client to the shard that accepted the connection for
its lifetime, so job submit/poll sequences naturally land on the
owning process.  The connection is an optimization, never a
correctness dependency: any transport failure drops it and the next
request dials fresh.

Failure handling (DESIGN.md §9): every request carries a connect/read
timeout, and **idempotent GETs** are retried up to ``max_retries``
times with exponential backoff on transport failures and on 503
(honoring the server's ``Retry-After``).  POSTs are never retried by
the transport — re-submitting ``cluster`` could schedule a duplicate
job; callers wanting safe resubmission pass an ``idempotency_key``.
The one exception is a *reused* connection dying before any response
byte arrives (the server reaped it idle between requests); the request
is re-sent once on a fresh connection, exactly the recovery every
keep-alive HTTP library performs.

A **circuit breaker** guards the transport: after
``breaker_threshold`` consecutive transport failures (status 0 — the
server never answered) the client fails fast for
``breaker_cooldown`` seconds instead of burning a full connect
timeout per call against a dead endpoint.  After the cooldown one
trial request goes through (half-open); its success closes the
breaker, its failure re-opens the window.  HTTP-level errors (4xx/5xx
— the server *answered*) never trip it.
"""

from __future__ import annotations

import json
import threading
import time
from http.client import BadStatusLine, HTTPConnection, HTTPException
from typing import Dict, List, Optional, Sequence
from urllib.parse import urlencode, urlsplit

from repro.errors import ConfigError, ReproError
from repro.graph.csr import Graph
from repro.validation import check_eps_mu

__all__ = ["ServiceClient", "ServiceClientError"]


class ServiceClientError(ReproError):
    """A request the server rejected (or could not receive at all).

    ``status`` is 0 when the server was unreachable; ``retry_after``
    echoes the server's backoff hint when one was sent.
    """

    def __init__(
        self,
        message: str,
        *,
        status: int = 0,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.retry_after = (
            None if retry_after is None else float(retry_after)
        )


def _retry_after_seconds(value: Optional[str]) -> Optional[float]:
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None  # HTTP-date form; treat as "no usable hint"


def _error_detail(body: bytes) -> str:
    """The server's ``error`` field, or ``""`` for a non-JSON body."""
    try:
        payload = json.loads(body.decode("utf-8"))
        return str(payload.get("error", ""))
    except (ValueError, UnicodeDecodeError):
        return ""


class ServiceClient:
    """One service endpoint, e.g. ``ServiceClient("http://127.0.0.1:8421")``."""

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 30.0,
        max_retries: int = 2,
        retry_backoff: float = 0.2,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
    ) -> None:
        if timeout <= 0:
            raise ConfigError("timeout must be positive")
        if max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if retry_backoff < 0:
            raise ConfigError("retry_backoff must be >= 0")
        if breaker_threshold < 0:
            raise ConfigError("breaker_threshold must be >= 0 (0 disables)")
        if breaker_cooldown <= 0:
            raise ConfigError("breaker_cooldown must be positive")
        self.base_url = base_url.rstrip("/")
        split = urlsplit(self.base_url)
        if split.scheme != "http" or not split.hostname:
            raise ConfigError(
                f"base_url must look like http://host:port, got {base_url!r}"
            )
        self._host = split.hostname
        self._port = split.port or 80
        self.timeout = float(timeout)
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        # The persistent keep-alive connection; one in-flight request at
        # a time (the lock), matching http.client's connection model.
        self._conn: Optional[HTTPConnection] = None
        self._conn_lock = threading.Lock()
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = float(breaker_cooldown)
        self._breaker_lock = threading.Lock()
        self._consecutive_failures = 0
        self._breaker_open_until: Optional[float] = None

    def close(self) -> None:
        """Drop the persistent connection (idempotent)."""
        with self._conn_lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        # Only GETs are retried: they are idempotent by protocol design,
        # so a duplicate delivery cannot change server state.
        attempts = 1 + (self.max_retries if method == "GET" else 0)
        for attempt in range(attempts):
            try:
                return self._request_once(method, path, payload)
            except ServiceClientError as exc:
                transient = exc.status == 0 or exc.status == 503
                if not transient or attempt == attempts - 1:
                    raise
                delay = (
                    exc.retry_after
                    if exc.retry_after is not None
                    else self.retry_backoff * (2.0 ** attempt)
                )
                time.sleep(min(delay, 5.0))
        raise AssertionError("unreachable: loop returns or raises")

    # ------------------------------------------------------------------
    # circuit breaker
    # ------------------------------------------------------------------
    @property
    def breaker_open(self) -> bool:
        """Whether the breaker currently fails requests fast."""
        with self._breaker_lock:
            return (
                self._breaker_open_until is not None
                and time.monotonic() < self._breaker_open_until
            )

    def _breaker_admit(self) -> None:
        """Fail fast while the breaker is open; admit one half-open trial."""
        if self.breaker_threshold <= 0:
            return
        with self._breaker_lock:
            if self._breaker_open_until is None:
                return
            now = time.monotonic()
            remaining = self._breaker_open_until - now
            if remaining > 0:
                raise ServiceClientError(
                    f"circuit breaker open for {self.base_url} after "
                    f"{self._consecutive_failures} consecutive "
                    f"connection failures; cooling down "
                    f"{remaining:.2f}s",
                    status=0,
                    retry_after=remaining,
                )
            # Half-open: this request is the trial; concurrent callers
            # keep failing fast until it reports back.
            self._breaker_open_until = now + self.breaker_cooldown

    def _breaker_record(self, *, transport_failure: bool) -> None:
        if self.breaker_threshold <= 0:
            return
        with self._breaker_lock:
            if transport_failure:
                self._consecutive_failures += 1
                if self._consecutive_failures >= self.breaker_threshold:
                    self._breaker_open_until = (
                        time.monotonic() + self.breaker_cooldown
                    )
            else:
                self._consecutive_failures = 0
                self._breaker_open_until = None

    def _request_once(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        self._breaker_admit()
        data = (
            json.dumps(payload).encode("utf-8")
            if payload is not None
            else None
        )
        try:
            with self._conn_lock:
                status, body, retry_after = self._exchange(
                    method, path, data
                )
        except ServiceClientError as exc:
            self._breaker_record(transport_failure=exc.status == 0)
            raise
        # The server answered; HTTP-level failures are its problem, not
        # the transport's, so any response closes the breaker.
        self._breaker_record(transport_failure=False)
        if status >= 400:
            raise ServiceClientError(
                _error_detail(body)
                or f"{method} {path} failed with HTTP {status}",
                status=status,
                retry_after=_retry_after_seconds(retry_after),
            )
        return json.loads(body.decode("utf-8"))

    def _exchange(
        self, method: str, path: str, data: Optional[bytes]
    ) -> "tuple[int, bytes, Optional[str]]":
        """One request/response over the persistent connection.

        Caller holds ``_conn_lock``.  A failure on a **reused**
        connection before any response byte (the server reaped it idle)
        re-dials and re-sends once; every other failure maps to the
        transient status-0 :class:`ServiceClientError`.
        """
        for attempt in (0, 1):
            conn = self._conn
            reused = conn is not None
            if conn is None:
                conn = HTTPConnection(
                    self._host, self._port, timeout=self.timeout
                )
            self._conn = None
            try:
                conn.request(
                    method,
                    path,
                    body=data,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                body = response.read()
            except (OSError, HTTPException) as exc:
                conn.close()
                stale_reuse = reused and isinstance(
                    exc, (ConnectionError, BadStatusLine)
                )
                if stale_reuse and attempt == 0:
                    continue
                if isinstance(exc, TimeoutError):
                    raise ServiceClientError(
                        f"{method} {path} timed out after "
                        f"{self.timeout}s: {exc}"
                    ) from None
                if not reused and isinstance(exc, ConnectionError):
                    raise ServiceClientError(
                        f"cannot reach {self.base_url}: {exc}"
                    ) from None
                # Connection-level failures (reset, server closed
                # mid-read): transient, so they share retryable status 0.
                raise ServiceClientError(
                    f"connection to {self.base_url} failed: "
                    f"{type(exc).__name__}: {exc}"
                ) from None
            if response.will_close:
                conn.close()
            else:
                self._conn = conn
            return (
                response.status,
                body,
                response.getheader("Retry-After"),
            )
        raise AssertionError("unreachable: loop returns or raises")

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Raw wire-level escape hatch (used by the fleet's forwarding
        and job-proxy paths); same retry/error semantics as the typed
        endpoint methods."""
        return self._request(method, path, payload)

    # ------------------------------------------------------------------
    # graphs
    # ------------------------------------------------------------------
    def load_graph(
        self,
        name: str,
        *,
        graph: Optional[Graph] = None,
        edges: Optional[Sequence[Sequence[float]]] = None,
        num_vertices: Optional[int] = None,
        similarity: Optional[Dict[str, object]] = None,
        build_cluster_index: bool = False,
        replace: bool = False,
    ) -> Dict[str, object]:
        """Host a graph server-side, from a CSR ``graph`` or raw edges."""
        if (graph is None) == (edges is None):
            raise ServiceClientError(
                "pass exactly one of 'graph' or 'edges'"
            )
        if graph is not None:
            edges = [[int(u), int(v), float(w)] for u, v, w in graph.edges()]
            num_vertices = graph.num_vertices
        payload: Dict[str, object] = {
            "name": name,
            "edges": [list(edge) for edge in (edges or [])],
            "build_cluster_index": build_cluster_index,
            "replace": replace,
        }
        if num_vertices is not None:
            payload["num_vertices"] = int(num_vertices)
        if similarity is not None:
            payload["similarity"] = similarity
        return self._request("POST", "/graphs", payload)

    def build_cluster_index(self, name: str) -> Dict[str, object]:
        """Build the clustering index for a hosted graph (if missing).

        Afterwards every ``cluster`` query on the graph is answered
        straight from the index — zero σ evaluations — and the index is
        repatched automatically across ``update_edges`` calls.
        """
        return self._request("POST", f"/graphs/{name}/index", {})

    def graphs(self) -> List[Dict[str, object]]:
        return list(self._request("GET", "/graphs")["graphs"])

    def graph_info(self, name: str) -> Dict[str, object]:
        return self._request("GET", f"/graphs/{name}")

    def update_edges(
        self,
        name: str,
        *,
        insert: Sequence[Sequence[float]] = (),
        delete: Sequence[Sequence[int]] = (),
        add_vertices: int = 0,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, object]:
        """Apply an edge batch; ``idempotency_key`` makes retries safe.

        The key is journaled with the batch on a durable server, so a
        retry deduplicates even across a crash + recovery — the replay
        answers with ``replayed: true`` instead of double-applying.
        """
        payload: Dict[str, object] = {
            "insert": [list(edge) for edge in insert],
            "delete": [list(edge) for edge in delete],
            "add_vertices": int(add_vertices),
        }
        if idempotency_key is not None:
            payload["idempotency_key"] = str(idempotency_key)
        return self._request(
            "POST", f"/graphs/{name}/update-edges", payload
        )

    # ------------------------------------------------------------------
    # clustering jobs
    # ------------------------------------------------------------------
    def cluster(
        self,
        name: str,
        mu: int,
        epsilon: float,
        *,
        wait: Optional[float] = None,
        priority: int = 0,
        alpha: Optional[int] = None,
        beta: Optional[int] = None,
        seed: Optional[int] = None,
        labels: bool = True,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, object]:
        """Submit a clustering query; ``wait`` seconds for completion.

        ``idempotency_key`` makes resubmission safe: the server replays
        the job it already scheduled for (graph, key) instead of
        starting a duplicate — the knob that lets callers retry a
        ``cluster`` POST that may or may not have reached the server.
        """
        check_eps_mu(mu=mu, epsilon=epsilon)
        payload: Dict[str, object] = {
            "graph": name,
            "mu": int(mu),
            "epsilon": float(epsilon),
            "priority": int(priority),
            "labels": labels,
        }
        if idempotency_key is not None:
            payload["idempotency_key"] = str(idempotency_key)
        if wait is not None:
            payload["wait"] = float(wait)
        if alpha is not None:
            payload["alpha"] = int(alpha)
        if beta is not None:
            payload["beta"] = int(beta)
        if seed is not None:
            payload["seed"] = int(seed)
        return self._request("POST", "/cluster", payload)

    def local_cluster(
        self,
        name: str,
        seed: int,
        mu: int,
        epsilon: float,
        *,
        order_seed: Optional[int] = None,
        boundary: Optional[bool] = None,
    ) -> Dict[str, object]:
        """The seed vertex's exact cluster (seeded local clustering).

        A GET, so the client's bounded idempotent-retry policy applies;
        repeated queries for the same (seed, ε, μ) hit the server's
        seed-aware result cache.
        """
        check_eps_mu(mu=mu, epsilon=epsilon)
        params: Dict[str, object] = {
            "seed": int(seed),
            "mu": int(mu),
            "epsilon": float(epsilon),
        }
        if order_seed is not None:
            params["order_seed"] = int(order_seed)
        if boundary is not None:
            params["boundary"] = "true" if boundary else "false"
        query = urlencode(params)
        return self._request(
            "GET", f"/graphs/{name}/local-cluster?{query}"
        )

    def jobs(self) -> List[Dict[str, object]]:
        return list(self._request("GET", "/jobs")["jobs"])

    def status(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/jobs/{job_id}")

    def snapshot(
        self, job_id: str, *, labels: bool = True
    ) -> Dict[str, object]:
        suffix = "" if labels else "?labels=false"
        return self._request("GET", f"/jobs/{job_id}/snapshot{suffix}")

    def result(
        self,
        job_id: str,
        *,
        wait: Optional[float] = None,
        labels: bool = True,
    ) -> Dict[str, object]:
        params = []
        if wait is not None:
            params.append(f"wait={float(wait)}")
        if not labels:
            params.append("labels=false")
        suffix = "?" + "&".join(params) if params else ""
        return self._request("GET", f"/jobs/{job_id}/result{suffix}")

    def pause(self, job_id: str) -> Dict[str, object]:
        return self._request("POST", f"/jobs/{job_id}/pause", {})

    def resume(self, job_id: str) -> Dict[str, object]:
        return self._request("POST", f"/jobs/{job_id}/resume", {})

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._request("POST", f"/jobs/{job_id}/cancel", {})

    def set_priority(self, job_id: str, priority: int) -> Dict[str, object]:
        return self._request(
            "POST", f"/jobs/{job_id}/priority", {"priority": int(priority)}
        )

    # ------------------------------------------------------------------
    # observability + shutdown
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        return self._request("GET", "/metrics")

    def fleet_metrics(self) -> Dict[str, object]:
        """Fleet-wide merged metrics (single-shard merge off-fleet)."""
        return self._request("GET", "/fleet/metrics")

    def shutdown(self) -> Dict[str, object]:
        return self._request("POST", "/shutdown", {})
