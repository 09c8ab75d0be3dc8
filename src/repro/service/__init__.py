"""The async generation service: serve concurrent clients over one engine.

This subsystem wraps the one-shot :func:`repro.engine.run_generation`
machinery in a long-lived asyncio service:

* :class:`GenerationService` — bounded request queue, a micro-batching
  scheduler that coalesces compatible requests from concurrent clients
  into shared executor runs on one compute thread with warm backends
  and executors, streaming per-request results, arrival-order commits
  per gather window, and session-scoped library stores with
  arrival-order merges and periodic snapshot checkpoints;
* :class:`MicroBatchScheduler` / :class:`SchedulerConfig` — the pure
  coalescing rules (group by compatibility key, arrival order inside a
  batch, priority across batches); the service samples each
  micro-batch of a pack-capable backend through
  :meth:`repro.engine.BatchExecutor.run_model_packed`, which packs the
  requests' sampling chunks with :func:`repro.engine.pack_chunks`;
* :class:`LatencyHistogram` / :class:`StageLatencies` — per-stage
  serving latency histograms (:data:`STAGES`), exported by the
  ``op: "stats"`` verb;
* :class:`SessionManager` / :class:`SessionConfig` — shared or per-tenant
  stores, snapshot-loaded and checkpointed via :mod:`repro.library`;
* :class:`ServiceClient` — the blocking in-process client used by tests
  and benchmarks; :class:`RemoteClient` — its over-the-wire TCP
  counterpart, with paged clip-payload reassembly and decode;
* :func:`serve` — the stdlib TCP line-JSON front end behind
  ``repro serve`` — with opt-in clip payload delivery
  (:mod:`repro.service.payload`: base64/npz encodings, paged under the
  line limit via ``payload_page``/``payload_done`` frames);
* :func:`serve_http` / :class:`HttpGateway` — the stdlib HTTP/1.1
  gateway (``repro serve --http-port``): ``POST /v1/generate``, polled
  and chunked-streamed results, ``/v1/stats``, ``/v1/healthz``;
* :class:`FleetService` / :class:`FleetConfig` — the multi-process
  front (``repro serve --workers N``): a thin router over N forked
  worker processes each running a full service — ``submit`` routes
  sticky by key with one owner worker per session (which admits the
  session's requests in arrival order and checkpoints it into the
  shared snapshot root), results publish as their worker commits them,
  ``submit`` awaits at the fleet's capacity, ``drain`` waits for
  accepted requests, and circuit-breaker-gated crash respawn moves a
  dead worker's sessions to live owners that load their last
  checkpoint.

Typical in-process use::

    from repro.engine import GenerationRequest
    from repro.service import ServiceClient, ServiceConfig

    with ServiceClient(ServiceConfig(queue_size=16)) as client:
        batches = client.generate_many(
            [GenerationRequest(backend="rule", count=20, seed=s)
             for s in range(8)],
            session="shared",
        )

Every served request is bit-identical to a serial ``run_generation`` of
the same request: the model and denoise stages consume the request's own
seeded rng stream (per-chunk spawns when several requests' chunks pack
into one shared model batch), and each request runs its own cached DRC
check, as the serial call does.  ``docs/SERVING.md`` documents the wire protocol
and telemetry; ``docs/ARCHITECTURE.md`` the determinism contract.
"""

from .client import ClientTicket, RemoteClient, ServiceClient
from .faults import (
    FAULT_ACTIONS,
    FAULT_SITES,
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    clear_faults,
    injection_stats,
    install_faults,
    maybe_fire,
    reset_faults_for_worker,
)
from .fleet import FleetConfig, FleetService, FleetStats
from .gateway import DEFAULT_MAX_BODY, HttpGateway, serve_http
from .payload import (
    PAYLOAD_MODES,
    AssembledPayload,
    PayloadAssembler,
    PayloadError,
    decode_payload,
    encode_payload,
    payload_frames,
)
from .scheduler import (
    MicroBatch,
    MicroBatchScheduler,
    PendingRequest,
    SchedulerConfig,
)
from .server import (
    DEFAULT_LINE_LIMIT,
    handle_connection,
    serve,
    stream_events,
)
from .service import (
    DeadlineExceeded,
    GenerationService,
    RequestCancelled,
    ResultStream,
    ServiceConfig,
    ServiceStats,
)
from .session import SHARED_SESSION, Session, SessionConfig, SessionManager
from .stats import STAGES, LatencyHistogram, StageLatencies

__all__ = [
    "DEFAULT_LINE_LIMIT",
    "DEFAULT_MAX_BODY",
    "FAULTS_ENV",
    "FAULT_ACTIONS",
    "FAULT_SITES",
    "PAYLOAD_MODES",
    "SHARED_SESSION",
    "STAGES",
    "AssembledPayload",
    "ClientTicket",
    "DeadlineExceeded",
    "FaultPlan",
    "FaultSpec",
    "FleetConfig",
    "FleetService",
    "FleetStats",
    "GenerationService",
    "HttpGateway",
    "InjectedFault",
    "LatencyHistogram",
    "MicroBatch",
    "MicroBatchScheduler",
    "PayloadAssembler",
    "PayloadError",
    "PendingRequest",
    "RemoteClient",
    "RequestCancelled",
    "ResultStream",
    "SchedulerConfig",
    "ServiceClient",
    "ServiceConfig",
    "ServiceStats",
    "Session",
    "SessionConfig",
    "SessionManager",
    "StageLatencies",
    "active_plan",
    "decode_payload",
    "clear_faults",
    "encode_payload",
    "handle_connection",
    "injection_stats",
    "install_faults",
    "maybe_fire",
    "payload_frames",
    "reset_faults_for_worker",
    "serve",
    "serve_http",
    "stream_events",
]
