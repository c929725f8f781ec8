"""The fleet master: queue owner, DAG driver, cache server.

``python -m repro serve`` runs one :class:`FleetMaster`.  It owns

* the prioritised job queue (:class:`~repro.fleet.scheduler.FleetScheduler`)
  with heartbeat-based liveness, requeue-on-worker-death and poison-job
  quarantine,
* the scenario DAG expansion — each ``repro submit`` connection drives the
  same :class:`~repro.engine.engine._ScenarioDriver` state machine the
  in-process engine uses, so fleet reports are assembled by the exact code
  path of ``repro verify``,
* the shared :class:`~repro.engine.cache.CertificateCache`, served to
  workers over the ``cache_get``/``cache_put`` protocol so every conic
  solve performed anywhere in the fleet lands in one store, and
* the **job memo**: a content-addressed record of completed job outcomes
  (keyed by :func:`~repro.engine.serialize.payload_fingerprint`).  A job
  whose fingerprint is memoised is answered by the master without
  dispatching anything — a warm-cache submission performs zero SDP solves
  fleet-wide and never even touches a worker.

Transport is the length-prefixed JSON protocol of
:mod:`repro.fleet.protocol`; nothing on the wire is ever a pickle.  On
SIGTERM/SIGINT the master stops admitting work, drains in-flight jobs,
persists the pending queue next to the cache and resolves whatever could
not run, so accepted work survives restarts.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..engine.cache import CertificateCache, default_cache_dir
from ..engine.serialize import (
    memo_outcome,
    memoizable_status,
    payload_fingerprint,
    solver_result_from_wire,
    solver_result_to_wire,
)
from ..utils import get_logger
from .protocol import (
    Connection,
    DEFAULT_PORT,
    ProtocolError,
    format_address,
    recv_message,
    send_message,
)
from .scheduler import PRIORITY_INTERACTIVE, FleetScheduler, QueuedJob

LOGGER = get_logger("fleet.master")

#: File (inside the cache root) holding a drained master's pending queue.
PERSISTED_QUEUE_NAME = "fleet_queue.json"
#: Subdirectory (inside the cache root) of the content-addressed job memo.
JOB_MEMO_DIR = "jobs"


class _WorkerRecord:
    """Liveness and accounting state of one registered worker."""

    def __init__(self, worker_id: str, name: str):
        self.worker_id = worker_id
        self.name = name
        self.registered_at = time.monotonic()
        self.last_heartbeat = time.monotonic()
        self.jobs_done = 0

    def describe(self, scheduler_inflight: List[Dict[str, object]]
                 ) -> Dict[str, object]:
        return {
            "id": self.worker_id,
            "name": self.name,
            "jobs_done": self.jobs_done,
            "inflight": [entry["label"] or entry["key"]
                         for entry in scheduler_inflight
                         if entry["worker"] == self.worker_id],
            "last_heartbeat_age": round(
                time.monotonic() - self.last_heartbeat, 3),
        }


class FleetMaster:
    """Master node of the distributed verification fleet."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 cache_dir: Optional[str] = None, use_cache: bool = True,
                 max_retries: int = 2, job_timeout: Optional[float] = None,
                 heartbeat_interval: float = 0.5,
                 liveness_timeout: float = 5.0,
                 drain_timeout: float = 30.0):
        self.host = host
        self._requested_port = port
        self.cache_root = (Path(cache_dir).expanduser() if cache_dir
                           else default_cache_dir())
        self.cache: Optional[CertificateCache] = (
            CertificateCache(self.cache_root) if use_cache else None)
        self.scheduler = FleetScheduler(max_retries=max_retries,
                                        default_timeout=job_timeout)
        self.heartbeat_interval = heartbeat_interval
        self.liveness_timeout = liveness_timeout
        self.drain_timeout = drain_timeout

        self._lock = threading.Lock()
        self._workers: Dict[str, _WorkerRecord] = {}
        self._worker_seq = 0
        self._memo: Dict[str, Dict[str, object]] = {}
        self._counters: Dict[str, int] = {}
        self._memo_hits = 0
        self._submissions_active = 0
        self._submissions_done = 0

        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._connections: set = set()
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._listener is None:
            return self._requested_port
        return self._listener.getsockname()[1]

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> None:
        """Bind, restore any persisted queue, and serve in background threads."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(64)
        listener.settimeout(0.25)
        self._listener = listener
        restored = self.scheduler.restore(self.cache_root / PERSISTED_QUEUE_NAME)
        if restored:
            LOGGER.info("restored %d persisted job(s) from the last shutdown",
                        restored)
        self._started_at = time.monotonic()
        for target, name in ((self._accept_loop, "fleet-accept"),
                             (self._reaper_loop, "fleet-reaper")):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        LOGGER.info("fleet master listening on %s",
                    format_address(self.address))

    def serve_forever(self) -> None:
        """Blocking entry point of ``python -m repro serve``.

        SIGTERM and Ctrl-C both trigger the graceful shutdown sequence:
        drain in-flight jobs, persist the pending queue, deregister.
        """
        import signal

        self.start()

        def _request_stop(signum, frame):  # noqa: ARG001
            LOGGER.info("signal %s received; shutting down gracefully", signum)
            self._stopping.set()

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, _request_stop)
            except ValueError:  # not the main thread (embedded use)
                pass
        try:
            while not self._stopping.is_set():
                self._stopping.wait(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.stop(drain=True)

    def stop(self, drain: bool = True) -> None:
        """Stop serving; optionally drain in-flight work and persist the queue."""
        if self._stopped.is_set():
            return
        self._stopping.set()
        if drain:
            self.scheduler.drain(self.drain_timeout)
        self.scheduler.stop()
        persisted = self.scheduler.persist(
            self.cache_root / PERSISTED_QUEUE_NAME)
        if persisted:
            LOGGER.info("persisted %d pending job(s) for the next start",
                        persisted)
        self._resolve_abandoned()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()
        self._stopped.set()

    def _resolve_abandoned(self) -> None:
        """Fail whatever is still queued/inflight so clients unblock."""
        sched = self.scheduler
        with sched._available:  # noqa: SLF001 - scheduler-internal teardown
            leftovers = list(sched._pending.values()) + \
                list(sched._inflight.values())
            sched._pending.clear()
            sched._inflight.clear()
            sched._heap.clear()
        for job in leftovers:
            if not job.future.done():
                job.future.set_result({
                    "status": "error",
                    "detail": "master shut down before the job could run "
                              "(the pending queue was persisted)"})

    # ------------------------------------------------------------------
    # Background threads
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = Connection(sock)
            with self._lock:
                self._connections.add(conn)
            thread = threading.Thread(target=self._serve_connection,
                                      args=(conn,), daemon=True,
                                      name="fleet-conn")
            thread.start()

    def _reaper_loop(self) -> None:
        """Declare silent workers dead and expire per-job deadlines."""
        interval = max(0.05, min(0.5, self.liveness_timeout / 4.0))
        while not self._stopping.is_set():
            now = time.monotonic()
            with self._lock:
                stale = [record.worker_id
                         for record in self._workers.values()
                         if now - record.last_heartbeat > self.liveness_timeout]
            for worker_id in stale:
                self._worker_dead(worker_id, "heartbeat lost")
            self.scheduler.check_deadlines(now)
            self._stopping.wait(interval)

    def _worker_dead(self, worker_id: str, reason: str) -> None:
        with self._lock:
            record = self._workers.pop(worker_id, None)
        if record is None:
            return
        LOGGER.warning("worker %s declared dead (%s)", worker_id, reason)
        self.scheduler.worker_died(worker_id)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _serve_connection(self, conn: Connection) -> None:
        registered_worker: Optional[str] = None
        try:
            while not self._stopping.is_set():
                message = recv_message(conn.sock)
                if message is None:
                    break
                kind = message.get("type")
                if kind == "register":
                    registered_worker = self._handle_register(conn, message)
                else:
                    handler = getattr(self, f"_handle_{kind}", None)
                    if handler is None:
                        send_message(conn.sock,
                                     {"error": f"unknown message type {kind!r}"})
                        continue
                    handler(conn, message)
        except ProtocolError as exc:
            LOGGER.warning("protocol error on connection: %s", exc)
            try:
                send_message(conn.sock, {"error": str(exc)})
            except OSError:
                pass
        except OSError:
            pass
        finally:
            with self._lock:
                self._connections.discard(conn)
                still_registered = registered_worker in self._workers
            if registered_worker and still_registered:
                # A registered worker's control connection dropping without a
                # deregister IS a death signal — requeue immediately rather
                # than waiting out the heartbeat timeout.
                self._worker_dead(registered_worker, "connection lost")
            conn.close()

    # -- worker protocol ------------------------------------------------
    def _handle_register(self, conn: Connection,
                         message: Dict[str, object]) -> str:
        name = str(message.get("name") or "worker")
        with self._lock:
            self._worker_seq += 1
            worker_id = f"{name}-{self._worker_seq}"
            self._workers[worker_id] = _WorkerRecord(worker_id, name)
        LOGGER.info("worker %s registered", worker_id)
        send_message(conn.sock, {"ok": True, "worker_id": worker_id,
                                 "heartbeat_interval": self.heartbeat_interval,
                                 "liveness_timeout": self.liveness_timeout})
        return worker_id

    def _handle_heartbeat(self, conn: Connection,
                          message: Dict[str, object]) -> None:
        worker_id = str(message.get("worker"))
        known = False
        with self._lock:
            record = self._workers.get(worker_id)
            if record is not None:
                record.last_heartbeat = time.monotonic()
                known = True
        send_message(conn.sock, {"ok": known})

    def _handle_next_job(self, conn: Connection,
                         message: Dict[str, object]) -> None:
        worker_id = str(message.get("worker"))
        wait = float(message.get("wait", 2.0))
        job = self.scheduler.next_job(worker_id, wait_timeout=wait)
        if job is None:
            send_message(conn.sock, {"job": None,
                                     "shutdown": self._stopping.is_set()})
            return
        with self._lock:
            record = self._workers.get(worker_id)
            if record is not None:
                record.last_heartbeat = time.monotonic()
        send_message(conn.sock, {"job": {"key": job.key, "label": job.label,
                                         "payload": job.payload,
                                         "timeout": job.timeout},
                                 "shutdown": False})

    def _handle_job_done(self, conn: Connection,
                         message: Dict[str, object]) -> None:
        worker_id = str(message.get("worker"))
        key = str(message.get("key"))
        outcome = message.get("outcome")
        if not isinstance(outcome, dict):
            send_message(conn.sock, {"error": "job_done without an outcome"})
            return
        job = self.scheduler.complete(worker_id, key, outcome)
        if job is not None:
            with self._lock:
                record = self._workers.get(worker_id)
                if record is not None:
                    record.jobs_done += 1
                    record.last_heartbeat = time.monotonic()
            self._account(outcome)
            self._memo_store(job, outcome)
        send_message(conn.sock, {"ok": job is not None})

    def _handle_deregister(self, conn: Connection,
                           message: Dict[str, object]) -> None:
        worker_id = str(message.get("worker"))
        with self._lock:
            record = self._workers.pop(worker_id, None)
        if record is not None:
            LOGGER.info("worker %s deregistered", worker_id)
            # A graceful worker reports its last job before deregistering,
            # but requeue defensively in case it abandoned one.
            self.scheduler.worker_died(worker_id)
        send_message(conn.sock, {"ok": record is not None})

    # -- remote certificate cache --------------------------------------
    def _handle_cache_get(self, conn: Connection,
                          message: Dict[str, object]) -> None:
        key = str(message.get("key"))
        result = self.cache.get(key) if self.cache is not None else None
        if result is None:
            send_message(conn.sock, {"found": False})
        else:
            send_message(conn.sock, {"found": True,
                                     "result": solver_result_to_wire(result)})

    def _handle_cache_put(self, conn: Connection,
                          message: Dict[str, object]) -> None:
        stored = False
        if self.cache is not None and isinstance(message.get("result"), dict):
            result = solver_result_from_wire(message["result"])
            self.cache.put(str(message.get("key")), result)
            stored = True
        send_message(conn.sock, {"ok": stored})

    # -- client protocol -------------------------------------------------
    def _handle_ping(self, conn: Connection,
                     message: Dict[str, object]) -> None:  # noqa: ARG002
        send_message(conn.sock, {"ok": True,
                                 "address": format_address(self.address)})

    def _handle_fleet_status(self, conn: Connection,
                             message: Dict[str, object]) -> None:  # noqa: ARG002
        send_message(conn.sock, self.status_snapshot())

    def _handle_exec_job(self, conn: Connection,
                         message: Dict[str, object]) -> None:
        """One standalone engine job (the ``DistributedExecutor`` path)."""
        payload = message.get("payload")
        if not isinstance(payload, dict):
            send_message(conn.sock, {"error": "exec_job without a payload"})
            return
        priority = int(message.get("priority", 0))
        timeout = message.get("timeout")
        outcome = self._run_payload(payload, priority=priority,
                                    timeout=timeout,
                                    label=str(message.get("label", "exec")))
        send_message(conn.sock, {"ok": True, "outcome": outcome})

    def _handle_submit(self, conn: Connection,
                       message: Dict[str, object]) -> None:
        """Expand scenario DAGs and drive them over the fleet.

        The handler thread *is* the submission's driver loop; ``watch``
        clients receive one event frame per job transition before the final
        ``done`` frame carrying the aggregate engine report.
        """
        from ..engine.engine import EngineOptions

        scenarios = message.get("scenarios")
        if not isinstance(scenarios, list) or not scenarios:
            send_message(conn.sock, {"error": "submit without scenarios"})
            return
        watch = bool(message.get("watch", False))
        priority = int(message.get("priority", PRIORITY_INTERACTIVE))
        request = message.get("options") or {}
        use_cache = bool(request.get("use_cache", True)) and \
            self.cache is not None
        with self._lock:
            worker_count = len(self._workers)
            self._submissions_active += 1
        options = EngineOptions(
            jobs=max(1, worker_count),
            use_cache=use_cache,
            cache_dir=str(self.cache_root) if use_cache else None,
            job_timeout=request.get("job_timeout"),
            seed=int(request.get("seed", 0)),
            relaxation=request.get("relaxation"),
            backend=request.get("backend"),
        )

        def emit(event: Dict[str, object]) -> None:
            if watch:
                send_message(conn.sock, event)

        try:
            report = self._drive_submission(
                [str(name) for name in scenarios], options, priority, emit)
        except Exception as exc:  # noqa: BLE001 - reported to the client
            LOGGER.exception("submission failed")
            send_message(conn.sock, {"error": f"{type(exc).__name__}: {exc}"})
            return
        finally:
            with self._lock:
                self._submissions_active -= 1
                self._submissions_done += 1
        send_message(conn.sock, {"event": "done",
                                 "ok": report.all_match_expected,
                                 "report": report.to_json_dict()})

    # ------------------------------------------------------------------
    # Submission driving (shared with exec_job)
    # ------------------------------------------------------------------
    def _run_payload(self, payload: Dict[str, object], priority: int,
                     timeout: Optional[float], label: str) -> Dict[str, object]:
        """Memo-check one payload, else schedule it and await the outcome."""
        memo = self._memo_lookup(payload)
        if memo is not None:
            return memo
        try:
            job = self.scheduler.enqueue(payload, priority=priority,
                                         label=label, timeout=timeout)
        except RuntimeError as exc:
            return {"status": "error", "detail": str(exc)}
        return job.future.result()

    def _drive_submission(self, scenarios, options, priority, emit):
        from concurrent.futures import wait as futures_wait, FIRST_COMPLETED
        from ..engine.engine import (
            _engine_report,
            _prepared_problem,
            _ScenarioDriver,
        )

        start = time.perf_counter()
        drivers = [
            _ScenarioDriver(name, _prepared_problem(name, options.relaxation),
                            options)
            for name in scenarios
        ]
        pending: Dict[object, tuple] = {}   # future -> (driver, spec, job)
        while True:
            for driver in drivers:
                for spec, payload in driver.take_ready():
                    memo = self._memo_lookup(payload)
                    if memo is not None:
                        driver.record(spec, memo)
                        emit({"event": "job", "job_id": spec.job_id,
                              "state": "cached",
                              "status": memo.get("status"),
                              "detail": memo.get("detail", "")})
                        continue
                    try:
                        job = self.scheduler.enqueue(
                            payload, priority=priority, label=spec.job_id,
                            timeout=options.job_timeout)
                    except RuntimeError as exc:
                        driver.record(spec, {"status": "error",
                                             "detail": str(exc)})
                        continue
                    pending[job.future] = (driver, spec, job)
                    emit({"event": "job", "job_id": spec.job_id,
                          "state": "queued", "priority": priority})
            if not pending:
                if all(driver.done for driver in drivers):
                    break
                # Remaining jobs wait on settled-but-failed dependencies;
                # the next take_ready pass records the skips.
                continue
            done, _ = futures_wait(list(pending), timeout=0.25,
                                   return_when=FIRST_COMPLETED)
            for future in done:
                driver, spec, job = pending.pop(future)
                outcome = future.result()
                driver.record(spec, outcome)
                result = driver.results[spec.job_id]
                emit({"event": "job", "job_id": spec.job_id, "state": "done",
                      "status": result.status.value,
                      "seconds": result.seconds,
                      "detail": result.detail,
                      "attempts": job.attempts})

        return _engine_report(drivers, options, start)

    # ------------------------------------------------------------------
    # Job memo (cache-aware scheduling)
    # ------------------------------------------------------------------
    def _memo_path(self, fingerprint: str) -> Path:
        return self.cache_root / JOB_MEMO_DIR / fingerprint[:2] / \
            f"{fingerprint}.json"

    def _memo_lookup(self, payload: Dict[str, object]
                     ) -> Optional[Dict[str, object]]:
        if self.cache is None or not payload.get("use_cache", True):
            return None
        fingerprint = payload_fingerprint(payload)
        with self._lock:
            stored = self._memo.get(fingerprint)
        if stored is None:
            path = self._memo_path(fingerprint)
            if not path.exists():
                return None
            try:
                with open(path) as handle:
                    stored = json.load(handle)
            except (OSError, ValueError):
                try:
                    path.unlink()
                except OSError:
                    pass
                return None
            with self._lock:
                self._memo[fingerprint] = stored
        outcome = memo_outcome(stored)
        with self._lock:
            self._memo_hits += 1
        self._account(outcome)
        return outcome

    def _memo_store(self, job: QueuedJob, outcome: Dict[str, object]) -> None:
        if self.cache is None or not job.payload.get("use_cache", True):
            return
        if not memoizable_status(outcome.get("status")):
            return
        fingerprint = payload_fingerprint(job.payload)
        with self._lock:
            self._memo[fingerprint] = outcome
        path = self._memo_path(fingerprint)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            with open(tmp, "w") as handle:
                json.dump(outcome, handle)
            tmp.replace(path)
        except (OSError, TypeError, ValueError) as exc:
            LOGGER.warning("could not persist job memo %s: %s",
                           fingerprint[:12], exc)

    def _account(self, outcome: Dict[str, object]) -> None:
        with self._lock:
            for key, value in dict(outcome.get("counters", {})).items():
                self._counters[key] = self._counters.get(key, 0) + int(value)

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status_snapshot(self) -> Dict[str, object]:
        queue = self.scheduler.snapshot()
        with self._lock:
            workers = [record.describe(queue["inflight"])
                       for record in self._workers.values()]
            counters = dict(self._counters)
            memo_hits = self._memo_hits
            submissions = {"active": self._submissions_active,
                           "completed": self._submissions_done}
        jobs = dict(queue["stats"])
        jobs["memo_hits"] = memo_hits
        status = {
            "ok": True,
            "address": format_address(self.address),
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "workers": workers,
            "queue": queue,
            "jobs": jobs,
            "counters": counters,
            "cache": (self.cache.stats.as_dict()
                      if self.cache is not None else {}),
            "submissions": submissions,
        }
        from .metrics import fleet_metrics

        status["metrics"] = fleet_metrics(status)
        return status
