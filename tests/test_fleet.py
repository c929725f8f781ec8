"""Unit tests of the fleet building blocks: wire protocol framing, schema
versioning, the prioritised scheduler (requeue / quarantine / deadlines /
persistence) and the serialization hardening (round-trip properties of the
JobSpec/JobResult/SolverResult codecs, payload fingerprints, memo replay).

Everything here runs without sockets bound to real fleets — socketpairs for
framing, direct scheduler calls for queue semantics.
"""

import json
import socket
import struct
import threading

import numpy as np
import pytest

from repro.engine.jobs import JobResult, JobSpec, JobStatus
from repro.engine.serialize import (
    SCHEMA_VERSION,
    WireSchemaError,
    from_jsonable,
    job_result_from_wire,
    job_result_to_wire,
    job_spec_from_wire,
    job_spec_to_wire,
    memo_outcome,
    memoizable_status,
    payload_fingerprint,
    solver_result_from_wire,
    solver_result_to_wire,
    to_jsonable,
)
from repro.fleet.protocol import (
    ProtocolError,
    SchemaVersionError,
    WIRE_VERSION,
    format_address,
    parse_address,
    recv_message,
    send_message,
)
from repro.fleet.scheduler import (
    PRIORITY_BACKGROUND,
    PRIORITY_INTERACTIVE,
    FleetScheduler,
)
from repro.sdp.result import SolveHistory, SolverResult, SolverStatus


# ----------------------------------------------------------------------
# Wire protocol framing
# ----------------------------------------------------------------------
class TestProtocol:
    def test_round_trip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            message = {"type": "ping", "nested": {"x": [1, 2.5, "s", None]}}
            send_message(left, message)
            assert recv_message(right) == message
        finally:
            left.close()
            right.close()

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_message(right) is None
        finally:
            right.close()

    def test_mid_frame_eof_is_a_protocol_error(self):
        left, right = socket.socketpair()
        try:
            body = json.dumps({"v": WIRE_VERSION, "m": {}}).encode()
            left.sendall(struct.pack(">I", len(body)) + body[:3])
            left.close()
            with pytest.raises(ProtocolError):
                recv_message(right)
        finally:
            right.close()

    def test_version_mismatch_is_a_schema_error_not_keyerror(self):
        left, right = socket.socketpair()
        try:
            body = json.dumps({"v": 99, "m": {"type": "ping"}}).encode()
            left.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(SchemaVersionError, match="wire schema"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_non_json_frame_is_a_protocol_error(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", 4) + b"\xff\xfe\x00\x01")
            with pytest.raises(ProtocolError):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_parse_and_format_address(self):
        assert parse_address("host:1234") == ("host", 1234)
        assert parse_address(":1234") == ("127.0.0.1", 1234)
        assert parse_address("host")[0] == "host"
        assert format_address(("a", 7)) == "a:7"
        with pytest.raises(ValueError, match="not an integer"):
            parse_address("host:notaport")


# ----------------------------------------------------------------------
# Scheduler semantics
# ----------------------------------------------------------------------
class TestScheduler:
    def test_priority_preempts_and_fifo_within_priority(self):
        sched = FleetScheduler()
        low_a = sched.enqueue({"n": 1}, priority=PRIORITY_BACKGROUND)
        low_b = sched.enqueue({"n": 2}, priority=PRIORITY_BACKGROUND)
        high = sched.enqueue({"n": 3}, priority=PRIORITY_INTERACTIVE)
        order = [sched.next_job("w", wait_timeout=0).key for _ in range(3)]
        assert order == [high.key, low_a.key, low_b.key]

    def test_complete_resolves_future_and_returns_job(self):
        sched = FleetScheduler()
        queued = sched.enqueue({"n": 1}, label="job-a")
        job = sched.next_job("w", wait_timeout=0)
        outcome = {"status": "ok", "detail": "done"}
        returned = sched.complete("w", job.key, outcome)
        assert returned is queued
        assert queued.future.result(timeout=1) == outcome
        # A second (stale) report is discarded.
        assert sched.complete("w", job.key, {"status": "ok"}) is None

    def test_complete_from_wrong_worker_is_discarded(self):
        sched = FleetScheduler()
        sched.enqueue({"n": 1})
        job = sched.next_job("w1", wait_timeout=0)
        assert sched.complete("w2", job.key, {"status": "ok"}) is None
        assert sched.complete("w1", job.key, {"status": "ok"}) is not None

    def test_worker_death_requeues_with_attempt_count(self):
        sched = FleetScheduler(max_retries=2)
        queued = sched.enqueue({"n": 1})
        job = sched.next_job("w1", wait_timeout=0)
        assert job.attempts == 1
        assert sched.worker_died("w1") == [queued.key]
        job = sched.next_job("w2", wait_timeout=0)
        assert job.key == queued.key
        assert job.attempts == 2
        assert sched.stats["requeued"] == 1

    def test_poison_job_quarantined_after_max_retries(self):
        sched = FleetScheduler(max_retries=1)
        queued = sched.enqueue({"n": 1})
        for round_no in range(2):  # attempts 1 and 2 both die
            job = sched.next_job(f"w{round_no}", wait_timeout=0)
            assert job is not None
            sched.worker_died(f"w{round_no}")
        outcome = queued.future.result(timeout=1)
        assert outcome["status"] == "error"
        assert "poison" in outcome["detail"]
        assert sched.stats["quarantined"] == 1
        assert sched.next_job("w9", wait_timeout=0) is None

    def test_deadline_expiry_resolves_as_timeout(self):
        sched = FleetScheduler(default_timeout=0.5)
        queued = sched.enqueue({"n": 1})
        job = sched.next_job("w", wait_timeout=0)
        assert sched.check_deadlines(now=job.started_at + 0.4) == []
        assert sched.check_deadlines(now=job.started_at + 0.6) == [job.key]
        outcome = queued.future.result(timeout=1)
        assert outcome["status"] == "timeout"
        # The late worker report after the timeout is discarded.
        assert sched.complete("w", job.key, {"status": "ok"}) is None

    def test_long_poll_wakes_on_enqueue(self):
        sched = FleetScheduler()
        seen = []

        def puller():
            seen.append(sched.next_job("w", wait_timeout=5.0))

        thread = threading.Thread(target=puller)
        thread.start()
        queued = sched.enqueue({"n": 1})
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert seen and seen[0].key == queued.key

    def test_persist_and_restore_pending_queue(self, tmp_path):
        sched = FleetScheduler()
        sched.enqueue({"n": 1}, priority=3, label="a", timeout=7.0)
        sched.enqueue({"n": 2}, priority=1, label="b")
        path = tmp_path / "queue.json"
        assert sched.persist(path) == 2
        fresh = FleetScheduler()
        assert fresh.restore(path) == 2
        assert not path.exists()  # consumed, not replayed on every start
        first = fresh.next_job("w", wait_timeout=0)
        assert first.label == "a" and first.priority == 3
        assert first.timeout == 7.0
        assert fresh.next_job("w", wait_timeout=0).label == "b"

    def test_restore_ignores_garbage(self, tmp_path):
        path = tmp_path / "queue.json"
        path.write_text("{not json")
        assert FleetScheduler().restore(path) == 0

    def test_stop_refuses_new_work(self):
        sched = FleetScheduler()
        sched.stop()
        with pytest.raises(RuntimeError, match="shutting down"):
            sched.enqueue({"n": 1})
        assert sched.next_job("w", wait_timeout=0) is None


# ----------------------------------------------------------------------
# Serialization hardening: round-trip properties
# ----------------------------------------------------------------------
def _random_job_result(rng: np.random.Generator, index: int) -> JobResult:
    statuses = list(JobStatus)
    layouts = ["psd", "sdd", "dd"]
    counters = {"solved": int(rng.integers(0, 50)),
                "cache_hit": int(rng.integers(0, 50))}
    for layout in rng.choice(layouts, size=rng.integers(0, 3), replace=False):
        counters[f"solved:{layout}"] = int(rng.integers(0, 50))
    return JobResult(
        job_id=f"scenario{index}/step",
        scenario=f"scenario{index}",
        step=str(rng.choice(["lyapunov", "levelset", "advection"])),
        mode=None if rng.random() < 0.5 else "flow",
        status=statuses[int(rng.integers(0, len(statuses)))],
        seconds=float(rng.random() * 100),
        detail="detail with unicode ±∞ and \"quotes\"",
        data={"level": float(rng.standard_normal()),
              "nested": {"values": [float(v) for v in rng.standard_normal(3)]}},
        counters=counters,
        cache_stats={"hits": int(rng.integers(0, 9)),
                     "misses": int(rng.integers(0, 9)),
                     "writes": int(rng.integers(0, 9)), "corrupted": 0},
        relaxation=None if rng.random() < 0.3 else str(
            rng.choice(["sos", "sdsos", "dsos"])),
    )


class TestSerialization:
    def test_job_spec_round_trip(self):
        spec = JobSpec(job_id="s/advection:m1", scenario="s", step="advection",
                       mode="m1", depends_on=("s/lyapunov", "s/levelset:m1"))
        wire = json.loads(json.dumps(job_spec_to_wire(spec)))
        assert job_spec_from_wire(wire) == spec

    def test_job_result_round_trip_property(self):
        rng = np.random.default_rng(1234)
        for index in range(50):
            result = _random_job_result(rng, index)
            wire = json.loads(json.dumps(job_result_to_wire(result)))
            back = job_result_from_wire(wire)
            assert back == result, f"round-trip changed result #{index}"

    def test_solver_result_round_trip_preserves_float64_and_history(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(37)
        history = SolveHistory(primal=[1e-3, 1e-5], dual=[2e-3, 2e-5],
                               objective=[0.5, 0.25])
        result = SolverResult(
            status=SolverStatus.OPTIMAL, x=x, objective=float(x.sum()),
            primal_residual=1.23e-9, dual_residual=4.56e-10,
            equality_residual=7.89e-11, cone_violation=0.0,
            iterations=321, solve_time=0.125,
            info={"history": history, "scaled": True,
                  "warm_start_data": {"x": x, "z": x * 2, "u": x * 3},
                  "rho_final": 2.0})
        wire = json.loads(json.dumps(solver_result_to_wire(result)))
        back = solver_result_from_wire(wire)
        assert back.status is result.status
        np.testing.assert_array_equal(back.x, x)  # bit-exact float64
        assert back.objective == result.objective
        assert back.primal_residual == result.primal_residual
        assert isinstance(back.info["history"], SolveHistory)
        assert back.info["history"].primal == history.primal
        np.testing.assert_array_equal(back.info["warm_start_data"]["z"], x * 2)

    def test_unknown_schema_version_rejected_clearly(self):
        wire = job_result_to_wire(_random_job_result(np.random.default_rng(0), 0))
        wire["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(WireSchemaError, match="schema version"):
            job_result_from_wire(wire)
        with pytest.raises(WireSchemaError):
            solver_result_from_wire({"status": "optimal"})  # no tag at all
        with pytest.raises(WireSchemaError):
            job_spec_from_wire([1, 2, 3])  # not even an object

    def test_opaque_objects_survive_lenient_encoding(self):
        class Diagnostic:
            pass

        encoded = to_jsonable({"weird": Diagnostic(), "fine": 3}, strict=False)
        json.dumps(encoded)  # must be JSON-safe
        decoded = from_jsonable(encoded)
        assert decoded["fine"] == 3
        assert decoded["weird"] is None


# ----------------------------------------------------------------------
# Job memo: fingerprints and replay
# ----------------------------------------------------------------------
class TestJobMemo:
    def test_fingerprint_ignores_transport_fields(self):
        base = {"scenario": "vanderpol", "step": "lyapunov", "mode": None,
                "seed": 0, "use_cache": True, "cache_dir": "/a/b"}
        other = dict(base, use_cache=False, cache_dir=None)
        assert payload_fingerprint(base) == payload_fingerprint(other)

    def test_fingerprint_separates_semantic_fields(self):
        base = {"scenario": "vanderpol", "step": "lyapunov", "seed": 0}
        for field, value in [("scenario", "buck"), ("step", "levelset"),
                             ("seed", 1), ("relaxation", "dsos"),
                             ("backend", "projection")]:
            assert payload_fingerprint(dict(base, **{field: value})) != \
                payload_fingerprint(base), field

    def test_memo_outcome_counters_match_a_warm_redispatch(self):
        stored = {"status": "ok", "detail": "d", "seconds": 3.5,
                  "data": {"level": 1.0},
                  "counters": {"solved": 4, "cache_hit": 1,
                               "solved:psd": 3, "solved:sdd": 1,
                               "cache_hit:psd": 1},
                  "cache_stats": {"hits": 1, "misses": 4, "writes": 4,
                                  "corrupted": 0}}
        replay = memo_outcome(stored)
        # Every solve the original performed (or replayed) is now a hit.
        assert replay["counters"] == {"solved": 0, "cache_hit": 5,
                                      "cache_hit:psd": 4, "cache_hit:sdd": 1}
        assert replay["cache_stats"] == {"hits": 5, "misses": 0,
                                         "writes": 0, "corrupted": 0}
        assert replay["seconds"] == 0.0
        assert replay["status"] == "ok" and replay["data"] == stored["data"]
        assert stored["counters"]["solved"] == 4  # input not mutated

    def test_only_deterministic_outcomes_are_memoizable(self):
        assert memoizable_status("ok")
        assert memoizable_status("failed")
        for status in ("error", "timeout", "skipped", None, ""):
            assert not memoizable_status(status)
