"""Localhost fleet integration: a master and two in-process workers verify
real scenarios with results identical to the inline engine, survive a worker
killed mid-job via requeue, answer warm resubmissions from the job memo with
zero SDP solves anywhere, and persist their queue across a graceful shutdown.

Workers run on threads inside this process (the protocol neither knows nor
cares), so the tests are deterministic and carry no subprocess overhead; the
CLI subprocess path is exercised by the fleet-smoke CI job.
"""

import hashlib
import threading
import time

import numpy as np
import pytest

from repro.engine import EngineOptions, VerificationEngine
from repro.engine.cache import RemoteCacheClient
from repro.fleet import (
    FleetClient,
    FleetMaster,
    FleetWorker,
    WorkerKilled,
    render_prometheus,
    render_status_text,
)
from repro.fleet.master import PERSISTED_QUEUE_NAME
from repro.sdp.result import SolverResult, SolverStatus

SCENARIOS = ["vanderpol", "buck"]


def _start_fleet(tmp_dir, workers=2, **master_kwargs):
    master = FleetMaster(port=0, cache_dir=str(tmp_dir), **master_kwargs)
    master.start()
    fleet_workers = [FleetWorker(master.address, name=f"w{i}",
                                 poll_timeout=0.2) for i in range(workers)]
    threads = [worker.start_thread() for worker in fleet_workers]
    return master, fleet_workers, threads


def _stop_fleet(master, workers, threads):
    for worker in workers:
        worker.stop()
    for thread in threads:
        thread.join(timeout=10)
    master.stop()


def _scenario(report_json, name):
    for scenario in report_json["scenarios"]:
        if scenario["scenario"] == name:
            return scenario
    raise KeyError(name)


def _statuses(scenario_json):
    return {job["job_id"]: job["status"] for job in scenario_json["jobs"]}


def _invariant_rows(scenario_json):
    return scenario_json["report"]["property_one"]["invariant"]


def _table2_columns(scenario_json):
    """Table-2 rows minus the wall-clock column (step, detail, relaxation)."""
    return [(row["step"], row["detail"], row["relaxation"])
            for row in scenario_json["report"]["timings"]]


# ----------------------------------------------------------------------
# Shared fixtures: one inline baseline, one long-lived fleet
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def inline_report(tmp_path_factory):
    """The ground truth: the in-process engine at jobs=1, fresh cache."""
    cache = tmp_path_factory.mktemp("inline_cache")
    engine = VerificationEngine(EngineOptions(jobs=1, cache_dir=str(cache)))
    return engine.run(SCENARIOS).to_json_dict()


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    cache = tmp_path_factory.mktemp("fleet_cache")
    master, workers, threads = _start_fleet(cache, workers=2)
    time.sleep(0.2)  # let both workers register
    yield master
    _stop_fleet(master, workers, threads)


@pytest.fixture(scope="module")
def fleet_cold(fleet):
    """The fleet's first (cache-cold) run over both scenarios."""
    client = FleetClient(fleet.address)
    return client.submit(SCENARIOS)


# ----------------------------------------------------------------------
# Engine-vs-fleet parity
# ----------------------------------------------------------------------
class TestFleetParity:
    def test_cold_run_matches_inline_engine(self, inline_report, fleet_cold):
        assert fleet_cold["ok"] is True
        report = fleet_cold["report"]
        for name in SCENARIOS:
            inline = _scenario(inline_report, name)
            remote = _scenario(report, name)
            assert remote["matches_expected"] is True
            assert _statuses(remote) == _statuses(inline)
            # Invariant levels are float64-bit-identical: solves are
            # deterministic and the wire codec round-trips exactly.
            assert _invariant_rows(remote) == _invariant_rows(inline)
            assert _table2_columns(remote) == _table2_columns(inline)
            assert remote["counters"] == inline["counters"]
        assert report["engine"]["counters"] == inline_report["engine"]["counters"]

    def test_cold_run_used_both_workers_or_at_least_dispatched(self, fleet,
                                                               fleet_cold):
        status = FleetClient(fleet.address).status()
        assert status["jobs"]["dispatched"] >= len(SCENARIOS)
        assert status["jobs"]["completed"] == status["jobs"]["dispatched"]
        assert len(status["workers"]) == 2

    def test_warm_resubmission_is_zero_solves_fleet_wide(self, fleet,
                                                         inline_report,
                                                         fleet_cold):
        client = FleetClient(fleet.address)
        before = client.status()
        warm = client.submit(SCENARIOS)
        after = client.status()
        counters = warm["report"]["engine"]["counters"]
        assert counters.get("solved", 0) == 0
        assert counters.get("cache_hit", 0) > 0
        # Nothing was dispatched to any worker: the memo answered everything.
        assert after["jobs"]["dispatched"] == before["jobs"]["dispatched"]
        assert after["jobs"]["memo_hits"] > before["jobs"]["memo_hits"]
        for name in SCENARIOS:
            assert _statuses(_scenario(warm["report"], name)) == \
                _statuses(_scenario(inline_report, name))

    def test_engine_with_fleet_executor_matches_inline(self, fleet,
                                                       inline_report,
                                                       fleet_cold, tmp_path):
        """``verify --fleet``: the engine's DistributedExecutor path."""
        options = EngineOptions(jobs=2, cache_dir=str(tmp_path),
                                fleet=f"127.0.0.1:{fleet.port}")
        report = VerificationEngine(options).run(SCENARIOS)
        assert report.all_match_expected
        # Warm fleet memo: this client performed zero solves anywhere.
        assert report.counters.get("solved", 0) == 0
        payload = report.to_json_dict()
        for name in SCENARIOS:
            assert _statuses(_scenario(payload, name)) == \
                _statuses(_scenario(inline_report, name))
            assert _invariant_rows(_scenario(payload, name)) == \
                _invariant_rows(_scenario(inline_report, name))

    def test_interactive_submission_streams_job_events(self, fleet,
                                                       fleet_cold):
        events = []
        client = FleetClient(fleet.address)
        done = client.submit(["vanderpol"], watch=True, on_event=events.append)
        assert done["ok"] is True
        job_events = [event for event in events if event.get("event") == "job"]
        assert job_events, "watch submission streamed no job events"
        # Warm memo: every event reports the cached fast path.
        assert {event["state"] for event in job_events} == {"cached"}

    def test_status_snapshot_renders_text_and_prometheus(self, fleet,
                                                         fleet_cold):
        status = FleetClient(fleet.address).status()
        text = "\n".join(render_status_text(status))
        assert "queue" in text and "workers (2)" in text
        prom = render_prometheus(status["metrics"])
        assert "repro_workers_connected 2" in prom
        assert "repro_solves_total" in prom
        assert status["metrics"]["schema"] == 1


# ----------------------------------------------------------------------
# Shared certificate cache
# ----------------------------------------------------------------------
class TestRemoteCache:
    def test_solver_results_shared_across_clients(self, fleet, fleet_cold):
        key = hashlib.sha256(b"fleet-remote-cache-test").hexdigest()
        rng = np.random.default_rng(5)
        stored = SolverResult(status=SolverStatus.OPTIMAL,
                              x=rng.standard_normal(11),
                              objective=1.5, iterations=12, solve_time=0.01,
                              info={"rho_final": 2.0})
        writer = RemoteCacheClient(fleet.address)
        reader = RemoteCacheClient(fleet.address)
        try:
            assert reader.get(key) is None           # miss before the write
            writer.put(key, stored)
            fetched = reader.get(key)
            assert fetched is not None
            np.testing.assert_array_equal(fetched.x, stored.x)
            assert fetched.status is SolverStatus.OPTIMAL
            assert reader.stats.hits == 1 and reader.stats.misses == 1
            assert writer.stats.writes == 1
        finally:
            writer.close()
            reader.close()

    def test_unreachable_master_degrades_to_miss(self):
        client = RemoteCacheClient(("127.0.0.1", 1))  # nothing listens here
        try:
            assert client.get("ab" * 32) is None
            client.put("ab" * 32, SolverResult(status=SolverStatus.OPTIMAL,
                                               x=np.zeros(1)))
            assert client.stats.misses == 1 and client.stats.writes == 0
        finally:
            client.close()


# ----------------------------------------------------------------------
# Requeue-on-death
# ----------------------------------------------------------------------
class _BlockingExecutor:
    """Holds its job hostage until the test kills the worker."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, payload, cache):  # noqa: ARG002 - executor protocol
        self.started.set()
        self.release.wait(timeout=30)
        raise WorkerKilled()


class TestRequeueOnDeath:
    def test_killed_worker_requeues_job_and_report_is_unaffected(
            self, inline_report, tmp_path):
        master = FleetMaster(port=0, cache_dir=str(tmp_path))
        master.start()
        blocking = _BlockingExecutor()
        doomed = FleetWorker(master.address, name="doomed",
                             poll_timeout=0.2, executor=blocking)
        doomed_thread = doomed.start_thread()
        survivor = None
        try:
            client = FleetClient(master.address)
            events = []
            submission = {}

            def submit():
                submission["done"] = client.submit(
                    ["vanderpol"], watch=True, on_event=events.append)

            submit_thread = threading.Thread(target=submit, daemon=True)
            submit_thread.start()
            assert blocking.started.wait(timeout=20), \
                "the doomed worker never received the job"
            # SIGKILL equivalent: connections drop, no report, no deregister.
            doomed.kill()
            blocking.release.set()
            doomed_thread.join(timeout=10)
            assert not doomed_thread.is_alive()

            survivor = FleetWorker(master.address, name="survivor",
                                   poll_timeout=0.2)
            survivor_thread = survivor.start_thread()
            submit_thread.join(timeout=180)
            assert not submit_thread.is_alive(), "submission never finished"

            done = submission["done"]
            assert done["ok"] is True
            remote = _scenario(done["report"], "vanderpol")
            assert remote["matches_expected"] is True
            assert _statuses(remote) == \
                _statuses(_scenario(inline_report, "vanderpol"))
            assert _invariant_rows(remote) == \
                _invariant_rows(_scenario(inline_report, "vanderpol"))

            status = client.status()
            assert status["jobs"]["requeued"] >= 1
            # The requeued job's completion event records the retry.
            attempts = [event.get("attempts", 1) for event in events
                        if event.get("state") == "done"]
            assert max(attempts) >= 2
            survivor.stop()
            survivor_thread.join(timeout=10)
        finally:
            blocking.release.set()
            if survivor is not None:
                survivor.stop()
            master.stop()

    def test_poison_job_quarantined_not_retried_forever(self, tmp_path):
        master = FleetMaster(port=0, cache_dir=str(tmp_path), max_retries=0)
        master.start()
        blocking = _BlockingExecutor()
        doomed = FleetWorker(master.address, name="doomed",
                             poll_timeout=0.2, executor=blocking)
        thread = doomed.start_thread()
        try:
            client = FleetClient(master.address)
            result = {}

            def run_one():
                result["outcome"] = client.exec_job(
                    {"scenario": "vanderpol", "step": "lyapunov",
                     "use_cache": False}, label="poison")

            runner = threading.Thread(target=run_one, daemon=True)
            runner.start()
            assert blocking.started.wait(timeout=20)
            doomed.kill()
            blocking.release.set()
            runner.join(timeout=20)
            assert not runner.is_alive()
            assert result["outcome"]["status"] == "error"
            assert "poison" in result["outcome"]["detail"]
            assert client.status()["jobs"]["quarantined"] == 1
        finally:
            blocking.release.set()
            master.stop()
            thread.join(timeout=10)


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_worker_stop_deregisters_cleanly(self, tmp_path):
        master, workers, threads = _start_fleet(tmp_path, workers=1)
        try:
            deadline = time.monotonic() + 5
            client = FleetClient(master.address)
            while time.monotonic() < deadline:
                if len(client.status()["workers"]) == 1:
                    break
                time.sleep(0.05)
            workers[0].stop()
            threads[0].join(timeout=10)
            status = client.status()
            assert status["workers"] == []
            assert status["jobs"]["requeued"] == 0
        finally:
            _stop_fleet(master, workers, threads)

    def test_shutdown_persists_pending_queue_and_restart_restores_it(
            self, tmp_path):
        master = FleetMaster(port=0, cache_dir=str(tmp_path))
        master.start()  # no workers: enqueued jobs stay pending
        client = FleetClient(master.address)
        outcome = {}

        def submit_one():
            try:
                outcome["value"] = client.exec_job(
                    {"scenario": "vanderpol", "step": "lyapunov",
                     "use_cache": False}, label="pending-at-shutdown")
            except Exception as exc:  # connection may die with the master
                outcome["error"] = exc

        runner = threading.Thread(target=submit_one, daemon=True)
        runner.start()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if client.status()["queue"]["depth"] == 1:
                break
            time.sleep(0.05)
        assert master.scheduler.snapshot()["depth"] == 1
        master.stop()
        runner.join(timeout=10)
        assert not runner.is_alive()
        # The abandoned client learned its job could not run...
        assert "error" in outcome or outcome["value"]["status"] == "error"
        # ...and the queue survived on disk for the next master.
        persisted = tmp_path / PERSISTED_QUEUE_NAME
        assert persisted.exists()

        reborn = FleetMaster(port=0, cache_dir=str(tmp_path))
        reborn.start()
        try:
            assert not persisted.exists()  # consumed on restore
            assert reborn.scheduler.snapshot()["depth"] == 1
        finally:
            reborn.stop()
