"""The distributed backend: protocol, checkpointing, faults, determinism.

The load-bearing property mirrors the engine suite: for a fixed seed the
distributed backend must reduce to *byte-identical* tables no matter how
many workers serve the run, which chunks land where, or which workers
die mid-stream.  Fault injection runs both in-process (protocol-level
mute/drain workers) and against real ``python -m repro worker``
subprocesses (SIGKILL mid-chunk, SIGTERM graceful drain, checkpoint
resume after a torn journal).
"""

import os
import signal
import socket
import threading
import time

import pytest

from repro.experiments.common import get_preset
from repro.experiments.distributed.checkpoint import (
    CheckpointJournal,
    CheckpointMismatch,
)
from repro.experiments.distributed.coordinator import (
    Coordinator,
    DistributedError,
    DistributedExecutor,
)
from repro.experiments.distributed.protocol import (
    CHUNK,
    HELLO,
    ConnectionClosed,
    parse_endpoint,
    recv_frame,
    send_frame,
)
from repro.experiments.distributed.worker import Worker
from repro.experiments.engine import use_executor
from repro.experiments.mobility import run_mobility_experiment
from repro.experiments.table2 import run_table2
from repro.experiments.table4 import run_table4
from repro.util.errors import ReproError

QUICK = get_preset("quick")


# Module-level task functions (workers pickle them by qualified name; the
# in-process worker threads unpickle them from this very module).

def _square(task):
    return task * task


def _slow_square(task):
    time.sleep(0.05)
    return task * task


def _explode_on_three(task):
    if task == 3:
        raise ValueError("task 3 exploded")
    return task


def _endpoint(coordinator):
    host, port = coordinator.address
    return f"{host}:{port}"


def _start_thread_worker(coordinator, name=None):
    """An in-process worker serving ``coordinator`` from a daemon thread."""
    worker = Worker(_endpoint(coordinator), heartbeat_interval=0.05,
                    name=name)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


class TestProtocol:
    def test_frame_roundtrip(self):
        left, right = socket.socketpair()
        try:
            payloads = [("hello", "w1"), ("chunk", 3, _square, [1, 2]),
                        ("blob", b"x" * (3 << 20)), ("heartbeat",)]
            for payload in payloads:
                # Send from a thread: a multi-megabyte frame overflows the
                # socketpair buffer, so the reader must run concurrently.
                sender = threading.Thread(
                    target=send_frame, args=(left, payload))
                sender.start()
                received = recv_frame(right)
                sender.join()
                assert received[0] == payload[0]
                assert received[-1] == payload[-1]
        finally:
            left.close()
            right.close()

    def test_eof_raises_connection_closed(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(ConnectionClosed):
                recv_frame(right)
        finally:
            right.close()

    def test_locked_send_interleaves_cleanly(self):
        left, right = socket.socketpair()
        lock = threading.Lock()
        try:
            threads = [threading.Thread(
                target=lambda i=i: send_frame(
                    left, ("msg", i, b"p" * 70_000), lock))
                for i in range(8)]
            for thread in threads:
                thread.start()
            seen = {recv_frame(right)[1] for _ in range(8)}
            assert seen == set(range(8))
            for thread in threads:
                thread.join()
        finally:
            left.close()
            right.close()

    def test_parse_endpoint(self):
        assert parse_endpoint("host:5555") == ("host", 5555)
        assert parse_endpoint(("1.2.3.4", 9)) == ("1.2.3.4", 9)
        assert parse_endpoint("lonehost") == ("lonehost", 0)
        with pytest.raises(ReproError):
            parse_endpoint("host:not-a-port")


class TestCheckpointJournal:
    META = {"label": "toy", "index": 0, "tasks": 6, "chunk_size": 1}

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "toy.journal")
        with CheckpointJournal.open(path, self.META) as journal:
            assert journal.completed == {}
            journal.record(0, [10])
            journal.record(2, [30])
        with CheckpointJournal.open(path, self.META) as journal:
            assert journal.completed == {0: [10], 2: [30]}

    def test_torn_tail_is_dropped_and_overwritten(self, tmp_path):
        path = str(tmp_path / "toy.journal")
        with CheckpointJournal.open(path, self.META) as journal:
            journal.record(0, [10])
            journal.record(1, [20])
        intact = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"\x00\x01torn-half-written-record")
        with CheckpointJournal.open(path, self.META) as journal:
            assert journal.completed == {0: [10], 1: [20]}
            journal.record(2, [30])
        assert os.path.getsize(path) > intact
        with CheckpointJournal.open(path, self.META) as journal:
            assert journal.completed == {0: [10], 1: [20], 2: [30]}

    def test_meta_mismatch_is_rejected(self, tmp_path):
        path = str(tmp_path / "toy.journal")
        CheckpointJournal.open(path, self.META).close()
        other = dict(self.META, tasks=7)
        with pytest.raises(CheckpointMismatch):
            CheckpointJournal.open(path, other)


class TestCoordinator:
    def test_results_in_submission_order(self):
        with Coordinator(heartbeat_timeout=2.0, worker_wait=10.0) as coord:
            for index in range(3):
                _start_thread_worker(coord, name=f"w{index}")
            assert coord.wait_for_workers(3, timeout=5)
            tasks = list(range(17))
            results = coord.submit_all(tasks, _slow_square, chunk_size=1)
            assert results == [task * task for task in tasks]
            # A second submission reuses the same connected workers.
            assert coord.submit_all([5, 6], _square) == [25, 36]

    @pytest.mark.parametrize("workers", [0, 1])
    def test_close_is_prompt_and_joins_every_thread(self, workers):
        coord = Coordinator(worker_wait=10.0)
        threads = [_start_thread_worker(coord)[1] for _ in range(workers)]
        assert coord.wait_for_workers(workers, timeout=5)
        start = time.perf_counter()
        coord.close()
        assert time.perf_counter() - start < 0.5
        for thread in threads:
            thread.join(timeout=5)
        assert not [thread.name for thread in threading.enumerate()
                    if thread.name.startswith("repro-")]

    def test_empty_submission(self):
        with Coordinator(worker_wait=1.0) as coord:
            assert coord.submit_all([], _square) == []

    def test_chunked_submission(self):
        with Coordinator(worker_wait=10.0) as coord:
            _start_thread_worker(coord)
            assert coord.wait_for_workers(1, timeout=5)
            results = coord.submit_all(list(range(10)), _square,
                                       chunk_size=4)
            assert results == [task * task for task in range(10)]

    def test_worker_exception_reraises_original_type(self):
        with Coordinator(worker_wait=10.0) as coord:
            _start_thread_worker(coord)
            assert coord.wait_for_workers(1, timeout=5)
            with pytest.raises(ValueError, match="task 3 exploded") as info:
                coord.submit_all(list(range(6)), _explode_on_three)
            assert isinstance(info.value.__cause__, DistributedError)
            # The coordinator stays usable for the next submission.
            assert coord.submit_all([2], _square) == [4]

    def test_unpicklable_chunk_fails_fast_without_killing_workers(self):
        """A run function that cannot be pickled is a submission error,
        not a worker failure: the real exception surfaces immediately and
        the worker stays registered for the next submission."""
        with Coordinator(worker_wait=10.0) as coord:
            _start_thread_worker(coord)
            assert coord.wait_for_workers(1, timeout=5)
            with pytest.raises(Exception) as info:
                coord.submit_all([1, 2], lambda task: task)
            assert "pickle" in str(info.value).lower() \
                or "lambda" in str(info.value).lower()
            assert coord.worker_count == 1
            assert coord.submit_all([3], _square) == [9]

    def test_mismatched_heartbeat_settings_rejected(self):
        with pytest.raises(ReproError, match="heartbeat_interval"):
            DistributedExecutor(workers=0, heartbeat_interval=6.0,
                                heartbeat_timeout=10.0)

    def test_no_workers_fails_loudly(self):
        with Coordinator(worker_wait=0.3) as coord:
            with pytest.raises(DistributedError, match="no workers"):
                coord.submit_all([1, 2, 3], _square)

    def test_dropped_heartbeat_requeues_onto_survivor(self):
        """A worker that claims a chunk and goes mute times out; its
        chunk is re-queued onto the surviving worker."""
        with Coordinator(heartbeat_timeout=0.4, worker_wait=10.0) as coord:
            mute = socket.create_connection(coord.address)
            try:
                send_frame(mute, (HELLO, "mute"))
                assert coord.wait_for_workers(1, timeout=5)
                _start_thread_worker(coord, name="good")
                assert coord.wait_for_workers(2, timeout=5)
                claimed = {}

                def sit_on_chunk():
                    message = recv_frame(mute)
                    claimed["message"] = message
                    # ... and never answer, never heartbeat.

                listener = threading.Thread(target=sit_on_chunk, daemon=True)
                listener.start()
                tasks = list(range(8))
                results = coord.submit_all(tasks, _slow_square, chunk_size=1)
                assert results == [task * task for task in tasks]
                assert claimed["message"][0] == CHUNK
                assert coord.worker_count == 1  # the mute one was retired
            finally:
                mute.close()

    def test_graceful_drain_loses_nothing(self):
        with Coordinator(heartbeat_timeout=2.0, worker_wait=10.0) as coord:
            draining, _ = _start_thread_worker(coord, name="draining")
            _start_thread_worker(coord, name="staying")
            assert coord.wait_for_workers(2, timeout=5)
            tasks = list(range(24))
            stop = threading.Timer(0.15, draining.request_drain)
            stop.start()
            try:
                results = coord.submit_all(tasks, _slow_square, chunk_size=1)
            finally:
                stop.cancel()
            assert results == [task * task for task in tasks]

    def test_resume_skips_journaled_chunks(self, tmp_path):
        """Chunks found in the journal are trusted verbatim (the marker
        results prove they were not re-executed); the torn tail chunk is
        re-run."""
        meta = {"label": "toy", "index": 0, "tasks": 6, "chunk_size": 1}
        path = str(tmp_path / "toy-0000.journal")
        with CheckpointJournal.open(path, meta) as journal:
            journal.record(0, ["marker-0"])
            journal.record(1, ["marker-1"])
        with open(path, "ab") as handle:
            handle.write(b"torn!")  # crash mid-append of chunk 2
        with Coordinator(worker_wait=10.0) as coord:
            _start_thread_worker(coord)
            assert coord.wait_for_workers(1, timeout=5)
            with CheckpointJournal.open(path, meta) as journal:
                assert set(journal.completed) == {0, 1}
                results = coord.submit_all(list(range(6)), _square,
                                           chunk_size=1, journal=journal)
        assert results == ["marker-0", "marker-1", 4, 9, 16, 25]
        with CheckpointJournal.open(path, meta) as journal:
            assert set(journal.completed) == {0, 1, 2, 3, 4, 5}


@pytest.fixture(scope="module")
def serial_tables():
    """Serial-oracle tables shared by the determinism assertions."""
    return {
        "table2": str(run_table2(QUICK, rng=2024, jobs=1)),
        "table4": str(run_table4(QUICK, rng=2024, jobs=1)),
        "mobility": str(run_mobility_experiment(QUICK, rng=2024, runs=2,
                                                jobs=1)),
    }


def _run_family(name):
    if name == "table2":
        return str(run_table2(QUICK, rng=2024))
    if name == "table4":
        return str(run_table4(QUICK, rng=2024))
    return str(run_mobility_experiment(QUICK, rng=2024, runs=2))


class TestBackendDeterminism:
    """table2/table4/mobility quick presets: serial == pool == distributed."""

    @pytest.mark.parametrize("family", ["table2", "table4", "mobility"])
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_pool_matches_serial(self, serial_tables, family, jobs):
        if family == "table2":
            table = run_table2(QUICK, rng=2024, jobs=jobs)
        elif family == "table4":
            table = run_table4(QUICK, rng=2024, jobs=jobs)
        else:
            table = run_mobility_experiment(QUICK, rng=2024, runs=2,
                                            jobs=jobs)
        assert str(table) == serial_tables[family]

    def test_distributed_matches_serial(self, serial_tables):
        with DistributedExecutor(workers=2, heartbeat_interval=0.2) \
                as executor, use_executor(executor):
            for family in ("table2", "table4", "mobility"):
                assert _run_family(family) == serial_tables[family]

    def test_worker_killed_mid_stream_matches_serial(self, serial_tables):
        """SIGKILL one of two real worker processes mid-run: its chunk is
        re-queued and the reduced table is still byte-identical."""
        with DistributedExecutor(workers=2, heartbeat_interval=0.2,
                                 heartbeat_timeout=2.0) as executor, \
                use_executor(executor):
            executor.start()
            victim = executor._processes[0]
            # Let both workers register so the victim is actually
            # streaming chunks when the SIGKILL lands.
            assert executor._coordinator.wait_for_workers(2, timeout=15)
            killer = threading.Timer(0.3, victim.kill)
            killer.start()
            try:
                table = _run_family("table4")
            finally:
                killer.cancel()
            victim.wait(timeout=10)
            assert victim.returncode is not None
            assert table == serial_tables["table4"]

    def test_worker_sigterm_drains_gracefully(self, serial_tables):
        """SIGTERM (graceful drain) on a real worker process: it finishes
        its chunk, announces the drain, and exits cleanly."""
        with DistributedExecutor(workers=2, heartbeat_interval=0.2) \
                as executor, use_executor(executor):
            executor.start()
            victim = executor._processes[0]
            # Only signal once both workers are registered: registration
            # happens after the worker installed its SIGTERM handler, so
            # the signal cannot land during interpreter startup.
            assert executor._coordinator.wait_for_workers(2, timeout=15)
            stopper = threading.Timer(
                0.2, lambda: victim.send_signal(signal.SIGTERM))
            stopper.start()
            try:
                table = _run_family("table2")
            finally:
                stopper.cancel()
            assert table == serial_tables["table2"]
            assert victim.wait(timeout=10) == 0

    def test_checkpoint_resume_after_torn_journal(self, serial_tables,
                                                  tmp_path):
        """Interrupt a checkpointed run (simulated by tearing the journal
        tail), then resume with a fresh executor: journaled chunks are
        not re-executed and the table equals the serial oracle."""
        checkpoint = str(tmp_path / "ckpt")
        with DistributedExecutor(workers=2, heartbeat_interval=0.2,
                                 checkpoint=checkpoint) as executor, \
                use_executor(executor):
            first = _run_family("table2")
        assert first == serial_tables["table2"]
        journals = sorted(os.listdir(checkpoint))
        assert journals == ["table2-0000.journal"]
        path = os.path.join(checkpoint, journals[0])
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 7)  # tear the tail
        with DistributedExecutor(workers=2, heartbeat_interval=0.2,
                                 checkpoint=checkpoint) as executor, \
                use_executor(executor):
            resumed = _run_family("table2")
        assert resumed == serial_tables["table2"]


class TestDistributedExecutor:
    def test_workers_zero_waits_for_external_workers(self):
        executor = DistributedExecutor(workers=0, worker_wait=10.0)
        try:
            host, port = executor.start()
            worker = Worker(f"{host}:{port}", heartbeat_interval=0.05)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            results = executor.submit_all([1, 2, 3], _square)
            assert results == [1, 4, 9]
        finally:
            executor.close()

    def test_checkpoint_meta_guards_workload_changes(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        executor = DistributedExecutor(workers=0, checkpoint=checkpoint,
                                       worker_wait=10.0)
        try:
            host, port = executor.start()
            worker = Worker(f"{host}:{port}", heartbeat_interval=0.05)
            threading.Thread(target=worker.run, daemon=True).start()
            assert executor.submit_all([1, 2], _square, label="toy") \
                == [1, 4]
        finally:
            executor.close()
        # A different task count under the same label+index must refuse
        # to splice the stale journal.
        executor = DistributedExecutor(workers=0, checkpoint=checkpoint,
                                       worker_wait=10.0)
        try:
            with pytest.raises(CheckpointMismatch):
                executor.submit_all([1, 2, 3], _square, label="toy")
        finally:
            executor.close()
        # So must the same *shape* with different task content (e.g. the
        # same command line re-run under a different seed): the journal
        # meta binds the task digest, not just the count.
        executor = DistributedExecutor(workers=0, checkpoint=checkpoint,
                                       worker_wait=10.0)
        try:
            with pytest.raises(CheckpointMismatch):
                executor.submit_all([5, 6], _square, label="toy")
        finally:
            executor.close()
