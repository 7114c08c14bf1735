"""TCP coordinator: chunk, dispatch, reassemble -- deterministically.

The coordinator owns one listening socket.  Workers connect (locally or
from other hosts), identify themselves, and are then fed task *chunks*:
contiguous slices of the submission's task list, identified by their
position.  Results stream back per chunk and are reassembled **in
submission order**, so every reducer sees the exact sequence the serial
backend would produce -- which chunk ran where, in what order, or how
often (after a failure) is invisible in the output.

Fault model
-----------
* A worker that dies mid-chunk (connection drop) or goes silent longer
  than ``heartbeat_timeout`` has its in-flight chunk re-queued onto the
  surviving workers.  Chunks carry a submission generation tag, so a
  result from a presumed-dead straggler of an older submission is
  discarded instead of corrupting a newer one.
* A worker may *drain* (SIGTERM): it finishes its current chunk, sends
  the result, announces the drain, and exits; nothing is lost.
* If every worker is gone and no replacement registers within
  ``worker_wait`` seconds, the submission fails loudly rather than
  hanging forever.
* With a :class:`~repro.experiments.distributed.checkpoint.
  CheckpointJournal` attached, every completed chunk is journaled before
  it counts as done; a resumed submission pre-fills journaled chunks and
  only executes the remainder.

:class:`DistributedExecutor` packages a coordinator behind the engine's
:class:`~repro.experiments.engine.Executor` seam and can spawn loopback
worker processes for single-host fan-out.
"""

import os
import socket
import subprocess
import sys
import threading
import time
import traceback
from collections import deque

from repro.experiments.distributed.checkpoint import (
    CheckpointJournal,
    tasks_digest,
)
from repro.experiments.distributed.protocol import (
    CHUNK,
    DRAIN,
    ERROR,
    HEARTBEAT,
    HELLO,
    RESULT,
    SHUTDOWN,
    ProtocolError,
    parse_endpoint,
    recv_frame,
    send_frame,
)
from repro.experiments.engine import Executor
from repro.util.errors import ReproError

DEFAULT_CHUNK_SIZE = 1


class DistributedError(ReproError):
    """A distributed submission could not complete."""


class _WorkerState:
    """Book-keeping for one connected worker (owned by its handler)."""

    def __init__(self, sock, address, name):
        self.sock = sock
        self.address = address
        self.name = name
        self.in_flight = None  # (generation, chunk_id, tasks) or None
        self.draining = False


class Coordinator:
    """Accepts workers and schedules submissions over them."""

    def __init__(self, bind=("127.0.0.1", 0), heartbeat_timeout=10.0,
                 worker_wait=30.0):
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.worker_wait = float(worker_wait)
        self._listener = socket.create_server(parse_endpoint(bind))
        self._cond = threading.Condition()
        self._workers = {}  # id(state) -> _WorkerState
        self._handlers = []
        self._pending = deque()  # (chunk_id, tasks) of the live submission
        self._results = {}
        self._expected = 0
        self._run = None
        self._journal = None
        self._failure = None  # (exception, traceback string)
        self._generation = 0
        self._closing = False
        self._progress_at = time.monotonic()
        self._submit_lock = threading.Lock()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-coordinator-accept",
            daemon=True)
        self._accept_thread.start()

    @property
    def address(self):
        """The ``(host, port)`` workers should connect to."""
        return self._listener.getsockname()[:2]

    @property
    def worker_count(self):
        with self._cond:
            return len(self._workers)

    def wait_for_workers(self, count, timeout=None):
        """Block until ``count`` workers are registered (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while len(self._workers) < count:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(0.05 if remaining is None
                                else min(0.05, remaining))
        return True

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit_all(self, tasks, run, label=None, chunk_size=None,
                   journal=None):
        """Execute ``run`` over ``tasks`` on the connected workers.

        Returns the per-task results in submission order.  ``journal``
        (a :class:`CheckpointJournal`) pre-fills chunks completed by an
        interrupted run and records every chunk completed by this one.
        """
        tasks = list(tasks)
        chunk_size = max(1, int(chunk_size or DEFAULT_CHUNK_SIZE))
        chunks = [(index, tasks[offset:offset + chunk_size])
                  for index, offset in enumerate(
                      range(0, len(tasks), chunk_size))]
        if not chunks:
            return []
        with self._submit_lock:
            with self._cond:
                if self._closing:
                    raise DistributedError("coordinator is closed")
                self._generation += 1
                self._results = {}
                if journal is not None:
                    self._results.update(
                        {chunk_id: results
                         for chunk_id, results in journal.completed.items()
                         if chunk_id < len(chunks)})
                self._pending = deque(
                    chunk for chunk in chunks
                    if chunk[0] not in self._results)
                self._expected = len(chunks)
                self._run = run
                self._journal = journal
                self._failure = None
                self._progress_at = time.monotonic()
                self._cond.notify_all()
                self._await_completion()
                failure = self._failure
                self._pending = deque()
                self._run = None
                self._journal = None
        if failure is not None:
            exception, trace = failure
            if trace:
                raise exception from DistributedError(
                    f"worker task failed; remote traceback:\n{trace}")
            raise exception
        return [result
                for chunk_id in range(len(chunks))
                for result in self._results[chunk_id]]

    def _await_completion(self):
        """Wait (cond held) until the submission finishes or fails."""
        while True:
            if self._failure is not None:
                return
            if len(self._results) >= self._expected:
                return
            if not self._workers and not self._accepting():
                self._failure = (DistributedError(
                    "coordinator listener is closed with work pending"), "")
                return
            stalled = time.monotonic() - self._progress_at
            if not self._workers and stalled > self.worker_wait:
                self._failure = (DistributedError(
                    f"no workers connected within {self.worker_wait:.0f}s "
                    f"({self._expected - len(self._results)} chunk(s) "
                    "unfinished)"), "")
                return
            self._cond.wait(0.05)

    def _accepting(self):
        return not self._closing

    # ------------------------------------------------------------------
    # worker handling
    # ------------------------------------------------------------------

    def _accept_loop(self):
        while True:
            try:
                sock, address = self._listener.accept()
            except OSError:
                return  # listener closed
            handler = threading.Thread(
                target=self._serve_worker, args=(sock, address),
                name=f"repro-coordinator-worker-{address}", daemon=True)
            self._handlers = [thread for thread in self._handlers
                              if thread.is_alive()]
            self._handlers.append(handler)
            handler.start()

    def _serve_worker(self, sock, address):
        state = None
        try:
            sock.settimeout(self.heartbeat_timeout)
            hello = recv_frame(sock)
            if not (isinstance(hello, tuple) and hello
                    and hello[0] == HELLO):
                raise ProtocolError(f"expected hello, got {hello!r}")
            name = hello[1] if len(hello) > 1 else f"{address[0]}:{address[1]}"
            state = _WorkerState(sock, address, name)
            with self._cond:
                if self._closing:
                    return
                self._workers[id(state)] = state
                self._progress_at = time.monotonic()
                self._cond.notify_all()
            self._feed_worker(state)
        except Exception:
            # Timeouts, connection drops, malformed or unpicklable frames:
            # whatever killed this worker, retiring it re-queues the
            # in-flight chunk onto the survivors, which is always safe.
            pass
        finally:
            self._retire_worker(state)
            try:
                sock.close()
            except OSError:
                pass

    def _feed_worker(self, state):
        """Dispatch chunks to one worker until shutdown or drain."""
        while True:
            assignment = self._next_chunk(state)
            if assignment is None:
                try:
                    send_frame(state.sock, (SHUTDOWN,))
                except OSError:
                    pass
                return
            generation, chunk_id, chunk_tasks, run = assignment
            try:
                send_frame(state.sock, (CHUNK, chunk_id, run, chunk_tasks))
            except OSError:
                raise  # socket death: retire this worker, re-queue the chunk
            except Exception as exc:
                # The chunk itself cannot be pickled (lambda run, closure
                # task, ...): no worker could ever run it, so fail the
                # submission with the real error instead of retiring
                # healthy workers one by one until the run times out.
                self._record_failure(state, generation, exc,
                                     traceback.format_exc())
                continue
            while True:  # await the result, absorbing heartbeats
                message = recv_frame(state.sock)
                kind = message[0]
                if kind == HEARTBEAT:
                    continue
                if kind == DRAIN:
                    state.draining = True
                    continue
                if kind == RESULT:
                    if message[1] != chunk_id:
                        raise ProtocolError(
                            f"worker {state.name} answered chunk "
                            f"{message[1]} while {chunk_id} was in flight")
                    self._record_result(state, generation, chunk_id,
                                        message[2])
                    break
                if kind == ERROR:
                    self._record_failure(state, generation, message[2],
                                         message[3])
                    break
                raise ProtocolError(
                    f"unexpected {kind!r} frame from worker {state.name}")

    def _next_chunk(self, state):
        with self._cond:
            while True:
                if self._closing or state.draining:
                    return None
                if self._pending and self._failure is None:
                    chunk_id, chunk_tasks = self._pending.popleft()
                    state.in_flight = (self._generation, chunk_id,
                                       chunk_tasks)
                    return (self._generation, chunk_id, chunk_tasks,
                            self._run)
                self._cond.wait()

    def _record_result(self, state, generation, chunk_id, results):
        with self._cond:
            if generation != self._generation:
                state.in_flight = None
                return  # straggler from a superseded submission
            journal = self._journal
        # Journal outside the condition lock: an fsync per chunk must not
        # stall every other handler's dispatch.  It happens *before* the
        # result is published, so the submission (which closes the
        # journal) cannot finish while an append is still in flight.
        if journal is not None:
            journal.record(chunk_id, results)
        with self._cond:
            state.in_flight = None
            if (generation == self._generation
                    and chunk_id not in self._results):
                self._results[chunk_id] = results
            self._progress_at = time.monotonic()
            self._cond.notify_all()

    def _record_failure(self, state, generation, exception, trace):
        with self._cond:
            state.in_flight = None
            if generation != self._generation:
                return
            if self._failure is None:
                self._failure = (exception, trace)
            self._pending = deque()
            self._cond.notify_all()

    def _retire_worker(self, state):
        """Unregister a dead/drained worker, re-queueing its chunk."""
        if state is None:
            return
        with self._cond:
            self._workers.pop(id(state), None)
            # A death/drain counts as progress for the no-worker clock:
            # replacements get the full worker_wait from this moment,
            # not from whenever the last *result* landed.
            self._progress_at = time.monotonic()
            if state.in_flight is not None:
                generation, chunk_id, chunk_tasks = state.in_flight
                state.in_flight = None
                if (generation == self._generation
                        and chunk_id not in self._results
                        and self._failure is None):
                    self._pending.appendleft((chunk_id, chunk_tasks))
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self):
        """Stop accepting, shut down connected workers, join threads."""
        with self._cond:
            if self._closing:
                return
            self._closing = True
            self._cond.notify_all()
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does, so the accept loop exits at once.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5)
        for handler in list(self._handlers):
            handler.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class DistributedExecutor(Executor):
    """The ``"distributed"`` backend behind the engine's executor seam.

    Lazily starts a :class:`Coordinator` on ``bind`` and, when
    ``workers`` is a positive count, that many loopback worker processes
    (``python -m repro worker --connect ...``).  With ``workers=0`` the
    coordinator waits for externally launched workers instead -- the
    multi-host mode.  ``checkpoint`` names a directory that receives one
    journal per submission, enabling crash/resume (see
    :mod:`repro.experiments.distributed.checkpoint`).
    """

    name = "distributed"

    def __init__(self, workers=None, bind="127.0.0.1:0", checkpoint=None,
                 chunk_size=None, heartbeat_interval=1.0,
                 heartbeat_timeout=10.0, worker_wait=30.0):
        self.workers = None if workers is None else int(workers)
        self.bind = bind
        self.checkpoint = checkpoint
        self.chunk_size = chunk_size
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.worker_wait = float(worker_wait)
        if self.heartbeat_interval * 2 > self.heartbeat_timeout:
            # A single delayed beat would read as a dead worker and
            # re-queue chunks from perfectly healthy hosts.
            raise ReproError(
                f"heartbeat_interval ({self.heartbeat_interval}s) must be "
                f"at most half of heartbeat_timeout "
                f"({self.heartbeat_timeout}s)")
        self._coordinator = None
        self._processes = []
        self._submission_counts = {}

    def start(self):
        """Start the coordinator (and loopback workers); idempotent.

        Returns the coordinator's ``(host, port)`` so externally
        launched workers know where to connect.
        """
        if self._coordinator is None:
            self._coordinator = Coordinator(
                bind=parse_endpoint(self.bind),
                heartbeat_timeout=self.heartbeat_timeout,
                worker_wait=self.worker_wait)
            for _ in range(self.workers or 0):
                self._processes.append(self._spawn_worker())
        return self._coordinator.address

    def _spawn_worker(self):
        host, port = self._coordinator.address
        import repro
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (package_root if not existing
                             else package_root + os.pathsep + existing)
        command = [sys.executable, "-m", "repro", "worker",
                   "--connect", f"{host}:{port}",
                   "--heartbeat", str(self.heartbeat_interval)]
        return subprocess.Popen(command, env=env)

    def submit_all(self, tasks, run, label=None):
        self.start()
        tasks = list(tasks)
        journal = None
        if self.checkpoint:
            journal = self._open_journal(label, tasks)
        try:
            return self._coordinator.submit_all(
                tasks, run, label=label, chunk_size=self.chunk_size,
                journal=journal)
        finally:
            if journal is not None:
                journal.close()

    def _open_journal(self, label, tasks):
        """One journal per (label, per-label submission index).

        The index makes repeated submissions under one label (e.g. a
        family run twice in a program) resume independently; it is
        deterministic because resumption replays the same submissions in
        the same order.
        """
        key = label or "submission"
        index = self._submission_counts.get(key, 0)
        self._submission_counts[key] = index + 1
        chunk_size = max(1, int(self.chunk_size or DEFAULT_CHUNK_SIZE))
        # The digest covers the task *content* (including each task's
        # pre-spawned RNG state), so a journal recorded under a
        # different seed or workload is refused, not spliced in.
        meta = {"label": key, "index": index, "tasks": len(tasks),
                "chunk_size": chunk_size, "digest": tasks_digest(tasks)}
        path = os.path.join(self.checkpoint, f"{key}-{index:04d}.journal")
        return CheckpointJournal.open(path, meta)

    def close(self):
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None
        for process in self._processes:
            if process.poll() is None:
                process.terminate()
        for process in self._processes:
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5)
        self._processes = []
