"""Fault-tolerant campaign execution: persistent leased workers, retries, quarantine.

:class:`SupervisedExecutor` is the campaign's one parallel executor.  It
manages its worker processes directly, which is what lets it survive the
failures long overnight runs actually hit:

* **Persistent workers, leased cells.**  Each worker slot (``w0``,
  ``w1``, ...) runs one long-lived process that takes cells one at a time
  over a duplex pipe private to that worker.  Every cell attempt is a
  *lease*: the supervisor knows which worker holds which cell, since when,
  and until when (``cell_timeout``).  The outcome comes back as one
  length-framed message on the same pipe, so a worker killed mid-send
  reads as EOF on its own pipe and never as a half outcome.  Completed
  results become durable where they always have, in the driver's
  :meth:`~repro.campaign.store.ResultStore.put`.
* **Event-driven supervision.**  The loop blocks in
  :func:`multiprocessing.connection.wait` on the worker pipes and process
  sentinels.  Its timeout is the nearest lease deadline, heartbeat
  staleness horizon or backoff expiry, so a finished cell refills its slot
  at once and an idle supervisor costs nothing.
* **Dead-worker detection.**  A worker that is OOM-killed or SIGKILLed
  mid-cell shows up as EOF on its pipe and an exited sentinel; a *wedged*
  worker is caught by its lease deadline or by its heartbeat going stale
  (heartbeats advance with simulation progress — see
  :class:`~repro.campaign.executor._ProgressBeat` — so a hung loop goes
  quiet even though the process is alive).  Either way the worker is
  killed and its lease revoked.
* **Retry with capped exponential backoff.**  A revoked cell is requeued
  after ``backoff_base * 2**(failures-1)`` seconds (capped) and retried on
  another worker.  If mid-cell auto-snapshots are enabled, the retry
  resumes from the last snapshot instead of record zero — bit-identical to
  an uninterrupted run.
* **Quarantine.**  After ``max_attempts`` revocations the cell is given up
  as *poisoned*: it completes as an error outcome (persisted as a store
  error record tagged ``poisoned``) and the campaign moves on — one bad
  configuration cannot sink a thousand-cell run.
* **Graceful degradation.**  Every involuntary worker death shrinks the
  concurrency target by one (never below ``min_workers``), and a
  replacement process is spawned only while the live workers number fewer
  than that target: a host that keeps OOM-killing eight workers ends up
  running serially instead of thrashing.

Everything observable is emitted as schema-validated events —
``lease_granted`` (with the worker's PID) / ``lease_revoked`` /
``cell_retry`` / ``cell_quarantined`` — so ``python -m repro.campaign
status --live`` shows recoveries as they happen, and tests (driven by
:mod:`repro.faults` plans) assert them deterministically.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import multiprocessing.process
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.executor import CellOutcome, ProgressFn, execute_cell
from repro.campaign.spec import CampaignCell
from repro.obs.events import ObsSink
from repro.obs.heartbeat import STALE_AFTER_SECONDS, sweep_dead
from repro.sim.results import SimulationResults

#: How often an idle worker checks that its supervisor is still alive.  A
#: supervisor that is SIGKILLed cannot send the shutdown message, and
#: workers forked after a sibling hold that sibling's pipe open, so EOF
#: alone does not reach every orphan.
_ORPHAN_CHECK_SECONDS = 1.0

#: How long a clean shutdown waits for a worker to exit before killing it.
_JOIN_SECONDS = 10.0

#: A cell waiting for a worker: (cell index, attempt number, ready time).
_Queued = Tuple[int, int, float]

#: What a worker sends back per cell: (key, result dict, error, wall seconds).
_Reply = Tuple[str, Optional[dict], Optional[str], float]


@dataclass
class SupervisorConfig:
    """Robustness knobs for :class:`SupervisedExecutor`.

    ``cell_timeout`` is the per-*attempt* wall-clock deadline; ``None``
    disables deadline revocation (death and staleness still apply).
    ``stale_after`` revokes a lease whose worker heartbeat has not advanced
    in that many seconds; ``None`` disables the staleness check.
    ``snapshot_every`` (records) turns on mid-cell auto-snapshots so
    retries — and whole re-runs of a killed campaign — resume mid-cell.
    """

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    cell_timeout: Optional[float] = None
    stale_after: Optional[float] = STALE_AFTER_SECONDS
    snapshot_every: Optional[int] = None
    min_workers: int = 1
    mp_start_method: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be non-negative")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive (or None)")
        if self.stale_after is not None and self.stale_after <= 0:
            raise ValueError("stale_after must be positive (or None)")
        if self.snapshot_every is not None and self.snapshot_every <= 0:
            raise ValueError("snapshot_every must be positive (or None)")
        if self.min_workers <= 0:
            raise ValueError("min_workers must be positive")

    def backoff(self, failures: int) -> float:
        """Delay before retry number ``failures + 1`` (capped exponential)."""
        if failures <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2.0 ** (failures - 1)))


class CampaignInterrupted(KeyboardInterrupt):
    """Raised by executors after a SIGINT/SIGTERM cleanup (workers killed)."""


@dataclass
class _Lease:
    """One outstanding cell attempt: which cell, since when, until when."""

    index: int
    cell: CampaignCell
    key: str
    attempt: int
    started: float
    deadline: Optional[float]
    #: When the heartbeat file is next read for staleness (``None``: off).
    stale_at: Optional[float]


@dataclass
class _Worker:
    """One live worker process, its private pipe, and its current lease."""

    slot: str
    process: "multiprocessing.process.BaseProcess"
    conn: "multiprocessing.connection.Connection"
    heartbeat_path: Optional[Path]
    lease: Optional[_Lease] = None


def _worker_main(
    slot: str,
    conn: "multiprocessing.connection.Connection",
    obs: Optional[ObsSink],
    checkpoint_dir: Optional[str],
    snapshot_dir: Optional[str],
    snapshot_every: Optional[int],
    supervisor_pid: int,
) -> None:
    """Worker process body: run leased cells until told to stop.

    Each message in is ``(index, cell)`` or ``None`` (shut down); each
    message out is one :data:`_Reply`.  One heartbeat writer lives for the
    whole process, so ``cells_done`` counts across cells.
    """
    # A worker forked from the CLI inherits its SIGTERM -> KeyboardInterrupt
    # handler; the supervisor alone decides when a worker stops.
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    heartbeat = obs.heartbeat_writer(slot) if obs is not None else None
    try:
        while True:
            while not conn.poll(_ORPHAN_CHECK_SECONDS):
                if os.getppid() != supervisor_pid:
                    return
            lease = conn.recv()
            if lease is None:
                return
            index, cell = lease
            outcome = execute_cell(
                cell, obs=obs, worker=slot, heartbeat=heartbeat,
                checkpoint_dir=checkpoint_dir, cell_index=index,
                snapshot_dir=snapshot_dir, snapshot_every=snapshot_every,
            )
            result = outcome.result.to_dict() if outcome.result is not None else None
            reply: _Reply = (outcome.key, result, outcome.error, outcome.wall_seconds)
            conn.send(reply)
    except (EOFError, OSError):
        return  # the supervisor is gone
    finally:
        if heartbeat is not None:
            heartbeat.clear()


class SupervisedExecutor:
    """Run cells across persistent, directly-managed worker processes.

    Same ``run`` contract as
    :class:`~repro.campaign.executor.SerialExecutor` (one outcome per cell,
    in input order, bit-identical results) plus the recovery behaviour
    described in the module docstring.  Worker slots are named ``w0``,
    ``w1``, ...; a replacement takes over its dead predecessor's slot, so
    heartbeat files stay per-slot.
    """

    def __init__(self, workers: Optional[int] = None,
                 config: Optional[SupervisorConfig] = None) -> None:
        if workers is not None and workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.config = config if config is not None else SupervisorConfig()

    # ------------------------------------------------------------------ run

    def run(
        self,
        cells: Sequence[CampaignCell],
        progress: Optional[ProgressFn] = None,
        obs: Optional[ObsSink] = None,
        checkpoint_dir: Optional[str] = None,
        snapshot_dir: Optional[str] = None,
        snapshot_every: Optional[int] = None,
    ) -> List[CellOutcome]:
        if not cells:
            return []
        cfg = self.config
        if snapshot_every is None:
            snapshot_every = cfg.snapshot_every
        if snapshot_every is not None and snapshot_dir is None:
            raise ValueError("snapshot_every requires snapshot_dir")
        context = multiprocessing.get_context(cfg.mp_start_method)
        events = obs.event_log() if obs is not None else None
        heartbeat_dir = Path(obs.heartbeat_dir) if obs is not None and obs.heartbeat_dir else None
        supervisor_pid = os.getpid()

        total = len(cells)
        outcomes: Dict[int, CellOutcome] = {}
        queue: List[_Queued] = [(index, 1, 0.0) for index in range(total)]
        failures: Dict[int, int] = {}
        workers: Dict[str, _Worker] = {}
        free_slots = [f"w{slot}" for slot in reversed(range(self.workers))]
        target_workers = min(self.workers, total)
        done = 0

        def complete(index: int, outcome: CellOutcome) -> None:
            nonlocal done
            outcomes[index] = outcome
            done += 1
            if progress is not None:
                progress(done, total, outcome)

        def spawn() -> _Worker:
            slot = free_slots.pop()
            conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(slot, child_conn, obs, checkpoint_dir, snapshot_dir,
                      snapshot_every, supervisor_pid),
                name=f"repro-{slot}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            worker = _Worker(slot, process, conn,
                             heartbeat_dir / f"{slot}.hb.json"
                             if heartbeat_dir is not None else None)
            workers[slot] = worker
            return worker

        def retire(worker: _Worker, kill: bool) -> Optional[_Reply]:
            """Stop one worker (killing it unless it was told to shut down);
            returns a reply it completed before dying."""
            process = worker.process
            if not kill:
                process.join(timeout=_JOIN_SECONDS)
            if process.is_alive():
                process.kill()
            process.join(timeout=_JOIN_SECONDS)
            # A worker may have sent its outcome in the race window before
            # the kill landed; a completed cell is never retried.  A message
            # cut short by the kill reads as EOF.
            reply: Optional[_Reply] = None
            try:
                while worker.conn.poll():
                    reply = worker.conn.recv()
            except (EOFError, OSError):
                pass
            worker.conn.close()
            if kill and worker.heartbeat_path is not None:
                try:
                    worker.heartbeat_path.unlink()
                except OSError:
                    pass
            del workers[worker.slot]
            free_slots.append(worker.slot)
            return reply

        def finish(lease: _Lease, reply: _Reply) -> None:
            key, result_dict, error, wall = reply
            result = (SimulationResults.from_dict(result_dict)
                      if result_dict is not None else None)
            complete(lease.index, CellOutcome(lease.cell, key, result, error=error,
                                              wall_seconds=float(wall),
                                              attempt=lease.attempt))

        def grant(worker: _Worker, entry: _Queued) -> None:
            index, attempt, _ready_at = entry
            cell = cells[index]
            key = cell.key()
            now = time.time()
            worker.lease = _Lease(
                index=index, cell=cell, key=key, attempt=attempt, started=now,
                deadline=now + cfg.cell_timeout if cfg.cell_timeout is not None else None,
                stale_at=now + cfg.stale_after if cfg.stale_after is not None else None,
            )
            if events is not None:
                events.emit("lease_granted", key=key, cell=cell.describe(),
                            worker=worker.slot, worker_pid=worker.process.pid,
                            attempt=attempt, timeout=cfg.cell_timeout)
            try:
                worker.conn.send((index, cell))
            except OSError:
                revoke(worker, reason=f"worker-died (exitcode {worker.process.exitcode})")

        def heartbeat_stale(worker: _Worker, lease: _Lease, now: float) -> bool:
            """Re-read the heartbeat at the staleness horizon; push it on."""
            assert cfg.stale_after is not None and lease.stale_at is not None
            last = lease.started
            if worker.heartbeat_path is not None:
                try:
                    with worker.heartbeat_path.open("r", encoding="utf-8") as handle:
                        beat = json.load(handle)
                    last = max(last, float(beat.get("updated_ts", 0.0)))
                except (OSError, ValueError):
                    pass
            if (now - last) > cfg.stale_after:
                return True
            lease.stale_at = max(last + cfg.stale_after, now + 1e-3)
            return False

        def revoke(worker: _Worker, reason: str) -> None:
            nonlocal target_workers
            lease = worker.lease
            assert lease is not None
            reply = retire(worker, kill=True)
            if reply is not None:
                finish(lease, reply)
                return
            count = failures.get(lease.index, 0) + 1
            failures[lease.index] = count
            # Involuntary deaths erode trust in parallelism: shrink the
            # worker target toward serial instead of thrashing.
            target_workers = max(cfg.min_workers, target_workers - 1)
            if events is not None:
                events.emit("lease_revoked", key=lease.key,
                            cell=lease.cell.describe(), worker=worker.slot,
                            attempt=lease.attempt, reason=reason,
                            failures=count, workers=target_workers)
            if count >= cfg.max_attempts:
                error = (f"poisoned: quarantined after {count} failed attempt(s); "
                         f"last revocation: {reason}")
                if events is not None:
                    events.emit("cell_quarantined", key=lease.key,
                                cell=lease.cell.describe(), attempts=count,
                                reason=reason)
                complete(lease.index, CellOutcome(
                    lease.cell, lease.key, None, error=error,
                    quarantined=True, attempt=lease.attempt,
                ))
                return
            delay = cfg.backoff(count)
            if events is not None:
                events.emit("cell_retry", key=lease.key,
                            cell=lease.cell.describe(), attempt=count + 1,
                            backoff_seconds=round(delay, 3), reason=reason)
            queue.append((lease.index, count + 1, time.time() + delay))

        def died(worker: _Worker) -> None:
            if worker.lease is None:
                retire(worker, kill=True)  # an idle worker is simply replaced
                return
            worker.process.join(timeout=_JOIN_SECONDS)
            revoke(worker, reason=f"worker-died (exitcode {worker.process.exitcode})")

        def receive(worker: _Worker) -> None:
            """Read a ready pipe: an outcome, or EOF from a dead worker."""
            try:
                reply: _Reply = worker.conn.recv()
            except (EOFError, OSError):
                died(worker)
                return
            lease = worker.lease
            worker.lease = None
            if lease is not None:
                finish(lease, reply)

        def busy() -> List[_Worker]:
            return [worker for worker in workers.values() if worker.lease is not None]

        def next_wakeup(now: float, leased: List[_Worker]) -> Optional[float]:
            horizons: List[float] = []
            for worker in leased:
                lease = worker.lease
                assert lease is not None
                if lease.deadline is not None:
                    horizons.append(lease.deadline)
                if lease.stale_at is not None:
                    horizons.append(lease.stale_at)
            if queue and len(leased) < target_workers:
                horizons.append(queue[0][2])
            return max(0.0, min(horizons) - now) if horizons else None

        interrupted = False
        try:
            while queue or busy():
                # Dispatch every ready cell, up to the (possibly degraded)
                # concurrency target: idle workers first, then new ones.
                now = time.time()
                queue.sort(key=lambda entry: entry[2])
                while queue and queue[0][2] <= now and len(busy()) < target_workers:
                    idle = next((w for w in workers.values() if w.lease is None), None)
                    grant(idle or spawn(), queue.pop(0))

                leased = busy()
                if not leased and not queue:
                    break
                waitables: List[Union["multiprocessing.connection.Connection", int]] = []
                for worker in workers.values():
                    waitables.append(worker.conn)
                    waitables.append(worker.process.sentinel)
                ready = set(multiprocessing.connection.wait(
                    waitables, next_wakeup(time.time(), leased)))

                for worker in list(workers.values()):
                    if worker.conn in ready:
                        receive(worker)
                    elif worker.process.sentinel in ready:
                        died(worker)  # revoke() still drains a finished reply
                now = time.time()
                for worker in busy():
                    lease = worker.lease
                    assert lease is not None
                    if lease.deadline is not None and now >= lease.deadline:
                        revoke(worker, reason="timeout")
                    elif (lease.stale_at is not None and now >= lease.stale_at
                          and heartbeat_stale(worker, lease, now)):
                        revoke(worker, reason="stale-heartbeat")
        except KeyboardInterrupt:
            # Graceful stop: kill every worker, keep what finished.
            interrupted = True
            raise CampaignInterrupted() from None
        finally:
            # Tell every idle worker to exit before joining any of them.
            for worker in workers.values():
                if not interrupted and worker.lease is None:
                    try:
                        worker.conn.send(None)
                    except OSError:
                        pass
            for worker in list(workers.values()):
                retire(worker, kill=interrupted or worker.lease is not None)
            if heartbeat_dir is not None:
                sweep_dead(heartbeat_dir)

        return [outcomes[index] for index in sorted(outcomes)]


def terminate_to_interrupt(signum: int, frame: object) -> None:
    """Signal handler mapping SIGTERM onto KeyboardInterrupt.

    Installed by the CLI around ``campaign run`` so a ``kill <pid>`` (what
    schedulers send first) takes the same graceful path as Ctrl-C: leases
    are killed, completed outcomes stay persisted, and ``campaign_end``
    reports ``status="interrupted"``.
    """
    raise KeyboardInterrupt()


def install_signal_handlers() -> Dict[int, object]:
    """Route SIGTERM to KeyboardInterrupt; returns the previous handlers."""
    previous: Dict[int, object] = {}
    try:
        previous[signal.SIGTERM] = signal.signal(signal.SIGTERM, terminate_to_interrupt)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    return previous


def restore_signal_handlers(previous: Dict[int, object]) -> None:
    """Undo :func:`install_signal_handlers`."""
    for signum, handler in previous.items():
        try:
            signal.signal(signum, handler)  # type: ignore[arg-type]
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
