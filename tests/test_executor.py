"""Tests for the persistent supervised workers: reuse, replacement, shutdown.

The supervisor's recovery contract (retry, quarantine, degradation,
snapshot resume) is covered by ``test_supervisor.py``; these tests pin
what persistence adds: one process per slot across cells, a replacement
only inside the degraded target, default signal dispositions in workers,
and a CLI run that always exits with every cell stored and no worker left.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import faults
from repro.campaign import (
    CampaignSpec,
    ResultStore,
    SerialExecutor,
    SupervisedExecutor,
    SupervisorConfig,
    SweepGrid,
)
from repro.campaign.supervisor import (
    _worker_main,
    install_signal_handlers,
    restore_signal_handlers,
)
from repro.obs.events import ObsSink, read_events
from repro.obs.heartbeat import pid_alive, read_heartbeats

ROOT = Path(__file__).resolve().parent.parent

FAST = dict(backoff_base=0.01, backoff_cap=0.05)


@pytest.fixture(autouse=True)
def clean_faults():
    faults.install(None)
    faults.reset()
    yield
    faults.install(None)
    faults.reset()


def eight_cells():
    return CampaignSpec(
        name="reuse",
        grids=[SweepGrid(schemes=["banshee", "alloy"], workloads=["gcc"], seeds=[1, 2, 3, 4])],
        records_per_core=300, num_cores=2, preset="tiny",
    ).cells()


def granted_pids(obs):
    return [record["worker_pid"] for record in read_events(obs.events_path, validate=True)
            if record["event"] == "lease_granted"]


def identities(outcomes):
    return [outcome.result.identity_dict() for outcome in outcomes]


def test_workers_persist_across_cells(tmp_path):
    cells = eight_cells()
    obs = ObsSink.for_directory(tmp_path / "obs")
    out = SupervisedExecutor(workers=2, config=SupervisorConfig(**FAST)).run(cells, obs=obs)
    pids = granted_pids(obs)
    assert len(pids) == 8 and len(set(pids)) == 2
    assert identities(out) == identities(SerialExecutor().run(cells))
    assert read_heartbeats(obs.heartbeat_dir) == []
    assert not any(pid_alive(pid) for pid in set(pids))


@pytest.mark.parametrize("min_workers, processes", [(1, 2), (2, 3)])
def test_dead_worker_replaced_only_inside_target(tmp_path, min_workers, processes):
    # A death degrades the target by one.  At the default floor the survivor
    # carries on alone; with the floor at two, exactly one replacement spawns.
    cells = eight_cells()
    faults.install("kill@cell=0:times=1", state_dir=str(tmp_path / "faults"))
    obs = ObsSink.for_directory(tmp_path / "obs")
    out = SupervisedExecutor(
        workers=2, config=SupervisorConfig(min_workers=min_workers, **FAST)
    ).run(cells, obs=obs)
    assert len(set(granted_pids(obs))) == processes
    assert all(outcome.ok for outcome in out) and out[0].attempt == 2
    faults.install(None)
    faults.reset()
    assert identities(out) == identities(SerialExecutor().run(cells))


def test_worker_resets_inherited_signal_handlers():
    # The CLI maps SIGTERM to KeyboardInterrupt; a forked worker must not
    # inherit that, or a SIGTERM would unwind it through Python code.
    context = multiprocessing.get_context("fork")
    previous = install_signal_handlers()
    try:
        conn, child_conn = context.Pipe()
        process = context.Process(target=_worker_main,
                                  args=("w0", child_conn, None, None, None, None, os.getpid()))
        process.start()
        child_conn.close()
        time.sleep(0.5)  # let the worker reach its receive loop
        os.kill(process.pid, signal.SIGTERM)
        process.join(timeout=10)
    finally:
        restore_signal_handlers(previous)
    assert process.exitcode == -signal.SIGTERM


def test_cli_parallel_runs_exit_cleanly(tmp_path):
    """Regression for the old pool's shutdown hang: every parallel CLI run
    exits 0 within the timeout, stores every cell and leaves no worker."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for attempt in range(5):
        store_dir = tmp_path / f"store{attempt}"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.campaign", "run", "--store", str(store_dir),
             "--schemes", "banshee", "alloy", "--workloads", "gcc", "--seeds", "1", "2",
             "--records", "300", "--cores", "2", "--preset", "tiny", "--workers", "2",
             "--quiet"],
            capture_output=True, text=True, env=env, cwd=str(ROOT), timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert len(ResultStore(store_dir)) == 4
        events = [json.loads(line) for line in
                  (store_dir / "obs" / "events.jsonl").read_text().splitlines()]
        pids = {event["worker_pid"] for event in events if event["event"] == "lease_granted"}
        assert len(pids) == 2
        assert not any(pid_alive(pid) for pid in pids), pids
