"""`rad_norm_stack` with its cells split across threads.

A large call cuts its cells into contiguous slices; the calling thread runs
the first and a pool of threads the others (`lattice._split_mean_powers`).
Each cell's norm depends on that cell alone, so a split call must give the
bits of the serial call, cell for cell, as long as no slice holds fewer
than 2 cells.  The tests force the route both ways: the `split` fixture
installs a pool of a chosen size and drops the work threshold and the
slice floor to their smallest values, and the serial reference raises the
threshold out of reach.
"""

import importlib.util
import os
import signal
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from walshlab import experiments as ex
from walshlab import lattice
from walshlab.cli import main
from walshlab.experiments import ExperimentConfig, report_json_lines

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def split(monkeypatch):
    """`split(n)` makes every later call cut its cells into up to `n`
    slices of at least 2 cells, whatever its work; `split(1)` is a process
    with one CPU.  With `defaults=True` the threshold and the floor keep
    their values.  Returns the list to which each call of the slice kernel
    appends (thread name, cells)."""
    executors, calls = [], []
    real = lattice._rad_mean_powers

    def recorded(part, *args):
        calls.append((threading.current_thread().name, part.shape[1]))
        return real(part, *args)

    monkeypatch.setattr(lattice, "_rad_mean_powers", recorded)

    def force(slices, defaults=False):
        executor = ThreadPoolExecutor(slices - 1) if slices > 1 else None
        executors.append(executor)
        monkeypatch.setattr(lattice, "_pool", (slices, executor))
        if not defaults:
            monkeypatch.setattr(lattice, "_SPLIT_WORK", 0)
            monkeypatch.setattr(lattice, "_SLICE_CELLS", 2)
        calls.clear()
        return calls

    yield force
    for executor in executors:
        if executor is not None:
            executor.shutdown()


def serial(stacked, q, p, mode, seed):
    """`rad_norm_stack` on the serial route, whatever the pool."""
    saved = lattice._SPLIT_WORK
    lattice._SPLIT_WORK = sys.maxsize
    try:
        return lattice.rad_norm_stack(stacked, q, p, mode, seed)
    finally:
        lattice._SPLIT_WORK = saved


def stack(count, cells, dim, seed):
    return np.random.default_rng(seed).standard_normal((count, cells, dim))


# (count, cells, dim, mode): one exact chunk, several exact chunks (S = 13
# and 14 span 2 and 4 chunks of 4,096 rows), seeded samples of one and of
# two chunks, d = 1 on both kinds of row, and 3 slices of 7 cells (2, 2, 3)
CASES = [
    (5, 7, 3, "exact"),
    (13, 6, 2, "exact"),
    (14, 5, 1, "exact"),
    (6, 9, 2, "mc:300"),
    (4, 8, 3, "mc:5000"),
    (7, 7, 1, "exact"),
    (3, 7, 1, "mc:700"),
]


@pytest.mark.parametrize("slices", [2, 3])
@pytest.mark.parametrize("q", [1.0, 3.0, np.inf])
@pytest.mark.parametrize("count, cells, dim, mode", CASES)
def test_split_keeps_the_bits(split, count, cells, dim, mode, q, slices):
    values = stack(count, cells, dim, seed=count * cells)
    want = serial(values, q, 4.0, mode, [3, count, 2])
    calls = split(slices)
    got = lattice.rad_norm_stack(values, q, 4.0, mode, [3, count, 2])
    assert got.tobytes() == want.tobytes()
    sizes = [size for _, size in calls]
    assert len(sizes) == min(slices, cells // 2) and sum(sizes) == cells
    # the caller runs one slice, the pool's threads the others
    names = [name for name, _ in calls]
    assert names.count(threading.current_thread().name) == 1


@pytest.mark.parametrize("q", [1.0, 3.0, np.inf])
def test_split_keeps_the_bits_of_redone_cells(split, q):
    # cell 1 overflows its mean of p-th powers and cell 6 underflows it, so
    # both are redone; cell 4 is zero.  With 3 slices of 9 cells they fall
    # in different slices, and the redo runs on both at once in the caller
    values = stack(6, 9, 2, seed=11)
    values[:, 1] *= 1e200
    values[:, 6] *= 1e-200
    values[:, 4] = 0.0
    want = serial(values, q, 4.0, "exact", None)
    assert np.all(np.isfinite(want)) and want[4] == 0.0
    assert want[1] > 1e199 and 0.0 < want[6] < 1e-199
    calls = split(3)
    got = lattice.rad_norm_stack(values, q, 4.0, "exact", None)
    assert got.tobytes() == want.tobytes()
    # the three slices, then one redo of both redone cells
    assert [size for _, size in calls] == [3, 3, 3, 2]


def test_unseeded_sample_is_resolved_before_the_split(split, monkeypatch):
    # with seed None every slice must draw the one sample of the call
    values = stack(5, 8, 2, seed=4)
    seeds = []
    split(4)
    recorded = lattice._rad_mean_powers

    def seeded(part, q, p, mode, seed, *rest):
        seeds.append(seed)
        return recorded(part, q, p, mode, seed, *rest)

    monkeypatch.setattr(lattice, "_rad_mean_powers", seeded)
    got = lattice.rad_norm_stack(values, 3.0, 2.0, "mc:999", None)
    assert len(seeds) == 4 and seeds[0] is not None
    assert all(seed is seeds[0] for seed in seeds)
    assert got.tobytes() == serial(values, 3.0, 2.0, "mc:999", seeds[0]).tobytes()


@pytest.mark.parametrize("slices", [2, 3, 4, 6])
def test_no_slice_holds_fewer_than_two_cells(split, slices):
    for cells in range(1, 14):
        calls = split(slices)
        lattice.rad_norm_stack(stack(3, cells, 2, seed=cells), 2.0, 2.0, "exact", None)
        sizes = [size for _, size in calls]
        assert min(sizes) >= 2 or sizes == [cells]
        assert sum(sizes) == cells
        assert len(sizes) == max(1, min(slices, cells // 2))


def test_default_slice_floor_and_threshold():
    # the floor keeps the bits (2 cells at least); the `rad-exact` shape,
    # 2**12 sign rows on 64 cells of d = 4, splits, and no call of the
    # default campaigns (at most 4 components, 64 cells, d = 8) does
    assert lattice._SLICE_CELLS >= 2
    assert 64 >= 2 * lattice._SLICE_CELLS
    assert (1 << 12) * 64 * 4 >= lattice._SPLIT_WORK > (1 << 4) * 64 * 8


def _rad_exact_config():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    (config,) = workloads.PARAMS["full"]["rad-exact"]["configs"]
    return config


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(dict(kind="vector", resolution=3, trials=9, dim=2, count=4), id="vector"),
        pytest.param(
            dict(kind="vector", resolution=3, trials=5, dim=1, count=3, rad="mc:40"),
            id="vector-mc",
        ),
        pytest.param(dict(kind="weak11", resolution=3, trials=5, dim=2, count=3), id="weak11"),
        pytest.param(None, id="rad-exact"),
    ],
)
def test_reports_do_not_depend_on_the_workers(split, config):
    # the small configs are split at every call; the benchmark's rad-exact
    # config splits with the default threshold and floor
    cfg = ExperimentConfig(**(config or _rad_exact_config()), seed=5)
    reports = []
    for slices in (1, 2, 3):
        calls = split(slices, defaults=config is None)
        reports.append(report_json_lines(ex.RUNNERS[cfg.kind](cfg), timestamp=""))
        on_workers = [name for name, _ in calls if name != threading.current_thread().name]
        assert len(on_workers) > 0 if slices > 1 else not on_workers
    assert reports[0] == reports[1] == reports[2]


def test_worker_error_reaches_the_caller(split, monkeypatch):
    # only the worker's slice raises; the call raises its error after every
    # slice has ended
    real = lattice._rad_mean_powers
    caller = threading.current_thread()

    def fails_on_workers(part, *args):
        if threading.current_thread() is not caller:
            raise ValueError("raised on a worker")
        return real(part, *args)

    split(2)
    monkeypatch.setattr(lattice, "_rad_mean_powers", fails_on_workers)
    with pytest.raises(ValueError, match="raised on a worker"):
        lattice.rad_norm_stack(stack(3, 6, 2, seed=0), 2.0, 2.0, "exact", None)


def test_component_count_error_from_a_worker_exits_2(split, monkeypatch, capsys):
    # 21 components are refused by `_sign_chunks` in every slice, the
    # worker's included
    threads = []
    real = lattice._sign_chunks

    def recorded(*args, **kwargs):
        threads.append(threading.current_thread())
        return real(*args, **kwargs)

    split(2, defaults=True)
    monkeypatch.setattr(lattice, "_sign_chunks", recorded)
    code = main(["vector", "--count", "21", "--resolution", "6", "--rad", "exact"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith("lpr vector: error: ") and "21" in lines[0]
    assert threading.current_thread() in threads
    assert any(thread is not threading.current_thread() for thread in threads)


def _inf_pair_stack():
    # cell 4, in the worker's slice of 2, holds +inf and -inf in one
    # coordinate, so half of its sign sums are inf - inf
    values = stack(3, 6, 2, seed=9)
    values[0, 4, 1], values[1, 4, 1] = np.inf, -np.inf
    return values


@pytest.mark.parametrize("slices", [1, 2])
def test_caller_error_state_raises_on_every_route(split, slices):
    calls = split(slices)
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            lattice.rad_norm_stack(_inf_pair_stack(), 2.0, 2.0, "exact", None)
    assert len(calls) == slices


@pytest.mark.parametrize("slices", [1, 2])
def test_caller_error_state_ignores_on_every_route(split, slices):
    with np.errstate(invalid="ignore"):
        want = serial(_inf_pair_stack(), 2.0, 2.0, "exact", None)
    calls = split(slices)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            got = lattice.rad_norm_stack(_inf_pair_stack(), 2.0, 2.0, "exact", None)
    assert len(calls) == slices
    assert np.isnan(got[4]) and np.all(np.isfinite(np.delete(got, 4)))
    assert got.tobytes() == want.tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_split_call(split):
    # a pool inherited across fork counts a worker thread that the child does
    # not have, and its next submit would wait for it forever
    calls = split(2)
    values = stack(4, 8, 2, seed=1)
    want = lattice.rad_norm_stack(values, 3.0, 2.0, "exact", None)
    assert len(calls) == 2  # the pool has started its thread
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only if the call completes with the same bits
        code = 1
        try:
            signal.alarm(30)
            dropped = lattice._pool is None
            got = lattice.rad_norm_stack(values, 3.0, 2.0, "exact", None)
            code = 0 if dropped and got.tobytes() == want.tobytes() else 3
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status
