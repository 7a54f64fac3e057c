"""The two-thread lockstep engine against the one-thread engine.

``lockstep`` fills, shapes, scales and block-steps the halves of a Gaussian
noise block on two threads (see ``sgdlab.streams``).  Every test here runs
the engine with the helper forced on, whatever the machine's CPU count, and
compares it with the engine whose helper is forced off: the results must
agree bit for bit, a mini-batch draw must stay on the calling thread, the
helper thread must keep the engine's silence on overflow, and concurrent
callers must share one helper.
"""

import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab import (
    AdditiveGaussianOracle,
    Domain,
    MinibatchOracle,
    NumericalError,
    SdeConfig,
    SgdConfig,
    builtin,
    gaussian_cloud,
    streams,
)
from sgdlab.sde import sde_kernel
from sgdlab.sgd import chain_kernel

_POOL = ThreadPoolExecutor(1, thread_name_prefix="test-helper")


class CountingHelper:
    """The helper executor, counting the blocks it was handed."""

    def __init__(self):
        self.splits = 0

    def submit(self, fn, *args):
        self.splits += 1
        return _POOL.submit(fn, *args)


def _lockstep(helper, kernel, x0, n, n_steps, **kwargs):
    gens = streams.path_streams(7, "threads", range(n))
    with mock.patch.object(streams, "_helper", lambda: helper):
        return streams.lockstep(kernel, x0, gens, n_steps, **kwargs)


NOISES = {
    "unit": lambda d: 1.0,
    "scalar": lambda d: 0.7,
    "diagonal": lambda d: np.diag([0.5, 1.5, 0.8][:d]),
    "matrix": lambda d: np.array([[0.6, 0.25, 0.1], [-0.1, 0.0, 0.2], [0.3, 0.0, 0.9]])[:d, :d],
}


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    noise=st.sampled_from(sorted(NOISES)),
    linear=st.booleans(),
    scheduled=st.booleans(),
    mode=st.sampled_from(["plain", "domain", "on_step"]),
    n=st.sampled_from([1, 2, 5, 33, 200]),
    block=st.sampled_from([1, 170, 171, 256, 511, 512, 1024]),
    n_steps=st.integers(1, 1500),
)
def test_split_blocks_keep_every_bit(d, noise, linear, scheduled, mode, n, block, n_steps):
    cfg = SdeConfig(
        potential=builtin("quadratic_well", (0.5, 1.0, 2.0)[:d]),
        eta=1.0,
        dt=1e-3,
        T=1.0,
        x0=np.full(d, 0.5),
        diffusion=NOISES[noise](d),
        noise_schedule=(lambda s: 1.0 / (1.0 + s)) if scheduled else None,
    )
    kernel = sde_kernel(cfg)
    # sde_kernel gives a diagonal quadratic the linear block stepper.
    assert kernel.block_step is not None
    if not linear or mode == "on_step":
        kernel = kernel._replace(block_step=None)
    domain = None
    if mode == "domain":
        domain = Domain.interval(-1.0, 1.0) if d == 1 else Domain.ball(np.zeros(d), 1.0)
    runs = []
    for helper in (None, CountingHelper()):
        seen = []
        on_step = (lambda k, x: seen.append((k, x.copy()))) if mode == "on_step" else None
        out = _lockstep(
            helper, kernel, cfg.x0, n, n_steps, block=block, domain=domain, on_step=on_step
        )
        runs.append((out, seen, helper))
    (serial, serial_seen, _), (split, split_seen, helper) = runs
    for a, b in zip(serial, split):
        np.testing.assert_array_equal(a, b)
    assert len(serial_seen) == len(split_seen)
    for (ka, xa), (kb, xb) in zip(serial_seen, split_seen):
        assert ka == kb
        np.testing.assert_array_equal(xa, xb)
    # The first block is the longest, and every later one has as many alive
    # paths at most, so a run splits if and only if its first block does.
    kblock = min(block, n_steps)
    first_splits = (
        n >= 2
        and kblock * d >= streams.SPLIT_VALUES
        and kblock * n * d >= streams.SPLIT_BLOCK_VALUES
    )
    assert (helper.splits > 0) == first_splits


def _fill_threads(kernel):
    """The kernel with its fill recording the thread of each call."""
    threads = []

    def fill(*args):
        threads.append(threading.get_ident())
        kernel.draw.fill(*args)

    return kernel._replace(draw=kernel.draw._replace(fill=fill)), threads


@pytest.mark.parametrize("kind", ["gaussian", "minibatch"])
def test_only_gaussian_fills_leave_the_calling_thread(kind):
    fs = gaussian_cloud(np.array([[1.0], [-1.0], [0.5], [-0.5]]))
    if kind == "gaussian":
        oracle = AdditiveGaussianOracle.isotropic(fs.base, 1.0)
    else:
        oracle = MinibatchOracle(fs, 1)
    cfg = SgdConfig(eta=0.01, steps=1024, x0=np.zeros(1), oracle=oracle, seed=3)
    kernel, threads = _fill_threads(chain_kernel(cfg, cfg.steps))
    helper = CountingHelper()
    _lockstep(helper, kernel, cfg.x0, 64, cfg.steps, block=1024)
    if kind == "gaussian":
        assert helper.splits == 1
        assert len(threads) == len(set(threads)) == 2
        assert threading.get_ident() in threads
    else:
        assert helper.splits == 0
        assert set(threads) == {threading.get_ident()}


@pytest.mark.parametrize("linear", [False, True])
def test_an_overflowing_split_block_warns_nothing(linear):
    kernel = streams.gaussian_kernel(
        lambda x, noise, k: x + noise,
        1,
        1e300,
        step_scale=lambda k0, k1: 1e10,
        block_step=(lambda x, buf: buf[-1] * 2.0) if linear else None,
    )
    helper = CountingHelper()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError):
            _lockstep(helper, kernel, np.zeros(1), 64, 1024, block=1024)
    assert helper.splits == 1


def test_a_split_block_is_freed_before_the_next_is_drawn():
    # 1024 paths take 8 MiB blocks.  Each thread's fill holds a tile of at
    # most streams.SCAN_BYTES, so splitting adds at most two tiles to the
    # peak; a reference to the last block would add a whole block.
    kernel = streams.gaussian_kernel(lambda x, noise, k: x + noise, 1)
    peaks = []
    for helper in (None, CountingHelper()):
        tracemalloc.start()
        try:
            _lockstep(helper, kernel, np.zeros(1), 1024, 4096)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert helper.splits == 4
    assert peaks[1] <= peaks[0] + 2 * streams.SCAN_BYTES


def test_concurrent_callers_share_one_helper_and_keep_every_bit(monkeypatch):
    # Four callers on a one-thread helper, switching threads every
    # microsecond: each gets the one-thread result, and the first blocks of
    # all four start one helper between them.
    cfg = SdeConfig(builtin("inverted_quadratic"), 1e-2, 1e-3, 2.0, np.zeros(1))
    kernel = sde_kernel(cfg)

    def run():
        gens = streams.path_streams(5, "stress", range(64))
        return streams.lockstep(kernel, cfg.x0, gens, 2000, domain=Domain.interval(-1.0, 1.0))

    with mock.patch.object(streams, "_helper", lambda: None):
        serial = run()
    started = []

    def counting_executor(*args, **kwargs):
        time.sleep(0.05)  # widens the window between the check and the start
        started.append(ThreadPoolExecutor(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(streams, "_helper_pool", None)
    monkeypatch.setattr(streams, "_no_helper", False)
    monkeypatch.setattr(streams, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(streams, "ThreadPoolExecutor", counting_executor)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            futures = [callers.submit(run) for _ in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
        for executor in started:
            executor.shutdown()
    assert len(started) == 1
    for out in results:
        for a, b in zip(serial, out):
            np.testing.assert_array_equal(a, b)
