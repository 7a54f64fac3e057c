"""The two-thread lockstep engine against the one-thread engine.

``lockstep`` fills the halves of a Gaussian noise block on two threads,
each fill shaping and scaling its own half, and block-steps them there
when the block stepper releases the GIL (see ``sgdlab.streams``).  Every
test here runs the engine with the helper forced on, whatever the machine's
CPU count, and compares it with the engine whose helper is forced off or
with a reference loop: the results must agree bit for bit, a mini-batch
draw must stay on the calling thread, a block stepper that holds the GIL
must run once per block on the calling thread, the helper thread must keep
the engine's silence on overflow, and concurrent callers must share one
helper.
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
from sgdlab import exit_times
from sgdlab.sde import sde_kernel
from sgdlab.sgd import chain_kernel
from test_exit_times import _assert_same_records, _reference_records

_POOL = ThreadPoolExecutor(1, thread_name_prefix="test-helper")


class CountingHelper:
    """The helper executor, counting the blocks it was handed."""

    def __init__(self):
        self.splits = 0

    def submit(self, fn, *args):
        self.splits += 1
        return _POOL.submit(fn, *args)


def _lockstep(helper, kernel, x0, n, n_steps, block=1024, **kwargs):
    with (
        mock.patch.object(streams, "_helper", lambda: helper),
        mock.patch.object(streams, "BLOCK_STEPS", block),
    ):
        return streams.lockstep(kernel, x0, 7, "threads", range(n), n_steps, **kwargs)


NOISES = {
    "unit": lambda d: 1.0,
    "scalar": lambda d: 0.7,
    "diagonal": lambda d: np.diag([0.5, 1.5, 0.8][:d]),
    "matrix": lambda d: np.array([[0.6, 0.25, 0.1], [-0.1, 0.0, 0.2], [0.3, 0.0, 0.9]])[:d, :d],
}


def _per_step_states(kernel, x0, n, n_steps):
    """The states of n paths after each of steps 1, ..., ``n_steps``, one
    step at a time: each step fills a one-step block and steps it with
    ``kernel.block_step`` if there is one, else with ``kernel.step``, or,
    for a kernel without a ``fill``, steps on the paths' generators,
    outside ``lockstep``."""
    gens = streams.path_streams(7, "threads", range(n))
    ids = np.arange(n)
    x = np.tile(x0, (n, 1))
    out = np.empty((n_steps, n, x0.size))
    for k in range(n_steps):
        if kernel.fill is None:
            x = kernel.step(x, gens, k)
        else:
            buf = np.empty((1, n, x0.size))
            kernel.fill(gens, ids, k, k + 1, buf)
            x = kernel.block_step(x, buf, k) if kernel.block_step else kernel.step(x, buf[0], k)
        out[k] = x
    return out


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    noise=st.sampled_from(sorted(NOISES)),
    linear=st.booleans(),
    minibatch=st.booleans(),
    mode=st.sampled_from(["plain", "domain", "on_block"]),
    n=st.sampled_from([1, 2, 5, 33, 200]),
    block=st.sampled_from([1, 170, 171, 256, 511, 512, 1024, 4096]),
    n_steps=st.one_of(st.integers(1, 1500), st.integers(4097, 9000)),
)
def test_split_blocks_keep_every_bit(d, noise, linear, minibatch, mode, n, block, n_steps):
    cfg = SdeConfig(
        potential=builtin("quadratic_well", (0.5, 1.0, 2.0)[:d]),
        eta=1.0,
        dt=1e-3,
        T=1.0,
        x0=np.full(d, 0.5),
        diffusion=NOISES[noise](d),
    )
    domain = None
    if mode == "domain":
        domain = Domain.interval(-1.0, 1.0) if d == 1 else Domain.ball(np.zeros(d), 1.0)
    if minibatch:
        # A mini-batch chain draws its batches inside its step (one Python
        # call per path and step) and never splits.
        n, n_steps = min(n, 5), min(n_steps, 1500)
        centers = np.random.default_rng(d).normal(size=(6, d))
        oracle = MinibatchOracle(gaussian_cloud(centers), m=2)
        chain = SgdConfig(eta=0.05, steps=n_steps, x0=cfg.x0, oracle=oracle)
        kernel = chain_kernel(chain, domain)
    else:
        kernel = sde_kernel(cfg)
        # sde_kernel gives a diagonal quadratic the linear block stepper.
        assert kernel.block_step is not None
        if not linear:
            kernel = kernel._replace(block_step=None)
    reference = _per_step_states(kernel, cfg.x0, n, n_steps) if mode == "on_block" else None
    runs = []
    for helper in (None, CountingHelper()):
        seen = []

        def observe(k0, states, paths):
            # Checked as they come, so that no run keeps every step's states:
            # both runs see the states of a per-step loop, bit for bit, each
            # chunk on its columns; a window's steps are recorded once, on
            # its first chunk.
            if paths.start == 0:
                seen.extend(range(k0 + 1, k0 + 1 + len(states)))
            np.testing.assert_array_equal(states, reference[k0 : k0 + len(states), paths])

        on_block = observe if mode == "on_block" else None
        out = _lockstep(
            helper, kernel, cfg.x0, n, n_steps, block=block, domain=domain, on_block=on_block
        )
        runs.append((out, seen, helper))
    (serial, serial_seen, _), (split, split_seen, helper) = runs
    for a, b in zip(serial, split):
        np.testing.assert_array_equal(a, b)
    assert serial_seen == split_seen
    if mode == "on_block":
        # The observer sees every step 1, ..., n_steps once, in order.
        assert serial_seen == list(range(1, n_steps + 1))
        np.testing.assert_array_equal(split[2], reference[-1])
    # The first block is the longest, and every later one has as many alive
    # paths at most, so a run splits if and only if its first block does.
    kblock = min(block, n_steps)
    first_splits = (
        not minibatch
        and n >= 2
        and kblock * d >= streams.SPLIT_VALUES
        and kblock * n * d >= streams.SPLIT_BLOCK_VALUES
    )
    assert (helper.splits > 0) == first_splits


def _draw_threads(kernel):
    """The kernel with the calls that draw recording their thread: its
    ``fill``, or the step of a kernel without one."""
    threads = []

    def record(fn):
        def recorded(*args):
            threads.append(threading.get_ident())
            return fn(*args)

        return recorded

    if kernel.fill is None:
        return kernel._replace(step=record(kernel.step)), threads
    return kernel._replace(fill=record(kernel.fill)), threads


@pytest.mark.parametrize("kind", ["gaussian", "minibatch"])
def test_only_gaussian_fills_leave_the_calling_thread(kind):
    fs = gaussian_cloud(np.array([[1.0], [-1.0], [0.5], [-0.5]]))
    if kind == "gaussian":
        oracle = AdditiveGaussianOracle.isotropic(fs.base, 1.0)
    else:
        oracle = MinibatchOracle(fs, 1)
    cfg = SgdConfig(eta=0.01, steps=1024, x0=np.zeros(1), oracle=oracle, seed=3)
    kernel, threads = _draw_threads(chain_kernel(cfg))
    helper = CountingHelper()
    _lockstep(helper, kernel, cfg.x0, 64, cfg.steps)
    if kind == "gaussian":
        assert helper.splits == 1
        assert len(threads) == len(set(threads)) == 2
        assert threading.get_ident() in threads
    else:
        assert helper.splits == 0
        assert set(threads) == {threading.get_ident()}


def test_the_double_well_stepper_runs_once_per_block_after_a_split_fill(monkeypatch):
    # The double well's block stepper holds the GIL, so the helper fills
    # half of a split block and the calling thread steps the whole block.
    cfg = SdeConfig(builtin("double_well_1d"), 0.25, 1e-3, 1.0, np.ones(1), seed=3)
    domain, horizon, label = Domain.interval(0.4, 1.6), 4.0, "threads:double-well"
    events = []

    def recording_kernel(process, domain=None):
        kernel = sde_kernel(process, domain=domain)
        assert kernel.block_step is not None and not kernel.block_step_releases_gil

        def fill(gens, ids, *args):
            events.append(("fill", threading.get_ident(), len(ids)))
            kernel.fill(gens, ids, *args)

        def block_step(x, buf, k0):
            events.append(("step", threading.get_ident(), buf.shape[1]))
            return kernel.block_step(x, buf, k0)

        return kernel._replace(fill=fill, block_step=block_step)

    monkeypatch.setattr(exit_times, "sde_kernel", recording_kernel)
    helper = CountingHelper()
    with mock.patch.object(streams, "_helper", lambda: helper):
        records = exit_times.hitting_time_mc(cfg, domain, 160, horizon, experiment=label)
    _assert_same_records(records, _reference_records(cfg, domain, 160, horizon, 3, label, 1024))
    assert helper.splits >= 2
    blocks, filled = [], []
    for kind, thread, columns in events:
        if kind == "fill":
            filled.append((thread, columns))
        else:
            assert thread == threading.get_ident()
            assert columns == sum(c for _, c in filled)
            blocks.append({t for t, _ in filled})
            filled = []
    assert not filled and len(blocks) == 4
    assert sum(len(threads) == 2 for threads in blocks) == helper.splits


@pytest.mark.parametrize("linear", [False, True])
def test_an_overflowing_split_block_warns_nothing(linear):
    kernel = streams.gaussian_kernel(
        lambda x, noise, k: x + noise,
        1,
        1e300,
        scale=1e10,
        block_step=(lambda x, buf, k0: buf[-1] * 2.0) if linear else None,
    )
    helper = CountingHelper()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError):
            _lockstep(helper, kernel, np.zeros(1), 64, 1024)
    assert helper.splits == 1


def test_a_split_block_is_freed_before_the_next_is_drawn(monkeypatch):
    # 1024 paths take 8 MiB blocks, in one group under a large group budget.
    # Each thread's fill holds a tile of at most streams.SCAN_BYTES, so
    # splitting adds at most two tiles to the peak; a reference to the last
    # block would add a whole block.
    monkeypatch.setattr(streams, "GROUP_BYTES", 2**62)
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
        domain = Domain.interval(-1.0, 1.0)
        return streams.lockstep(kernel, cfg.x0, 5, "stress", range(64), 2000, domain=domain)

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
