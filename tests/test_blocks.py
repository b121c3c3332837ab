"""The ordered block driver, and the estimators on it against the loops it
replaced (``tests/loop_oracle.py``), bit for bit at every thread count."""

import functools
import threading
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from menger_surf import analysis, energy
from menger_surf.integrand import IntegrandSpec
from menger_surf.rng import blocks, substream
from menger_surf.surface import SurfaceOracle, sample_point, shapes

import loop_oracle

ORACLE_SETTINGS = settings(max_examples=25, deadline=None)
MENGER = IntegrandSpec(kind="menger")

kinds = st.sampled_from(["sphere", "torus", "mesh"])
thread_counts = st.integers(1, 3)


@settings(max_examples=100, deadline=None)
@given(count=st.integers(0, 12), stop=st.integers(0, 13), threads=thread_counts)
def test_driver_reads_the_serial_prefix(count, stop, threads):
    calls = []
    lock = threading.Lock()

    def work(k):
        with lock:
            calls.append(k)
        return k * k

    gen = blocks(work, count, threads)
    read = [value for _, value in zip(range(stop), gen)]
    gen.close()  # waits for the blocks still running
    assert read == [k * k for k in range(min(stop, count))]
    assert sorted(calls) == list(range(len(calls)))
    assert len(read) <= len(calls) <= min(count, len(read) + threads - 1)


@settings(deadline=None)
@given(count=st.integers(1, 9), fail=st.integers(0, 8), threads=thread_counts)
def test_driver_raises_at_the_failing_block(count, fail, threads):
    def work(k):
        if k == fail:
            raise ArithmeticError(k)
        return k

    read = []
    try:
        for value in blocks(work, count, threads):
            read.append(value)
    except ArithmeticError as exc:
        assert exc.args == (fail,)
    assert read == list(range(min(fail, count)))


@functools.cache
def surface(kind):
    if kind == "sphere":
        return SurfaceOracle.sphere(1.0)
    if kind == "torus":
        return SurfaceOracle.torus(2.0, 1.0)
    return SurfaceOracle.from_mesh(shapes.icosphere(2))


def _center(oracle, seed):
    return sample_point(oracle, substream(seed, 1)).position


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


def _former_chunk_stats(draw_values, n, threads):
    return energy._mean_and_stderr(loop_oracle.chunk_stats(
        draw_values, loop_oracle.chunk_sizes(n), threads))


@ORACLE_SETTINGS
@given(kind=kinds, seed=st.integers(0, 2**32), n=st.integers(1000, 13000),
       threads=thread_counts)
def test_estimate_mp_matches_chunk_loop(kind, seed, n, threads):
    oracle = surface(kind)
    run = lambda: energy.estimate_mp(oracle, MENGER, 8.0, n, seed, threads)
    got = run()
    with mock.patch.object(energy, "_chunk_stats", _former_chunk_stats):
        want = run()
    assert (got.value, got.std_error) == (want.value, want.std_error)


def test_divergence_study_matches_chunk_loop():
    run = lambda t: energy.divergence_study(3.0, 3.0, "geometric", 0.05, 2,
                                            9000, 5, threads=t)
    with mock.patch.object(energy, "_chunk_stats", _former_chunk_stats):
        want = run(1)
    for threads in (1, 2, 3):
        got = run(threads)
        assert got[1] == want[1]
        assert [(r.patch_integral, r.std_error) for r in got[0]] == \
            [(r.patch_integral, r.std_error) for r in want[0]]


@ORACLE_SETTINGS
@given(kind=kinds, seed=st.integers(0, 2**32), rel_radius=st.floats(0.05, 0.3),
       n=st.integers(30, 1500), threads=thread_counts)
def test_local_energy_matches_while_loop(kind, seed, rel_radius, n, threads):
    oracle = surface(kind)
    x = _center(oracle, seed)
    r = rel_radius * oracle.diameter
    got = _outcome(lambda: energy.local_energy(oracle, x, r, MENGER, 8.0, n,
                                               seed, threads=threads))
    want = _outcome(lambda: loop_oracle.local_energy(oracle, x, r, MENGER,
                                                     8.0, n, seed))
    assert got == want


@ORACLE_SETTINGS
@given(kind=kinds, seed=st.integers(0, 2**32), rel_radius=st.floats(0.01, 0.3),
       n_patch=st.integers(1, 5000))
def test_patch_samples_match_block_loop(kind, seed, rel_radius, n_patch):
    oracle = surface(kind)
    x = _center(oracle, seed)
    r = rel_radius * oracle.diameter
    got = analysis.patch_samples(oracle, x, r, n_patch, seed)
    want = loop_oracle.patch_samples(oracle, x, r, n_patch, seed)
    assert np.array_equal(got, want)


@ORACLE_SETTINGS
@given(kind=kinds, seed=st.integers(0, 2**32), pairs=st.integers(1, 400))
def test_oscillation_matches_block_loop(kind, seed, pairs):
    oracle = surface(kind)
    x = _center(oracle, seed)
    scales = [f * oracle.diameter for f in (0.02, 0.05, 0.1, 0.3)]
    got = _outcome(lambda: analysis.normal_oscillation_profile(
        oracle, x, scales, pairs, seed))
    want = _outcome(lambda: loop_oracle.normal_oscillation_profile(
        oracle, x, scales, pairs, seed))
    assert got == want
