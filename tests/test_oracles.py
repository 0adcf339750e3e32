"""Tests for the problem abstraction and the bounded-noise oracle."""

import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import noisy_sqp.oracles as oracles_module
from helpers import seed_sequence_rng, uniform_reference_eval
from noisy_sqp import NoiseSpec, NoiseStream, Problem, SolverConfig, get_problem, solve
from noisy_sqp.oracles import eval_exact, eval_noisy


class TestExactEvaluation:
    def test_hs7_at_feasible_optimum(self):
        p = get_problem("HS7")
        out = eval_exact(p, np.array([0.0, math.sqrt(3.0)]))
        assert_allclose(out.f, -math.sqrt(3.0), rtol=1e-14)
        assert_allclose(out.c, [0.0], atol=1e-12)

    def test_bt11_at_unit_corner(self):
        p = get_problem("BT11")
        out = eval_exact(p, np.array([1.0, 0.0, 0.0, 0.0]))
        assert out.f == 0.0
        assert_array_equal(out.c, np.zeros(3))

    def test_hs40_at_origin(self):
        p = get_problem("HS40")
        out = eval_exact(p, np.zeros(5))
        assert out.f == 1.0
        assert_allclose(out.c, [2.0 - math.sqrt(18.0), 2.0 - math.sqrt(8.0), -2.0], rtol=1e-14)

    def test_dimension_mismatch_rejected(self):
        p = get_problem("HS7")
        with pytest.raises(ValueError, match="shape"):
            eval_exact(p, np.zeros(3))


class TestNoisyEvaluation:
    def test_zero_noise_equals_exact_bitwise(self):
        p = get_problem("BT11")
        spec = NoiseSpec(0.0, 0.0, seed=42)
        stream = NoiseStream(spec)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(size=p.n)
            noisy = eval_noisy(p, x, stream)
            exact = eval_exact(p, x)
            assert noisy.f == exact.f
            assert_array_equal(noisy.c, exact.c)
            assert_array_equal(noisy.g, exact.g)
            assert_array_equal(noisy.J, exact.J)

    def test_same_seed_and_call_sequence_reproduces(self):
        p = get_problem("HS40")
        spec = NoiseSpec(1e-2, 1e-2, seed=123)
        points = [p.x_start + 0.1 * k for k in range(6)]
        s1, s2 = NoiseStream(spec), NoiseStream(spec)
        for x in points:
            a = eval_noisy(p, x, s1)
            b = eval_noisy(p, x, s2)
            assert a.f == b.f
            assert_array_equal(a.c, b.c)
            assert_array_equal(a.g, b.g)
            assert_array_equal(a.J, b.J)

    @pytest.mark.parametrize("derivatives", [True, False])
    def test_numpy_integer_dimensions_draw_as_int_ones(self, derivatives):
        # next_rng takes only an int draw count.
        p = get_problem("BT11")
        q = replace(p, n=np.int64(p.n), m=np.int64(p.m))
        spec = NoiseSpec(1e-2, 1e-2, seed=8)
        a = eval_noisy(p, p.x_start, NoiseStream(spec), derivatives)
        b = eval_noisy(q, p.x_start, NoiseStream(spec), derivatives)
        assert type(q.n) is int and type(q.m) is int
        for u, v in zip(a[:4], b[:4]):
            assert np.asarray(u).tobytes() == np.asarray(v).tobytes()

    def test_float_dimension_rejected(self):
        # numpy scalars, bools and the other edge values are rows of test_input_rules.
        with pytest.raises(ValueError, match=r"^n must be a positive integer, got 2\.0$"):
            replace(get_problem("HS7"), n=2.0)

    def test_distinct_counters_give_distinct_draws(self):
        p = get_problem("HS7")
        spec = NoiseSpec(1e-3, 1e-3, seed=5)
        stream = NoiseStream(spec)
        a = eval_noisy(p, p.x_start, stream)
        b = eval_noisy(p, p.x_start, stream)
        assert a.f != b.f
        assert stream.counter == 2

    @pytest.mark.parametrize("eps1,eps2", [(0.0, 0.0), (1e-3, 0.0), (0.0, 1e-3), (1e-1, 1e-5)])
    def test_block_draw_matches_per_quantity_uniform_bitwise(self, eps1, eps2):
        rng = np.random.default_rng(11)
        for name in ("HS7", "BT11", "HS40"):
            p = get_problem(name)
            spec = NoiseSpec(eps1, eps2, seed=8)
            stream, ref_stream = NoiseStream(spec), NoiseStream(spec)
            for _ in range(50):
                x = p.x_start + rng.normal(size=p.n)
                out = eval_noisy(p, x, stream)
                f, c, g, J = uniform_reference_eval(p, x, ref_stream)
                assert type(out.f) is float
                assert out.f == f
                assert_array_equal(out.c, c)
                assert_array_equal(out.g, g)
                assert_array_equal(out.J, J)

    def test_entrywise_bounds_hold_over_10000_evaluations(self):
        p = get_problem("HS7")
        spec = NoiseSpec(1e-1, 1e-1, seed=99)
        stream = NoiseStream(spec)
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            x = p.x_start + rng.uniform(-1, 1, size=p.n)
            noisy = eval_noisy(p, x, stream)
            exact = eval_exact(p, x)
            assert abs(noisy.f - exact.f) <= spec.eps1
            assert np.all(np.abs(noisy.c - exact.c) <= spec.eps1)
            assert np.all(np.abs(noisy.g - exact.g) <= spec.eps2)
            assert np.all(np.abs(noisy.J - exact.J) <= spec.eps2)


class TestValueOnlyEvaluation:
    @pytest.mark.parametrize("eps1,eps2", [(0.0, 0.0), (1e-3, 0.0), (0.0, 1e-3), (1e-1, 1e-5)])
    @pytest.mark.parametrize("name", ["HS7", "BT11", "HS40"])
    def test_values_equal_full_evaluation_bitwise(self, name, eps1, eps2):
        p = get_problem(name)
        spec = NoiseSpec(eps1, eps2, seed=21)
        full_stream, value_stream = NoiseStream(spec), NoiseStream(spec)
        rng = np.random.default_rng(4)
        for i in range(40):
            x = p.x_start + rng.normal(size=p.n)
            full = eval_noisy(p, x, full_stream)
            value = eval_noisy(p, x, value_stream, derivatives=False)
            assert value_stream.counter == full_stream.counter == i + 1
            assert type(value.f) is float and value.f == full.f
            assert_array_equal(value.c, full.c)
            assert value.g is None and value.J is None

    def test_derivative_callbacks_are_skipped(self):
        def fail(x):
            raise AssertionError("derivative callback called")

        p = Problem("values", 2, 1, lambda x: (x @ x, x[:1]), fail, np.ones(2))
        out = eval_exact(p, p.x_start, derivatives=False)
        assert out.f == 2.0 and out.g is None and out.J is None
        stream = NoiseStream(NoiseSpec(1e-2, 1e-2, seed=3))
        noisy = eval_noisy(p, p.x_start, stream, derivatives=False)
        assert noisy.g is None and stream.counter == 1


SEEDS = st.one_of(st.sampled_from([0, 1, 2**31 - 1, 2**32 - 1]), st.integers(0, 2**32 - 1))
# Counters near 2**32 run off the last block, where every draw is rejected.
COUNTERS = st.one_of(st.integers(0, 1000), st.integers(2**32 - 300, 2**32 + 5))
OUT_OF_RANGE = r"counter must be an int in \[0, 2\*\*32\)"
STREAM_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("draw"), st.integers(1, 300)),
        st.tuples(st.just("counter"), COUNTERS),
        st.tuples(st.just("spec"), SEEDS),
    ),
    max_size=6,
)


def seeded(seed, counter=0):
    """A stream at ``counter`` of a noise-free spec; its draws depend only on ``seed``."""
    return NoiseStream(NoiseSpec(0.0, 0.0, seed=seed), counter)


def _check_rejected(stream, k=3):
    """next_rng rejects the stream's counter, or k, and leaves the stream alone."""
    spec, counter = stream.spec, stream.counter
    with pytest.raises(ValueError, match=OUT_OF_RANGE):
        stream.next_rng(k)
    assert stream.spec is spec and stream.counter is counter


class TestNoiseStreamMatchesSeedSequence:
    """Draw i of a stream of seed equals numpy's SeedSequence((seed, i)) path,
    bit for bit, for counters in [0, 2**32); others are rejected."""

    @staticmethod
    def _check_draws(stream, count):
        for _ in range(count):
            seed, counter = stream.spec.seed, stream.counter
            if not 0 <= counter < 2**32:
                _check_rejected(stream)
                continue
            got = stream.next_rng(3)
            assert stream.counter == counter + 1
            assert_array_equal(got, seed_sequence_rng(seed, counter).random(3))

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, counter=COUNTERS, count=st.integers(1, 600))
    @example(seed=0, counter=0, count=600)
    @example(seed=2**32 - 1, counter=2**32 - 100, count=110)
    def test_consecutive_draws(self, seed, counter, count):
        # 600 draws cross at least two block boundaries.
        self._check_draws(seeded(seed, counter), count)

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, ops=STREAM_OPS)
    def test_reassigned_counter_and_spec(self, seed, ops):
        stream = seeded(seed)
        self._check_draws(stream, 20)
        for op, value in ops:
            if op == "draw":
                self._check_draws(stream, value)
            else:
                setattr(stream, op, NoiseSpec(0.0, 0.0, seed=value) if op == "spec" else value)
                self._check_draws(stream, 3)

    @pytest.mark.parametrize("counter", [2**32, 2**40, -1])
    def test_counters_outside_32_bits_are_rejected(self, counter):
        stream = seeded(4)
        self._check_draws(stream, 3)
        stream.counter = counter
        for k in (3, 0):
            _check_rejected(stream, k)

    @pytest.mark.parametrize("value", [1.0, np.int64(5), True, "5"])
    def test_reassigned_counter_of_another_type_is_rejected(self, value):
        stream = seeded(5)
        self._check_draws(stream, 3)
        stream.counter = value
        for k in (3, 0):
            _check_rejected(stream, k)

    @pytest.mark.parametrize("value", [2, None, NoiseSpec(0.0, 0.0).bounds(2, 1)], ids=repr)
    def test_reassigned_spec_of_another_type_is_rejected(self, value):
        # Without the check, k = 0 drew nothing and advanced the counter, and
        # k = 3 raised AttributeError.
        stream = seeded(5)
        self._check_draws(stream, 3)
        stream.spec = value
        for k in (3, 0):
            _check_rejected(stream, k)

    @pytest.mark.parametrize("seed", [9, 2**32 - 1])
    def test_rows_are_read_only(self, seed):
        stream = seeded(seed)
        for k in (1, 6, 24, 0):
            u = stream.next_rng(k)
            assert u.shape == (k,) and u.dtype == np.float64
            assert not u.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                u[:] = 0.0

    @pytest.mark.parametrize("k", [-3, -1, 2.0, True, False, np.int64(3), None, "3"], ids=repr)
    def test_draw_counts_other_than_nonnegative_ints_are_rejected(self, k):
        # After a 24-wide draw, k = -3 would otherwise slice 21 draws.
        stream = seeded(5)
        stream.next_rng(24)
        _check_rejected(stream, k)
        self._check_draws(stream, 3)


@pytest.fixture
def cold_cache():
    """An empty draw cache."""
    oracles_module._draw_block.cache_clear()
    yield
    oracles_module._draw_block.cache_clear()


def _solve_rows(name, seed):
    p = get_problem(name)
    spec = NoiseSpec(1e-3, 1e-3, seed=seed)
    cfg = SolverConfig(max_iters=150, termination_enabled=False).with_estimates(
        spec.bounds(p.n, p.m))
    result = solve(p, spec, cfg, collect_psi=True)
    return [np.asarray(getattr(r, f.name), dtype=float).tobytes()
            for r in result.trace for f in fields(r)] + [result.x.tobytes()]


class TestDrawCache:
    """The per-process cache of draw blocks changes no draw."""

    _check_draws = staticmethod(TestNoiseStreamMatchesSeedSequence._check_draws)

    @staticmethod
    def _check_widths(stream, widths):
        for k in widths:
            seed, counter = stream.spec.seed, stream.counter
            assert_array_equal(stream.next_rng(k), seed_sequence_rng(seed, counter).random(k))

    @pytest.mark.parametrize("seed", [0, 31, 2**32 - 1])
    def test_cold_warm_and_widened_blocks_match_numpy(self, seed, cold_cache):
        # Counters 250 to 859 span blocks 0 to 3, each built once 24 wide
        # whatever the draw counts up to 24.
        widths = [(1, 4, 20, 24)[i % 4] for i in range(600)]
        self._check_widths(seeded(seed, 250), [1] * 10 + widths)  # cold
        info = oracles_module._draw_block.cache_info()
        assert info.misses == 4 and info.currsize == 4
        self._check_widths(seeded(seed, 250), [1] * 10 + widths[::-1])  # warm
        assert oracles_module._draw_block.cache_info().misses == 4
        # Wider requests build blocks of their own width: blocks 0 and 1 at
        # 30, then block 1 at 25; the 24-wide blocks still serve the rest.
        self._check_widths(seeded(seed, 250), [30] * 10 + [25] * 2 + [24] * 2)
        info = oracles_module._draw_block.cache_info()
        assert info.misses == 7 and info.currsize == 7

    def test_failed_block_allocation_changes_neither_width_nor_counter(self, cold_cache):
        stream = seeded(5)
        self._check_widths(stream, [6])
        with pytest.raises(MemoryError):
            stream.next_rng(10**12)  # a (256, 10**12) block cannot be allocated
        assert stream.counter == 1
        self._check_widths(stream, [3])
        self._check_widths(seeded(7), [3])
        # The failed request is the only other miss: seed 5's 24-wide block
        # still serves its next draw, and seed 7's is built 24 wide.
        info = oracles_module._draw_block.cache_info()
        assert info.misses == 3 and info.currsize == 2
        assert oracles_module._draw_block(7, 0, 24).shape == (256, 24)
        assert oracles_module._draw_block.cache_info().misses == 3

    @pytest.mark.parametrize("k", [1, 4, 20, 24, 30])
    def test_each_width_across_a_block_boundary(self, k, cold_cache):
        for stream in (seeded(3, 250), seeded(3, 250)):
            self._check_widths(stream, [k] * 12)
            self._check_widths(stream, [24, k, 1])

    @pytest.mark.parametrize("counter", [2**32 - 1, 2**32])
    def test_last_hashed_counter_and_first_rejected_counter(self, counter, cold_cache):
        # 2**32 - 1 is the last row of the last block; 2**32 is rejected
        # before any block is looked up.
        self._check_draws(seeded(7, counter), 1)
        assert oracles_module._draw_block.cache_info().misses == int(counter < 2**32)

    def test_blocks_are_built_whole_and_read_only(self, cold_cache):
        seeded(6, 300).next_rng(5)  # a 5-wide draw reads a 24-wide block
        block = oracles_module._draw_block(6, 1, 24)
        assert oracles_module._draw_block.cache_info().misses == 1
        assert block.shape == (256, 24) and not block.flags.writeable
        for r in (0, 44, 255):
            assert_array_equal(block[r], seed_sequence_rng(6, 256 + r).random(24))

    @pytest.mark.parametrize("name", ["HS7", "HS40"])
    def test_zero_width_draws_read_no_block(self, name, cold_cache):
        p = get_problem(name)
        spec = NoiseSpec(0.0, 0.0, seed=3)
        stream = NoiseStream(spec)
        before = oracles_module._draw_block.cache_info()
        for counter in range(300):
            assert stream.counter == counter
            u = stream.next_rng(0)
            assert u.shape == (0,) and not u.flags.writeable
        for derivatives in (True, False):
            x = p.x_start + 0.25
            got, want = eval_noisy(p, x, stream, derivatives), eval_exact(p, x, derivatives)
            for a, b in zip(got[:4], want[:4]):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert stream.counter == 302
        assert oracles_module._draw_block.cache_info() == before

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS, paces=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                                      min_size=1, max_size=12))
    def test_two_streams_of_one_seed_used_alternately(self, seed, paces):
        a, b = seeded(seed), seeded(seed)
        for count_a, count_b in paces:
            self._check_draws(a, count_a)
            self._check_widths(b, [24] * count_b)

    def test_cache_holds_at_most_its_block_bound(self, cold_cache):
        bound = oracles_module._MAX_BLOCKS
        streams = [seeded(seed) for seed in range(bound + 20)]
        for stream in streams + streams:
            self._check_widths(stream, [24, 6])
            assert oracles_module._draw_block.cache_info().currsize <= bound
        assert oracles_module._draw_block.cache_info().currsize == bound

    def test_threads_sharing_blocks_draw_numpy_values(self, cold_cache):
        # Six threads on two cores, with streams of one seed and widths in a
        # different order each, so builds at widths 24 and 30 and reads interleave.
        def work(i, errors):
            try:
                stream = seeded(11, 200)
                for j in range(120):
                    self._check_widths(stream, [(1, 4, 20, 24, 6, 9, 30)[(i + j) % 7]])
            except AssertionError as e:
                errors.append(e)

        errors = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i, errors)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert not errors

    @pytest.mark.parametrize("order", [("HS7", "BT11", "HS40"), ("HS40", "BT11", "HS7")])
    def test_solves_sharing_a_seed_equal_cold_cache_solves(self, order, cold_cache):
        # HS7 and BT11 read the leading columns of the 24-wide rows that
        # HS40's full evaluations read whole, whichever solve builds them.
        cold = {}
        for name in order:
            oracles_module._draw_block.cache_clear()
            cold[name] = _solve_rows(name, seed=17)
        oracles_module._draw_block.cache_clear()
        for name in order:
            assert _solve_rows(name, seed=17) == cold[name]

    def test_block_count_does_not_depend_on_solve_order(self):
        # A fresh interpreter, so nothing that ran before in this process can
        # shape the first order's blocks; the cache is emptied between orders.
        code = (
            "from noisy_sqp import NoiseSpec, SolverConfig, get_problem, solve\n"
            "from noisy_sqp.oracles import _draw_block\n"
            "for order in (('HS7', 'BT11', 'HS40'), ('HS40', 'BT11', 'HS7')):\n"
            "    _draw_block.cache_clear()\n"
            "    for name in order:\n"
            "        p, spec = get_problem(name), NoiseSpec(1e-3, 1e-3, seed=17)\n"
            "        solve(p, spec, SolverConfig(max_iters=150, termination_enabled=False)\n"
            "              .with_estimates(spec.bounds(p.n, p.m)))\n"
            "    print(_draw_block.cache_info().misses)\n")
        src = str(Path(oracles_module.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
        forward, reverse = map(int, out.stdout.split())
        assert forward == reverse > 0

    @pytest.mark.parametrize("eps1", [1e-3, 0.0])
    def test_wide_value_only_evaluations_share_full_row_blocks(self, eps1, cold_cache):
        # n = 10, m = 5: a full evaluation draws 66 uniforms (60 at eps1 = 0),
        # wider than a 24-wide block, and a value-only one reads the same
        # row, so counters 0 to 599 build blocks 0, 1 and 2 once each.
        n, m = 10, 5
        A = np.random.default_rng(0).normal(size=(m, n))
        p = Problem("wide", n, m, lambda x: (float(x @ x), A @ x - 1.0),
                    lambda x: (2.0 * x, A), np.zeros(n))
        spec = NoiseSpec(eps1, 1e-3, seed=11)
        full_stream, value_stream = NoiseStream(spec), NoiseStream(spec)
        rng = np.random.default_rng(5)
        for _ in range(600):
            x = rng.normal(size=n)
            full = eval_noisy(p, x, full_stream)
            value = eval_noisy(p, x, value_stream, derivatives=False)
            assert type(value.f) is float and value.g is None and value.J is None
            assert np.float64(value.f).tobytes() == np.float64(full.f).tobytes()
            assert value.c.tobytes() == full.c.tobytes()
        assert oracles_module._draw_block.cache_info().misses == 3

    def test_noise_map(self):
        k1, k2, lo, span = oracles_module._noise_map(1e-3, 1e-2, 2, 4)
        assert (k1, k2) == (3, 12)
        assert not lo.flags.writeable and not span.flags.writeable
        assert_array_equal(lo, [-1e-3] * 3 + [-1e-2] * 12)
        assert_array_equal(span, [1e-3 - -1e-3] * 3 + [1e-2 - -1e-2] * 12)


class TestDerivedBounds:
    # Norm-level bounds at eps1 = eps2 = 1e-3, checked to three
    # significant digits against the values the trio is reported with.
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("HS7", (1e-3, 1e-3, 1.41e-3, 1.41e-3)),
            ("BT11", (1e-3, 3e-3, 2.00e-3, 6.00e-3)),
            ("HS40", (1e-3, 3e-3, 2.24e-3, 6.71e-3)),
        ],
    )
    def test_reported_values(self, name, expected):
        p = get_problem(name)
        b = NoiseSpec(1e-3, 1e-3).bounds(p.n, p.m)
        got = (b.eps_f, b.eps_c, b.eps_g, b.eps_J)
        for g_val, want in zip(got, expected):
            assert g_val == pytest.approx(want, rel=5e-3)

    def test_formulas(self):
        b = NoiseSpec(2e-3, 5e-4).bounds(n=6, m=4)
        assert b.eps_f == 2e-3
        assert b.eps_c == 4 * 2e-3
        assert b.eps_g == pytest.approx(math.sqrt(6) * 5e-4)
        assert b.eps_J == pytest.approx(4 * math.sqrt(6) * 5e-4)


class TestValidation:
    # The half-widths' and the seed's edge values are rows of test_input_rules.
    @pytest.mark.parametrize("seed", [2**40, np.uint64(2**32)])
    def test_seed_must_be_below_2_to_the_32(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be below 2\*\*32, got "):
            NoiseSpec(1e-3, 1e-3, seed=seed)

    @pytest.mark.parametrize("seed", [1.5, 2.0])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            NoiseSpec(1e-3, 1e-3, seed=seed)

    def test_largest_seed_accepted(self):
        spec = NoiseSpec(1e-3, 1e-3, seed=np.uint32(2**32 - 1))
        assert spec.seed == 2**32 - 1
        assert NoiseStream(spec).next_rng(1)[0] == seed_sequence_rng(2**32 - 1, 0).random()

    def test_problem_requires_m_less_than_n(self):
        with pytest.raises(ValueError, match="m < n"):
            Problem("bad", 2, 2, lambda x: (0.0, np.zeros(2)),
                    lambda x: (np.zeros(2), np.zeros((2, 2))), np.zeros(2))

    def test_problem_checks_start_shape(self):
        with pytest.raises(ValueError, match="x_start"):
            Problem("bad", 3, 1, lambda x: (0.0, np.zeros(1)),
                    lambda x: (np.zeros(3), np.zeros((1, 3))), np.zeros(2))

    def test_problem_keeps_a_read_only_copy_of_the_start(self):
        hs7 = get_problem("HS7")
        x0 = np.array([2.0, 2.0])
        p = Problem("mine", 2, 1, hs7.eval_fc, hs7.eval_gJ, x0)
        x0[0] = 99.0
        assert p.x_start is not x0 and p.x_start.tolist() == [2.0, 2.0]
        with pytest.raises(ValueError, match="read-only"):
            p.x_start[0] = 99.0

    @pytest.mark.parametrize("noisy", [True, False], ids=["noisy", "noise-free"])
    @pytest.mark.parametrize("callback, value, error", [
        # float() of these would raise a bare TypeError, or on older numpy only warn
        ("eval_fc", (np.ones(1), np.zeros(3)), "f of shape (1,), expected ()"),
        ("eval_fc", ([1.0], np.zeros(3)), "f of shape (1,), expected ()"),
        ("eval_fc", (np.ones((1, 1)), np.zeros(3)), "f of shape (1, 1), expected ()"),
        # these broadcast against BT11's three c, four g and 3 x 4 J draws
        ("eval_fc", (0.0, np.ones(1)), "c of shape (1,), expected (3,)"),
        ("eval_gJ", (np.ones(1), np.zeros((3, 4))), "g of shape (1,), expected (4,)"),
        ("eval_gJ", (np.zeros(4), np.ones((1, 4))), "J of shape (1, 4), expected (3, 4)"),
        ("eval_gJ", (np.zeros(4), np.ones((4, 3))), "J of shape (4, 3), expected (3, 4)"),
        # no pair to unpack
        ("eval_fc", 1.0, "1.0, expected a pair (f, c)"),
        ("eval_fc", None, "None, expected a pair (f, c)"),
        ("eval_fc", (0.0, 0.0, 0.0), "(0.0, 0.0, 0.0), expected a pair (f, c)"),
        ("eval_gJ", 1.0, "1.0, expected a pair (g, J)"),
        ("eval_gJ", None, "None, expected a pair (g, J)"),
        ("eval_gJ", (0.0, 0.0, 0.0), "(0.0, 0.0, 0.0), expected a pair (g, J)"),
    ])
    def test_callback_of_wrong_shape_rejected(self, callback, value, error, noisy):
        p = get_problem("BT11")
        bad = replace(p, **{callback: lambda x: value})
        spec = NoiseSpec(1e-3, 1e-3, seed=0) if noisy else NoiseSpec(0.0, 0.0)
        message = "^" + re.escape(f"BT11: {callback} returned {error}") + "$"
        with pytest.raises(ValueError, match=message):
            eval_exact(bad, p.x_start)
        with pytest.raises(ValueError, match=message):
            eval_noisy(bad, p.x_start, NoiseStream(spec))
        with pytest.raises(ValueError, match=message):
            solve(bad, spec, SolverConfig(max_iters=5))

    @pytest.mark.parametrize("error", [TypeError("inside"), ValueError("inside"),
                                       ZeroDivisionError("inside")], ids=repr)
    @pytest.mark.parametrize("callback", ["eval_fc", "eval_gJ"])
    def test_exception_inside_a_callback_passes_through(self, callback, error):
        # The pair check catches the TypeError and ValueError of unpacking only.
        def raising(x):
            raise error

        p = replace(get_problem("BT11"), **{callback: raising})
        spec = NoiseSpec(1e-3, 1e-3, seed=0)
        for call in (lambda: eval_exact(p, p.x_start),
                     lambda: eval_noisy(p, p.x_start, NoiseStream(spec)),
                     lambda: solve(p, spec, SolverConfig(max_iters=5))):
            with pytest.raises(type(error)) as raised:
                call()
            assert raised.value is error

    def test_value_only_evaluation_checks_eval_fc_only(self):
        p = get_problem("BT11")
        bad_derivatives = replace(p, eval_gJ=lambda x: None)
        assert eval_exact(bad_derivatives, p.x_start, derivatives=False).c.shape == (3,)
        bad_c = replace(p, eval_fc=lambda x: (0.0, np.ones((3, 1))))
        with pytest.raises(ValueError, match=r"BT11: eval_fc returned c of shape \(3, 1\)"):
            eval_exact(bad_c, p.x_start, derivatives=False)

    @pytest.mark.parametrize("value", [0.0, np.float64(1.5), np.array(-2.0)], ids=repr)
    def test_scalar_objective_of_any_type_is_a_builtin_float(self, value):
        p = get_problem("BT11")
        p = replace(p, eval_fc=lambda x, fc=p.eval_fc: (value, fc(x)[1]))
        assert eval_exact(p, p.x_start).f.hex() == float(value).hex()
        assert type(eval_exact(p, p.x_start, derivatives=False).f) is float

    @pytest.mark.parametrize("spec", [2, None, NoiseSpec(0.0, 0.0).bounds(2, 1)], ids=repr)
    def test_stream_needs_a_spec(self, spec):
        # A bare seed would read that seed's draws whatever spec eval_noisy was given.
        with pytest.raises(ValueError, match="^a noise stream needs a NoiseSpec, got "):
            NoiseStream(spec)

    def test_stream_restarts_from_seed(self):
        s = seeded(10)
        first = s.next_rng(1)[0]
        again = seeded(10).next_rng(1)[0]
        assert first == again
