import re
from itertools import product

import numpy as np
import pytest

from modeswitch.grid import CHUNK_NODES, Lattice, node_count

from conftest import at, bin_backend, det_backend, sample_paths


class TestLatticeParameters:
    """The step count, the horizon and the times a lattice is built on, and what it refuses."""

    @pytest.mark.parametrize("kind", ["deterministic", "binomial"])
    def test_basic_layout(self, kind):
        lattice = Lattice(kind, 4, 2.0)
        assert (lattice.n_steps, lattice.horizon, lattice.dt) == (4, 2.0, 0.5)
        np.testing.assert_allclose(lattice.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert lattice.times[0] == 0.0 and lattice.times[-1] == 2.0
        assert not hasattr(lattice, "grid")

    def test_times_are_built_once_and_read_only(self):
        lattice = Lattice("binomial", 4, 1.0)
        assert lattice.times is lattice.times
        with pytest.raises(ValueError, match="read-only"):
            lattice.times[0] = 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="^need at least one time step$"):
            Lattice("deterministic", 0, 1.0)
        with pytest.raises(ValueError, match=r"^horizon must be positive and finite, got -1\.0$"):
            Lattice("deterministic", 4, -1.0)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -float("inf"), 0.0, True, np.True_])
    def test_refuses_a_horizon_that_is_not_finite_and_positive(self, horizon):
        # nan passed a bare `horizon <= 0` check and built an all-nan lattice; True passed as 1, and numpy's True too
        with pytest.raises(ValueError, match=rf"^horizon must be positive and finite, got {horizon!r}$"):
            Lattice("binomial", 10, horizon)

    @pytest.mark.parametrize("n_steps", [2.5, float("nan"), True, 100.0])
    def test_refuses_a_step_count_that_is_not_an_int(self, n_steps):
        # past this check, numpy's cast of the lattice offsets would fail naming no field
        with pytest.raises(ValueError, match=rf"^n_steps must be an int, got {n_steps!r}$"):
            Lattice("deterministic", n_steps, 1.0)
        assert Lattice("deterministic", np.int64(100), 1.0).dt == 0.01

    def test_unknown_backend_kind(self):
        with pytest.raises(ValueError, match="^unknown backend kind 'trinomial'$"):
            Lattice("trinomial", 4, 1.0)


class TestFloatsAndLazyArrays:
    """A lattice computes its scalars and offsets at construction, its times array at its first read and
    the node data of a range of steps on each call; its float times and states are the arrays' bits, so a
    reader in floats needs no numpy."""

    @pytest.mark.parametrize("horizon", [1e-3, 0.37, 1.0, 2.0, 7.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 997, 2000, 12345])
    def test_float_times_are_linspaces_bits(self, n, horizon):
        lattice = Lattice("deterministic", n, horizon)
        times = lattice.float_times
        assert all(type(t) is float for t in times) and times[-1] == horizon
        assert np.array(times).tobytes() == np.linspace(0.0, horizon, n + 1).tobytes() == lattice.times.tobytes()

    @pytest.mark.parametrize("horizon", [1e-3, 0.37, 1.0, 7.0])
    @pytest.mark.parametrize("kind, n", [("deterministic", 50), ("binomial", 1), ("binomial", 7), ("binomial", 400)])
    def test_float_states_are_the_states_bits(self, kind, n, horizon):
        lattice = Lattice(kind, n, horizon)
        for k in range(n + 1):
            states = lattice.float_states(k)
            assert all(type(x) is float for x in states)
            assert np.array(states).tobytes() == lattice.state(k).tobytes(), k
            assert lattice.nodes(k, k + 1)[3].tobytes() == lattice.state(k).tobytes(), k

    @pytest.mark.parametrize("kind, n", [("deterministic", 9), ("binomial", 9), ("binomial", 400)])
    def test_node_data_of_any_step_range(self, kind, n):
        # each range reads the bits of the whole-lattice maps the lattice once kept, built as they were built
        lattice = Lattice(kind, n, 0.37)
        offsets = np.array(lattice.offsets)
        step_of_node = np.repeat(np.arange(n + 1), np.diff(offsets))
        node_index = np.arange(lattice.size) - offsets[step_of_node]
        states = (step_of_node - 2 * node_index) * lattice.spread
        for start, stop in ((0, n + 1), (0, 1), (3, 7), (n, n + 1), (5, 5), *lattice.step_chunks(n + 1)):
            nodes, steps, index, state = lattice.nodes(start, stop)
            assert nodes == slice(lattice.offsets[start], lattice.offsets[stop])
            assert steps.dtype == index.dtype == step_of_node.dtype and state.dtype == float
            assert steps.tobytes() == step_of_node[nodes].tobytes(), (start, stop)
            assert index.tobytes() == node_index[nodes].tobytes(), (start, stop)
            assert state.tobytes() == states[nodes].tobytes(), (start, stop)

    @pytest.mark.parametrize("kind", ["deterministic", "binomial"])
    def test_arrays_are_built_at_their_first_read(self, kind):
        # the times array alone; the node data (steps, node indices, states, children) is never kept
        lattice = Lattice(kind, 6, 1.0)
        assert lattice.offsets == ((0, 1, 3, 6, 10, 15, 21, 28) if kind == "binomial" else tuple(range(8)))
        assert lattice.size == lattice.offsets[-1] and type(lattice.spread) is float
        arrays = lambda: [name for name, value in vars(lattice).items() if isinstance(value, np.ndarray)]  # noqa: E731
        assert not arrays()
        lattice.nodes(0, 7), lattice.state(6), lattice.locate(lattice.size - 1)
        lattice.flat_moments(np.zeros(lattice.size), 0, 6)
        assert not arrays()
        times = lattice.times
        assert arrays() == ["times"] and lattice.times is times
        for name in ("step_of_node", "node_index", "states", "_up", "grid"):
            with pytest.raises(AttributeError, match=f"'Lattice' object has no attribute '{name}'"):
                getattr(lattice, name)


class TestLatticeLayout:
    def test_recombining_node_counts(self):
        be = bin_backend(6)
        for k in range(7):
            assert be.n_nodes(k) == k + 1
            assert be.state(k).shape == (k + 1,)

    def test_state_increments(self):
        be = bin_backend(4)
        s = np.sqrt(be.dt)
        np.testing.assert_allclose(be.state(1), [s, -s])
        np.testing.assert_allclose(be.state(2), [2 * s, 0.0, -2 * s])

    @pytest.mark.parametrize("be", [bin_backend(6), det_backend(6)])
    def test_flat_index_inverts_locate(self, be):
        every = np.arange(be.size)
        _, steps, index, _ = be.nodes(0, be.n_steps + 1)
        np.testing.assert_array_equal(be.flat_index(steps, index), every)
        assert all(be.flat_index(*be.locate(i)) == i for i in every)

    @pytest.mark.parametrize("step,node", [(2, 3), (2, -1), (-1, 0), (7, 0)])
    def test_flat_index_refuses_a_node_off_the_lattice(self, step, node):
        with pytest.raises(ValueError, match=f"step {step}, node {node} is not on the lattice"):
            bin_backend(6).flat_index([0, step], [0, node])
        with pytest.raises(ValueError, match="not on the lattice"):
            det_backend(6).flat_index(1, 1)  # the width-1 lattice has node 0 only

    @pytest.mark.parametrize("be", [bin_backend(4), det_backend(4)])
    @pytest.mark.parametrize("step,node", [(2**63, 0), (0, 2**63), (-(2**63) - 1, 0), (99999999999999999999, 0)])
    def test_flat_index_refuses_a_pair_past_int64(self, be, step, node):
        # numpy's conversion to int64 raised OverflowError, naming no pair
        with pytest.raises(ValueError, match=rf"^step {step}, node {node} is not on the lattice$"):
            be.flat_index(step, node)

    @pytest.mark.parametrize("be", [bin_backend(4), det_backend(4)])
    @pytest.mark.parametrize("end", ["before", "after"])
    @pytest.mark.parametrize("by", [1, 3])
    def test_locate_refuses_an_index_off_the_lattice(self, be, end, by):
        # a negative index read a node from the end, and one past the end raised numpy's IndexError
        flat = -by if end == "before" else be.size - 1 + by
        with pytest.raises(ValueError, match=rf"^flat index {flat} is not on the lattice$"):
            be.locate(flat)
        with pytest.raises(ValueError, match=rf"^flat index {flat} is not on the lattice$"):
            be.locate(np.int64(flat))
        assert be.locate(0) == (0, 0) and be.locate(np.int64(be.size - 1)) == (4, be.n_nodes(4) - 1)

    @pytest.mark.parametrize("step,node,named", [
        (True, 0, "step True"), (0, False, "node False"), (np.True_, 0, "step np.True_"),
        (1.7, 0, "step 1.7"), (1.0, 0, "step 1.0"), (2, np.float64(0.0), "node np.float64(0.0)"),
        ([0, True], [0, 0], "step True"), ([0, 2], [0, 0.9], "node 0.9"),
        (np.array([1.0, 2.0]), 0, "step 1.0"), (np.array([True, False]), 0, "step True"),
    ])  # fmt: skip
    def test_flat_index_refuses_a_bool_or_a_non_integer(self, step, node, named):
        # np.asarray(..., dtype=np.int64) read True as step 1 and truncated 1.7 to step 1
        with pytest.raises(ValueError, match=rf"^{re.escape(named)} is not an integer$"):
            bin_backend(4).flat_index(step, node)

    def test_flat_index_takes_numpy_integers(self):
        be = bin_backend(4)
        assert be.flat_index(np.int64(2), np.uint8(1)) == be.flat_index(2, 1) == 4
        for dtype in (np.int8, np.int32, np.uint16, np.int64):
            np.testing.assert_array_equal(be.flat_index(np.array([0, 2, 4], dtype=dtype), [0, 1, 4]), [0, 4, 14])
        np.testing.assert_array_equal(be.flat_index([np.int64(3), 1], (2, 0)), [8, 1])

    @pytest.mark.parametrize("flat,named", [
        (True, "True"), (np.False_, "np.False_"), (2.5, "2.5"), (3.0, "3.0"), (np.float64(1.0), "np.float64(1.0)"),
    ])  # fmt: skip
    def test_locate_refuses_a_bool_or_a_non_integer(self, flat, named):
        # locate(2.5) read (1, 1), and locate(True) read (1, 0)
        with pytest.raises(ValueError, match=rf"^flat index {re.escape(named)} is not an integer$"):
            bin_backend(4).locate(flat)


class TestCondexp:
    def test_constants_preserved(self):
        be = bin_backend(5)
        out = be.moments(np.full(4, 3.25), 2)[0]
        np.testing.assert_allclose(out, np.full(3, 3.25))

    def test_fair_coin_average(self):
        be = bin_backend(1)
        assert be.moments(np.array([1.0, 0.0]), 0)[0][0] == 0.5

    def test_two_step_tower_value(self):
        be = bin_backend(2)
        level1 = be.moments(np.array([1.0, 2.0, 4.0]), 1)[0]
        root = be.moments(level1, 0)[0]
        # brute force over the 4 equally likely two-step paths: (1+2+2+4)/4
        assert root[0] == pytest.approx(2.25, abs=1e-15)

    def test_shape_mismatch_rejected(self):
        be = bin_backend(3)
        with pytest.raises(ValueError):
            be.moments(np.zeros(5), 1)[0]
        with pytest.raises(ValueError):
            be.moments(np.zeros(2), 2)[1]

    def test_leading_axis_holds_one_equation_per_row(self):
        be = bin_backend(3)
        rows = np.arange(12.0).reshape(3, 4) ** 2
        for i in (0, 1):  # E_k and the martingale projection
            np.testing.assert_array_equal(be.moments(rows, 2)[i], [be.moments(row, 2)[i] for row in rows])

    def test_deterministic_identity(self):
        be = det_backend(3)
        np.testing.assert_allclose(be.moments(np.array([7.0]), 1)[0], [7.0])

    def test_tower_matches_path_enumeration(self):
        rng = np.random.default_rng(5)
        for depth in (2, 3, 4):
            be = bin_backend(depth)
            values = rng.uniform(-1, 1, size=depth + 1)
            nested = values.copy()
            for k in range(depth - 1, -1, -1):
                nested = be.moments(nested, k)[0]
            total = 0.0
            for moves in product([0, 1], repeat=depth):
                total += values[sum(moves)]
            assert nested[0] == pytest.approx(total / 2**depth, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        be = bin_backend(8)
        u = rng.uniform(-1, 1, 6)
        v = rng.uniform(-1, 1, 6)
        alpha, beta = 1.7, -0.3
        lhs = be.moments(alpha * u + beta * v, 4)[0]
        rhs = alpha * be.moments(u, 4)[0] + beta * be.moments(v, 4)[0]
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestMartingaleProjection:
    def test_constant_is_orthogonal(self):
        be = bin_backend(5)
        np.testing.assert_allclose(be.moments(np.full(3, 9.9), 1)[1], np.zeros(2))

    def test_identity_integrand(self):
        be = bin_backend(6)
        for k in range(5):
            z = be.moments(be.state(k + 1), k)[1]
            np.testing.assert_allclose(z, np.ones(k + 1), atol=1e-12)

    def test_squared_state_at_root(self):
        # next = x_{k+1}^2 from the root: both children have value dt, so the
        # projection (the discrete derivative 2*x) vanishes at x_0 = 0.
        be = bin_backend(3)
        z = be.moments(be.state(1) ** 2, 0)[1]
        assert z[0] == pytest.approx(0.0, abs=1e-15)

    def test_deterministic_zero(self):
        be = det_backend(3)
        np.testing.assert_allclose(be.moments(np.array([4.2]), 0)[1], [0.0])


class TestSamplePaths:
    """``conftest.sample_paths``: the Monte Carlo walk's coin stream, written out as whole paths."""

    def test_deterministic_single_trivial_path(self):
        be = det_backend(5)
        paths = sample_paths(be, 3, seed=99)
        assert paths.shape == (3, 6)
        assert np.all(paths == 0)

    def test_reproducible_given_seed(self):
        be = bin_backend(20)
        a = sample_paths(be, 50, seed=123)
        b = sample_paths(be, 50, seed=123)
        np.testing.assert_array_equal(a, b)
        c = sample_paths(be, 50, seed=124)
        assert not np.array_equal(a, c)

    def test_paths_follow_lattice_transitions(self):
        be = bin_backend(10)
        paths = sample_paths(be, 200, seed=1)
        steps = np.diff(paths, axis=1)
        assert set(np.unique(steps)) <= {0, 1}
        assert np.all(paths[:, 0] == 0)

    def test_up_fraction_near_half(self):
        be = bin_backend(4)
        paths = sample_paths(be, 100_000, seed=2024)
        up_fraction = np.mean(paths[:, 1] == 0)
        assert abs(up_fraction - 0.5) < 0.01

    def test_rejects_zero_paths(self):
        with pytest.raises(ValueError):
            sample_paths(bin_backend(4), 0, seed=1)

    @pytest.mark.parametrize("n", [25, 101])
    def test_each_step_reads_one_byte_string_of_the_stream(self, n):
        # 13 paths: step k reads 2 bytes; path r moves down when bit 7 - r % 8
        # of byte r // 8 is set, and the last 3 bits of each step go unread
        be, rows = bin_backend(n), 13
        rng, written = np.random.default_rng(17), np.random.default_rng(17)
        paths = sample_paths(be, rows, rng)
        for k in range(n):
            step = written.bytes(2)
            downs = [(step[r // 8] >> (7 - r % 8)) & 1 for r in range(rows)]
            np.testing.assert_array_equal(paths[:, k + 1] - paths[:, k], downs)
        # a later draw continues the same stream
        assert rng.bytes(9) == written.bytes(9)
        # the first steps of the first paths from seed 17, pinned
        pinned = [[0, 0, 0, 0, 0, 0, 1, 1], [0, 1, 2, 3, 4, 5, 5, 6], [0, 1, 1, 1, 1, 1, 2, 3]]
        np.testing.assert_array_equal(sample_paths(be, rows, 17)[:3, :8], pinned)


class TestFieldSurface:
    """A field surface: one process's node values as a flat buffer of ``size`` values."""

    def test_flat_indices_along_path(self):
        be = bin_backend(3)
        surf = np.concatenate([np.arange(k + 1, dtype=float) for k in range(4)])
        path = np.array([0, 1, 1, 2])
        np.testing.assert_allclose(surf[be.offsets[:-1] + path], [0.0, 1.0, 1.0, 2.0])

    def test_flat_buffer_layout(self):
        be = bin_backend(3)
        surf = np.concatenate([np.full(k + 1, float(k)) for k in range(4)])
        assert surf.shape == (be.size,) == (10,)
        np.testing.assert_array_equal(be.offsets, [0, 1, 3, 6, 10])
        np.testing.assert_array_equal(surf, be.nodes(0, 4)[1])
        assert at(surf, be, 2).shape == (3,) and np.shares_memory(at(surf, be, 2), surf)
        assert be.locate(7) == (3, 1)


class TestWidthOneLattice:
    def test_layout(self):
        be = det_backend(4)
        assert be.down == 0 and be.spread == 0.0
        np.testing.assert_array_equal(be.offsets, np.arange(6))
        _, steps, index, states = be.nodes(0, 5)
        np.testing.assert_array_equal(steps, np.arange(5))
        np.testing.assert_array_equal(index, np.zeros(5))
        np.testing.assert_array_equal(states, np.zeros(5))

    def test_continuation_matches_stepwise_condexp(self):
        # ``flat_moments`` over any range of steps gives the bits of ``moments`` step by step
        rng = np.random.default_rng(8)
        for be in (det_backend(7), bin_backend(7)):
            surf = np.concatenate([rng.uniform(-1, 1, be.n_nodes(k)) for k in range(8)])
            for start, stop in ((0, 7), (2, 5), (6, 7), (3, 3)):
                flat = be.flat_moments(surf, start, stop)
                for i in range(2):
                    steps = [be.moments(at(surf, be, k + 1), k)[i] for k in range(start, stop)]
                    assert flat[i].tobytes() == np.concatenate(steps or [[]]).tobytes(), (start, stop, i)

    @pytest.mark.parametrize("kind, n", [("deterministic", 70000), ("binomial", 400), ("binomial", 3)])
    def test_step_chunks_cover_the_steps_in_bounded_runs(self, kind, n):
        be = Lattice(kind, n, 1.0)
        for stop in (n, n + 1):
            chunks = be.step_chunks(stop)
            assert [a for a, _ in chunks] == [0] + [b for _, b in chunks[:-1]] and chunks[-1][1] == stop
            for a, b in chunks:
                assert b == a + 1 or be.offsets[b] - be.offsets[a] <= CHUNK_NODES
                assert b == stop or be.offsets[b + 1] - be.offsets[a] > CHUNK_NODES  # each run is as long as it may be
        assert node_count(kind, n) == be.size
