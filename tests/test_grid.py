from itertools import product

import numpy as np
import pytest

from modeswitch.grid import FieldSurface, TimeGrid, make_backend

from conftest import bin_backend, det_backend


class TestTimeGrid:
    def test_basic_layout(self):
        grid = TimeGrid(4, 2.0)
        assert grid.dt == 0.5
        np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.times[0] == 0.0 and grid.times[-1] == 2.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TimeGrid(0, 1.0)
        with pytest.raises(ValueError):
            TimeGrid(4, -1.0)

    def test_unknown_backend_kind(self):
        with pytest.raises(ValueError):
            make_backend("trinomial", TimeGrid(4, 1.0))


class TestLatticeLayout:
    def test_recombining_node_counts(self):
        be = bin_backend(6)
        for k in range(7):
            assert be.n_nodes(k) == k + 1
            assert be.state(k).shape == (k + 1,)

    def test_state_increments(self):
        be = bin_backend(4)
        s = np.sqrt(be.grid.dt)
        np.testing.assert_allclose(be.state(1), [s, -s])
        np.testing.assert_allclose(be.state(2), [2 * s, 0.0, -2 * s])

    @pytest.mark.parametrize("be", [bin_backend(6), det_backend(6)])
    def test_flat_index_inverts_locate(self, be):
        every = np.arange(be.size)
        np.testing.assert_array_equal(be.flat_index(be.step_of_node, be.node_index), every)
        assert all(be.flat_index(*be.locate(i)) == i for i in every)

    @pytest.mark.parametrize("step,node", [(2, 3), (2, -1), (-1, 0), (7, 0)])
    def test_flat_index_refuses_a_node_off_the_lattice(self, step, node):
        with pytest.raises(ValueError, match=f"step {step}, node {node} is not on the lattice"):
            bin_backend(6).flat_index([0, step], [0, node])
        with pytest.raises(ValueError, match="not on the lattice"):
            det_backend(6).flat_index(1, 1)  # the width-1 lattice has node 0 only


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
    def test_deterministic_single_trivial_path(self):
        be = det_backend(5)
        paths = be.sample_paths(3, seed=99)
        assert paths.shape == (3, 6)
        assert np.all(paths == 0)

    def test_reproducible_given_seed(self):
        be = bin_backend(20)
        a = be.sample_paths(50, seed=123)
        b = be.sample_paths(50, seed=123)
        np.testing.assert_array_equal(a, b)
        c = be.sample_paths(50, seed=124)
        assert not np.array_equal(a, c)

    def test_paths_follow_lattice_transitions(self):
        be = bin_backend(10)
        paths = be.sample_paths(200, seed=1)
        steps = np.diff(paths, axis=1)
        assert set(np.unique(steps)) <= {0, 1}
        assert np.all(paths[:, 0] == 0)

    def test_up_fraction_near_half(self):
        be = bin_backend(4)
        paths = be.sample_paths(100_000, seed=2024)
        up_fraction = np.mean(paths[:, 1] == 0)
        assert abs(up_fraction - 0.5) < 0.01

    def test_rejects_zero_paths(self):
        with pytest.raises(ValueError):
            bin_backend(4).sample_paths(0, seed=1)


class TestFieldSurface:
    def test_shape_validation(self):
        be = bin_backend(3)
        with pytest.raises(ValueError):
            FieldSurface(be, np.zeros(8))
        surf = FieldSurface(be, np.zeros(be.size))
        assert surf.at(2).shape == (3,)

    def test_sup_diff_and_arithmetic(self):
        be = det_backend(4)
        a = FieldSurface(be, np.full(be.size, 2.0))
        b = FieldSurface(be, np.full(be.size, -1.0))
        assert a.sup_diff(b) == 3.0
        assert b.sup_diff(a) == 3.0
        assert a.at(0)[0] == 2.0

    def test_flat_indices_along_path(self):
        be = bin_backend(3)
        surf = FieldSurface(be, np.concatenate([np.arange(k + 1, dtype=float) for k in range(4)]))
        path = np.array([0, 1, 1, 2])
        np.testing.assert_allclose(surf.data[be.offsets[:-1] + path], [0.0, 1.0, 1.0, 2.0])

    def test_flat_buffer_layout(self):
        be = bin_backend(3)
        surf = FieldSurface(be, np.concatenate([np.full(k + 1, float(k)) for k in range(4)]))
        assert surf.data.shape == (10,)
        np.testing.assert_array_equal(be.offsets, [0, 1, 3, 6, 10])
        np.testing.assert_array_equal(surf.data, be.step_of_node)
        assert np.shares_memory(surf.at(2), surf.data)
        assert be.locate(7) == (3, 1)
        with pytest.raises(ValueError):
            FieldSurface(be, np.zeros(9))


class TestWidthOneLattice:
    def test_layout(self):
        be = det_backend(4)
        assert be.down == 0 and be.spread == 0.0
        np.testing.assert_array_equal(be.offsets, np.arange(6))
        np.testing.assert_array_equal(be.step_of_node, np.arange(5))
        np.testing.assert_array_equal(be.states, np.zeros(5))

    def test_continuation_matches_stepwise_condexp(self):
        rng = np.random.default_rng(8)
        for be in (det_backend(7), bin_backend(7)):
            surf = FieldSurface(be, np.concatenate([rng.uniform(-1, 1, be.n_nodes(k)) for k in range(8)]))
            flat = be.continuation(surf.data)
            stepwise = np.concatenate([be.moments(surf.at(k + 1), k)[0] for k in range(7)])
            np.testing.assert_array_equal(flat, stepwise)
