"""Noise basis construction, kernels, trace correction, and increments."""

import numpy as np
import pytest

import spherewave as sw
from spherewave.fields import cross
from spherewave.noise import noise_field

RNG = np.random.default_rng(77)


@pytest.fixture(scope="module")
def grid():
    return sw.Grid1D(1.0, 127)


@pytest.fixture(scope="module")
def basis(grid):
    return sw.build_basis(grid, 16, 2.0)


def random_field(grid, rng=RNG):
    return rng.standard_normal((3, grid.n))


class TestBuildBasis:
    def test_single_mode_phi_closed_form(self, grid):
        b = sw.build_basis(grid, 1, 2.0)
        expected = 2.0 * np.sin(np.pi * grid.x) ** 2
        assert np.abs(b.phi - expected).max() <= 1e-13
        # n odd: x = 1/2 is a node, where phi attains its maximum 2
        mid = (grid.n - 1) // 2
        assert b.phi[mid] == pytest.approx(2.0, rel=1e-13)
        assert b.phi.max() == pytest.approx(2.0, rel=1e-13)

    def test_kernels_nonnegative(self, basis):
        assert np.all(basis.phi >= 0.0)

    def test_decay_exponent_guard(self, grid):
        with pytest.raises(sw.HypothesisViolationError):
            sw.build_basis(grid, 4, 1.5)

    def test_aliasing_guard(self, grid):
        with pytest.raises(sw.AliasingError):
            sw.build_basis(grid, grid.n + 1, 2.0)

    def test_silent_basis(self, grid):
        b = sw.build_basis(grid, 0, 2.0)
        assert b.m == 0
        assert np.all(b.phi == 0.0)

    def test_phi_monotone_in_mode_count(self, grid):
        phis = [sw.build_basis(grid, m, 2.0).phi for m in (1, 2, 4, 8, 16)]
        for a, b in zip(phis, phis[1:]):
            assert np.all(b >= a - 1e-15)


class TestStratCorrection:
    def test_parallel_velocity_vanishes(self, grid, basis):
        u = random_field(grid)
        assert np.abs(sw.strat_correction(u, -2.5 * u, basis)).max() <= 1e-12

    def test_pointwise_orthogonal_case(self, grid, basis):
        # with u.v = 0 at every node the trace reduces to -phi |u|^2 v
        u = sw.zero_field(grid)
        v = sw.zero_field(grid)
        u[0] = RNG.standard_normal(grid.n)
        v[1] = RNG.standard_normal(grid.n)
        out = sw.strat_correction(u, v, basis)
        expected = -basis.phi * u[0] ** 2 * v
        assert np.abs(out - expected).max() <= 1e-12

    def test_trace_summation_oracle(self, grid, basis):
        # the trace field must equal the literal mode-by-mode summation
        for _ in range(100):
            u, v = random_field(grid), random_field(grid)
            direct = sw.zero_field(grid)
            for i in range(basis.m):
                xi = basis.xi[i]
                direct += np.cross(u, np.cross(u, v, axis=0) * xi, axis=0) * xi
            fast = sw.strat_correction(u, v, basis)
            assert np.abs(fast - direct).max() <= 1e-12 * (1 + np.abs(fast).max())

    def test_energy_neutrality_identity(self, grid, basis):
        # |u x v|^2 phi + v . (phi u x (u x v)) = 0 pointwise
        for _ in range(50):
            u, v = random_field(grid), random_field(grid)
            uxv = np.cross(u, v, axis=0)
            lhs = np.einsum("ij,ij->j", uxv, uxv) * basis.phi
            rhs = np.einsum("ij,ij->j", v, sw.strat_correction(u, v, basis))
            assert np.abs(lhs + rhs).max() <= 1e-12 * (1 + np.abs(lhs).max())


class TestApplyNoise:
    def test_zero_increment(self, grid, basis):
        u, v = random_field(grid), random_field(grid)
        assert np.all(noise_field(u, v, basis, np.zeros(basis.m)) == 0.0)

    def test_parallel_fields(self, grid, basis):
        u = random_field(grid)
        dw = np.sqrt(1e-3) * sw.derive_stream(3, 0).standard_normal(basis.m)
        assert np.abs(noise_field(u, 0.5 * u, basis, dw)).max() <= 1e-13

    def test_single_mode_unit_increment(self, grid):
        b = sw.build_basis(grid, 1, 2.0)
        u, v = random_field(grid), random_field(grid)
        out = noise_field(u, v, b, np.array([1.0]))
        expected = np.cross(u, v, axis=0) * b.xi[0]
        assert np.abs(out - expected).max() <= 1e-14

    def test_pointwise_orthogonality(self, grid, basis):
        u, v = random_field(grid), random_field(grid)
        dw = np.sqrt(1e-3) * sw.derive_stream(4, 0).standard_normal(basis.m)
        out = noise_field(u, v, basis, dw)
        assert np.abs(np.einsum("ij,ij->j", u, out)).max() <= 1e-12
        assert np.abs(np.einsum("ij,ij->j", v, out)).max() <= 1e-12

    def test_length_mismatch(self, grid, basis):
        u, v = random_field(grid), random_field(grid)
        with pytest.raises(sw.ShapeError):
            noise_field(u, v, basis, np.zeros(basis.m + 1))

    @pytest.mark.parametrize("S", [1, 3, 16])
    def test_block_kick_is_lone_kick(self, grid, basis, S):
        # a sample's kick depends neither on its block nor on the block size
        rng = np.random.default_rng(S)
        u, v = rng.standard_normal((2, S, 3, grid.n))
        dw = rng.standard_normal((S, basis.m))
        kick = noise_field(u, v, basis, dw)
        assert kick.shape == u.shape
        for j in range(S):
            assert np.array_equal(kick[j], noise_field(u[j], v[j], basis, dw[j]))
        with pytest.raises(sw.ShapeError):
            noise_field(u, v, basis, rng.standard_normal((S + 1, basis.m)))

    @pytest.mark.parametrize("S", [1, 3, 16])
    def test_block_noise_is_one_gemv_per_sample(self, grid, basis, S):
        # the stacked matmul must keep the rounding of one matrix-vector
        # product per sample; a matrix-matrix product over the block would not
        rng = np.random.default_rng(10 + S)
        u, v = rng.standard_normal((2, S, 3, grid.n))
        dw = rng.standard_normal((S, basis.m))
        scalar = np.empty((S, 1, grid.n))
        for j in range(S):
            scalar[j, 0] = np.matmul(basis.xi.T, dw[j])
        assert np.array_equal(noise_field(u, v, basis, dw), cross(u, v) * scalar)


class TestIncrements:
    def test_replay_determinism(self, basis):
        a = sw.derive_stream(11, 2, 5).standard_normal(basis.m)
        b = sw.derive_stream(11, 2, 5).standard_normal(basis.m)
        assert np.array_equal(a, b)

    def test_variance_matches_dt(self, basis):
        dt = 4e-3
        draws = sw.derive_stream(12, 0).standard_normal(100_000) * np.sqrt(dt)
        assert abs(draws.var() / dt - 1.0) <= 0.05
        assert abs(draws.mean()) <= 4.0 * np.sqrt(dt / draws.size)

    def test_streams_uncorrelated(self):
        a = sw.derive_stream(13, 0).standard_normal(10_000)
        b = sw.derive_stream(13, 1).standard_normal(10_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05
