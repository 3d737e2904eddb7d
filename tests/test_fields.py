"""Grid, quadrature, difference operators, spectrum, and vector algebra."""

import ast
import pickle
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
import scipy.linalg.lapack

import spherewave as sw
from spherewave import fields
from spherewave.fields import HelmholtzSolver, c_einsum, dst_ortho
from spherewave.limit import LimitParams, _Velocity
from spherewave.noise import noise_field
from spherewave.spde import SpdeStepper

RNG = np.random.default_rng(1234)


@pytest.fixture(scope="module")
def grid():
    return sw.Grid1D(1.0, 127)


def random_field(grid, rng=RNG):
    return rng.standard_normal((3, grid.n))


def dense_second_difference(grid):
    n, h = grid.n, grid.h
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = -2.0
    a[idx[:-1], idx[:-1] + 1] = 1.0
    a[idx[1:], idx[1:] - 1] = 1.0
    return a / h ** 2


def padded_second_difference(grid, f):
    """A_h f from its definition, in the stencil's float order, with zero-padded neighbours."""
    left, right = np.zeros(f.shape), np.zeros(f.shape)
    left[..., 1:], right[..., :-1] = f[..., :-1], f[..., 1:]
    return ((-2.0 * f + left) + right) / grid.h ** 2


class TestGrid:
    def test_spacing_identity(self, grid):
        assert grid.h * (grid.n + 1) == pytest.approx(grid.L, abs=1e-16)

    def test_nodes_interior(self, grid):
        assert grid.x[0] > 0.0 and grid.x[-1] < grid.L

    def test_bad_parameters(self):
        with pytest.raises(sw.ParameterError):
            sw.Grid1D(-1.0, 16)
        with pytest.raises(sw.ParameterError):
            sw.Grid1D(1.0, 1)

    @pytest.mark.parametrize("read", [(), ("h",), ("x",), ("h", "x")])
    def test_cached_attributes_leave_identity_alone(self, read):
        # h and x are cached on first read; the study pickles grids
        # into its workers and SpdeStepper compares them, so neither may see it
        fresh, used = sw.Grid1D(1.0, 127), sw.Grid1D(1.0, 127)
        for name in read:
            getattr(used, name)
        assert used == fresh and hash(used) == hash(fresh)
        assert used != sw.Grid1D(1.0, 63)
        for g in (fresh, used):
            back = pickle.loads(pickle.dumps(g))
            assert back == fresh and hash(back) == hash(fresh)
            assert back.h == 1.0 / 128
            assert np.array_equal(back.x, np.arange(1, 128) / 128)


class TestInnerProduct:
    def test_zero_field(self, grid):
        z = sw.zero_field(grid)
        assert sw.inner_l2(grid, z, z) == 0.0

    def test_normalized_first_mode(self, grid):
        # discrete sine orthogonality makes the trapezoid rule exact here
        f = sw.sine_field(grid, 1, 1, np.sqrt(2.0 / grid.L))
        assert sw.inner_l2(grid, f, f) == pytest.approx(1.0, abs=1e-12)

    def test_pointwise_orthogonal_components(self, grid):
        f = sw.sine_field(grid, 2, 1)
        g = sw.sine_field(grid, 2, 2)
        assert sw.inner_l2(grid, f, g) == 0.0

    def test_grid_mismatch(self, grid):
        other = sw.Grid1D(1.0, 63)
        with pytest.raises(sw.ShapeError):
            sw.inner_l2(grid, sw.zero_field(grid), sw.zero_field(other))

    def test_symmetry_and_bilinearity(self, grid):
        for _ in range(25):
            f, g, w = (random_field(grid) for _ in range(3))
            a, b = RNG.standard_normal(2)
            assert sw.inner_l2(grid, f, g) == pytest.approx(sw.inner_l2(grid, g, f), rel=1e-13)
            lhs = sw.inner_l2(grid, a * f + b * g, w)
            rhs = a * sw.inner_l2(grid, f, w) + b * sw.inner_l2(grid, g, w)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)


class TestLaplacian:
    def test_zero(self, grid):
        assert np.all(sw.laplacian(grid, sw.zero_field(grid)) == 0.0)

    def test_matches_dense_matrix(self, grid):
        a = dense_second_difference(grid)
        f = random_field(grid)
        expected = f @ a.T
        assert np.abs(sw.laplacian(grid, f) - expected).max() <= 1e-10

    def test_every_sine_mode_is_eigenvector(self, grid):
        for k in range(1, grid.n + 1):
            f = sw.sine_field(grid, k, 1 + k % 3)
            lam = sw.eigenvalue(grid, k)
            defect = sw.laplacian(grid, f) + lam * f
            assert np.abs(defect).max() <= 1e-12 * lam
        # no index wraps around the spectrum
        for k in (0, grid.n + 1):
            with pytest.raises(sw.ParameterError, match="mode index"):
                sw.eigenvalue(grid, k)

    def test_linear_field_interior(self, grid):
        # f = x is linear and vanishes at x = 0, so the stencil is exact
        # everywhere except the node next to the right boundary, where the
        # Dirichlet extension by zero breaks linearity
        f = sw.zero_field(grid)
        f[0] = grid.x
        lap = sw.laplacian(grid, f)
        assert np.abs(lap[:, :-1]).max() <= 1e-10
        assert lap[0, -1] == pytest.approx(-grid.L / grid.h ** 2, rel=1e-12)

    def test_self_adjoint(self, grid):
        for _ in range(25):
            f, g = random_field(grid), random_field(grid)
            left = sw.inner_l2(grid, -sw.laplacian(grid, f), g)
            right = sw.inner_l2(grid, f, -sw.laplacian(grid, g))
            assert left == pytest.approx(right, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (2, 3), (16, 3), (64, 3)], ids=str)
    def test_bits_of_the_definition(self, grid, shape):
        # one field takes the kernel's slices, a block its flat passes; both
        # give the definition's bits, so the composed oracles built on
        # laplacian test more than the kernel against itself
        f = RNG.standard_normal(shape + (grid.n,))
        assert np.array_equal(sw.laplacian(grid, f), padded_second_difference(grid, f))

    @pytest.mark.parametrize("size", [1, 16])
    def test_step_kernels_hold_the_definition(self, grid, size):
        # the stochastic step applies A_h into its own buffer, and the limit
        # velocity into its caller's, for a field and for a stack of fields
        u = RNG.standard_normal((size, 3, grid.n))
        engine = SpdeStepper(_spde_params(grid), sw.build_basis(grid, 4, 2.0), u, 0.0 * u)
        assert np.array_equal(engine.lap, padded_second_difference(grid, u))
        basis = sw.build_basis(grid, 4, 2.0)
        velocity = _Velocity(LimitParams.auto(grid, 0.1), basis)
        for f in (u[-1], u):
            lap = np.empty(f.shape)
            velocity.into(f, np.empty(f.shape), lap)
            assert np.array_equal(lap, padded_second_difference(grid, f))

    @pytest.mark.parametrize("layout", ["fortran-block", "fortran-field", "strided-field"])
    def test_any_layout_gives_the_definition(self, grid, layout):
        data = RNG.standard_normal((16, 3, 2 * grid.n))
        f = {"fortran-block": np.asfortranarray(data[..., :grid.n]),
             "fortran-field": np.asfortranarray(data[0, :, :grid.n]),
             "strided-field": data[0, :, ::2]}[layout]
        lap = padded_second_difference(grid, f)
        assert np.array_equal(sw.laplacian(grid, f), lap)
        if f.ndim == 2:
            # limit_rhs takes the field's C copy, so the oracle does too
            c = np.ascontiguousarray(f)
            basis = sw.build_basis(grid, 4, 2.0)
            params = LimitParams.auto(grid, 0.1)
            r = lap + sw.h1_seminorm_sq(grid, c) * c
            assert np.array_equal(sw.limit_rhs(f, basis, params),
                                  sw.mobility_apply_inverse(c, basis.phi, params.gamma, r))

    def test_non_finite_sample_stays_in_its_row(self, grid):
        # NaN and inf at both ends of two samples' fields: the flat passes
        # must not carry them into a neighbouring sample's end nodes
        block = RNG.standard_normal((16, 3, grid.n))
        block[3, 0, 0] = block[3, 2, -1] = np.nan
        block[9, 0, 0] = block[9, 2, -1] = np.inf
        lap = sw.laplacian(grid, block)
        for s in set(range(16)) - {3, 9}:
            assert np.array_equal(lap[s], sw.laplacian(grid, block[s])), s


@pytest.mark.parametrize("layout", ["fortran-field", "strided-field"])
def test_field_helpers_round_alike_at_any_layout(grid, layout):
    # c_einsum's reduction order follows the strides: each helper must
    # give the bits of the field's C copy
    data = RNG.standard_normal((3, 2 * grid.n))
    f = {"fortran-field": np.asfortranarray(data[:, :grid.n]),
         "strided-field": data[:, ::2]}[layout]
    g = np.asfortranarray(data[::-1, :grid.n])
    c, d = np.ascontiguousarray(f), np.ascontiguousarray(g)
    basis = sw.build_basis(grid, 4, 2.0)
    params = LimitParams.auto(grid, 0.1)
    helpers = {
        "inner_l2": lambda a, b: sw.inner_l2(grid, a, b),
        "norm_l2_sq": lambda a, b: sw.norm_l2_sq(grid, a),
        "norm_l2": lambda a, b: sw.norm_l2(grid, a),
        "h1_seminorm_sq": lambda a, b: sw.h1_seminorm_sq(grid, a),
        "h2_norm_sq": lambda a, b: sw.h2_norm_sq(grid, a),
        "sobolev_norm": lambda a, b: sw.sobolev_norm(grid, a, 1.5),
        "normalize_sphere": lambda a, b: sw.normalize_sphere(grid, a),
        "project_tangent": lambda a, b: sw.project_tangent(grid, a, b),
        "limit_rhs": lambda a, b: sw.limit_rhs(a, basis, params),
    }
    differ = [name for name, helper in helpers.items()
              if not np.array_equal(helper(f, g), helper(c, d))]
    assert differ == []


class TestH1Seminorm:
    def test_zero(self, grid):
        assert sw.h1_seminorm_sq(grid, sw.zero_field(grid)) == 0.0

    def test_eigenfield_value(self, grid):
        for k in (1, 5, 40):
            f = sw.sine_field(grid, k, 1, 0.7)
            lam = sw.eigenvalue(grid, k)
            expected = lam * sw.norm_l2_sq(grid, f)
            assert sw.h1_seminorm_sq(grid, f) == pytest.approx(expected, rel=1e-13)

    def test_continuum_limit_first_mode(self):
        # lambda_{h,1} -> (pi/L)^2 with O(h^2) defect
        for n in (63, 127, 255):
            grid = sw.Grid1D(1.0, n)
            f = sw.sine_field(grid, 1, 1, np.sqrt(2.0 / grid.L))
            target = (np.pi / grid.L) ** 2
            defect = abs(sw.h1_seminorm_sq(grid, f) - target)
            assert defect <= 1.1 * target * (np.pi * grid.h / grid.L) ** 2 / 12.0

    def test_summation_by_parts_gradient_form(self, grid):
        # <-A f, f> equals h * sum over the n+1 cells of |Df|^2 exactly, with
        # Df the forward differences against the Dirichlet zeros
        f = random_field(grid)
        df = np.diff(f, axis=1, prepend=0.0, append=0.0) / grid.h
        grad_form = grid.h * np.einsum("ij,ij->", df, df)
        assert sw.h1_seminorm_sq(grid, f) == pytest.approx(grad_form, rel=1e-12)


class TestSpectrum:
    def test_matches_scipy_dst(self, grid):
        # dst_ortho calls pocketfft's private binding; a scipy upgrade that
        # changes it must fail here, not shift every output by roundoff
        rng = np.random.default_rng(7)
        for f in (rng.standard_normal((3, grid.n)),
                  rng.standard_normal((16, 3, grid.n)),
                  rng.standard_normal((16, grid.n, 3)).transpose(0, 2, 1)):
            before = f.copy()
            assert np.array_equal(dst_ortho(f), scipy.fft.dst(f, type=1, axis=-1, norm="ortho"))
            assert np.array_equal(f, before)

    def test_c_einsum_matches_numpy_einsum(self, grid):
        # the package calls numpy's C einsum directly, from fields alone
        # (tests/test_api.py); a numpy upgrade that changes it must fail here,
        # not shift every output by roundoff.  Every subscript fields sends
        # through it, bound once or written at a call, is pinned, with and
        # without out=
        bound = {name: kernel for name, kernel in vars(fields).items()
                 if isinstance(kernel, partial) and kernel.func is c_einsum}
        assert sorted(bound) == ["_inner_sum", "_node_dot"]
        tree = ast.parse(Path(fields.__file__).read_text())
        written = [call.args[0].value for call in ast.walk(tree) if isinstance(call, ast.Call)
                   and isinstance(call.func, ast.Name) and call.func.id == "c_einsum"]
        kernels = [(kernel.args[0], kernel) for kernel in bound.values()]
        kernels += [(spec, partial(c_einsum, spec)) for spec in written]
        assert sorted(spec for spec, _ in kernels) == [
            "...ij,...ij->...", "...ij,...ij->...j", "k,...dk,...dk->..."]
        rng = np.random.default_rng(8)
        blocks = [rng.standard_normal(shape) for shape in
                  ((3, grid.n), (16, 3, grid.n), (64, 3, grid.n), (16, 1, grid.n))]
        blocks += [rng.standard_normal((grid.n, 3)).T,
                   rng.standard_normal((16, grid.n, 3)).transpose(0, 2, 1)]
        weights = rng.random(grid.n)
        for spec, kernel in kernels:
            terms = spec.split("->")[0].split(",")
            for f in blocks:
                g = rng.standard_normal(f.shape)
                for pair in ((f, g), (f, f)):
                    it = iter(pair)
                    ops = [weights if len(t) == 1 else next(it) for t in terms]
                    expected = np.einsum(spec, *ops)
                    out = np.empty(np.shape(expected))   # the solvers' path
                    kernel(*ops, out=out)
                    assert np.array_equal(kernel(*ops), expected), spec
                    assert np.array_equal(out, expected), spec

    def test_roundtrip(self, grid):
        f = random_field(grid)
        back = dst_ortho(dst_ortho(f))
        assert np.abs(back - f).max() <= 1e-12 * np.abs(f).max()

    def test_single_mode_coefficient(self, grid):
        # dst_ortho coefficients times sqrt(2/(n+1)) are the sine amplitudes
        coeffs = dst_ortho(sw.sine_field(grid, 3, 2, 0.25)) * np.sqrt(2.0 / (grid.n + 1))
        assert coeffs[1, 2] == pytest.approx(0.25, rel=1e-12)
        mask = np.ones_like(coeffs, dtype=bool)
        mask[1, 2] = False
        assert np.abs(coeffs[mask]).max() <= 1e-13


class TestSobolevNorm:
    def test_zero_any_order(self, grid):
        for delta in (0.0, 0.7, 2.0):
            assert sw.sobolev_norm(grid, sw.zero_field(grid), delta) == 0.0

    def test_parseval_normalized_mode(self, grid):
        f = sw.sine_field(grid, 4, 3, np.sqrt(2.0 / grid.L))
        assert sw.sobolev_norm(grid, f, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_matches_l2_and_h1(self, grid):
        for _ in range(10):
            f = random_field(grid)
            assert sw.sobolev_norm(grid, f, 0.0) == pytest.approx(
                sw.norm_l2(grid, f), rel=1e-10)
            assert sw.sobolev_norm(grid, f, 1.0) == pytest.approx(
                np.sqrt(sw.h1_seminorm_sq(grid, f)), rel=1e-10)

    def test_order_two_is_h2(self, grid):
        f = random_field(grid)
        assert sw.sobolev_norm(grid, f, 2.0) == pytest.approx(
            np.sqrt(sw.h2_norm_sq(grid, f)), rel=1e-10)

    def test_out_of_range(self, grid):
        with pytest.raises(sw.ParameterError):
            sw.sobolev_norm(grid, sw.zero_field(grid), 2.5)


class TestTripleCross:
    def test_unit_axes(self):
        out = sw.triple_cross(np.array([[1.0], [0], [0]]), np.array([[0.0], [1.0], [0]]))
        assert np.allclose(out, [[0.0], [-1.0], [0.0]], atol=1e-15)

    def test_parallel_annihilates(self):
        h = np.array([[0.3], [-1.2], [2.0]])
        assert np.abs(sw.triple_cross(h, 4.5 * h)).max() <= 1e-13

    def test_thousand_random_pairs(self):
        h = RNG.standard_normal((3, 1000))
        k = RNG.standard_normal((3, 1000))
        direct = np.cross(h, np.cross(h, k, axis=0), axis=0)
        assert np.abs(sw.triple_cross(h, k) - direct).max() <= 1e-13


class TestTangentProjection:
    def test_project_self_is_zero(self, grid):
        u = random_field(grid)
        assert np.abs(sw.project_tangent(grid, u, u)).max() <= 1e-13 * np.abs(u).max()

    def test_tangent_vector_unchanged(self, grid):
        u = random_field(grid)
        w = sw.project_tangent(grid, u, random_field(grid))
        again = sw.project_tangent(grid, u, w)
        assert np.abs(again - w).max() <= 1e-12 * (1.0 + np.abs(w).max())

    def test_recovers_orthogonal_part(self, grid):
        u = random_field(grid)
        v0 = random_field(grid)
        # Gram-Schmidt oracle: w is orthogonal to u by construction
        w = v0 - (sw.inner_l2(grid, u, v0) / sw.norm_l2_sq(grid, u)) * u
        out = sw.project_tangent(grid, u, u + w)
        assert np.abs(out - w).max() <= 1e-11 * (1.0 + np.abs(w).max())

    def test_orthogonality_scaled(self, grid):
        for _ in range(20):
            u, v = random_field(grid), random_field(grid)
            out = sw.project_tangent(grid, u, v)
            bound = 1e-12 * sw.norm_l2(grid, u) * sw.norm_l2(grid, v)
            assert abs(sw.inner_l2(grid, u, out)) <= bound

    def test_zero_direction_rejected(self, grid):
        with pytest.raises(sw.DegenerateFieldError):
            sw.project_tangent(grid, sw.zero_field(grid), random_field(grid))


class TestNormalization:
    def test_unit_field_unchanged(self, grid):
        u = sw.normalize_sphere(grid, random_field(grid))
        assert np.abs(sw.normalize_sphere(grid, u) - u).max() <= 1e-14

    def test_scale_invariance(self, grid):
        u = random_field(grid)
        a = sw.normalize_sphere(grid, u)
        b = sw.normalize_sphere(grid, 7.0 * u)
        assert np.abs(a - b).max() <= 1e-14

    def test_first_mode_coefficient(self, grid):
        u = sw.normalize_sphere(grid, sw.sine_field(grid, 1, 1))
        expected = np.sqrt(2.0 / grid.L) * np.sin(np.pi * grid.x / grid.L)
        assert np.abs(u[0] - expected).max() <= 1e-12

    def test_zero_rejected(self, grid):
        with pytest.raises(sw.DegenerateFieldError):
            sw.normalize_sphere(grid, sw.zero_field(grid))


class TestHelmholtzSolver:
    def test_helmholtz_solver_vs_dense(self, grid):
        c0, c2 = 1.7, 3e-4
        solver = HelmholtzSolver(grid, c0, c2)
        b = RNG.standard_normal((grid.n, 3))
        dense = c0 * np.eye(grid.n) - c2 * dense_second_difference(grid)
        expected = np.linalg.solve(dense, b)
        assert np.abs(solver.solve(b) - expected).max() <= 1e-11

    def test_helmholtz_columns_solved_alone(self, grid):
        # the block step's right-hand side: 3 columns for each of 16 samples,
        # in the Fortran order the step passes, at a step's c0 and c2
        dt, mu = 1.2e-3, 0.1
        c0, c2 = 1.0 + dt / mu, dt ** 2 / mu
        solver = HelmholtzSolver(grid, c0, c2)
        b = np.asfortranarray(RNG.standard_normal((grid.n, 48)))
        dense = c0 * np.eye(grid.n) - c2 * dense_second_difference(grid)
        expected = np.linalg.solve(dense, b)
        x = solver.solve(b.copy(order="F"))
        assert np.abs(x - expected).max() <= 1e-13 * np.abs(expected).max()
        # each column gets the arithmetic of its lone solve ...
        for j in range(b.shape[1]):
            assert np.array_equal(x[:, j], solver.solve(b[:, [j]])[:, 0])
        # ... so a non-finite column cannot reach the others
        poisoned = b.copy(order="F")
        poisoned[60, 17] = np.nan
        y = solver.solve(poisoned)
        assert np.isnan(y[:, 17]).all()
        assert np.array_equal(np.delete(y, 17, axis=1), np.delete(x, 17, axis=1))

    def test_matches_scipy_lapack(self, grid):
        # the solver calls LAPACK's dpttrf/dpttrs loaded from scipy's extension
        # file; they must give scipy.linalg.lapack's factor and solution bits
        dt, mu = 1.2e-3, 0.1
        c0, c2 = 1.0 + dt / mu, dt ** 2 / mu
        solver = HelmholtzSolver(grid, c0, c2)
        h2 = grid.h ** 2
        d, e, info = scipy.linalg.lapack.dpttrf(np.full(grid.n, c0 + 2.0 * c2 / h2),
                                                np.full(grid.n - 1, -c2 / h2))
        assert info == 0
        assert np.array_equal(solver._d, d) and np.array_equal(solver._e, e)
        b = np.asfortranarray(RNG.standard_normal((grid.n, 48)))
        expected, info = scipy.linalg.lapack.dpttrs(d, e, b)
        assert info == 0
        assert np.array_equal(solver.solve(b.copy(order="F")), expected)


class TestScipyExtensionLoader:
    def test_missing_file_names_its_path(self, tmp_path, monkeypatch):
        # no fallback to the package import: a missing file stops the import
        # with the path it looked for
        scipy_spec = SimpleNamespace(submodule_search_locations=[str(tmp_path)])
        monkeypatch.setattr(fields, "find_spec", lambda _name: scipy_spec)
        with pytest.raises(ImportError) as info:
            fields._scipy_extension("fft._pocketfft.pypocketfft")
        assert str(tmp_path / "fft" / "_pocketfft" / "pypocketfft") in str(info.value)

    def test_missing_scipy_refused(self, monkeypatch):
        monkeypatch.setattr(fields, "find_spec", lambda _name: None)
        with pytest.raises(ImportError, match="scipy"):
            fields._scipy_extension("linalg._flapack")



def _spde_params(grid):
    return sw.SpdeParams(grid=grid, mu=0.1, dt=1e-4, T=1e-3)


# every entry point that takes fields, called with node-major (n, 3) data
NODE_MAJOR_CALLS = {
    "inner_l2": lambda g, b, f: sw.inner_l2(g, f, f),
    "laplacian": lambda g, b, f: sw.laplacian(g, f),
    "laplacian-block": lambda g, b, f: sw.laplacian(g, np.stack([f] * 4)),
    "sobolev_norm": lambda g, b, f: sw.sobolev_norm(g, f, 1.0),
    "strat_correction": lambda g, b, f: sw.strat_correction(f, f, b),
    "noise_field": lambda g, b, f: noise_field(f, f, b, np.zeros(b.m)),
    "SpdeStepper": lambda g, b, f: SpdeStepper(_spde_params(g), b, f, f),
    "SpdeStepper-block": lambda g, b, f: SpdeStepper(_spde_params(g), b, np.stack([f] * 4),
                                                     np.stack([f] * 4)),
    "simulate": lambda g, b, f: sw.simulate(f, f, _spde_params(g), b),
    "solve_limit": lambda g, b, f: sw.solve_limit(f, LimitParams.auto(g, 0.1), b),
}


@pytest.mark.parametrize("name", list(NODE_MAJOR_CALLS))
def test_node_major_field_is_refused(grid, name):
    # one layout: a caller with (n, 3) data fails loudly, naming (3, n),
    # instead of computing on transposed data
    basis = sw.build_basis(grid, 16, 2.0)
    old = sw.normalize_sphere(grid, random_field(grid)).T.copy()
    with pytest.raises(sw.ShapeError, match=rf"\(3, {grid.n}\)"):
        NODE_MAJOR_CALLS[name](grid, basis, old)
