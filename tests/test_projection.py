"""Projection context: hat-matrix entries, Q and B kernels, fast paths."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from mwiv import (
    DataError,
    Dataset,
    JudgeDesignSpec,
    build_projection,
    invert_confidence_set,
    read_dataset_csv,
    simulate_judge_data,
    write_dataset_csv,
)
from mwiv.estimators import _profile
from mwiv.projection import DenseProjection, JudgeProjection, _p_blocks

from conftest import (
    dense_hat_matrix,
    judge_indicator_matrix,
    kernel_b,
    oracle_b,
    oracle_ptil2_matrix,
    oracle_q,
    pair,
    quad_pp,
    quadratic_form_Q,
)


def judge_dataset(labels, rng=None, y=None, x=None):
    labels = np.asarray(labels, dtype=int)
    n = labels.size
    if rng is not None:
        y = rng.standard_normal(n)
        x = rng.standard_normal(n)
    return Dataset(y=np.asarray(y, float), x=np.asarray(x, float), instruments=labels)


def dense_dataset(z, rng):
    n = z.shape[0]
    return Dataset(y=rng.standard_normal(n), x=rng.standard_normal(n), instruments=z)


def random_judge_labels(rng, n_judges, lo=2, hi=12):
    sizes = rng.integers(lo, hi + 1, size=n_judges)
    return np.repeat(np.arange(n_judges), sizes)


def symmetry_dataset(kind, rng):
    if kind == "judge":
        return judge_dataset(random_judge_labels(rng, 6), rng)
    return dense_dataset(rng.standard_normal((40, 5)), rng)


def p_matrix(ctx):
    """P through the public kernels: leave_out_fit on unit vectors gives the
    off-diagonal entries, 1 - M_ii the diagonal."""
    p = np.column_stack([ctx.leave_out_fit(e) for e in np.eye(ctx.n)])
    p[np.diag_indices(ctx.n)] = 1.0 - ctx.m
    return p


def ptilde_sq_matrix(ctx):
    """Ptil2 (zero diagonal) from pair_weighted on the stack of unit vectors."""
    return ctx.pair_weighted(np.eye(ctx.n))


class TestEntries:
    def test_balanced_judge_entries(self):
        # three judges, four cases each: P_ii = 1/4, M_ii = 3/4
        labels = np.repeat([0, 1, 2], 4)
        rng = np.random.default_rng(0)
        ctx = build_projection(judge_dataset(labels, rng))
        p = p_matrix(ctx)
        for i in (0, 5, 11):
            assert p[i, i] == pytest.approx(0.25, abs=1e-14)
            assert ctx.m[i] == pytest.approx(0.75, abs=1e-14)
        assert p[0, 1] == pytest.approx(0.25, abs=1e-14)
        assert p[0, 4] == 0.0

    def test_dense_trace_and_idempotence(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((60, 6))
        ctx = build_projection(dense_dataset(z, rng))
        p = p_matrix(ctx)
        assert abs(np.trace(p) - 6.0) <= 1e-10
        assert np.max(np.abs(p @ p - p)) <= 1e-10

    def test_dense_leverages_are_a_linear_solve(self):
        rng = np.random.default_rng(18)
        z = rng.standard_normal((200, 10))
        ctx = build_projection(dense_dataset(z, rng))
        hat_diag = np.einsum("ij,ji->i", z, np.linalg.solve(z.T @ z, z.T))
        np.testing.assert_allclose(ctx.m, 1.0 - hat_diag, rtol=0.0, atol=1e-14)

    def test_judge_matches_dense_indicators(self):
        rng = np.random.default_rng(2)
        labels = random_judge_labels(rng, 5)
        data_j = judge_dataset(labels, rng)
        ctx_j = build_projection(data_j)
        z = judge_indicator_matrix(labels)
        ctx_d = build_projection(
            Dataset(y=data_j.y, x=data_j.x, instruments=z)
        )
        assert np.max(np.abs(p_matrix(ctx_j) - p_matrix(ctx_d))) <= 1e-12
        assert np.max(np.abs(ptilde_sq_matrix(ctx_j) - ptilde_sq_matrix(ctx_d))) <= 1e-12

    def test_judge_ptilde_constant_within_judge(self):
        labels = np.repeat([0, 1], [4, 7])
        rng = np.random.default_rng(3)
        ptil2 = ptilde_sq_matrix(build_projection(judge_dataset(labels, rng)))
        for k, nk in ((0, 4), (1, 7)):
            p = 1.0 / nk
            want = p**2 / ((1.0 - p) ** 2 + p**2)
            block = ptil2[labels == k][:, labels == k]
            off = ~np.eye(nk, dtype=bool)
            assert np.allclose(block[off], want, rtol=1e-13, atol=0.0)
            assert np.all(np.diag(block) == 0.0)
            assert np.all(ptil2[labels == k][:, labels != k] == 0.0)


class TestQuadraticForm:
    def test_single_judge_pair(self):
        # one judge, two cases: P_12 = 1/2, Q_xx = (x1 x2 + x2 x1)/2 / 1
        data = judge_dataset([0, 0], x=[1.0, 2.0], y=[0.0, 0.0])
        ctx = build_projection(data)
        assert quadratic_form_Q(ctx, data.x, data.x) == pytest.approx(2.0, abs=1e-14)
        assert ctx.quad_pp(data.x, data.x) == quad_pp(ctx, data.x, data.x)

    def test_zero_vector(self):
        rng = np.random.default_rng(4)
        data = judge_dataset(random_judge_labels(rng, 4), rng)
        ctx = build_projection(data)
        assert quadratic_form_Q(ctx, np.zeros(data.n), data.x) == 0.0
        assert ctx.quad_pp(np.zeros(data.n), data.x) == 0.0

    def test_against_loop_oracle_dense(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((50, 5))
        data = dense_dataset(z, rng)
        ctx = build_projection(data)
        p = dense_hat_matrix(z)
        got = quadratic_form_Q(ctx, data.y, data.x)
        want = oracle_q(p, 5, data.y, data.x)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
        assert ctx.quad_pp(data.y, data.x) == quad_pp(ctx, data.y, data.x)

    def test_against_loop_oracle_judge(self):
        rng = np.random.default_rng(6)
        labels = random_judge_labels(rng, 5)
        data = judge_dataset(labels, rng)
        ctx = build_projection(data)
        p = dense_hat_matrix(judge_indicator_matrix(labels))
        got = quadratic_form_Q(ctx, data.y, data.x)
        want = oracle_q(p, 5, data.y, data.x)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
        assert ctx.quad_pp(data.y, data.x) == quad_pp(ctx, data.y, data.x)

    @pytest.mark.parametrize("kind", ["judge", "dense"])
    def test_argument_symmetry_exact(self, kind):
        rng = np.random.default_rng(7)
        data = symmetry_dataset(kind, rng)
        ctx = build_projection(data)
        assert quadratic_form_Q(ctx, data.y, data.x) == quadratic_form_Q(
            ctx, data.x, data.y
        )
        assert ctx.quad_pp(data.y, data.x) == ctx.quad_pp(data.x, data.y) == quad_pp(ctx, data.y, data.x)

    @pytest.mark.parametrize("kind", ["judge", "dense"])
    def test_profile_forms_are_the_single_forms(self, kind, monkeypatch):
        # the four forms share their sums, and each equals the one-form
        # reference bit for bit, as does quad_pp; the judge form takes six
        # judge sums
        ctx = build_projection(symmetry_dataset(kind, np.random.default_rng(33)))
        x, y = np.random.default_rng(34).standard_normal((2, ctx.n))
        want = tuple(quad_pp(ctx, a, b) for a, b in ((x, x), (x, y), (y, y), (np.abs(x), np.abs(x))))
        sums = []
        if kind == "judge":
            judge_sums = JudgeProjection._judge_sums
            monkeypatch.setattr(JudgeProjection, "_judge_sums", lambda self, v: sums.append(v) or judge_sums(self, v))
        got = ctx.quad_forms(x, y)
        assert got == want and all(type(q) is float for q in got)
        assert len(sums) == (6 if kind == "judge" else 0)
        assert ctx.quad_pp(x, y) == ctx.quad_pp(y, x) == want[1]
        with pytest.raises(DataError, match="dimension error"):
            ctx.quad_forms(x[:-1], y[:-1])

    def test_noiseless_judge_value(self):
        # x equal to the judge mean: Q_xx = sum pi_k^2 (N_k - 1) / sqrt(K)
        labels = np.repeat([0, 1, 2], [3, 5, 4])
        pi = np.array([0.5, -1.0, 2.0])
        x = pi[labels]
        data = judge_dataset(labels, y=np.zeros(12), x=x)
        ctx = build_projection(data)
        want = (0.25 * 2 + 1.0 * 4 + 4.0 * 3) / np.sqrt(3.0)
        assert quadratic_form_Q(ctx, x, x) == pytest.approx(want, rel=1e-13)

    def test_length_mismatch(self):
        rng = np.random.default_rng(8)
        data = judge_dataset(random_judge_labels(rng, 4), rng)
        ctx = build_projection(data)
        with pytest.raises(DataError, match="dimension error"):
            ctx.quad_pp(data.x[:-1], data.x[:-1])


class TestCrossMoment:
    """B_abcd as the beta0 profile forms it, from ``annihilate`` and
    ``pair_weighted``."""

    def test_zero_vector(self):
        rng = np.random.default_rng(9)
        data = judge_dataset(random_judge_labels(rng, 4), rng)
        ctx = build_projection(data)
        z = np.zeros(data.n)
        assert kernel_b(ctx, z, data.x, data.y, data.x) == 0.0

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(10)
        labels = random_judge_labels(rng, 4, lo=3, hi=14)
        data = judge_dataset(labels, rng)
        ctx = build_projection(data)
        p = dense_hat_matrix(judge_indicator_matrix(labels))
        got = kernel_b(ctx, data.x, data.y, data.x, data.y)
        want = oracle_b(p, 4, data.x, data.y, data.x, data.y)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
        want = oracle_b(p, 4, data.x, data.x, data.x, data.x)
        assert _profile(ctx, data).b_xxxx == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("kind", ["judge", "dense"])
    def test_pair_swap_symmetry_exact(self, kind):
        # B_abcd and B_cdab are the two off-diagonal entries of one Gram matrix
        rng = np.random.default_rng(11)
        data = symmetry_dataset(kind, rng)
        ctx = build_projection(data)
        a, b = data.x, data.y
        c = np.sin(np.arange(data.n, dtype=float))
        d = np.cos(np.arange(data.n, dtype=float))
        gram = ctx.pair_weighted(np.column_stack([a * ctx.annihilate(b), c * ctx.annihilate(d)]))
        assert gram[0, 1] == gram[1, 0]
        assert kernel_b(ctx, a, b, c, d) == 2.0 * gram[1, 0] / ctx.k

    def test_multilinear_expansion_in_beta0(self):
        # B(e0,e0,e0,e0) with e0 = y - b x expands into 16 base moments,
        # and the profile's phi polynomial is that expansion
        rng = np.random.default_rng(12)
        labels = random_judge_labels(rng, 5)
        data = judge_dataset(labels, rng)
        ctx = build_projection(data)
        profile = _profile(ctx, data)
        vecs = {"y": data.y, "x": data.x}
        for beta0 in (-1.0, 0.5, 2.0):
            e0 = data.y - beta0 * data.x
            direct = kernel_b(ctx, e0, e0, e0, e0)
            assert profile.values(beta0)[4][0] == pytest.approx(direct, rel=1e-8, abs=1e-12)
            expanded = 0.0
            for s1 in "yx":
                for s2 in "yx":
                    for s3 in "yx":
                        for s4 in "yx":
                            sign = (-beta0) ** sum(s == "x" for s in (s1, s2, s3, s4))
                            expanded += sign * kernel_b(
                                ctx, vecs[s1], vecs[s2], vecs[s3], vecs[s4]
                            )
            assert direct == pytest.approx(expanded, rel=1e-8, abs=1e-12)


class TestFastPathStructure:
    def test_no_dense_storage_for_judges(self):
        labels = np.repeat(np.arange(5000), 4)
        rng = np.random.default_rng(13)
        data = judge_dataset(labels, rng)
        ctx = build_projection(data)
        assert isinstance(ctx, JudgeProjection)
        assert ctx.labels.size == data.n
        assert all(np.ndim(getattr(ctx, f.name)) <= 1 for f in dataclasses.fields(ctx))
        assert np.isfinite(quadratic_form_Q(ctx, data.x, data.x))

    def test_dense_holds_no_n_by_n_array(self):
        # P v = q (q'v), and the pair kernel streams Ptil2 from q in 4 MB row
        # blocks, so neither the context nor a profile holds an N x N array
        n = 2000
        rng = np.random.default_rng(17)
        data = dense_dataset(rng.standard_normal((n, 40)), rng)
        tracemalloc.start()
        try:
            ctx = build_projection(data)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _profile(ctx, data)
            profile_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(ctx, DenseProjection)
        shapes = {f.name: np.shape(getattr(ctx, f.name)) for f in dataclasses.fields(ctx)}
        assert not [name for name, shape in shapes.items() if shape == (n, n)]
        assert build_peak <= 10 * 2**20
        assert profile_peak <= 16 * 2**20

    def test_judge_equals_dense_on_moments(self):
        rng = np.random.default_rng(14)
        for trial in range(5):
            labels = random_judge_labels(rng, int(rng.integers(3, 9)))
            data = judge_dataset(labels, rng)
            ctx_j = build_projection(data)
            ctx_d = build_projection(
                Dataset(y=data.y, x=data.x, instruments=judge_indicator_matrix(labels))
            )
            for a, b in ((data.x, data.x), (data.y, data.x), (data.y, data.y)):
                qj = quadratic_form_Q(ctx_j, a, b)
                qd = quadratic_form_Q(ctx_d, a, b)
                assert qj == pytest.approx(qd, rel=1e-10, abs=1e-12)
                for ctx in (ctx_j, ctx_d):
                    assert ctx.quad_pp(a, b) == quad_pp(ctx, a, b)
            bj = kernel_b(ctx_j, data.x, data.y, data.x, data.y)
            bd = kernel_b(ctx_d, data.x, data.y, data.x, data.y)
            assert bj == pytest.approx(bd, rel=1e-10, abs=1e-12)


class TestStreamedPairKernel:
    """The dense pair kernel against an explicit Ptil2, and the judge
    kernel's stacked call against its two-column calls."""

    @pytest.fixture(scope="class")
    def dense(self):
        # N = 1000 runs two row blocks of unequal length
        rng = np.random.default_rng(30)
        z = rng.standard_normal((1000, 20))
        ctx = build_projection(dense_dataset(z, rng))
        assert [len(p) for _, p in _p_blocks(ctx.q)] == [524, 476]
        return ctx, oracle_ptil2_matrix(dense_hat_matrix(z)), rng

    def test_vectors_match_explicit_ptil2(self, dense):
        ctx, ptil2, rng = dense
        f, g = rng.standard_normal((2, ctx.n))
        assert pair(ctx, f, g) == pytest.approx(f @ ptil2 @ g, rel=1e-12)
        gram = ctx.pair_weighted(np.column_stack([f, g]))
        assert gram[0, 1] == gram[1, 0]

    def test_stacks_match_explicit_ptil2(self, dense):
        ctx, ptil2, rng = dense
        f, g = rng.standard_normal((2, ctx.n, 4))
        for h in (f, np.hstack([f, g])):
            gram = ctx.pair_weighted(h)
            np.testing.assert_allclose(gram, h.T @ ptil2 @ h, rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(gram, gram.T)
        for a in range(4):
            for b in range(4):
                assert gram[a, 4 + b] == pytest.approx(pair(ctx, f[:, a], g[:, b]), rel=1e-12)

    def test_judge_stack_entries_are_the_pair_kernel(self):
        rng = np.random.default_rng(31)
        ctx = build_projection(judge_dataset(random_judge_labels(rng, 30), rng))
        f = rng.standard_normal((ctx.n, 8))
        stacked = ctx.pair_weighted(f)
        assert stacked.shape == (8, 8)
        for a in range(8):
            for b in range(8):
                assert stacked[a, b] == pair(ctx, f[:, a], f[:, b])

    @pytest.mark.parametrize("kind", ["judge", "dense"])
    def test_shapes_are_checked(self, kind):
        ctx = build_projection(symmetry_dataset(kind, np.random.default_rng(32)))
        n = ctx.n
        for f in (np.ones(n), np.ones((n - 1, 2)), np.ones((n, 2, 1))):
            with pytest.raises(DataError, match="dimension error"):
                ctx.pair_weighted(f)


class TestBuildErrors:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_instruments(self, bad):
        rng = np.random.default_rng(13)
        z = rng.standard_normal((30, 3))
        z[7, 1] = bad
        with pytest.raises(DataError, match="instruments contain non-finite values"):
            dense_dataset(z, rng)

    def test_nonfinite_judge_labels(self):
        # checked before the integer cast, so no cast warning leaks out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (np.nan, np.inf):
                labels = np.array([0.0, bad, 1.0, 1.0, 0.0])
                with pytest.raises(DataError, match="judge labels contain non-finite values"):
                    Dataset(y=np.zeros(5), x=np.ones(5), instruments=labels)

    def test_nonfinite_outcome(self):
        rng = np.random.default_rng(14)
        y = rng.standard_normal(12)
        y[3] = np.nan
        with pytest.raises(DataError, match="y or x contains non-finite values"):
            judge_dataset(np.repeat([0, 1, 2], 4), y=y, x=np.ones(12))

    def test_singleton_judge(self):
        with pytest.raises(DataError, match="insufficient cluster size"):
            build_projection(
                judge_dataset([0, 0, 1], y=[0.0, 1.0, 2.0], x=[1.0, 2.0, 3.0])
            )

    @pytest.mark.parametrize("last, nudge", [("collinear", 0.0), ("zero", 0.0), ("collinear", 1e-8), ("zero", 1e-8)],
                             ids=["collinear", "zero", "collinear-nudged", "zero-nudged"])
    def test_rank_deficient_instruments(self, last, nudge):
        # a fourth column that is the sum of two others, or zero, is refused;
        # moved by 1e-8 it builds, and each outcome is np.linalg.matrix_rank's
        rng = np.random.default_rng(15)
        z = rng.standard_normal((30, 3))
        column = z[:, 0] + z[:, 1] if last == "collinear" else np.zeros(30)
        z = np.column_stack([z, column + nudge * rng.standard_normal(30)])
        data = dense_dataset(z, rng)
        if np.linalg.matrix_rank(z) < 4:
            assert nudge == 0.0
            with pytest.raises(DataError, match="rank-deficient instruments"):
                build_projection(data)
        else:
            assert nudge > 0.0
            assert build_projection(data).k == 4

    def test_leverage_one_observation(self):
        # an instrument column that isolates one observation has M_ii = 0
        z = np.zeros((6, 2))
        z[:5, 0] = 1.0
        z[5, 1] = 1.0
        rng = np.random.default_rng(16)
        with pytest.raises(DataError, match="insufficient cluster size"):
            build_projection(dense_dataset(z, rng))


class TestDatasetIsReadOnly:
    """y and x are read-only, so a projection context can memoize its beta0
    profile by dataset identity."""

    def test_writes_raise(self):
        data = judge_dataset(np.repeat([0, 1, 2], 4), np.random.default_rng(20))
        for v in (data.y, data.x):
            with pytest.raises(ValueError, match="read-only"):
                v[0] = 1.0

    def test_source_mutation_does_not_reach_the_dataset(self):
        rng = np.random.default_rng(21)
        labels = np.repeat(np.arange(8), 6)
        x = np.repeat(rng.standard_normal(8), 6) + rng.standard_normal(48)
        y = x + rng.standard_normal(48)
        data = Dataset(y=y, x=x, instruments=labels)
        ctx = build_projection(data)
        grid = (-3.0, 5.0, 41)
        before = invert_confidence_set("ms2", ctx, data, grid=grid)
        kept = data.y.copy(), data.x.copy()
        y[:] = 0.0
        x *= 3.0
        assert np.array_equal(data.y, kept[0]) and np.array_equal(data.x, kept[1])
        after = invert_confidence_set("ms2", build_projection(data), data, grid=grid)
        assert after.statistics.tobytes() == before.statistics.tobytes()
        assert after.intervals == before.intervals

    def test_simulated_and_read_data_are_read_only(self, tmp_path):
        spec = JudgeDesignSpec(n_judges=4, per_judge=(5,) * 4, pi=(1.0, -1.0, 0.5, 0.0), beta=1.0, seed=2)
        simulated = simulate_judge_data(spec)
        path = tmp_path / "d.csv"
        write_dataset_csv(path, simulated)
        for data in (simulated, read_dataset_csv(path)):
            assert not data.y.flags.writeable and not data.x.flags.writeable

    def test_read_only_owner_is_kept(self):
        rng = np.random.default_rng(22)
        y, x = rng.standard_normal(12), rng.standard_normal(12)
        y.flags.writeable = x.flags.writeable = False
        data = Dataset(y=y, x=x, instruments=np.repeat([0, 1, 2], 4))
        assert data.y is y and data.x is x
        # a read-only view does not own its data, so it is copied
        view = y[:]
        assert not view.flags.owndata
        assert Dataset(y=view, x=x, instruments=np.repeat([0, 1, 2], 4)).y is not view
