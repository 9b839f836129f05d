"""Property tests of the criterion kernel, the greedy rank-one rounds and
the score-grid helpers."""

from unittest import mock

import criteria_oracles
import design_oracles
import numpy as np
import pytest
from geometry_oracles import local_skewness_oracle
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from svoed import design, geometry as geo, sampling

FEW = settings(max_examples=25, deadline=None)


@st.composite
def stacks(draw, max_n=6, max_count=5):
    """A random (N, m, n) stack with m <= n, from a drawn seed."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, n))
    count = draw(st.integers(1, max_count))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(-1.0, 1.0, size=(count, m, n)), rng


def reciprocals(stack):
    """The kernel's (1/SE, 1/SK) of each matrix of a (N, m, n) stack, scored
    as the exhaustive search scores a design: its first m - 1 rows extended
    by its last."""
    scal, skew = geo.ExtensionBase(stack[:, :-1]).extend(stack[:, -1:])
    return scal[:, 0], skew[:, 0]


def well_conditioned(stack, limit=1e4):
    return bool(np.all(np.linalg.cond(stack) < limit))


@FEW
@given(stacks())
def test_row_permutation_invariance(drawn):
    stack, rng = drawn
    assume(well_conditioned(stack))
    permuted = stack[:, rng.permutation(stack.shape[1]), :]
    for got, want in zip(reciprocals(permuted), reciprocals(stack)):
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)


@FEW
@given(stacks())
def test_output_rotation_invariance(drawn):
    stack, rng = drawn
    assume(well_conditioned(stack))
    n = stack.shape[2]
    rotation, _ = np.linalg.qr(rng.normal(size=(n, n)))
    for got, want in zip(reciprocals(stack @ rotation), reciprocals(stack)):
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)


@FEW
@given(stacks(), st.floats(0.1, 10.0) | st.floats(-10.0, -0.1))
def test_row_scaling_scales_only_the_scaling(drawn, c):
    stack, rng = drawn
    assume(well_conditioned(stack))
    k = int(rng.integers(stack.shape[1]))
    scaled = stack.copy()
    scaled[:, k, :] *= c
    scal, skew = reciprocals(stack)
    scal_c, skew_c = reciprocals(scaled)
    assert np.allclose(scal_c, abs(c) * scal, rtol=1e-10, atol=0.0)
    assert np.allclose(skew_c, skew, rtol=1e-10, atol=0.0)


@FEW
@given(stacks())
def test_kernel_matches_projection_oracle(drawn):
    stack, _ = drawn
    assume(well_conditioned(stack))
    scal, skew = reciprocals(stack)
    for i, J in enumerate(stack):
        crit = local_skewness_oracle(J)
        assert np.isclose(scal[i], 1.0 / crit.scaling, rtol=1e-10, atol=0.0)
        assert np.isclose(skew[i], 1.0 / crit.skewness, rtol=1e-10, atol=0.0)


@FEW
@given(stacks(), st.sampled_from([0.0, 1e-13, 1e-9, 1e-6]))
def test_zero_pattern_matches_svd_formula(drawn, noise):
    # Make the last row an exact or nearly exact combination of the others
    # in every other matrix; rows sitting near the rank cutoff must score
    # zero exactly when the singular-value formula says so.
    stack, rng = drawn
    stack = stack.copy()
    count, m, n = stack.shape
    for i in range(0, count, 2):
        weights = rng.normal(size=m - 1)
        stack[i, -1] = weights @ stack[i, :-1] + noise * rng.normal(size=n)
    scal, skew = reciprocals(stack)
    want_scal, want_skew = geo._svd_reciprocals(stack, geo.RANK_TOL_DEFAULT)
    assert np.array_equal(scal == 0.0, want_scal == 0.0)
    assert np.array_equal(skew == 0.0, want_skew == 0.0)
    assert np.allclose(scal, want_scal, rtol=1e-6, atol=0.0)
    assert np.allclose(skew, want_skew, rtol=1e-6, atol=0.0)


@FEW
@given(st.integers(2, 5), st.integers(3, 8), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_greedy_round_scores_match_explicit_stacks(n, field_size, count, seed):
    rng = np.random.default_rng(seed)
    jacobians = rng.uniform(-1.0, 1.0, size=(count, field_size, n))
    jacobians[:, -1] = 2.0 * jacobians[:, 0]  # a duplicate direction scores zero
    batch = criteria_oracles.stack_batch(jacobians)
    trace = design.greedy_oed(design.scalar_space(field_size), batch, m_target=n, tol=1e-12)
    for rnd in trace.rounds:
        chosen = trace.selected[: rnd.round_index - 1]
        stacks_ = np.stack([jacobians[:, list(chosen) + [p], :] for p in range(field_size)])
        scal, skew = geo._svd_reciprocals(stacks_.reshape(-1, len(chosen) + 1, n),
                                          geo.RANK_TOL_DEFAULT)
        want = (scal if rnd.round_index == 1 else skew).reshape(field_size, count).mean(axis=1)
        assert np.allclose(rnd.scores, want, rtol=1e-9, atol=1e-15)
        assert np.array_equal(rnd.scores == 0.0, want == 0.0)


# A few distinct levels, so that ties between neighbours are common.
GRID_LEVELS = st.sampled_from([0.0, 1.0, 2.0, -1.5, np.inf, np.nan])


@FEW
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_local_maxima_matches_loop_oracle(ni, nj, data):
    grid = np.array(data.draw(st.lists(GRID_LEVELS, min_size=ni * nj, max_size=ni * nj)))
    grid = grid.reshape(ni, nj)
    assert design.local_maxima(grid) == design_oracles.local_maxima_loop(grid)


@FEW
@given(st.integers(2, 6), st.data())
def test_pair_score_grid_matches_loop_oracle(size, data):
    index = st.integers(0, size - 1)
    candidates = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=12))
    values = data.draw(st.lists(GRID_LEVELS, min_size=len(candidates),
                                max_size=len(candidates)))
    space = design.DesignSpace(candidates=candidates)
    assert np.array_equal(design.pair_score_grid(space, values, size),
                          design_oracles.pair_score_grid_loop(candidates, values, size),
                          equal_nan=True)


def on_workers(task, items, collect, workers):
    """:func:`sampling.fork_map` on ``workers`` processes, as if the host
    had that many CPUs."""
    with mock.patch.object(sampling, "cpu_count", lambda: workers):
        sampling.fork_map(task, items, collect, workers)


def mixed_stack(rng, count, m, n):
    """Random matrices of scales 2^-40 .. 2^40, every third one a hair from
    rank deficient so that it takes the SVD route (for m >= 2)."""
    stack = rng.uniform(-1.0, 1.0, size=(count, m, n))
    if m >= 2:
        near = stack[::3]
        near[:, -1] = near[:, 0] + 1e-10 * rng.uniform(-1.0, 1.0, size=(len(near), n))
    return stack * np.exp2(rng.integers(-40, 41, size=count))[:, None, None]


@FEW
@given(st.integers(1, 9), st.integers(0, 8), st.integers(1, 12), st.sampled_from([1, 2, 3]),
       st.integers(0, 2**32 - 1))
def test_each_matrix_scores_the_same_alone_anywhere_and_on_workers(n, drop, count, workers,
                                                                    seed):
    rng = np.random.default_rng(seed)
    m = max(1, n - drop)
    stack = mixed_stack(rng, count, m, n)
    alone = [reciprocals(stack[i : i + 1]) for i in range(count)]
    # The same matrices at random places of a longer stack of others, scored
    # in chunks of random sizes on ``workers`` processes, as a strided view.
    others = mixed_stack(rng, int(rng.integers(0, 40)), m, n)
    big = np.concatenate([stack, others])
    order = rng.permutation(len(big))
    big = np.asfortranarray(big[order])
    where = np.argsort(order)[:count]
    cuts = np.unique(np.concatenate([[0, len(big)], rng.integers(0, len(big), size=4)]))
    scal, skew = np.empty(len(big)), np.empty(len(big))

    def collect(part, scores):
        scal[part], skew[part] = scores

    on_workers(lambda part: reciprocals(big[part]),
               [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])], collect, workers)
    for i, at in enumerate(where):
        assert scal[at].tobytes() == alone[i][0].tobytes()
        assert skew[at].tobytes() == alone[i][1].tobytes()


@FEW
@given(st.integers(2, 9), st.integers(0, 7), st.integers(1, 6), st.integers(1, 12),
       st.sampled_from([1, 2, 3]), st.integers(0, 2**32 - 1))
def test_each_extension_scores_the_same_alone_anywhere_and_on_workers(n, drop, count, size,
                                                                       workers, seed):
    rng = np.random.default_rng(seed)
    k = max(1, n - 1 - drop)
    # The candidate rows, then others; the last row of every third sample
    # is a hair from base row 0, so that pair takes the SVD route.
    jacobians = mixed_stack(rng, count, k + size + int(rng.integers(0, 40)), n)
    base = geo.ExtensionBase(jacobians[:, :k])
    alone = [base.extend(jacobians[:, k + c : k + c + 1]) for c in range(size)]
    # The same rows at random places among the others, scored in chunks of
    # random sizes on ``workers`` processes, as a strided view.
    order = rng.permutation(jacobians.shape[1] - k)
    rows = np.asfortranarray(jacobians[:, k:][:, order])
    where = np.argsort(order)[:size]
    cuts = np.unique(np.concatenate([[0, len(order)], rng.integers(0, len(order), size=4)]))
    scal, skew = np.empty((count, len(order))), np.empty((count, len(order)))

    def collect(part, scores):
        scal[:, part], skew[:, part] = scores

    on_workers(lambda part: base.extend(rows[:, part]),
               [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])], collect, workers)
    for c, at in enumerate(where):
        assert scal[:, at].tobytes() == alone[c][0][:, 0].tobytes()
        assert skew[:, at].tobytes() == alone[c][1][:, 0].tobytes()


@pytest.mark.parametrize("k", [-560, -100, 100, 560])
@pytest.mark.parametrize("m, n", [(1, 9), (2, 9), (3, 5), (4, 4)])
def test_power_of_two_scaling_moves_only_the_scaling(k, m, n, monkeypatch):
    rng = np.random.default_rng(41)
    stack = mixed_stack(rng, 60, m, n) * 2.0**-40  # largest entries near 1
    svd, svd_rows = geo._svd_reciprocals, []
    monkeypatch.setattr(geo, "_svd_reciprocals",
                        lambda S, tol: svd_rows.append(len(S)) or svd(S, tol))
    for route in (reciprocals, lambda S: svd(S, geo.RANK_TOL_DEFAULT)):
        scal, skew = route(stack)
        scal_k, skew_k = route(stack * 2.0**k)
        assert not np.isnan(skew_k).any()
        assert skew_k.tobytes() == skew.tobytes()
        with np.errstate(over="ignore", under="ignore"):
            want = np.ldexp(scal, k * m)
        normal = np.isfinite(want) & (want >= np.finfo(float).tiny)
        assert scal_k[normal].tobytes() == want[normal].tobytes()
    assert (sum(svd_rows) > 0) == (m > 1)  # the kernel used both routes


@pytest.mark.parametrize("k", [-560, 560])
def test_extensions_of_any_scale_are_scored(k):
    # Squares under- or overflow at these scales unless the kernel scales.
    rng = np.random.default_rng(43)
    jacobians = mixed_stack(rng, 30, 8, 9) * 2.0**-40
    base, rows = jacobians[:, :3], jacobians[:, 3:]
    want = geo.ExtensionBase(base).extend(rows)[1]
    got = geo.ExtensionBase(base * 2.0**k).extend(rows * 2.0**k)[1]
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)
