"""Design-space enumeration, exhaustive ranking and the greedy search."""

import json

import numpy as np
import pytest

import model_oracles
from svoed import design, geometry, sampling


def constant_field_batch(rows, count=40, seed=0):
    """Field batch for a linear model whose field Jacobian has the given rows."""
    A = np.atleast_2d(np.asarray(rows, dtype=float))
    model = model_oracles.linear_model(A, model_id="fixture")
    box = sampling.ParameterBox([0.0] * A.shape[1], [1.0] * A.shape[1])
    samples = sampling.draw_samples(box, count, seed=seed)
    return sampling.estimate_field_jacobians(model, samples)


# --- spaces ---------------------------------------------------------------------


def test_scalar_and_pair_space_sizes():
    assert len(design.scalar_space(41)) == 41
    space = design.pair_space(41, coordinates=np.linspace(0, 1, 41))
    assert len(space) == 820  # 41 choose 2
    assert space.arity == 2
    assert space.index_geometry.shape == (820, 2)


def test_pair_space_enumerates_the_lower_triangle_row_by_row():
    coords = np.random.default_rng(0).uniform(size=(7, 2))
    space = design.pair_space(7, coordinates=coords)
    pairs = [(i, j) for i in range(7) for j in range(i)]
    assert space.candidates.tolist() == [list(p) for p in pairs]
    assert np.array_equal(space.index_geometry,
                          [np.concatenate([coords[i], coords[j]]) for i, j in pairs])
    scalar = design.scalar_space(7, coordinates=coords)
    assert np.array_equal(scalar.index_geometry, coords)


def test_space_validation():
    with pytest.raises(ValueError):
        design.DesignSpace(candidates=[])
    with pytest.raises(ValueError):
        design.DesignSpace(candidates=[(0,), (1, 2)])


# --- exhaustive search ----------------------------------------------------------


def test_exhaustive_ranks_by_row_norm_for_scalar_maps():
    # Scalar designs score mean ||row||; rows (2,0) and (0,1) rank 2 then 1.
    batch = constant_field_batch([[2.0, 0.0], [0.0, 1.0]])
    space = design.scalar_space(2)
    result = design.exhaustive_oed(space, batch, utility="ese_inverse")
    assert result.best_candidate == (0,)
    assert result.reports[result.best_index, 0] == pytest.approx(2.0, rel=1e-6)
    assert [result.space.candidates[i] for i in result.order] == [(0,), (1,)]


def test_exhaustive_tie_breaks_to_lowest_index():
    batch = constant_field_batch([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    result = design.exhaustive_oed(design.scalar_space(3), batch)
    assert result.best_index == 0


def test_exhaustive_ranking_invariant_under_input_rotation():
    rng = np.random.default_rng(3)
    rows = rng.uniform(-1.0, 1.0, size=(6, 4))
    batch = constant_field_batch(rows, count=30)
    R, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    rotated = constant_field_batch(rows @ R, count=30)
    space = design.pair_space(6)
    for utility in design.UTILITIES:
        a = design.exhaustive_oed(space, batch, utility=utility)
        b = design.exhaustive_oed(space, rotated, utility=utility)
        assert np.array_equal(a.order, b.order)


def test_exhaustive_rejects_unknown_utility():
    batch = constant_field_batch([[1.0, 0.0]])
    with pytest.raises(ValueError):
        design.exhaustive_oed(design.scalar_space(1), batch, utility="eig")


# --- local maxima ---------------------------------------------------------------


def test_local_maxima_constant_field_reports_every_interior_point():
    grid = np.ones((5, 5))
    found = set(design.local_maxima(grid))
    interior = {(i, j) for i in range(1, 4) for j in range(1, 4)}
    assert interior <= found


def test_local_maxima_single_peak_quadratic():
    x = np.arange(9.0)
    grid = -np.add.outer((x - 4.0) ** 2, (x - 3.0) ** 2)
    assert design.local_maxima(grid) == [(4, 3)]


def test_local_maxima_ignores_nan_cells():
    grid = np.array([[np.nan, 1.0], [2.0, np.nan]])
    found = design.local_maxima(grid)
    assert (0, 0) not in found
    assert found[0] == (1, 0)


def test_pair_score_grid_symmetric_with_nan_diagonal():
    space = design.pair_space(4)
    values = np.arange(len(space), dtype=float)
    grid = design.pair_score_grid(space, values, 4)
    assert np.isnan(np.diag(grid)).all()
    off = ~np.eye(4, dtype=bool)
    assert np.array_equal(grid[off], grid.T[off])


# --- greedy ---------------------------------------------------------------------


def test_greedy_hand_example():
    # Rows (2,0), (0,1), (1,0): scaling picks (2,0) first; adding (0,1)
    # gives an orthogonal pair (utility 1) while re-adding a parallel row
    # is rank deficient and scores 0.
    batch = constant_field_batch([[2.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    space = design.scalar_space(3)
    trace = design.greedy_oed(space, batch, m_target=2)
    assert trace.selected == (0, 1)
    assert trace.stop_reason == "reached_m"
    assert [r.utility for r in trace.rounds] == ["ese_inverse", "esk_inverse"]
    round2 = trace.rounds[1].scores
    assert round2[1] == pytest.approx(1.0, rel=1e-6)
    assert round2[0] == pytest.approx(0.0, abs=1e-12)  # duplicate of chosen row
    assert round2[2] == pytest.approx(0.0, abs=1e-12)  # parallel to chosen row


def test_greedy_single_round_when_target_is_one():
    batch = constant_field_batch([[2.0, 0.0], [0.0, 1.0]])
    trace = design.greedy_oed(design.scalar_space(2), batch, m_target=1)
    assert len(trace.rounds) == 1
    assert trace.stop_reason == "reached_m"
    assert trace.rounds[0].chosen_utility == pytest.approx(2.0, rel=1e-6)


def test_greedy_stops_below_tolerance_without_adopting():
    # Every candidate is parallel, so no second component can add anything:
    # round 2 is recorded for inspection but nothing is adopted.
    batch = constant_field_batch([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    trace = design.greedy_oed(design.scalar_space(3), batch, m_target=3, tol=1e-3)
    assert trace.stop_reason == "below_tol"
    assert trace.selected == (2,)  # largest row norm
    assert len(trace.rounds) == 2
    assert not trace.rounds[1].adopted


def test_greedy_final_round_below_tolerance_is_not_adopted():
    # The last round is held to the tolerance like any other: a second
    # parallel row adds nothing, so it is not adopted even at m_target.
    batch = constant_field_batch([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    trace = design.greedy_oed(design.scalar_space(3), batch, m_target=2, tol=1e-3)
    assert trace.selected == (2,)
    assert trace.stop_reason == "below_tol"
    assert len(trace.rounds) == 2
    assert not trace.rounds[-1].adopted


def test_greedy_trace_determinism():
    batch = constant_field_batch([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    space = design.scalar_space(3)
    a = design.greedy_oed(space, batch, m_target=2)
    b = design.greedy_oed(space, batch, m_target=2)
    assert a.selected == b.selected
    for ra, rb in zip(a.rounds, b.rounds):
        assert np.array_equal(ra.scores, rb.scores)


def test_greedy_scores_selected_rows_zero_without_the_svd(monkeypatch):
    # Under rank_tol 0 a repeated row is not rank deficient to the SVD at
    # round-off, so only the kernel's own zero keeps the promise above.
    rng = np.random.default_rng(12)
    count, field_size, n_params = 20, 30, 5
    batch = sampling.FieldJacobianBatch(
        sampling.SampleSet(rng.uniform(size=(count, n_params))),
        rng.normal(size=(count, field_size)),
        rng.normal(size=(count, field_size, n_params)))
    fallbacks = []
    svd_reciprocals = geometry._svd_reciprocals

    def spy(stack, rank_tol):
        fallbacks.append(stack.copy())
        return svd_reciprocals(stack, rank_tol)

    monkeypatch.setattr(geometry, "_svd_reciprocals", spy)
    trace = design.greedy_oed(design.scalar_space(field_size), batch, m_target=4,
                              tol=1e-12, rank_tol=0.0)
    assert len(trace.selected) == 4
    for k, rnd in enumerate(trace.rounds[1:], start=1):
        assert np.all(rnd.scores[list(trace.selected[:k])] == 0.0)
        assert np.all(np.delete(rnd.scores, trace.selected[:k]) > 0.0)
    for stack in fallbacks:
        last = stack[:, -1:, :]
        assert not np.any(np.all(stack[:, :-1, :] == last, axis=2))


def test_greedy_warns_when_target_exceeds_parameters():
    batch = constant_field_batch([[2.0, 0.0], [0.0, 1.0]])
    with pytest.warns(UserWarning, match="exceeds the parameter dimension"):
        trace = design.greedy_oed(design.scalar_space(2), batch, m_target=4)
    # Rounds past the parameter dimension are structurally rank deficient.
    assert trace.stop_reason == "below_tol"
    assert len(trace.selected) <= 2


def test_greedy_vs_exhaustive_gap_is_documented():
    # Greedy grabs the longest row (norm sqrt 9.01) even though the
    # orthogonal pair (rows 1, 2) is the exhaustive skewness optimum, so
    # the greedy pair pays a known gap of 1 - 3/sqrt(9.01).
    rows = [[3.0, 0.1], [2.9, 0.0], [0.0, 1.0]]
    batch = constant_field_batch(rows, count=25)
    space = design.scalar_space(3)
    trace = design.greedy_oed(space, batch, m_target=2)
    assert trace.selected == (0, 2)
    greedy_value = trace.rounds[1].chosen_utility

    exhaustive = design.exhaustive_oed(design.pair_space(3), batch, utility="esk_inverse")
    best_value = exhaustive.reports[exhaustive.best_index, 1]
    assert best_value == pytest.approx(1.0, rel=1e-6)  # pair (2, 1)

    expected_gap = 1.0 - 3.0 / np.sqrt(9.01)
    assert best_value - greedy_value == pytest.approx(expected_gap, rel=1e-5)
    assert best_value >= greedy_value  # exhaustive never loses to greedy


# --- exports --------------------------------------------------------------------


def test_trace_json_export(tmp_path):
    batch = constant_field_batch([[2.0, 0.0], [0.0, 1.0]])
    space = design.scalar_space(2, coordinates=[0.0, 1.0])
    trace = design.greedy_oed(space, batch, m_target=2)
    path = tmp_path / "trace.json"
    design.trace_to_json(trace, path, coordinates=space.index_geometry)
    doc = json.loads(path.read_text())
    assert doc["selected"] == [0, 1]
    assert doc["stop_reason"] == "reached_m"
    assert len(doc["rounds"]) == 2
    assert len(doc["rounds"][0]["scores"]) == 2
    assert doc["candidate_coordinates"] == [[0.0], [1.0]]
