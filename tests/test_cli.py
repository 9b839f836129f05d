"""Command-line runs end to end on small rod configs."""

import csv
import json
import multiprocessing
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from svoed import cli, criteria, dci, design, geometry, models, sampling

ROD = {"kind": "heat_rod_1d", "elements": 10, "time_steps": 5}


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_greedy_writes_one_trace_and_the_manifest(tmp_path):
    config = write_config(tmp_path, "greedy.json", {
        "task": "greedy", "model": ROD, "sampling": {"count": 6, "seed": 3},
        "greedy": {"m_target": 2}, "output_dir": "out"})
    assert cli.main(["greedy", "--config", config]) == cli.EXIT_OK

    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["greedy_trace.json", "manifest.json"]
    trace = json.loads((out / "greedy_trace.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["task"] == "greedy"
    assert manifest["outputs"] == ["greedy_trace.json"]
    assert (trace["stop_reason"], trace["tol"]) == ("reached_m", 1e-3)
    assert [rnd["round"] for rnd in trace["rounds"]] == [1, 2]
    assert [rnd["chosen"] for rnd in trace["rounds"]] == trace["selected"]
    for rnd in trace["rounds"]:
        assert len(rnd["scores"]) == ROD["elements"] + 1
        assert rnd["scores"][rnd["chosen"]] == rnd["chosen_utility"] == max(rnd["scores"])
    # The sensor coordinates of the design are candidate_coordinates[selected].
    rod = cli.build_model({"model": ROD})
    assert ([trace["candidate_coordinates"][row] for row in trace["selected"]]
            == [[rod.coordinates[row]] for row in trace["selected"]])


def test_plate_with_100_elements_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, "oed.json", {
        "task": "oed", "model": {"kind": "heat_plate_2d", "elements": 100},
        "sampling": {"count": 2}, "output_dir": "out"})
    assert cli.main(["oed", "--config", config]) == cli.EXIT_CONFIG
    assert "multiple of 3" in capsys.readouterr().err


def cache_config(tmp_path, task, count, out=None, cache="cache/batch.npz", arity=1,
                 rank_tol=1e-12):
    out = out or task
    settings = {"count": count, "seed": 5}
    if cache:
        settings["batch_cache"] = cache
    return write_config(tmp_path, f"{out}.json", {
        "task": task, "model": ROD, "sampling": settings, "design": {"arity": arity},
        "tolerances": {"rank_tol": rank_tol}, "output_dir": out})


def batch_key(count):
    """The key a ``cache_config`` batch of ``count`` samples is stored under."""
    rod = cli.build_model({"model": ROD})
    settings = cli._settings({"sampling": {"count": count}}, "sweep")
    return cli._batch_key(settings, rod, rod.parameter_box, 5)


def test_batch_cache_is_keyed_on_the_recipe(tmp_path, monkeypatch):
    solves = []
    estimate = sampling.estimate_field_jacobians
    monkeypatch.setattr(sampling, "estimate_field_jacobians",
                        lambda *a, **k: solves.append(1) or estimate(*a, **k))

    # The sweep asks for the batch the oed run cached, so it reuses it.
    assert cli.main(["oed", "--config", cache_config(tmp_path, "oed", 4)]) == 0
    assert cli.main(["sweep", "--config", cache_config(tmp_path, "sweep", 4)]) == 0
    assert len(solves) == 1

    # More samples make a different recipe: the cache is recomputed.
    assert cli.main(["sweep", "--config", cache_config(tmp_path, "sweep", 7)]) == 0
    assert len(solves) == 2
    with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
        assert {row["sample_count"] for row in csv.DictReader(fh)} == {"7"}
    assert sampling.load_batch(tmp_path / "cache" / "batch.npz", batch_key(7)).count == 7


def test_batch_cache_without_the_npz_suffix_hits(tmp_path, monkeypatch):
    solves, estimate = [], sampling.estimate_field_jacobians
    monkeypatch.setattr(sampling, "estimate_field_jacobians",
                        lambda *a, **k: solves.append(1) or estimate(*a, **k))
    scored = count_scoring(monkeypatch)
    for out in ("first", "second"):
        assert cli.main(["sweep", "--config",
                         cache_config(tmp_path, "sweep", 4, out, cache="cache/batch")]) == 0
    assert (len(solves), len(scored)) == (1, 2)
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["batch"]
    assert ((tmp_path / "second" / "sweep.csv").read_bytes()
            == (tmp_path / "first" / "sweep.csv").read_bytes())


def count_scoring(monkeypatch) -> list:
    """Record every exhaustive scoring."""
    scored, score = [], design.exhaustive_oed
    monkeypatch.setattr(design, "exhaustive_oed",
                        lambda *a, **k: scored.append(1) or score(*a, **k))
    return scored


def write_schema_5(cache, save):
    """Rewrite the batch cache as schema 5 wrote it: the arrays beside a
    JSON header."""
    with np.load(cache) as data:
        arrays = {name: data[name] for name in ("points", "outputs", "jacobians")}
    rod = cli.build_model({"model": ROD})
    recipe = cli._batch_recipe(cli._settings({"sampling": {"count": 4}}, "sweep"), rod,
                               rod.parameter_box, 5)
    N, P, n = arrays["jacobians"].shape
    header = {"schema_version": 5, "model_id": rod.model_id, "seed": 5,
              "scheme": "uniform-random", "recipe_sha256": recipe, "N": N, "P": P, "n": n}
    save(cache, header=np.array(json.dumps(header)), **arrays)


def test_cache_of_an_older_schema_is_recomputed(tmp_path, monkeypatch, caplog):
    solves, loads = [], []
    estimate, load = sampling.estimate_field_jacobians, sampling.load_batch
    monkeypatch.setattr(sampling, "estimate_field_jacobians",
                        lambda *a, **k: solves.append(1) or estimate(*a, **k))
    monkeypatch.setattr(sampling, "load_batch", lambda *a, **k: loads.append(1) or load(*a, **k))
    scored = count_scoring(monkeypatch)
    cache = tmp_path / "cache" / "batch.npz"
    assert cli.main(["oed", "--config", cache_config(tmp_path, "oed", 4)]) == 0
    cold = cache_config(tmp_path, "sweep", 4, "cold", cache=False)
    assert cli.main(["sweep", "--config", cold]) == 0
    assert (len(solves), len(loads), len(scored)) == (2, 0, 2)

    def this_layout_one_schema_back():
        with monkeypatch.context() as previous:
            previous.setattr(sampling, "BATCH_SCHEMA_VERSION", sampling.BATCH_SCHEMA_VERSION - 1)
            assert cli.main(["oed", "--config", cache_config(tmp_path, "oed", 4)]) == 0

    # Schema 5 as it was written (uncompressed or, by earlier versions,
    # compressed), and this layout under an older schema number.
    for older in (lambda: write_schema_5(cache, np.savez),
                  lambda: write_schema_5(cache, np.savez_compressed),
                  this_layout_one_schema_back):
        older()
        solved, loaded, caplog_start = len(solves), len(loads), len(caplog.records)
        # The recipe is the same, but the batch is recomputed, with a
        # warning; the next run serves it.  Every run scores.
        for _ in range(2):
            assert cli.main(["sweep", "--config", cache_config(tmp_path, "sweep", 4)]) == 0
            assert (tmp_path / "sweep" / "sweep.csv").read_bytes() == (
                tmp_path / "cold" / "sweep.csv").read_bytes()
        assert (len(solves), len(loads)) == (solved + 1, loaded + 2)
        warned = [r.getMessage() for r in caplog.records[caplog_start:]]
        assert len(warned) == 1 and "recomputing batch cache" in warned[0]
        assert "stored under another key" in warned[0]
    assert len(scored) == 2 + 3 * 2 + 1  # the older-schema number also ran an oed


def test_unreadable_batch_cache_is_recomputed(tmp_path, caplog):
    assert cli.main(["sweep", "--config", cache_config(tmp_path, "sweep", 4)]) == 0
    cache = tmp_path / "cache" / "batch.npz"
    cache.write_bytes(cache.read_bytes()[:1000])
    assert cli.main(["sweep", "--config", cache_config(tmp_path, "sweep", 4)]) == 0
    assert "recomputing batch cache" in caplog.text and "BadZipFile" in caplog.text
    assert sampling.load_batch(cache, batch_key(4)).count == 4


def write_statistics(cache, count, arity, stats):
    """Write ``stats`` where, and as, earlier versions kept the statistics
    sidecar of the batch at ``cache``: at ``batch.stats.npz``, under the
    key they would have served it under (kernel version 4)."""
    key = cli._sha256([batch_key(count), arity, 1e-12, criteria.STATISTICS, 4])
    sidecar = cache.with_suffix(".stats.npz")
    with open(sidecar, "wb") as fh:
        np.savez(fh, key=np.array(key), statistics=stats)
    return sidecar


def assert_statistics_unread(tmp_path, monkeypatch, count, arity, sidecar):
    """A cached ``sweep`` next to ``sidecar`` scores, writes what a run
    without the cache writes, and leaves the file as it was."""
    assert cli.main(["sweep", "--config",
                     cache_config(tmp_path, "sweep", count, "cold", False, arity)]) == 0
    before = sidecar.read_bytes()
    calls, extend = [], geometry.ExtensionBase.extend
    monkeypatch.setattr(geometry.ExtensionBase, "extend",
                        lambda *a, **k: calls.append(1) or extend(*a, **k))
    assert cli.main(["sweep", "--config",
                     cache_config(tmp_path, "sweep", count, arity=arity)]) == 0
    assert calls
    assert ((tmp_path / "sweep" / "sweep.csv").read_bytes()
            == (tmp_path / "cold" / "sweep.csv").read_bytes())
    assert sidecar.read_bytes() == before


def cold_statistics(tmp_path, count, arity):
    """The statistics of a ``cache_config`` run's space over its batch."""
    batch = sampling.load_batch(tmp_path / "cache" / "batch.npz", batch_key(count))
    space = (design.scalar_space if arity == 1 else design.pair_space)(batch.outputs.shape[1])
    return design.exhaustive_oed(space, batch).reports


def test_statistics_of_an_older_kernel_are_recomputed(tmp_path, monkeypatch):
    # Statistics earlier versions would have served from their sidecar: the
    # right key and shape, but not what the kernel computes.
    assert cli.main(["oed", "--config", cache_config(tmp_path, "oed", 6, arity=2)]) == 0
    stats = cold_statistics(tmp_path, 6, 2) * (1.0 + 1e-9)
    sidecar = write_statistics(tmp_path / "cache" / "batch.npz", 6, 2, stats)
    assert_statistics_unread(tmp_path, monkeypatch, 6, 2, sidecar)


def test_other_arity_or_rank_tol_rescores(tmp_path, monkeypatch):
    # One batch serves every setting, and each run scores it afresh.
    scored = count_scoring(monkeypatch)
    for i, settings in enumerate([{}, {"arity": 2}, {"arity": 2, "rank_tol": 1e-8}, {}]):
        for run in ("cached", "cold"):
            config = cache_config(tmp_path, "sweep", 6, f"{run}{i}",
                                  cache=run == "cached" and "cache/batch.npz", **settings)
            assert cli.main(["sweep", "--config", config]) == 0
        assert len(scored) == 2 * (i + 1)
        assert ((tmp_path / f"cached{i}" / "sweep.csv").read_bytes()
                == (tmp_path / f"cold{i}" / "sweep.csv").read_bytes())


def test_sidecar_copied_back_over_a_rewritten_batch_is_rescored(tmp_path, monkeypatch):
    # The sidecar of one batch stays, untouched, when another replaces it.
    assert cli.main(["oed", "--config", cache_config(tmp_path, "oed", 4)]) == 0
    cache = tmp_path / "cache" / "batch.npz"
    sidecar = write_statistics(cache, 4, 1, cold_statistics(tmp_path, 4, 1))
    before = sidecar.read_bytes()
    assert cli.main(["oed", "--config", cache_config(tmp_path, "oed", 7)]) == 0
    assert sampling.load_batch(cache, batch_key(7)).count == 7
    assert sidecar.read_bytes() == before
    assert_statistics_unread(tmp_path, monkeypatch, 7, 1, sidecar)


@pytest.mark.parametrize("how", ["truncated", "shape", "negative", "nan"])
def test_damaged_statistics_are_recomputed(how, tmp_path, monkeypatch):
    assert cli.main(["oed", "--config", cache_config(tmp_path, "oed", 6)]) == 0
    cache = tmp_path / "cache" / "batch.npz"
    stats = cold_statistics(tmp_path, 6, 1)
    if how == "shape":
        stats = stats[:-1]
    elif how == "negative":
        stats[3, 0] = -1.0
    elif how == "nan":
        stats[0, 1] = np.nan
    sidecar = write_statistics(cache, 6, 1, stats)
    if how == "truncated":
        sidecar.write_bytes(sidecar.read_bytes()[:200])
    assert_statistics_unread(tmp_path, monkeypatch, 6, 1, sidecar)


def negate_the_rod_points(monkeypatch):
    """Evaluate every sample with its conductivities negated, so the rod
    refuses the first sample of any batch or ensemble."""
    evaluate = sampling.evaluate_samples
    monkeypatch.setattr(sampling, "evaluate_samples",
                        lambda model, points, *args, **kwargs:
                        evaluate(model, -points, *args, **kwargs))


def test_model_failure_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    negate_the_rod_points(monkeypatch)
    config = write_config(tmp_path, "dci.json", {
        "task": "dci", "model": ROD, "sampling": {"seed": 1},
        "dci": {"sensors": [0.0, 1.0], "count": 50}, "output_dir": "out"})
    assert cli.main(["dci", "--config", config]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "model evaluation failed at sample 0" in err
    assert "conductivities must be finite and positive" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_failed_batch_sample_leaves_no_cache_and_no_manifest(tmp_path, capsys, monkeypatch):
    negate_the_rod_points(monkeypatch)
    assert cli.main(["oed", "--config", cache_config(tmp_path, "oed", 4)]) == cli.EXIT_NUMERICAL
    assert "model evaluation failed at sample 0" in capsys.readouterr().err
    assert not (tmp_path / "oed" / "manifest.json").exists()
    assert not (tmp_path / "cache" / "batch.npz").exists()


def test_failed_density_grid_leaves_no_output(tmp_path, capsys):
    # Two samples span a line in the parameter plane, so the kernel
    # covariance of the updated density grid is singular.
    config = write_config(tmp_path, "dci.json", {
        "task": "dci", "model": ROD, "sampling": {"seed": 1},
        "dci": {"sensors": [0.0, 1.0], "count": 2, "seed": 3}, "output_dir": "out"})
    with pytest.warns(dci.PredictabilityWarning):
        assert cli.main(["dci", "--config", config]) == cli.EXIT_NUMERICAL
    assert "not positive definite" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def ensemble_columns(outdir, prefix="lambda_") -> np.ndarray:
    """The columns of a ``dci`` run's ``ensemble.csv`` whose names start
    with ``prefix``, one row per sample."""
    with open(outdir / "ensemble.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([[float(v) for k, v in row.items() if k.startswith(prefix)]
                     for row in rows])


@pytest.mark.filterwarnings("ignore::svoed.dci.PredictabilityWarning")
def test_dci_draws_its_initial_points_inside_the_box(tmp_path):
    # The density puts about half its mass at negative conductivities.
    config = write_config(tmp_path, "dci.json", {
        "task": "dci", "model": ROD,
        "sampling": {"seed": 1,
                     "init": {"kind": "gaussian", "mean": [0.02, 0.1], "cov": 0.01}},
        "dci": {"sensors": [0.0, 1.0], "count": 50}, "output_dir": "out"})
    assert cli.main(["dci", "--config", config]) == cli.EXIT_OK
    points = ensemble_columns(tmp_path / "out")
    assert points.shape == (50, 2)
    assert np.all(cli.build_model({"model": ROD}).parameter_box.contains(points))


@pytest.mark.filterwarnings("ignore::svoed.dci.PredictabilityWarning")
def test_dci_draws_the_points_of_the_field_batch(tmp_path):
    # With the batch's count, seed and initial density, dci solves at the
    # batch's points and gets the batch's outputs at its rows, so its weights
    # are those of the cached outputs: a design's DCI needs no solve.
    init = {"kind": "gaussian", "mean": [0.1, 0.12], "cov": 0.002}
    plate = {"kind": "heat_plate_2d", "elements": 3, "time_steps": 8}
    for name, model, given, sensors in (("rod", ROD, {"init": init}, [0.0, 1.0]),
                                        ("plate", plate, {}, [[0.5, 0.5], [0.0, 1.0]])):
        sweep = write_config(tmp_path, f"{name}-sweep.json", dict(SWEEP, model=model, sampling=dict(
            given, count=30, seed=6, batch_cache=f"{name}.npz")))
        assert cli.main(["sweep", "--config", sweep]) == cli.EXIT_OK
        config = write_config(tmp_path, f"{name}-dci.json", {
            "task": "dci", "model": model, "sampling": dict(given, seed=6),
            "dci": {"sensors": sensors, "count": 30, "seed": 6}, "output_dir": name})
        assert cli.main(["dci", "--config", config]) == cli.EXIT_OK
        built = cli.build_model({"model": model})
        rows = [built.nearest_field_index(s) for s in sensors]
        with np.load(tmp_path / f"{name}.npz") as cache:
            points, outputs = cache["points"], cache["outputs"][:, rows]
        assert np.array_equal(ensemble_columns(tmp_path / name), points)
        assert np.array_equal(ensemble_columns(tmp_path / name, "q_"), outputs)
        observed = dci.GaussianDensity(built.evaluate(built.parameter_box.midpoint)[rows], 0.15)
        weights = dci.update_weights(outputs, observed, dci.KdeDensity(outputs)).weights
        # On the plate the solved outputs are row-major and the cached slice
        # column-major; the kernel density's values do not depend on that.
        assert np.array_equal(ensemble_columns(tmp_path / name, "ratio")[:, 0], weights)


def test_box_outside_the_model_box_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sampling, "evaluate_samples", None)  # no solve may start
    config = write_config(tmp_path, "sweep.json", {
        "task": "sweep", "model": ROD,
        "sampling": {"count": 5, "seed": 1, "box": [[-0.1, 0.01], [0.2, 0.2]]},
        "design": {"arity": 1}, "output_dir": "out"})
    assert cli.main(["sweep", "--config", config]) == cli.EXIT_CONFIG
    assert "is not inside the model's parameter box" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def forbid_solves(monkeypatch):
    """Make every model solve, and building a design space, fail loudly."""
    for owner, name in ((sampling, "evaluate_samples"), (models.HeatRod1D, "evaluate_stacked"),
                        (models.HeatPlate2D, "evaluate_stacked"), (design, "scalar_space"),
                        (design, "pair_space")):
        monkeypatch.setattr(owner, name, None)


def test_unsupported_arity_is_a_config_error_before_any_solve(tmp_path, capsys, monkeypatch):
    forbid_solves(monkeypatch)
    config = write_config(tmp_path, "oed.json", {
        "task": "oed", "model": ROD, "sampling": {"count": 50, "seed": 1},
        "design": {"arity": 3}, "output_dir": "out"})
    assert cli.main(["oed", "--config", config]) == cli.EXIT_CONFIG
    assert "design.arity" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


KDE_SAMPLES = [[0.05, 0.05], [0.1, 0.12], [0.15, 0.08]]
# Symmetric positive definite in its lower triangle alone.
ASYMMETRIC = [[0.1, 9.0], [0.0, 0.1]]


@pytest.mark.parametrize("setting", [
    {"bandwidth": "foo"}, {"count": "many"}, {"count": 1}, {"count": 0}, {"seed": 1.5},
    {"seed": -5},
    {"observed": {"kind": "gaussian", "mean": "model-midpoint", "cov": -1}},
    {"observed": {"kind": "gaussian", "mean": [1.0, 2.0], "cov": -1}},
    {"observed": {"kind": "gaussian", "mean": [1.0, 2.0, 3.0], "cov": 0.1}},
    {"sensors": [0.0, 0.5, 1.0]}, {"sensors": [0.0, 0.0]},
    {"sensors": [[0.5, 0.5], [1.0, 1.0]]}, {"sensors": ["a", 1.0]}, {"sensors": [None, 1.0]},
    {"sensors": [0.0, 50.0]},
    {"sensors": [[0.5, 0.5], [1.5, 0.5]], "model": {"kind": "heat_plate_2d", "elements": 3}},
    {"init": {"kind": "kde-from-samples", "samples": KDE_SAMPLES, "bandwidth": 0.3}},
    {"init": {"kind": "kde-from-samples", "samples": KDE_SAMPLES, "bandwidth": "foo"}},
    {"observed": {"kind": "gaussian", "mean": [1.0, 2.0], "cov": ASYMMETRIC}},
    {"init": {"kind": "gaussian", "mean": [0.1, 0.1], "cov": ASYMMETRIC}},
], ids=["bandwidth", "count", "count-1", "count-0", "seed", "seed-negative", "observed",
        "observed-mean", "observed-dimension", "sensors", "sensors-duplicate",
        "sensors-dimension", "sensors-string", "sensors-null", "sensors-outside-rod",
        "sensors-outside-plate", "init-bandwidth-number", "init-bandwidth-name",
        "observed-cov-asymmetric", "init-cov-asymmetric"])
def test_dci_setting_is_a_config_error_before_any_solve(setting, tmp_path, capsys,
                                                         monkeypatch):
    # The initial density is sampling.init, read by every task.
    forbid_solves(monkeypatch)
    setting = dict(setting)
    model = setting.pop("model", ROD)
    (name, value), = setting.items()
    if name == "init":
        key = "sampling.init.bandwidth" if "bandwidth" in value else "sampling.init"
        sampling_section, dci_section = {"init": value}, {}
    else:
        key, sampling_section, dci_section = f"dci.{name}", {}, setting
    config = write_config(tmp_path, "dci.json", {
        "task": "dci", "model": model, "sampling": {"seed": 2, **sampling_section},
        "dci": {"sensors": [0.0, 1.0], "count": 300, **dci_section}, "output_dir": "out"})
    assert cli.main(["dci", "--config", config]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bandwidth", [0.3, "foo"], ids=["number", "name"])
def test_sampling_init_bandwidth_is_a_config_error_before_any_solve(bandwidth, tmp_path,
                                                                     capsys, monkeypatch):
    forbid_solves(monkeypatch)
    config = write_config(tmp_path, "sweep.json", {
        "task": "sweep", "model": ROD,
        "sampling": {"count": 5, "seed": 1,
                     "init": {"kind": "kde-from-samples", "samples": KDE_SAMPLES,
                              "bandwidth": bandwidth}},
        "design": {"arity": 1}, "output_dir": "out"})
    assert cli.main(["sweep", "--config", config]) == cli.EXIT_CONFIG
    assert "sampling.init.bandwidth" in capsys.readouterr().err


@pytest.mark.parametrize("tolerances", [{"greedy_tol": 0}, {"rank_tol": -1e-12},
                                        {"rank_tol": 1.0}],
                         ids=["greedy_tol", "rank_tol", "rank_tol-one"])
def test_greedy_tolerance_is_a_config_error_before_any_solve(tolerances, tmp_path, capsys,
                                                               monkeypatch):
    forbid_solves(monkeypatch)
    config = write_config(tmp_path, "greedy.json", {
        "task": "greedy", "model": ROD, "sampling": {"count": 6, "seed": 3},
        "greedy": {"m_target": 2}, "tolerances": tolerances, "output_dir": "out"})
    assert cli.main(["greedy", "--config", config]) == cli.EXIT_CONFIG
    assert f"tolerances.{next(iter(tolerances))}" in capsys.readouterr().err


def test_rank_tol_of_one_is_a_config_error_before_any_solve(tmp_path, capsys, monkeypatch):
    # sigma_min <= sigma_max, so at rank_tol 1 every sample of every design
    # would count as rank deficient and the "best" design be candidate 0.
    forbid_solves(monkeypatch)
    config = write_config(tmp_path, "oed.json", {
        "task": "oed", "model": {"kind": "heat_rod_1d", "elements": 40},
        "sampling": {"count": 500}, "tolerances": {"rank_tol": 1}, "output_dir": "out"})
    assert cli.main(["oed", "--config", config]) == cli.EXIT_CONFIG
    assert "tolerances.rank_tol: must be >= 0 and < 1, got 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_batch_over_the_memory_budget_is_refused_before_any_solve(tmp_path, capsys,
                                                                 monkeypatch):
    # 6000 samples x 10,000 nodes x 9 parameters: 4.32e9 bytes of Jacobians.
    forbid_solves(monkeypatch)
    config = write_config(tmp_path, "greedy.json", {
        "task": "greedy", "model": {"kind": "heat_plate_2d", "elements": 99},
        "sampling": {"count": 6000}, "greedy": {"m_target": 9}, "output_dir": "out"})
    assert cli.main(["greedy", "--config", config]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sampling.count" in err and "4320000000-byte" in err
    assert not (tmp_path / "out").exists()


def test_dci_count_over_the_kernel_density_budget_is_refused_before_any_solve(
        tmp_path, capsys, monkeypatch):
    # 1e10 samples would take 160 GB of points and 1e20 kernel-density pairs.
    forbid_solves(monkeypatch)
    config = write_config(tmp_path, "dci.json", {
        "task": "dci", "model": ROD, "dci": {"sensors": [0.0, 1.0], "count": 10**10},
        "output_dir": "out"})
    assert cli.main(["dci", "--config", config]) == cli.EXIT_CONFIG
    assert "dci.count" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model", [{"kind": "heat_plate_2d", "elements": 2400},
                                   {"kind": "heat_rod_1d", "elements": 10**8}],
                         ids=["plate-e2400", "rod-e1e8"])
def test_mesh_over_the_memory_budget_is_refused_before_it_is_built(model, tmp_path, capsys,
                                                                   monkeypatch):
    # About 8.6 GB and 9.6 GB to build, though one sample at arity 1 passes
    # both later budgets.
    def built(**kwargs):
        raise AssertionError("the model was built")

    monkeypatch.setattr(models, "HeatPlate2D", built)
    monkeypatch.setattr(models, "HeatRod1D", built)
    config = write_config(tmp_path, "oed.json", {
        "task": "oed", "model": model, "sampling": {"count": 1}, "design": {"arity": 1},
        "output_dir": "out"})
    assert cli.main(["oed", "--config", config]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"model.elements: {model['elements']} per axis" in err and "bytes to build" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("taken, is_file, change, use_out, key", [
    ("taken", True, {"output_dir": "taken"}, False, "output_dir"),
    ("taken", True, {"output_dir": "taken/out"}, False, "output_dir"),
    ("taken", True, {}, True, "--out"),
    ("taken", False, {"sampling": {"count": 4, "batch_cache": "taken"}}, False,
     "sampling.batch_cache"),
], ids=["output-dir-is-a-file", "output-dir-under-a-file", "out-is-a-file",
        "batch-cache-is-a-directory"])
def test_unusable_output_path_is_a_config_error_before_any_solve(taken, is_file, change, use_out,
                                                                 key, tmp_path, capsys,
                                                                 monkeypatch):
    forbid_solves(monkeypatch)
    blocker = tmp_path / taken
    if is_file:
        blocker.write_text("kept")
    else:
        blocker.mkdir()
    config = write_config(tmp_path, "sweep.json", dict(SWEEP, **change))
    argv = ["sweep", "--config", config] + (["--out", str(blocker)] if use_out else [])
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{key}: " in err and f"{taken} is {'not a' if is_file else 'a'} directory" in err
    assert not (tmp_path / "out").exists()
    assert (blocker.read_text() == "kept") if is_file else not any(blocker.iterdir())


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_a_config_error_before_any_solve(workers, tmp_path, capsys,
                                                              monkeypatch):
    forbid_solves(monkeypatch)
    config = write_config(tmp_path, "dci.json", {
        "task": "dci", "model": ROD, "dci": {"sensors": [0.0, 1.0], "count": 50},
        "output_dir": "out"})
    assert cli.main(["dci", "--config", config, "--workers", workers]) == cli.EXIT_CONFIG
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_option_is_a_config_error_before_any_solve(tmp_path, capsys, monkeypatch):
    forbid_solves(monkeypatch)
    config = write_config(tmp_path, "sweep.json", SWEEP)
    assert cli.main(["sweep", "--config", config, "--seed", "-3"]) == cli.EXIT_CONFIG
    assert "--seed: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_e99_pairs_are_refused_before_the_batch_and_the_space(tmp_path, capsys, monkeypatch):
    # 49,995,000 pairs of the e99 plate over 1000 samples: refused before any
    # solve and before the candidate array is allocated.
    forbid_solves(monkeypatch)
    config = write_config(tmp_path, "oed.json", {
        "task": "oed", "model": {"kind": "heat_plate_2d", "elements": 99},
        "sampling": {"count": 1000}, "design": {"arity": 2}, "output_dir": "out"})
    assert cli.main(["oed", "--config", config]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "49995000 candidates" in err and "greedy" in err
    assert not (tmp_path / "out").exists()
    # No option rewrites the config: --paper-scale is not one.
    with pytest.raises(SystemExit) as parsed:
        cli.main(["oed", "--config", config, "--paper-scale"])
    assert parsed.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments: --paper-scale" in capsys.readouterr().err


@pytest.mark.parametrize("settings, digest", [
    ({"count": 7}, "d4c51dc2fb249a239cb63b6d67472622db70054da04e45921f46a1b9726c091c"),
    ({"count": 7, "init": {"kind": "gaussian", "mean": [0.1, 0.12], "cov": 0.002}},
     "c13e7f53561c6d505af7c1e2a4d2706c3104c2d52abfdf2f8ef84bde8cd8014d"),
], ids=["volume", "initial"])
def test_batch_recipe_digest_is_unchanged(settings, digest):
    # The recipe half of the batch key: a new digest would make every batch
    # cache already on disk stale, as a new batch schema does.
    rod = models.HeatRod1D(elements=10, time_steps=5)
    read = cli._settings({"sampling": settings}, "sweep")
    assert cli._batch_recipe(read, rod, rod.parameter_box, 5) == digest


def test_fd_step_setting_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, "sweep.json", {
        "task": "sweep", "model": ROD, "sampling": {"count": 4, "fd_step": 1e-4},
        "design": {"arity": 1}, "output_dir": "out"})
    assert cli.main(["sweep", "--config", config]) == cli.EXIT_CONFIG
    assert "sampling.fd_step" in capsys.readouterr().err


def test_init_density_without_mass_in_the_box_is_a_config_error(tmp_path, capsys,
                                                                monkeypatch):
    init = {"kind": "gaussian", "mean": [5.0, 5.0], "cov": 0.01}
    monkeypatch.setattr(sampling, "evaluate_samples", None)  # no solve may start
    config = write_config(tmp_path, "sweep.json", dict(
        SWEEP, sampling={"count": 5, "init": init}, design={"arity": 1}))
    assert cli.main(["sweep", "--config", config]) == cli.EXIT_CONFIG
    assert "almost no mass" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # DCI draws its points before its first solve.
    forbid_solves(monkeypatch)
    config = write_config(tmp_path, "dci.json", {
        "task": "dci", "model": ROD, "sampling": {"init": init},
        "dci": {"sensors": [0.0, 1.0], "count": 50}, "output_dir": "out"})
    assert cli.main(["dci", "--config", config]) == cli.EXIT_CONFIG
    assert "almost no mass" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("init", [None, {"kind": "gaussian", "mean": [0.02, 0.1], "cov": 0.01}],
                         ids=["default", "gaussian"])
def test_batch_holds_the_points_of_the_one_draw(init, tmp_path):
    # The CLI draws through sampling.draw_samples, with the run's initial
    # density: uniform on the box by default, or, here, a Gaussian with
    # about half its mass at negative conductivities.
    given = {} if init is None else {"init": init}
    config = write_config(tmp_path, "sweep.json", dict(SWEEP, design={"arity": 1}, sampling=dict(
        given, count=40, seed=6, batch_cache="batch.npz")))
    assert cli.main(["sweep", "--config", config]) == cli.EXIT_OK
    with np.load(tmp_path / "batch.npz") as cache:
        points = cache["points"]
    box = cli.build_model(SWEEP).parameter_box
    density = cli.build_density(init or {"kind": "uniform-box"}, "init", default_box=box)
    assert np.array_equal(points, sampling.draw_samples(box, 40, 6, density).points)
    if init is None:
        assert np.array_equal(points, sampling.draw_samples(box, 40, 6).points)
    else:  # some of the first round's draws fell outside the box
        assert not np.all(box.contains(density.sample(np.random.default_rng(6), 40)))


def test_init_density_of_another_dimension_is_a_config_error(tmp_path, capsys, monkeypatch):
    forbid_solves(monkeypatch)
    init = {"kind": "gaussian", "mean": [0.1, 0.1, 0.1], "cov": 0.001}
    for task in ("sweep", "dci"):
        cfg = json.loads(json.dumps(TASK_CONFIGS[task]))
        cfg.setdefault("sampling", {})["init"] = init
        config = write_config(tmp_path, "c.json", cfg)
        assert cli.main([task, "--config", config]) == cli.EXIT_CONFIG
        assert "sampling.init: a density on 3 parameters for a model of 2" in (
            capsys.readouterr().err)


@pytest.mark.parametrize("given, missing", [("lower", "upper"), ("upper", "lower")])
def test_uniform_box_with_one_bound_is_a_config_error(given, missing, tmp_path, capsys,
                                                      monkeypatch):
    forbid_solves(monkeypatch)
    init = {"kind": "uniform-box", given: [0.05, 0.05]}
    config = write_config(tmp_path, "c.json", dict(SWEEP, sampling={"count": 4, "init": init}))
    assert cli.main(["sweep", "--config", config]) == cli.EXIT_CONFIG
    assert f"sampling.init.{missing}: uniform-box needs lower and upper" in (
        capsys.readouterr().err)


def dci_config(tmp_path, **settings):
    return write_config(tmp_path, "dci.json", {
        "task": "dci", "model": ROD, "sampling": {"seed": 2},
        "dci": {"sensors": [0.0, 1.0], "count": 300, "seed": 9, **settings}, "output_dir": "dci"})


def output_bytes(outdir):
    files = {p.name: p.read_bytes() for p in outdir.iterdir() if p.name != "manifest.json"}
    manifest = json.loads((outdir / "manifest.json").read_text())
    del manifest["elapsed_seconds"]
    return files, manifest


def test_dci_on_the_rod(tmp_path):
    outputs = ["dci_summary.json", "ensemble.csv", "updated_density.csv"]
    config = dci_config(tmp_path)
    assert cli.main(["dci", "--config", config]) == cli.EXIT_OK
    outdir = tmp_path / "dci"
    assert sorted(p.name for p in outdir.iterdir()) == sorted(outputs + ["manifest.json"])
    assert json.loads((outdir / "manifest.json").read_text())["outputs"] == outputs
    first = output_bytes(outdir)
    assert cli.main(["dci", "--config", config]) == cli.EXIT_OK
    assert output_bytes(outdir) == first

    summary = json.loads((outdir / "dci_summary.json").read_text())
    assert summary["sample_count"] == 300
    assert summary["design_rows"] == [0, ROD["elements"]]
    assert summary["design_coordinates"] == [[0.0], [1.0]]
    assert 0.0 < summary["acceptance_rate"] <= 1.0
    assert abs(summary["mean_ratio"] - 1.0) <= dci.DIAGNOSTIC_TOL
    assert summary["predictability_ok"] is True


def test_dci_reports_an_unpredictable_design(tmp_path):
    # Observed outputs 2.0 above any the initial density predicts: the mean
    # ratio falls far below 1, and the run still writes its report.
    rod = cli.build_model({"model": ROD})
    mean = rod.evaluate(rod.parameter_box.midpoint)[[0, ROD["elements"]]] + 2.0
    config = dci_config(tmp_path, observed={"kind": "gaussian", "mean": mean.tolist(),
                                            "cov": 0.15})
    with pytest.warns(dci.PredictabilityWarning) as warned:
        assert cli.main(["dci", "--config", config]) == cli.EXIT_OK
    assert len(warned) == 1
    summary = json.loads((tmp_path / "dci" / "dci_summary.json").read_text())
    assert abs(summary["mean_ratio"] - 1.0) > dci.DIAGNOSTIC_TOL
    assert summary["predictability_ok"] is False


def test_diag_is_not_a_subcommand(tmp_path, capsys, monkeypatch):
    # dci_summary.json carries the predictability verdict diag once wrote.
    forbid_solves(monkeypatch)
    config = write_config(tmp_path, "diag.json", dict(TASK_CONFIGS["dci"], task="diag"))
    with pytest.raises(SystemExit) as parsed:
        cli.main(["diag", "--config", config])
    assert parsed.value.code == cli.EXIT_CONFIG
    assert cli.main(["dci", "--config", config]) == cli.EXIT_CONFIG
    assert "task: config says 'diag'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::svoed.dci.PredictabilityWarning")
def test_dci_on_worker_processes_matches_serial(tmp_path, monkeypatch):
    pools, evaluate = [], sampling.evaluate_samples
    monkeypatch.setattr(sampling, "evaluate_samples",
                        lambda *a, **k: pools.append(k.get("workers")) or evaluate(*a, **k))
    config = write_config(tmp_path, "dci.json", {
        "task": "dci", "model": {"kind": "heat_plate_2d", "elements": 6, "time_steps": 8},
        "sampling": {"seed": 4},
        "dci": {"sensors": [[0.5, 0.5], [0.2, 0.8]], "count": 60, "seed": 3},
        "output_dir": "dci"})
    assert cli.main(["dci", "--config", config]) == cli.EXIT_OK
    serial = output_bytes(tmp_path / "dci")[0]
    assert cli.main(["dci", "--config", config, "--workers", "2"]) == cli.EXIT_OK
    assert output_bytes(tmp_path / "dci")[0] == serial
    assert pools == [None, 2]
    assert multiprocessing.active_children() == []


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs every run about 0.9 s of start-up and 40 MB; no
    # svoed module may import it.
    src = Path(cli.__file__).resolve().parents[1]
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, svoed.cli; print('scipy.stats' in sys.modules)"],
        cwd=src, capture_output=True, text=True, check=True, timeout=60).stdout
    assert loaded.strip() == "False"


SWEEP = {"task": "sweep", "model": ROD, "sampling": {"count": 4, "seed": 1}, "output_dir": "out"}


INF, NAN = float("inf"), float("nan")  # json.dumps writes Infinity and NaN
BIG = 10 ** 400  # an integer literal too large for a double
DCI = {"task": "dci", "model": ROD, "dci": {"sensors": [0.0, 1.0]}, "output_dir": "out"}


@pytest.mark.parametrize("command, text, fragment", [
    ("sweep", None, "config file not found"),
    ("sweep", "{not json", "not valid JSON"),
    ("sweep", "[1, 2]", "root must be a JSON object"),
    ("sweep", json.dumps(dict(SWEEP, task="oed")), "task: config says 'oed'"),
    ("sweep", json.dumps(dict(SWEEP, model={"kind": "synthetic"})),
     "model.kind: must be one of ['heat_rod_1d', 'heat_plate_2d'], got 'synthetic'"),
    ("sweep", json.dumps(dict(SWEEP, sampling={"seed": 1})), "sampling.count: missing"),
    ("sweep", json.dumps({k: v for k, v in SWEEP.items() if k != "output_dir"}),
     "output_dir: missing"),
    ("sweep", json.dumps(dict(SWEEP, sampling={"count": 4, "seed": "x"})),
     "sampling.seed: expected int"),
    ("sweep", json.dumps(dict(SWEEP, sampling={"count": 4, "seed": -1})),
     "sampling.seed: must be >= 0"),
    ("sweep", json.dumps(dict(SWEEP, sampling={"count": True})), "sampling.count: expected int"),
    ("sweep", json.dumps(dict(SWEEP, sampling={"count": 4,
                                                "box": [[0.01, 0.01], [0.2, 0.2], [9, 9]]})),
     "sampling.box: expected [lower, upper], got a list of 3"),
    ("sweep", json.dumps(dict(SWEEP, model=dict(ROD, t_final=INF))),
     "not valid JSON: Infinity is not a finite number"),
    ("sweep", json.dumps(dict(SWEEP, model=dict(ROD, t_final=NAN))),
     "not valid JSON: NaN is not a finite number"),
    ("sweep", json.dumps(dict(SWEEP, model=dict(ROD, t_final=1.0))).replace("1.0", "1e999"),
     "not valid JSON: 1e999 is not a finite number"),
    ("sweep", json.dumps(dict(SWEEP, sampling={"count": 4, "init": {
        "kind": "uniform-box", "lower": [0.01, 0.01], "upper": [0.1, INF]}})),
     "not valid JSON: Infinity is not a finite number"),
    ("sweep", json.dumps(dict(SWEEP, sampling={"count": 4, "init": {
        "kind": "gaussian", "mean": [NAN, 0.1], "cov": 0.01}})),
     "not valid JSON: NaN is not a finite number"),
    ("dci", json.dumps(dict(DCI, dci={"sensors": [0.0, 1.0], "observed": {
        "kind": "uniform-box", "lower": [-INF, 0.0], "upper": [1.0, 1.0]}})),
     "not valid JSON: -Infinity is not a finite number"),
    ("sweep", json.dumps(dict(SWEEP, model=dict(ROD, t_final=BIG))),
     f"not valid JSON: {BIG} is not a finite number"),
    ("sweep", json.dumps(dict(SWEEP, model=dict(ROD, time_steps=BIG))),
     f"not valid JSON: {BIG} is not a finite number"),
    ("sweep", json.dumps(dict(SWEEP, sampling={"count": 4, "box": [[0.01, 0.01], [0.2, BIG]]})),
     f"not valid JSON: {BIG} is not a finite number"),
], ids=["missing-file", "invalid-json", "root-not-object", "task-mismatch",
        "unknown-kind", "missing-count", "missing-output-dir", "seed-string", "seed-negative",
        "count-bool", "box-three-rows", "t-final-infinity", "t-final-nan", "t-final-overflow",
        "init-box-infinity", "init-mean-nan", "dci-observed-minus-infinity",
        "t-final-huge-int", "time-steps-huge-int", "box-huge-int"])
def test_config_error_exits_2_before_any_solve(command, text, fragment, tmp_path, capsys,
                                               monkeypatch):
    forbid_solves(monkeypatch)
    path = tmp_path / f"{command}.json"
    if text is not None:
        path.write_text(text)
    assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# A valid config for each reader of the settings table: a task, a model kind
# (the model of a sweep) or a density kind (the sampling.init of a sweep).
TASK_CONFIGS = {
    "sweep": SWEEP, "oed": dict(SWEEP, task="oed"),
    "greedy": dict(SWEEP, task="greedy", greedy={"m_target": 2}),
    "dci": DCI,
}
MODEL_SPECS = {"heat_rod_1d": ROD, "heat_plate_2d": {"kind": "heat_plate_2d", "elements": 3}}
DENSITY_SPECS = {"gaussian": {"kind": "gaussian", "mean": [0.1, 0.1], "cov": 0.01},
                 "uniform-box": {"kind": "uniform-box"},
                 "kde-from-samples": {"kind": "kde-from-samples", "samples": KDE_SAMPLES}}


def config_for(reader):
    """A valid config read by ``reader``, and the section its keys live in."""
    if reader in TASK_CONFIGS:
        cfg = json.loads(json.dumps(TASK_CONFIGS[reader]))
        return cfg, cfg, ""
    if reader in MODEL_SPECS:
        cfg = dict(SWEEP, model=dict(MODEL_SPECS[reader]))
        return cfg, cfg, ""
    init = dict(DENSITY_SPECS[reader])
    cfg = dict(SWEEP, sampling={"count": 4, "init": init})
    return cfg, init, "sampling.init."


def put(section, key, value):
    *parents, leaf = key.split(".")
    for part in parents:
        section = section.setdefault(part, {})
    section[leaf] = value


@pytest.mark.parametrize("key", list(cli._SETTINGS))
def test_misspelt_key_is_refused_before_any_solve(key, tmp_path, capsys, monkeypatch):
    # The misspelling doubles the last letter, in a config of the key's first reader.
    forbid_solves(monkeypatch)
    reader = cli._SETTINGS[key].readers[0]
    cfg, section, where = config_for(reader)
    put(section, key + key[-1], 1)
    config = write_config(tmp_path, "c.json", cfg)
    assert cli.main([cfg["task"], "--config", config]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{where}{key + key[-1]}: not a setting of {reader}" in err
    assert f"did you mean {where}{key}?" in err


@pytest.mark.parametrize("task, change, message", [
    # No kind reads model.name, so its hint is the nearest key, not its readers.
    ("sweep", {"model": dict(ROD, name="shear")},
     "model.name: not a setting of heat_rod_1d; did you mean model.kind?"),
    ("dci", {"design": {"arity": 1}}, "design.arity: not a setting of dci; read only by sweep, oed"),
    ("sweep", {"design": {"utility": "esk_inverse"}},
     "design.utility: not a setting of sweep; read only by oed"),
    ("sweep", {"greedy": {"m_target": 2}}, "greedy.m_target: not a setting of sweep; "
     "read only by greedy"),
    ("dci", {"sampling": {"count": 50}}, "sampling.count: not a setting of dci; "
     "read only by sweep, oed, greedy"),
], ids=["name-on-rod", "arity-on-dci", "utility-on-sweep", "greedy-on-sweep", "count-on-dci"])
def test_setting_of_another_reader_is_refused(task, change, message, tmp_path, capsys,
                                               monkeypatch):
    forbid_solves(monkeypatch)
    config = write_config(tmp_path, "c.json", dict(TASK_CONFIGS[task], **change))
    assert cli.main([task, "--config", config]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_removed_density_settings_are_refused_before_any_solve(tmp_path, capsys, monkeypatch):
    # sampling.init is the one initial density; the measure follows from it.
    forbid_solves(monkeypatch)
    for task, key, change in (
            ("sweep", "sampling.measure", {"sampling": {"count": 4, "measure": "initial"}}),
            ("dci", "dci.init", {"dci": {"sensors": [0.0, 1.0],
                                         "init": DENSITY_SPECS["gaussian"]}})):
        config = write_config(tmp_path, "c.json", dict(TASK_CONFIGS[task], **change))
        assert cli.main([task, "--config", config]) == cli.EXIT_CONFIG
        assert f"{key}: not a setting of {task}" in capsys.readouterr().err


def readme_settings():
    """(key, readers) of each row of the README's settings tables."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Settings\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
    return {cells[0].strip().strip("`"): cells[-1].strip() for cells in rows}


def test_readme_settings_reference_matches_the_table():
    assert readme_settings() == {key: ", ".join(setting.readers)
                                 for key, setting in cli._SETTINGS.items()}


def test_readme_json_examples_are_valid_configs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [block.split("\n```", 1)[0] for block in readme.split("```json\n")[1:]]
    assert blocks
    for block in blocks:
        cfg = json.loads(block)
        cli._settings(cfg, cfg["task"])
        cli.build_model(cfg)


def test_csv_writer_matches_csv_module(tmp_path, monkeypatch):
    # The oracle formats every cell on its own and lets csv.writer join them.
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 3)
    floats = np.array([-0.0, 5e-324, 1e308, -1.5e-310, 0.1, 1.0 / 3.0, np.inf, 2.0**60])
    ints = np.array([2**53 + 1, -(2**62), 0, 7, 2**63 - 1, -1, 3, 2**54 + 3], dtype=np.int64)
    designs = np.arange(16).reshape(8, 2)[::-1]
    labels = np.broadcast_to("volume", 8)
    header = ["design_id", "value", "count", "hm_measure"]
    cli._write_csv(tmp_path / "fast.csv", header, [designs, floats, ints, labels])

    with open(tmp_path / "oracle.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for design_rows, value, count, label in zip(designs, floats, ints, labels):
            writer.writerow(["-".join(map(str, design_rows)), f"{value:.17g}", str(count),
                             str(label)])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
