"""Command-line runs end to end on small rod configs."""

import csv
import json

import numpy as np
import pytest

from svoed import cli, design, models, sampling

ROD = {"kind": "heat_rod_1d", "elements": 10, "time_steps": 5}


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_greedy_writes_trace_summary_rounds_and_manifest(tmp_path):
    config = write_config(tmp_path, "greedy.json", {
        "task": "greedy", "model": ROD, "sampling": {"count": 6, "seed": 3},
        "greedy": {"m_target": 2}, "output_dir": "out"})
    assert cli.main(["greedy", "--config", config]) == cli.EXIT_OK

    out = tmp_path / "out"
    trace = json.loads((out / "greedy_trace.json").read_text())
    summary = json.loads((out / "greedy_summary.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert summary["selected_rows"] == trace["selected"]
    assert summary["rounds_run"] == len(trace["rounds"]) == 2
    assert manifest["task"] == "greedy"
    assert manifest["outputs"] == sorted(["greedy_trace.json", "greedy_summary.json",
                                          "greedy_round_01.csv", "greedy_round_02.csv"])
    for rnd in trace["rounds"]:
        with open(out / f"greedy_round_{rnd['round']:02d}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["candidate", "c0", rnd["utility"]]
        assert len(rows) == 1 + ROD["elements"] + 1
        assert [float(r[-1]) for r in rows[1:]] == rnd["scores"]


def test_paper_scale_builds_the_99_element_plate():
    plate = cli.build_model({"model": {"kind": "heat_plate_2d"}}, paper_scale=True)
    assert plate.field_size == 100 * 100


def test_plate_with_100_elements_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, "oed.json", {
        "task": "oed", "model": {"kind": "heat_plate_2d", "elements": 100},
        "sampling": {"count": 2}, "output_dir": "out"})
    assert cli.main(["oed", "--config", config]) == cli.EXIT_CONFIG
    assert "multiple of 3" in capsys.readouterr().err


def cache_config(tmp_path, task, count):
    return write_config(tmp_path, f"{task}.json", {
        "task": task, "model": ROD,
        "sampling": {"count": count, "seed": 5, "batch_cache": "cache/batch.npz"},
        "design": {"arity": 1}, "output_dir": task})


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
    assert sampling.load_batch(tmp_path / "cache" / "batch.npz").count == 7


def test_cache_of_an_older_schema_is_recomputed(tmp_path, monkeypatch, caplog):
    solves, loads = [], []
    estimate, load = sampling.estimate_field_jacobians, sampling.load_batch
    monkeypatch.setattr(sampling, "estimate_field_jacobians",
                        lambda *a, **k: solves.append(1) or estimate(*a, **k))
    monkeypatch.setattr(sampling, "load_batch", lambda *a, **k: loads.append(1) or load(*a, **k))

    assert cli.main(["oed", "--config", cache_config(tmp_path, "oed", 4)]) == 0
    assert cli.main(["sweep", "--config", cache_config(tmp_path, "sweep", 4)]) == 0
    assert (len(solves), len(loads)) == (1, 1)
    cache = tmp_path / "cache" / "batch.npz"
    assert load(cache).fd_step is None

    # A schema-2 file (forward differences) at the same path.
    with np.load(cache) as data:
        arrays = dict(data)
    header = json.loads(str(arrays["header"]))
    header["schema_version"] = 2
    header["fd_step"] = 1e-5
    arrays["header"] = np.array(json.dumps(header))
    np.savez_compressed(cache, **arrays)

    assert cli.main(["sweep", "--config", cache_config(tmp_path, "sweep", 4)]) == 0
    assert len(solves) == 2
    assert "unsupported batch schema: 2" in caplog.text
    assert load(cache).fd_step is None


def test_model_failure_is_a_numerical_failure(tmp_path, capsys):
    # The init density puts about half its mass at negative conductivities.
    config = write_config(tmp_path, "dci.json", {
        "task": "dci", "model": ROD, "sampling": {"seed": 1},
        "dci": {"sensors": [0.0, 1.0], "count": 50,
                "init": {"kind": "gaussian", "mean": [0.02, 0.1], "cov": 0.01}},
        "output_dir": "out"})
    assert cli.main(["dci", "--config", config]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "model evaluation failed at sample" in err
    assert "conductivities must be finite and positive" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


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
    for owner, name in ((sampling, "evaluate_samples"), (models.HeatRod1D, "_march"),
                        (models.HeatPlate2D, "_march"), (design, "scalar_space"),
                        (design, "pair_space")):
        monkeypatch.setattr(owner, name, None)


def test_unsupported_arity_is_a_config_error_before_any_solve(tmp_path, capsys, monkeypatch):
    forbid_solves(monkeypatch)
    config = write_config(tmp_path, "oed.json", {
        "task": "oed", "model": ROD, "sampling": {"count": 50, "seed": 1},
        "design": {"arity": 3}, "output_dir": "out"})
    assert cli.main(["oed", "--config", config]) == cli.EXIT_CONFIG
    assert "design.arity" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    {"bandwidth": "foo"}, {"count": "many"}, {"seed": 1.5},
    {"observed": {"kind": "gaussian", "mean": "model-midpoint", "cov": -1}},
], ids=["bandwidth", "count", "seed", "observed"])
def test_dci_setting_is_a_config_error_before_any_solve(setting, tmp_path, capsys,
                                                         monkeypatch):
    forbid_solves(monkeypatch)
    config = write_config(tmp_path, "dci.json", {
        "task": "dci", "model": ROD, "sampling": {"seed": 2},
        "dci": {"sensors": [0.0, 1.0], "count": 300, **setting}, "output_dir": "out"})
    assert cli.main(["dci", "--config", config]) == cli.EXIT_CONFIG
    assert f"dci.{next(iter(setting))}" in capsys.readouterr().err


def test_paper_scale_pairs_are_refused_before_the_batch_and_the_space(tmp_path, capsys,
                                                                       monkeypatch):
    # 49,995,000 pairs of the e99 plate over 1000 samples: refused before any
    # solve and before the candidate array is allocated.
    forbid_solves(monkeypatch)
    config = write_config(tmp_path, "oed.json", {
        "task": "oed", "model": {"kind": "heat_plate_2d"}, "output_dir": "out"})
    assert cli.main(["oed", "--config", config, "--paper-scale"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "49995000 candidates" in err and "greedy" in err


@pytest.mark.parametrize("settings, digest", [
    ({"count": 7}, "d4c51dc2fb249a239cb63b6d67472622db70054da04e45921f46a1b9726c091c"),
    ({"count": 7, "measure": "initial",
      "init": {"kind": "gaussian", "mean": [0.1, 0.12], "cov": 0.002}},
     "c13e7f53561c6d505af7c1e2a4d2706c3104c2d52abfdf2f8ef84bde8cd8014d"),
], ids=["volume", "initial"])
def test_batch_recipe_digest_is_unchanged(settings, digest):
    # The cache key of earlier versions: a new digest would make every
    # batch cache already on disk stale.
    rod = models.HeatRod1D(elements=10, time_steps=5)
    read = cli._sampling_settings({"sampling": settings})
    assert cli._batch_recipe(read, rod, rod.parameter_box, 5) == digest


def test_fd_step_setting_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, "sweep.json", {
        "task": "sweep", "model": ROD, "sampling": {"count": 4, "fd_step": 1e-4},
        "design": {"arity": 1}, "output_dir": "out"})
    assert cli.main(["sweep", "--config", config]) == cli.EXIT_CONFIG
    assert "sampling.fd_step" in capsys.readouterr().err


def test_init_density_without_mass_in_the_box_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, "sweep.json", {
        "task": "sweep", "model": ROD,
        "sampling": {"count": 5, "measure": "initial",
                     "init": {"kind": "gaussian", "mean": [5.0, 5.0], "cov": 0.01}},
        "design": {"arity": 1}, "output_dir": "out"})
    assert cli.main(["sweep", "--config", config]) == cli.EXIT_CONFIG
    assert "almost no mass" in capsys.readouterr().err


def test_init_density_with_mass_in_the_box_fills_the_sample():
    cfg = {"sampling": {"count": 50, "measure": "initial",
                        "init": {"kind": "gaussian", "mean": [0.1, 0.1], "cov": 0.01}}}
    box = sampling.ParameterBox([0.01, 0.01], [0.2, 0.2])
    samples = cli._draw_criteria_samples(cli._sampling_settings(cfg), box, seed=1)
    assert samples.count == 50
    assert np.all(box.contains(samples.points))


def dci_config(tmp_path, task):
    return write_config(tmp_path, f"{task}.json", {
        "task": task, "model": ROD, "sampling": {"seed": 2},
        "dci": {"sensors": [0.0, 1.0], "count": 300, "seed": 9}, "output_dir": task})


def output_bytes(outdir):
    files = {p.name: p.read_bytes() for p in outdir.iterdir() if p.name != "manifest.json"}
    manifest = json.loads((outdir / "manifest.json").read_text())
    del manifest["elapsed_seconds"]
    return files, manifest


def test_dci_and_diag_on_the_rod(tmp_path):
    expected = {"dci": {"ensemble.csv", "dci_summary.json", "updated_density.csv"},
                "diag": {"diagnostics.json"}}
    for task, outputs in expected.items():
        config = dci_config(tmp_path, task)
        assert cli.main([task, "--config", config]) == cli.EXIT_OK
        outdir = tmp_path / task
        assert {p.name for p in outdir.iterdir()} == outputs | {"manifest.json"}
        assert json.loads((outdir / "manifest.json").read_text())["outputs"] == sorted(outputs)
        first = output_bytes(outdir)
        assert cli.main([task, "--config", config]) == cli.EXIT_OK
        assert output_bytes(outdir) == first

    summary = json.loads((tmp_path / "dci" / "dci_summary.json").read_text())
    diagnostics = json.loads((tmp_path / "diag" / "diagnostics.json").read_text())
    assert summary["sample_count"] == diagnostics["sample_count"] == 300
    assert diagnostics["mean_ratio"] == summary["mean_ratio"]
    assert diagnostics["design_rows"] == summary["design_rows"] == [0, ROD["elements"]]
    assert 0.0 < summary["acceptance_rate"] <= 1.0
