"""Batch command-line front end.

Subcommands:

* ``sweep``  - score every candidate design and emit one CSV row each
* ``oed``    - sweep plus a utility ranking and argmax summary
* ``greedy`` - sequential design; emits the full per-round trace
* ``dci``    - solve the inverse problem for one design
* ``diag``   - predictability diagnostic only (no rejection sampling)

Every run is driven by a single JSON config (paths inside it are resolved
relative to the config file) and writes a manifest echoing the resolved
config, its content hash and the seeds, so reruns are reproducible and
diffable.  Exit codes: 0 success, 2 config error, 3 numerical failure.
Settings are checked before the first model solve, so a config error
exits 2 without solving anything.  Every key a config may hold is declared
once, in ``_SETTINGS``; a key its task or kind does not read exits 2.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
import time
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__, criteria, dci, design, models, sampling

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

MANIFEST_SCHEMA_VERSION = 1

# Drawing from the initial density gives up after this many rounds of
# ``count`` draws, so a density with less than about 1/1000 of its mass in
# the box is reported instead of looping forever.
_MAX_DRAW_ROUNDS = 1000

# Exhaustive scoring is refused, before any solve and before the space is
# built, when candidates x samples exceeds this many kernel matrices.  The
# QR kernel scores about 1.0M (2, 9) and 2.7M (1, 9) matrices a second on
# one thread of a 2-vCPU host, so this is about 40 s at arity 2.  It admits
# the e99 plate at arity 1 with 1000 samples (1e7 matrices) and refuses its
# 49,995,000 pairs at any sample count.
_MAX_KERNEL_MATRICES = 4 * 10**7

# A field batch is refused, before any solve, when its Jacobians alone
# (N * P * n float64 values) would exceed this many bytes: half of an 8 GB
# host.  It admits the e99 plate at 1000 samples (720 MB) and refuses it at
# 6000 (4.3 GB).
_MAX_BATCH_BYTES = 4 * 2**30

# CSV rows are formatted this many at a time, so a file of millions of
# rows never holds all its cells as strings at once.
_CSV_BLOCK_ROWS = 1 << 16

logger = logging.getLogger(__name__)

_MISSING = object()


class ConfigError(Exception):
    """Invalid or missing run-configuration field; message names the path."""


# One config key: its JSON type (names of _TYPES joined by " or "), its
# default (_MISSING: required), the values it admits (a tuple of choices, or
# a lower bound such as ">= 1", on the length of a list) and its readers.
_Setting = namedtuple("_Setting", "type default allowed readers")
_TYPES = {"int": int, "number": (int, float), "string": str, "list": list, "object": dict}

_SCORING, _DCI = ("sweep", "oed", "greedy"), ("dci", "diag")
_TASK_NAMES = _SCORING + _DCI
_HEAT = ("heat_rod_1d", "heat_plate_2d")
_MODEL_KINDS = _HEAT + ("synthetic",)
_DENSITY_KINDS = ("gaussian", "uniform-box", "kde-from-samples")

# Every key a run config may hold, declared once.  Its readers are tasks;
# for the ``model`` section, model kinds; and for the keys of a density
# spec (``sampling.init``, ``dci.observed``), density kinds.
_SETTINGS = {
    "task": _Setting("string", _MISSING, _TASK_NAMES, _TASK_NAMES),
    "output_dir": _Setting("string", None, None, _TASK_NAMES),
    "sampling.seed": _Setting("int", 0, None, _TASK_NAMES),
    "sampling.box": _Setting("list", None, None, _TASK_NAMES),
    "sampling.count": _Setting("int", _MISSING, ">= 1", _SCORING),
    "sampling.init": _Setting("object", None, None, _TASK_NAMES),
    "sampling.batch_cache": _Setting("string", None, None, _SCORING),
    "design.arity": _Setting("int", 2, (1, 2), ("sweep", "oed")),
    "design.utility": _Setting("string", "ese_inverse", design.UTILITIES, ("oed",)),
    "tolerances.rank_tol": _Setting("number", 1e-12, ">= 0", _SCORING),
    "tolerances.greedy_tol": _Setting("number", 1e-3, "> 0", ("greedy",)),
    "greedy.m_target": _Setting("int", _MISSING, ">= 1", ("greedy",)),
    "dci.sensors": _Setting("list", _MISSING, ">= 1", _DCI),
    "dci.count": _Setting("int", 1000, ">= 2", _DCI),
    "dci.seed": _Setting("int", None, None, _DCI),
    "dci.bandwidth": _Setting("string", "silverman", ("silverman", "scott"), _DCI),
    "dci.observed": _Setting("object", {"kind": "gaussian", "mean": "model-midpoint",
                                        "cov": 0.15}, None, _DCI),
    "model.kind": _Setting("string", _MISSING, _MODEL_KINDS, _MODEL_KINDS),
    "model.elements": _Setting("int", None, None, _HEAT),
    "model.time_steps": _Setting("int", None, None, _HEAT),
    "model.t_final": _Setting("number", None, None, _HEAT),
    "model.name": _Setting("string", _MISSING, tuple(models.synthetic_maps()), ("synthetic",)),
    "kind": _Setting("string", _MISSING, _DENSITY_KINDS, _DENSITY_KINDS),
    "lower": _Setting("list", None, None, ("uniform-box",)),
    "upper": _Setting("list", None, None, ("uniform-box",)),
    "mean": _Setting("list or number", _MISSING, None, ("gaussian",)),
    "cov": _Setting("list or number", _MISSING, None, ("gaussian",)),
    "samples": _Setting("list", _MISSING, None, ("kde-from-samples",)),
    "bandwidth": _Setting("string", "silverman", ("silverman", "scott"), ("kde-from-samples",)),
}


def _flatten(section: dict, where: str = "") -> dict:
    """``section``'s values by dotted key, nested objects included."""
    flat = {}
    for name, value in section.items():
        key = where + name
        is_section = isinstance(value, dict) and key not in _SETTINGS
        flat.update(_flatten(value, key + ".") if is_section else {key: value})
    return flat


def _value(key: str, value, setting: _Setting):
    """``value`` checked against ``setting``, or its default when missing."""
    if value is _MISSING:
        if setting.default is _MISSING:
            raise ConfigError(f"{key}: missing required field")
        return setting.default
    types = tuple(_TYPES[name] for name in setting.type.split(" or "))
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{key}: expected {setting.type}, got {type(value).__name__}")
    if isinstance(setting.allowed, tuple) and value not in setting.allowed:
        raise ConfigError(f"{key}: must be one of {list(setting.allowed)}, got {value!r}")
    if isinstance(setting.allowed, str):
        op, bound = setting.allowed.split()
        size = len(value) if isinstance(value, list) else value
        if not (size > float(bound) if op == ">" else size >= float(bound)):
            raise ConfigError(f"{key}: {'length ' if isinstance(value, list) else ''}must be "
                              f"{setting.allowed}, got {value!r}")
    return value


def _read(flat: dict, kind_key: str, where: str = "") -> dict:
    """The settings the kind at ``kind_key`` reads from the flattened section
    ``flat``, defaults filled in; any other key is refused, naming the
    nearest one it reads.  Messages put ``where`` before each key."""
    kind = _value(where + kind_key, flat.get(kind_key, _MISSING), _SETTINGS[kind_key])
    read = {key: setting for key, setting in _SETTINGS.items() if kind in setting.readers}
    for key in [key for key in flat if key not in read]:
        import difflib  # only on a refusal, so no run's start-up pays for it
        near = difflib.get_close_matches(key, list(read), n=1)
        hint = (f"read only by {', '.join(_SETTINGS[key].readers)}" if key in _SETTINGS
                else f"did you mean {where}{near[0]}?" if near else "no such setting")
        raise ConfigError(f"{where}{key}: not a setting of {kind}; {hint}")
    return {key: _value(where + key, flat.get(key, _MISSING), setting)
            for key, setting in read.items()}


def _settings(cfg: dict, task: str, paper_scale: bool = False) -> dict:
    """Every setting ``task`` reads outside the ``model`` section."""
    flat = _flatten({name: value for name, value in cfg.items() if name != "model"})
    if flat.setdefault("task", task) != task:
        raise ConfigError(
            f"task: config says {flat['task']!r} but the {task!r} subcommand was invoked")
    if paper_scale and task in _SCORING:
        flat["sampling.count"] = 1000
    return _read(flat, "task")


def load_config(path: Path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def build_model(cfg: dict, paper_scale: bool = False):
    """The model of ``cfg["model"]``.  Only the keys given reach its
    constructor, so an absent one takes the model's own default."""
    settings = _read(_flatten({"model": cfg.get("model", {})}), "model.kind")
    kind = settings["model.kind"]
    if paper_scale and kind != "heat_plate_2d":
        raise ConfigError(f"--paper-scale: only heat_plate_2d has a paper scale, not {kind}")
    if kind == "synthetic":
        return models.synthetic_maps()[settings["model.name"]]
    model, elements = ((models.HeatRod1D, "elements") if kind == "heat_rod_1d"
                       else (models.HeatPlate2D, "elements_per_axis"))
    given = {elements: 99 if paper_scale else settings["model.elements"],
             "time_steps": settings["model.time_steps"], "t_final": settings["model.t_final"]}
    try:
        return model(**{name: value for name, value in given.items() if value is not None})
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _build_box(spec, model) -> sampling.ParameterBox:
    """``sampling.box``, which must lie inside the model's parameter box."""
    admissible = model.parameter_box
    if spec is None:
        return admissible
    try:
        box = sampling.ParameterBox(spec[0], spec[1])
    except (IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"sampling.box: {exc}") from exc
    if (box.dim != admissible.dim or np.any(box.lower < admissible.lower)
            or np.any(box.upper > admissible.upper)):
        raise ConfigError(
            f"sampling.box: {[box.lower.tolist(), box.upper.tolist()]} is not inside the "
            f"model's parameter box {[admissible.lower.tolist(), admissible.upper.tolist()]}")
    return box


def build_density(spec: dict, field_path: str, default_box=None) -> dci.Density:
    """The density ``spec`` describes; a bad field raises a ConfigError
    naming it under ``field_path``."""
    fields = _read(_flatten(spec), "kind", field_path + ".")
    try:
        if fields["kind"] == "uniform-box":
            missing = [bound for bound in ("lower", "upper") if fields[bound] is None]
            if len(missing) == 2 and default_box is not None:
                return dci.UniformBoxDensity(default_box)
            if missing:
                raise ConfigError(f"{field_path}.{missing[0]}: uniform-box needs lower and upper")
            return dci.UniformBoxDensity(sampling.ParameterBox(fields["lower"], fields["upper"]))
        if fields["kind"] == "gaussian":
            return dci.GaussianDensity(np.atleast_1d(fields["mean"]), fields["cov"])
        return dci.KdeDensity(np.asarray(fields["samples"], dtype=float),
                              bandwidth_rule=fields["bandwidth"])
    except ValueError as exc:
        raise ConfigError(f"{field_path}: {exc}") from exc


def _draw_initial(density, box, count, seed) -> np.ndarray:
    """``count`` points drawn from the initial ``density`` with ``seed``,
    those outside ``box`` rejected: the points of every task."""
    rng = np.random.default_rng(seed)
    points = np.empty((count, box.dim))
    filled = 0
    for _ in range(_MAX_DRAW_ROUNDS):
        block = density.sample(rng, count)
        keep = block[box.contains(block)]
        take = min(count - filled, keep.shape[0])
        points[filled : filled + take] = keep[:take]
        filled += take
        if filled == count:
            return points
    raise ConfigError(
        f"sampling.init: only {filled} of {_MAX_DRAW_ROUNDS * count} draws fell in the "
        f"box, {count} needed; the init density has almost no mass there"
    )


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _hm_measure(settings) -> str:
    """The measure the samples are drawn from, as ``hm_measure`` names it."""
    return "volume" if settings["sampling.init"] is None else "initial"


def _batch_recipe(settings, model, box, seed) -> str:
    """SHA-256 of everything that determines the field batch."""
    recipe = {"count": settings["sampling.count"], "measure": _hm_measure(settings),
              "init": settings["sampling.init"]}
    return _sha256(dict(recipe, model_id=model.model_id, t_final=getattr(model, "t_final", None),
                        seed=seed, box=[box.lower.tolist(), box.upper.tolist()]))


def _batch_key(settings, model, box, seed) -> str:
    """The batch cache key: the recipe and the batch schema."""
    return _sha256([_batch_recipe(settings, model, box, seed), sampling.BATCH_SCHEMA_VERSION])


class _Run(dict):
    """One run: its settings by dotted key, and the model, box, initial
    density, seed and output directory every task starts from, all checked
    before any solve."""

    def __init__(self, cfg: dict, args, base_dir: Path):
        if args.workers is not None and args.workers < 1:
            raise ConfigError(f"--workers: must be at least 1, got {args.workers}")
        super().__init__(_settings(cfg, args.command, args.paper_scale))
        self.model = build_model(cfg, paper_scale=args.paper_scale)
        self.workers = args.workers
        cache = self.get("sampling.batch_cache")  # read by the scoring tasks only
        self.cache_path = None if cache is None else base_dir / cache
        self.seed = args.seed if args.seed is not None else self["sampling.seed"]
        if not args.out and self["output_dir"] is None:
            raise ConfigError("output_dir: missing required field (or pass --out)")
        self.outdir = Path(args.out) if args.out else base_dir / self["output_dir"]
        self.box = _build_box(self["sampling.box"], self.model)
        init = self["sampling.init"]
        self.density = build_density({"kind": "uniform-box"} if init is None else init,
                                     "sampling.init", default_box=self.box)
        if self.density.dim != self.box.dim:
            raise ConfigError(f"sampling.init: a density on {self.density.dim} parameters for "
                              f"a model of {self.box.dim}")
        self.outdir.mkdir(parents=True, exist_ok=True)


def _statistics_path(cache_path: Path) -> Path:
    """The per-candidate statistics sidecar of a batch cache."""
    return cache_path.with_suffix(".stats.npz")


def _field_batch(run) -> sampling.FieldJacobianBatch:
    """The field batch, from ``sampling.batch_cache`` when it holds this
    recipe's, else solved at samples drawn from the initial density.
    Writing a batch drops its statistics sidecar, so the sidecar never
    outlives its batch."""
    cache_path = run.cache_path
    if cache_path is not None:
        key = _batch_key(run, run.model, run.box, run.seed)
        if cache_path.exists():
            try:
                return sampling.load_batch(cache_path, key)
            except ValueError as exc:
                logger.warning("recomputing batch cache %s: %s", cache_path, exc)
    samples = sampling.SampleSet(
        _draw_initial(run.density, run.box, run["sampling.count"], run.seed))
    batch = sampling.estimate_field_jacobians(run.model, samples, workers=run.workers)
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        _statistics_path(cache_path).unlink(missing_ok=True)
        sampling.save_batch(batch, cache_path, key)
    return batch


def _design_space(model, arity, count) -> design.DesignSpace:
    """The exhaustive design space, refused before it is built if scoring
    it over ``count`` samples would exceed the kernel budget."""
    size = model.field_size
    candidates = size if arity == 1 else size * (size - 1) // 2
    matrices = candidates * count
    if matrices > _MAX_KERNEL_MATRICES:
        raise ConfigError(
            f"design.arity: {candidates} candidates over the sample make {matrices} kernel "
            f"matrices, more than the {_MAX_KERNEL_MATRICES} this tool scores in one run; "
            "use 'svoed greedy' or design.arity: 1")
    space = design.scalar_space if arity == 1 else design.pair_space
    return space(size, coordinates=model.coordinates)


def _scoring_inputs(run, arity):
    """The prologue every scoring task shares: the checks that depend on the
    model, then the space, and only then the batch, so that a config error
    costs no solve."""
    count, model = run["sampling.count"], run.model
    batch_bytes = count * model.field_size * model.n_params * 8
    if batch_bytes > _MAX_BATCH_BYTES:
        raise ConfigError(
            f"sampling.count: {count} samples of {model.field_size} field values "
            f"and {model.n_params} parameters make a {batch_bytes}-byte Jacobian batch, more "
            f"than the {_MAX_BATCH_BYTES} bytes this tool holds in one run")
    space = _design_space(model, arity, count)
    return space, _field_batch(run)


def _exhaustive(run, utility="ese_inverse"):
    """Every candidate's statistics, ranked by ``utility``: the scoring
    prologue of ``sweep`` and ``oed``.

    With a batch cache, the (C, 5) statistics are kept in a sidecar next to
    it, keyed on the batch key, the arity, ``rank_tol`` and the statistics
    columns: everything the rows depend on.  A later run with the same key
    ranks the stored rows instead of running the kernels; any other
    sidecar, or one of another shape or with negative values, is
    recomputed and overwritten.
    """
    arity, rank_tol = run["design.arity"], run["tolerances.rank_tol"]
    space, batch = _scoring_inputs(run, arity)
    if run.cache_path is None:
        return design.exhaustive_oed(space, batch, utility, rank_tol)
    sidecar = _statistics_path(run.cache_path)
    key = _sha256([_batch_key(run, run.model, run.box, run.seed), arity, float(rank_tol),
                   criteria.STATISTICS])
    if sidecar.exists():
        try:
            (stats,) = sampling.load_arrays(sidecar, key, ["statistics"])
            if stats.shape != (len(space), len(criteria.STATISTICS)) or np.any(stats < 0.0):
                raise ValueError(f"statistics of shape {stats.shape} or with negative values")
            return design.rank_designs(space, stats, utility)
        except ValueError as exc:
            logger.warning("recomputing statistics cache %s: %s", sidecar, exc)
    result = design.exhaustive_oed(space, batch, utility, rank_tol)
    sampling.save_arrays(sidecar, key, statistics=result.reports)
    return result


def _coordinate_rows(model, rows) -> list:
    return model.coordinates.reshape(model.field_size, -1)[list(rows)].tolist()


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _design_id(rows) -> str:
    return "-".join(map(str, rows))


def _cells(column: np.ndarray) -> list[str]:
    """CSV cells of one block of a column.  Floats are written as ``.17g``,
    so identical inputs give identical files; each row of a 2-D column is
    the :func:`_design_id` of its field rows; anything else goes through
    ``str``."""
    if column.ndim == 2:
        return [_design_id(row) for row in column.tolist()]
    if column.dtype.kind == "f":
        return [f"{v:.17g}" for v in column.tolist()]
    return [str(v) for v in column.tolist()]


def _write_csv(path: Path, header: list[str], columns) -> None:
    """One CSV row per entry of the equal-length array ``columns``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            writer.writerows(zip(*(_cells(c[block]) for c in columns)))


def run_sweep(run) -> list[str]:
    result = _exhaustive(run)
    space, stats = result.space, result.reports
    coords = space.index_geometry
    header = [f"c{i}" for i in range(coords.shape[1])] + ["design_id"]
    header += [*criteria.STATISTICS[:4], "sample_count", criteria.STATISTICS[4], "hm_measure"]
    _write_csv(run.outdir / "sweep.csv", header, [
        *coords.T, space.candidates, *stats[:, :4].T,
        np.broadcast_to(run["sampling.count"], len(space)), stats[:, 4].astype(np.int64),
        np.broadcast_to(_hm_measure(run), len(space))])
    return ["sweep.csv"]


def run_oed(run) -> list[str]:
    utility, model = run["design.utility"], run.model
    result = _exhaustive(run, utility)
    space = result.space
    ranked = result.reports[result.order]
    coords = space.index_geometry[result.order]
    header = ["rank", "design_id"] + [f"c{i}" for i in range(coords.shape[1])]
    _write_csv(run.outdir / "ranking.csv", header + list(criteria.STATISTICS), [
        np.arange(len(space)), space.candidates[result.order], *coords.T,
        *ranked[:, :4].T, ranked[:, 4].astype(np.int64)])
    values = result.reports[:, design.UTILITIES.index(utility)]
    summary = {
        "schema_version": 1,
        "utility": utility,
        "best_design_id": _design_id(result.best_candidate),
        "best_candidate": list(result.best_candidate),
        "best_value": float(values[result.best_index]),
        "candidate_count": len(space),
    }
    if space.arity == 2 and model.coordinates.ndim == 1:
        grid = design.pair_score_grid(space, values, model.field_size)
        peaks = design.local_maxima(grid)
        summary["local_maxima"] = [
            {"rows": [i, j],
             "coordinates": [model.coordinates[i], model.coordinates[j]],
             "value": grid[i, j]}
            for i, j in peaks if i > j
        ]
    _write_json(run.outdir / "oed_summary.json", summary)
    return ["ranking.csv", "oed_summary.json"]


def run_greedy(run) -> list[str]:
    tol = run["tolerances.greedy_tol"]
    space, batch = _scoring_inputs(run, arity=1)
    trace = design.greedy_oed(space, batch, m_target=run["greedy.m_target"], tol=tol,
                              rank_tol=run["tolerances.rank_tol"])
    coords = space.index_geometry
    design.trace_to_json(trace, run.outdir / "greedy_trace.json", coordinates=coords)
    outputs = ["greedy_trace.json", "greedy_summary.json"]
    header = ["candidate"] + [f"c{i}" for i in range(coords.shape[1])]
    for rnd in trace.rounds:
        name = f"greedy_round_{rnd.round_index:02d}.csv"
        _write_csv(run.outdir / name, header + [rnd.utility],
                   [np.arange(len(space)), *coords.T, rnd.scores])
        outputs.append(name)
    _write_json(run.outdir / "greedy_summary.json", {
        "schema_version": 1,
        "selected_rows": list(trace.selected),
        "selected_coordinates": _coordinate_rows(run.model, trace.selected),
        "stop_reason": trace.stop_reason,
        "rounds_run": len(trace.rounds),
        "tol": tol,
    })
    return outputs


def _dci_ensemble(run):
    """Design rows, the weighted ensemble of :func:`dci.dci_weights` and
    the DCI seed.

    Every setting is checked, and the initial points drawn, before the
    first solve: the one at the model midpoint, whose outputs an observed
    density at ``model-midpoint`` is centred on.
    """
    model, box, sensors = run.model, run.box, run["dci.sensors"]
    try:
        rows = tuple(model.nearest_field_index(s) for s in sensors)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"dci.sensors: {exc}") from exc
    if len(set(rows)) < len(rows):
        # Two equal output rows make the predicted kernel density singular.
        raise ConfigError(f"dci.sensors: {sensors} resolve to field rows {list(rows)}, "
                          "and each row may be observed only once")
    if len(rows) > model.n_params:
        raise ConfigError(f"dci.sensors: {len(rows)} sensors, more than the model's "
                          f"{model.n_params} parameters")
    obs_spec = run["dci.observed"]
    midpoint = obs_spec.get("kind") == "gaussian" and obs_spec.get("mean") == "model-midpoint"
    if midpoint:
        # Checks the covariance on a zero mean of the right length first.
        build_density(dict(obs_spec, mean=[0.0] * len(rows)), "dci.observed")
    seed = run.seed if run["dci.seed"] is None else run["dci.seed"]
    points = _draw_initial(run.density, box, run["dci.count"], seed)
    if midpoint:
        obs_spec = dict(obs_spec, mean=model.evaluate(box.midpoint)[list(rows)].tolist())
    observed = build_density(obs_spec, "dci.observed")
    return rows, dci.dci_weights(model, rows, points, observed, run["dci.bandwidth"],
                                 run.workers), seed


def run_dci(run) -> list[str]:
    rows, weighted, seed = _dci_ensemble(run)
    # Its own seed, so the two random streams stay independent.
    ensemble = dci.rejection_sample(weighted, seed + 1)
    points, qoi = ensemble.points, ensemble.qoi
    header = [f"lambda_{j + 1}" for j in range(points.shape[1])]
    header += [f"q_{k + 1}" for k in range(qoi.shape[1])] + ["ratio", "accepted"]
    _write_csv(run.outdir / "ensemble.csv", header, [
        *points.T, *qoi.T, ensemble.weights, ensemble.accepted.astype(np.int64)])
    summary = ensemble.summary()
    summary["design_rows"] = list(rows)
    summary["design_coordinates"] = _coordinate_rows(run.model, rows)
    _write_json(run.outdir / "dci_summary.json", summary)
    outputs = ["ensemble.csv", "dci_summary.json"]
    if run.model.n_params == 2:
        x, y, values = dci.updated_density_grid(ensemble, run.box)
        _write_csv(run.outdir / "updated_density.csv", ["lambda_1", "lambda_2", "density"],
                   [np.repeat(x, y.size), np.tile(y, x.size), values.ravel()])
        outputs.append("updated_density.csv")
    return outputs


def run_diag(run) -> list[str]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dci.PredictabilityWarning)
        rows, ensemble, _ = _dci_ensemble(run)
    summary = ensemble.summary()
    summary["design_rows"] = list(rows)
    summary["predictability_ok"] = bool(
        abs(ensemble.mean_ratio - 1.0) <= dci.DIAGNOSTIC_TOL
    )
    _write_json(run.outdir / "diagnostics.json", summary)
    return ["diagnostics.json"]


# Each subcommand's runner and help.
_TASKS = {
    "sweep": (run_sweep, "score every candidate design"),
    "oed": (run_oed, "rank designs by a utility and report the argmax"),
    "greedy": (run_greedy, "sequential component-by-component design"),
    "dci": (run_dci, "solve the inverse problem for one design"),
    "diag": (run_diag, "predictability diagnostic for one design"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svoed",
        description="Design-criterion sweeps, greedy sensor placement and "
                    "data-consistent inversion from one JSON run config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _TASKS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="override sampling seed")
        p.add_argument("--workers", type=int, default=None,
                       help="thread workers for model evaluations (default: serial)")
        p.add_argument("--paper-scale", action="store_true",
                       help="full-resolution settings for the 2-D plate model")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config_path = Path(args.config).resolve()
        cfg = load_config(config_path)
        run = _Run(cfg, args, config_path.parent)
        outputs = _TASKS[args.command][0](run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (sampling.ModelEvaluationError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    _write_json(run.outdir / "manifest.json", {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "tool_version": __version__,
        "task": args.command,
        "config_sha256": _sha256(cfg),
        "config": cfg,
        "seed_used": run.seed,
        "workers": run.workers,
        "paper_scale": bool(args.paper_scale),
        "outputs": sorted(outputs),
        "elapsed_seconds": round(time.perf_counter() - started, 3),
    })
    print(f"{args.command}: wrote {', '.join(sorted(outputs) + ['manifest.json'])} "
          f"to {run.outdir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
