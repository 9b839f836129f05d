"""Batch command-line front end.

Subcommands:

* ``sweep``  - score every candidate design and emit one CSV row each
* ``oed``    - sweep plus a utility ranking and argmax summary
* ``greedy`` - sequential design; emits the full per-round trace
* ``dci``    - solve the inverse problem for one design and judge its
  predictability

Every run is driven by a single JSON config (paths inside it are resolved
relative to the config file) and writes a manifest echoing the config as
read, without defaults or options (the seed used is ``seed_used``), and its
content hash, so reruns are reproducible and diffable.  Exit codes: 0
success, 2 config error, 3 numerical failure.  Every task starts from one
prologue, ``_Run``, which checks every setting before it draws the samples
and makes the output directory, so a config error exits 2 without solving
anything.  Every key a config may hold is declared
once, in ``_SETTINGS``; a key its task or kind does not read exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import operator
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__, criteria, dci, design, models, sampling

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Schema 2: no ``paper_scale`` key.
MANIFEST_SCHEMA_VERSION = 2

# Exhaustive scoring is refused, before any solve and before the space is
# built, when candidates x samples exceeds this many kernel matrices.  On a
# 2-vCPU host the candidate scoring handles about 8.8-9.4M (2, 9) matrices
# a second at 86 samples and 5.0-5.8M at 1000 on one thread, 10.2-10.8M
# and 6.0M on both, and about 13M (1, 9) on either, so this is 4-8 s at
# arity 2 on one CPU and 4-7 s on two.
# It admits the e99 plate at arity 1 with 1000 samples (1e7 matrices) and
# refuses its 49,995,000 pairs at any sample count.
_MAX_KERNEL_MATRICES = 4 * 10**7

# A field batch is refused, before any solve, when its Jacobians alone
# (N * P * n float64 values) would exceed this many bytes: half of an 8 GB
# host.  It admits the e99 plate at 1000 samples (720 MB) and refuses it at
# 6000 (4.3 GB).
_MAX_BATCH_BYTES = 4 * 2**30

# Peak bytes per element while a model is built, as tracemalloc saw them
# (plate: 1491-1499 at 99 to 297 elements per axis; rod: 96 at 1e5 and 1e6),
# and the axes ``model.elements`` counts along.  A mesh over _MAX_BATCH_BYTES
# (a plate of 1700 elements per axis, a rod of 4.5e7) is refused unbuilt.
_BUILD_BYTES = {"heat_rod_1d": (96, 1), "heat_plate_2d": (1500, 2)}

# A DCI run is refused, before any solve, when ``dci.count`` exceeds this.
# The predicted kernel density is evaluated at every sample over every
# sample, count**2 pairs: about 15.25M pairs in 55 ms on a 2-vCPU host with
# two threads, so the 1e10 pairs of 1e5 samples take about 36 s.
_MAX_DCI_COUNT = 10**5

# CSV rows are formatted this many at a time, so a file of millions of
# rows never holds all its cells as strings at once.
_CSV_BLOCK_ROWS = 1 << 16

logger = logging.getLogger(__name__)

_MISSING = object()


class ConfigError(Exception):
    """Invalid or missing run-configuration field; message names the path."""


# One config key: its JSON type (names of _TYPES joined by " or "), its
# default (_MISSING: required), the values it admits (a tuple of choices, or
# bounds such as ">= 1" or ">= 0 and < 1", on the length of a list) and its
# readers.
_Setting = namedtuple("_Setting", "type default allowed readers")
_TYPES = {"int": int, "number": (int, float), "string": str, "list": list, "object": dict}
_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt}

_SCORING, _DCI = ("sweep", "oed", "greedy"), ("dci",)
_TASK_NAMES = _SCORING + _DCI
_HEAT = ("heat_rod_1d", "heat_plate_2d")
_DENSITY_KINDS = ("gaussian", "uniform-box", "kde-from-samples")

# Every key a run config may hold, declared once.  Its readers are tasks;
# for the ``model`` section, model kinds; and for the keys of a density
# spec (``sampling.init``, ``dci.observed``), density kinds.
_SETTINGS = {
    "task": _Setting("string", _MISSING, _TASK_NAMES, _TASK_NAMES),
    "output_dir": _Setting("string", None, None, _TASK_NAMES),
    "sampling.seed": _Setting("int", 0, ">= 0", _TASK_NAMES),
    "sampling.box": _Setting("list", None, None, _TASK_NAMES),
    "sampling.count": _Setting("int", _MISSING, ">= 1", _SCORING),
    "sampling.init": _Setting("object", None, None, _TASK_NAMES),
    "sampling.batch_cache": _Setting("string", None, None, _SCORING),
    "design.arity": _Setting("int", 2, (1, 2), ("sweep", "oed")),
    "design.utility": _Setting("string", "ese_inverse", design.UTILITIES, ("oed",)),
    # sigma_min <= sigma_max, so at 1 or more every matrix is rank deficient.
    "tolerances.rank_tol": _Setting("number", 1e-12, ">= 0 and < 1", _SCORING),
    "tolerances.greedy_tol": _Setting("number", 1e-3, "> 0", ("greedy",)),
    "greedy.m_target": _Setting("int", _MISSING, ">= 1", ("greedy",)),
    "dci.sensors": _Setting("list", _MISSING, ">= 1", _DCI),
    "dci.count": _Setting("int", 1000, ">= 2", _DCI),
    "dci.seed": _Setting("int", None, ">= 0", _DCI),
    "dci.bandwidth": _Setting("string", "silverman", ("silverman", "scott"), _DCI),
    "dci.observed": _Setting("object", {"kind": "gaussian", "mean": "model-midpoint",
                                        "cov": 0.15}, None, _DCI),
    "model.kind": _Setting("string", _MISSING, _HEAT, _HEAT),
    "model.elements": _Setting("int", None, None, _HEAT),
    "model.time_steps": _Setting("int", None, None, _HEAT),
    "model.t_final": _Setting("number", None, None, _HEAT),
    "kind": _Setting("string", _MISSING, _DENSITY_KINDS, _DENSITY_KINDS),
    "lower": _Setting("list", None, None, ("uniform-box",)),
    "upper": _Setting("list", None, None, ("uniform-box",)),
    "mean": _Setting("list or number", _MISSING, None, ("gaussian",)),
    "cov": _Setting("list or number", _MISSING, None, ("gaussian",)),
    "samples": _Setting("list", _MISSING, None, ("kde-from-samples",)),
    "bandwidth": _Setting("string", "silverman", ("silverman", "scott"), ("kde-from-samples",)),
}


def _flatten(section: dict, where: str = "") -> dict:
    """``section``'s values by dotted key.  Only an object that holds
    declared settings is split into them, so any other key keeps the name
    it was written under."""
    flat = {}
    for name, value in section.items():
        key = where + name
        is_section = isinstance(value, dict) and any(s.startswith(key + ".") for s in _SETTINGS)
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
        size = len(value) if isinstance(value, list) else value
        if not all(_COMPARE[op](size, float(bound))
                   for op, bound in map(str.split, setting.allowed.split(" and "))):
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


def _settings(cfg: dict, task: str) -> dict:
    """Every setting ``task`` reads outside the ``model`` section."""
    flat = _flatten({name: value for name, value in cfg.items() if name != "model"})
    if flat.setdefault("task", task) != task:
        raise ConfigError(
            f"task: config says {flat['task']!r} but the {task!r} subcommand was invoked")
    return _read(flat, "task")


def _finite(text: str, kind=float):
    """A JSON number as ``kind``, refusing the NaN, Infinity, -Infinity and
    numbers too large for a double (1e999, or a 1 and 400 zeros) that
    Python's parser admits."""
    if not np.isfinite(float(text)):
        raise ValueError(f"{text} is not a finite number")
    return kind(text)


def load_config(path: Path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite,
                            parse_int=lambda text: _finite(text, int))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError or _finite's
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def build_model(cfg: dict):
    """The model of ``cfg["model"]``, whose ``model.*`` keys are its
    constructor's keywords.  Only the keys given reach the constructor, so
    an absent one takes the model's own default.  A mesh too large to
    build is refused first."""
    settings = _read(_flatten({"model": cfg.get("model", {})}), "model.kind")
    kind = settings.pop("model.kind")
    per_element, axes = _BUILD_BYTES[kind]
    build_bytes = per_element * max(settings["model.elements"] or 0, 0) ** axes
    if build_bytes > _MAX_BATCH_BYTES:
        raise ConfigError(f"model.elements: {settings['model.elements']} per axis take about "
                          f"{build_bytes} bytes to build, more than the {_MAX_BATCH_BYTES} "
                          "bytes this tool holds in one run")
    model = models.HeatRod1D if kind == "heat_rod_1d" else models.HeatPlate2D
    try:
        return model(**{key.removeprefix("model."): value for key, value in settings.items()
                        if value is not None})
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _build_box(spec, model) -> sampling.ParameterBox:
    """``sampling.box``: exactly ``[lower, upper]``, inside the model's box."""
    admissible = model.parameter_box
    if spec is None:
        return admissible
    if len(spec) != 2:
        raise ConfigError(f"sampling.box: expected [lower, upper], got a list of {len(spec)}")
    try:
        box = sampling.ParameterBox(*spec)
    except (TypeError, ValueError) as exc:
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


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _hm_measure(settings) -> str:
    """The measure the samples are drawn from, as ``hm_measure`` names it."""
    return "volume" if settings["sampling.init"] is None else "initial"


def _batch_recipe(settings, model, box, seed) -> str:
    """SHA-256 of everything that determines the field batch."""
    recipe = {"count": settings["sampling.count"], "measure": _hm_measure(settings),
              "init": settings["sampling.init"]}
    return _sha256(dict(recipe, model_id=model.model_id, t_final=model.t_final,
                        seed=seed, box=[box.lower.tolist(), box.upper.tolist()]))


def _batch_key(settings, model, box, seed) -> str:
    """The batch cache key: the recipe and the batch schema."""
    return _sha256([_batch_recipe(settings, model, box, seed), sampling.BATCH_SCHEMA_VERSION])


def _refuse_unusable(path: Path, key: str, directory: bool) -> None:
    """A ConfigError naming ``key`` unless ``path`` can be made as a
    directory (``directory``) or a file: its nearest existing part decides."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if existing.is_dir() != (directory or existing != path):
        raise ConfigError(f"{key}: {existing} is {'a' if existing.is_dir() else 'not a'} directory")


class _Run(dict):
    """One run: its settings by dotted key, and everything its task starts
    from.  It runs the checks every task shares, then the task's own, then
    draws ``samples`` from the initial density, and only then makes the
    output directory: a config error costs no solve and leaves no directory."""

    def __init__(self, cfg: dict, args, base_dir: Path):
        if args.workers is not None and args.workers < 1:
            raise ConfigError(f"--workers: must be at least 1, got {args.workers}")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
        super().__init__(_settings(cfg, args.command))
        self.model = build_model(cfg)
        self.workers = args.workers
        cache = self.get("sampling.batch_cache")  # read by the scoring tasks only
        self.cache_path = None if cache is None else base_dir / cache
        if cache is not None:
            _refuse_unusable(self.cache_path, "sampling.batch_cache", directory=False)
        self.seed = args.seed if args.seed is not None else self["sampling.seed"]
        if not args.out and self["output_dir"] is None:
            raise ConfigError("output_dir: missing required field (or pass --out)")
        self.outdir = Path(args.out) if args.out else base_dir / self["output_dir"]
        _refuse_unusable(self.outdir, "--out" if args.out else "output_dir", directory=True)
        self.box = _build_box(self["sampling.box"], self.model)
        init = self["sampling.init"]
        self.density = build_density({"kind": "uniform-box"} if init is None else init,
                                     "sampling.init", default_box=self.box)
        if self.density.dim != self.box.dim:
            raise ConfigError(f"sampling.init: a density on {self.density.dim} parameters for "
                              f"a model of {self.box.dim}")
        count, self.draw_seed = (self._scoring_checks() if args.command in _SCORING
                                 else self._dci_checks())
        try:
            self.samples = sampling.draw_samples(self.box, count, self.draw_seed, self.density)
        except ValueError as exc:
            raise ConfigError(f"sampling.init: {exc}") from None
        self.outdir.mkdir(parents=True, exist_ok=True)

    def _scoring_checks(self):
        """The sample count and seed of a scoring task, once its batch and
        its exhaustive design space (of scalars, for ``greedy``) are within
        budget.  Sets ``space``, which is refused before it is built."""
        count, model = self["sampling.count"], self.model
        size, arity = model.field_size, self.get("design.arity", 1)
        batch_bytes = count * size * model.n_params * 8
        if batch_bytes > _MAX_BATCH_BYTES:
            raise ConfigError(
                f"sampling.count: {count} samples of {size} field values "
                f"and {model.n_params} parameters make a {batch_bytes}-byte Jacobian batch, more "
                f"than the {_MAX_BATCH_BYTES} bytes this tool holds in one run")
        candidates = size if arity == 1 else size * (size - 1) // 2
        if candidates * count > _MAX_KERNEL_MATRICES:
            raise ConfigError(
                f"design.arity: {candidates} candidates over the sample make "
                f"{candidates * count} kernel matrices, more than the {_MAX_KERNEL_MATRICES} "
                "this tool scores in one run; use 'svoed greedy' or design.arity: 1")
        space = design.scalar_space if arity == 1 else design.pair_space
        self.space = space(size, coordinates=model.coordinates)
        return count, self.seed

    def _dci_checks(self):
        """``dci.count`` and the DCI seed, once the count, the sensors and
        the observed density pass.  Sets ``rows``, the design's field rows,
        and ``observed``, the observed density, or None for one centred on
        the outputs at the box midpoint, which :func:`run_dci` solves."""
        model, sensors, count = self.model, self["dci.sensors"], self["dci.count"]
        if count > _MAX_DCI_COUNT:
            raise ConfigError(f"dci.count: {count} samples make {count}**2 kernel-density pairs, "
                              f"more than the {_MAX_DCI_COUNT}**2 this tool evaluates in one run")
        try:
            self.rows = [model.nearest_field_index(s) for s in sensors]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"dci.sensors: {exc}") from exc
        if len(set(self.rows)) < len(self.rows):
            # Two equal output rows make the predicted kernel density singular.
            raise ConfigError(f"dci.sensors: {sensors} resolve to field rows {self.rows}, "
                              "and each row may be observed only once")
        if len(self.rows) > model.n_params:
            raise ConfigError(f"dci.sensors: {len(self.rows)} sensors, more than the model's "
                              f"{model.n_params} parameters")
        spec = self["dci.observed"]
        midpoint = spec.get("kind") == "gaussian" and spec.get("mean") == "model-midpoint"
        # A midpoint mean is checked as zeros of the right length.
        observed = build_density(dict(spec, mean=[0.0] * len(self.rows)) if midpoint else spec,
                                 "dci.observed")
        if observed.dim != len(self.rows):
            raise ConfigError(f"dci.observed: a density on {observed.dim} outputs for "
                              f"{len(self.rows)} sensors")
        self.observed = None if midpoint else observed
        return count, self.seed if self["dci.seed"] is None else self["dci.seed"]


def _field_batch(run: _Run) -> sampling.FieldJacobianBatch:
    """The field batch, from ``sampling.batch_cache`` when it holds this
    recipe's, else solved at the run's samples and written there."""
    cache_path = run.cache_path
    if cache_path is not None:
        key = _batch_key(run, run.model, run.box, run.seed)
        if cache_path.exists():
            try:
                return sampling.load_batch(cache_path, key)
            except ValueError as exc:
                logger.warning("recomputing batch cache %s: %s", cache_path, exc)
    batch = sampling.estimate_field_jacobians(run.model, run.samples, workers=run.workers)
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        sampling.save_batch(batch, cache_path, key)
    return batch


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _design_id(rows) -> str:
    return "-".join(map(str, rows))


def _cells(column: np.ndarray) -> list:
    """One block of a column as Python values: each row of a 2-D column is
    the :func:`_design_id` of its field rows."""
    if column.ndim == 2:
        return [_design_id(row) for row in column.tolist()]
    return column.tolist()


def _write_csv(path: Path, header: list[str], columns) -> None:
    """One CSV row per entry of the equal-length arrays ``columns``.

    Floats are written as ``%.17g``, so identical inputs give identical
    files, and anything else through ``%s``.  No cell needs quoting, so
    each row is one ``%`` template: the bytes ``csv.writer`` would write.
    """
    template = ",".join("%.17g" if c.ndim == 1 and c.dtype.kind == "f" else "%s"
                        for c in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            fh.write("".join([template % row for row in zip(*(_cells(c[block])
                                                               for c in columns))]))


def run_sweep(run: _Run) -> list[str]:
    result = design.exhaustive_oed(run.space, _field_batch(run),
                                   rank_tol=run["tolerances.rank_tol"])
    space, stats = result.space, result.reports
    coords = space.index_geometry
    header = [f"c{i}" for i in range(coords.shape[1])] + ["design_id"]
    header += [*criteria.STATISTICS[:4], "sample_count", criteria.STATISTICS[4], "hm_measure"]
    _write_csv(run.outdir / "sweep.csv", header, [
        *coords.T, space.candidates, *stats[:, :4].T,
        np.broadcast_to(run["sampling.count"], len(space)), stats[:, 4].astype(np.int64),
        np.broadcast_to(_hm_measure(run), len(space))])
    return ["sweep.csv"]


def run_oed(run: _Run) -> list[str]:
    utility, model = run["design.utility"], run.model
    result = design.exhaustive_oed(run.space, _field_batch(run), utility,
                                   run["tolerances.rank_tol"])
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


def run_greedy(run: _Run) -> list[str]:
    trace = design.greedy_oed(run.space, _field_batch(run), m_target=run["greedy.m_target"],
                              tol=run["tolerances.greedy_tol"],
                              rank_tol=run["tolerances.rank_tol"])
    design.trace_to_json(trace, run.outdir / "greedy_trace.json",
                         coordinates=run.space.index_geometry)
    return ["greedy_trace.json"]


def _dci_report(model, rows, ensemble: dci.WeightedEnsemble, accepted) -> dict:
    """``dci_summary.json``: the statistics of ``ensemble`` and its
    ``accepted`` mask, the design, and the predictability verdict."""
    return {
        "schema_version": 1,
        "sample_count": ensemble.weights.size,
        "mean_ratio": ensemble.mean_ratio,
        "stderr": ensemble.stderr,
        "acceptance_rate": float(np.mean(accepted)),
        # The largest ratio: the constant the rejection sampler divides by.
        "C_estimate": float(ensemble.weights.max()),
        "excluded_count": int(np.sum(ensemble.excluded)),
        "design_rows": rows,
        "design_coordinates": model.coordinates.reshape(model.field_size, -1)[rows].tolist(),
        "predictability_ok": bool(abs(ensemble.mean_ratio - 1.0) <= dci.DIAGNOSTIC_TOL),
    }


def run_dci(run: _Run) -> list[str]:
    """The DCI update of the run's samples at the design's rows.

    The first solve is the one at the box midpoint, when the observed
    density is centred there.  The outputs at the samples then take one
    :func:`sampling.evaluate_samples` call, on ``--workers`` processes, so
    a failed sample is named; their kernel density is the predicted density
    the weights divide by.
    """
    model, rows, points = run.model, run.rows, run.samples.points
    observed = run.observed
    if observed is None:  # centred on the outputs at the box midpoint
        mean = model.evaluate(run.box.midpoint)[rows].tolist()
        observed = build_density(dict(run["dci.observed"], mean=mean), "dci.observed")
    qoi, _ = sampling.evaluate_samples(model, points, rows=rows, workers=run.workers)
    ensemble = dci.update_weights(
        qoi, observed, dci.KdeDensity(qoi, bandwidth_rule=run["dci.bandwidth"]))
    # Its own seed, so the two random streams stay independent.
    accepted = dci.rejection_sample(ensemble.weights, run.draw_seed + 1)
    header = [f"lambda_{j + 1}" for j in range(points.shape[1])]
    header += [f"q_{k + 1}" for k in range(qoi.shape[1])] + ["ratio", "accepted"]
    # The grid can still fail (a weighted ensemble that spans a line), so it
    # is computed before any file is written: a failed run leaves none.
    grid = None
    if model.n_params == 2:
        grid = dci.updated_density_grid(points, ensemble.weights, run.box)
    _write_csv(run.outdir / "ensemble.csv", header, [
        *points.T, *qoi.T, ensemble.weights, accepted.astype(np.int64)])
    _write_json(run.outdir / "dci_summary.json",
                _dci_report(model, rows, ensemble, accepted))
    outputs = ["ensemble.csv", "dci_summary.json"]
    if grid is not None:
        x, y, values = grid
        _write_csv(run.outdir / "updated_density.csv", ["lambda_1", "lambda_2", "density"],
                   [np.repeat(x, y.size), np.tile(y, x.size), values.ravel()])
        outputs.append("updated_density.csv")
    return outputs


# Each subcommand's runner and help.
_TASKS = {
    "sweep": (run_sweep, "score every candidate design"),
    "oed": (run_oed, "rank designs by a utility and report the argmax"),
    "greedy": (run_greedy, "sequential component-by-component design"),
    "dci": (run_dci, "solve the inverse problem for one design"),
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
                       help="processes for model solves, which run in blocks of points, "
                            "at most one process per CPU and per block (default: serial, "
                            "in this process); the criterion kernel and kernel densities "
                            "always use threads on every CPU the process may run on "
                            "(taskset limits them), each thread holding at most one "
                            "density block of sampling.BLOCK_BYTES")
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
        "outputs": sorted(outputs),
        "elapsed_seconds": round(time.perf_counter() - started, 3),
    })
    print(f"{args.command}: wrote {', '.join(sorted(outputs) + ['manifest.json'])} "
          f"to {run.outdir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
