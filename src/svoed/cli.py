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
exits 2 without solving anything.
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
from pathlib import Path

import numpy as np

from . import __version__, criteria, dci, design, models, sampling

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

MANIFEST_SCHEMA_VERSION = 1

# Rejection sampling from an init density gives up after this many rounds
# of ``sampling.count`` draws, so a density with less than about 1/1000 of
# its mass in the box is reported instead of looping forever.
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


def _get(cfg: dict, path: str, types=None, default=_MISSING, choices=None):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is not _MISSING:
                return default
            raise ConfigError(f"{path}: missing required field")
        node = node[part]
    if types is not None and not isinstance(node, types):
        raise ConfigError(f"{path}: expected {types}, got {type(node).__name__}")
    if isinstance(node, bool) and types in ((int, float), int):
        raise ConfigError(f"{path}: expected a number, got a boolean")
    if choices is not None and node not in choices:
        raise ConfigError(f"{path}: must be one of {sorted(choices)}")
    return node


def load_config(path: Path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def build_model(cfg: dict, paper_scale: bool = False):
    kind = _get(cfg, "model.kind", str, choices=("heat_rod_1d", "heat_plate_2d", "synthetic"))
    try:
        if kind == "heat_rod_1d":
            return models.HeatRod1D(
                elements=_get(cfg, "model.elements", int, default=40),
                time_steps=_get(cfg, "model.time_steps", int, default=20),
                t_final=_get(cfg, "model.t_final", (int, float), default=1.0),
            )
        if kind == "heat_plate_2d":
            elements = _get(cfg, "model.elements", int, default=30)
            if paper_scale:
                elements = 99
            return models.HeatPlate2D(
                elements_per_axis=elements,
                time_steps=_get(cfg, "model.time_steps", int, default=40),
                t_final=_get(cfg, "model.t_final", (int, float), default=2.0),
            )
        name = _get(cfg, "model.name", str)
        catalog = models.synthetic_maps()
        if name not in catalog:
            raise ConfigError(f"model.name: unknown synthetic model {name!r}; "
                              f"available: {sorted(catalog)}")
        return catalog[name]
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _build_box(cfg: dict, model) -> sampling.ParameterBox:
    """``sampling.box``, which must lie inside the model's parameter box."""
    admissible = model.parameter_box
    spec = _get(cfg, "sampling.box", list, default=None)
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


def build_density(spec: dict, model, field_path: str, default_box=None) -> dci.Density:
    kind = _get(spec, "kind", str, choices=("gaussian", "uniform-box", "kde-from-samples"))
    try:
        if kind == "uniform-box":
            lower = _get(spec, "lower", list, default=None)
            upper = _get(spec, "upper", list, default=None)
            if lower is None or upper is None:
                if default_box is None:
                    raise ConfigError(f"{field_path}: uniform-box needs lower/upper")
                return dci.UniformBoxDensity(default_box)
            return dci.UniformBoxDensity(sampling.ParameterBox(lower, upper))
        if kind == "gaussian":
            mean = _get(spec, "mean", (list, int, float))
            cov = _get(spec, "cov", (list, int, float))
            return dci.GaussianDensity(np.atleast_1d(mean), cov)
        samples = _get(spec, "samples", list)
        return dci.KdeDensity(np.asarray(samples, dtype=float),
                              bandwidth_rule=spec.get("bandwidth", "silverman"))
    except ValueError as exc:
        raise ConfigError(f"{field_path}: {exc}") from exc


def _sampling_settings(cfg) -> dict:
    """``sampling.count``, ``sampling.measure`` and ``sampling.init``, read
    once.  They decide the criteria samples, so the batch recipe hashes
    them under these keys."""
    count = _get(cfg, "sampling.count", int)
    if count < 1:
        raise ConfigError("sampling.count: must be at least 1")
    return {
        "count": count,
        "measure": _get(cfg, "sampling.measure", str, default="volume",
                        choices=criteria.HM_MEASURES),
        "init": _get(cfg, "sampling.init", dict, default=None),
    }


def _draw_criteria_samples(settings, box, seed) -> sampling.SampleSet:
    count, init_spec = settings["count"], settings["init"]
    # The initial measure defaults to uniform on the box, in which case it
    # coincides with the volume measure.
    if settings["measure"] == "volume" or init_spec is None:
        return sampling.draw_samples(box, count, seed)
    density = build_density(init_spec, None, "sampling.init", default_box=box)
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
            return sampling.SampleSet(points=points, seed=seed, scheme="initial-density")
    raise ConfigError(
        f"sampling.init: only {filled} of {_MAX_DRAW_ROUNDS * count} draws fell in the "
        f"box, {count} needed; the init density has almost no mass there"
    )


def _batch_recipe(settings, model, box, seed) -> str:
    """SHA-256 of everything that determines the field batch: the cache key."""
    recipe = dict(settings, model_id=model.model_id, t_final=getattr(model, "t_final", None),
                  seed=seed, box=[box.lower.tolist(), box.upper.tolist()])
    return hashlib.sha256(json.dumps(recipe, sort_keys=True).encode()).hexdigest()


def _cache_path(cfg) -> Path | None:
    cache = _get(cfg, "sampling.batch_cache", str, default=None)
    return None if cache is None else cfg["_base_dir"] / cache


def _statistics_path(cache_path: Path) -> Path:
    """The per-candidate statistics sidecar of a batch cache."""
    return cache_path.with_suffix(".stats.npz")


def _field_batch(cfg, settings, model, box, seed, workers) -> sampling.FieldJacobianBatch:
    """The field batch, from ``sampling.batch_cache`` when it holds this
    recipe's.  Writing a batch drops its statistics sidecar, so the
    sidecar never outlives its batch."""
    cache_path = _cache_path(cfg)
    if cache_path is not None:
        recipe = _batch_recipe(settings, model, box, seed)
        if cache_path.exists():
            try:
                return sampling.load_batch(cache_path, recipe_sha256=recipe)
            except ValueError as exc:
                logger.warning("recomputing batch cache %s: %s", cache_path, exc)
    samples = _draw_criteria_samples(settings, box, seed)
    batch = sampling.estimate_field_jacobians(model, samples, workers=workers)
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        _statistics_path(cache_path).unlink(missing_ok=True)
        sampling.save_batch(batch, cache_path, recipe_sha256=recipe)
    return batch


def _design_space(model, arity, count) -> design.DesignSpace:
    """The exhaustive design space, refused before it is built if scoring
    it over ``count`` samples would exceed the kernel budget."""
    if arity not in (1, 2):
        raise ConfigError("design.arity: only 1 and 2 are supported for exhaustive search")
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


def _scoring_inputs(cfg, args, seed, model, box, arity):
    """The prologue every scoring task shares: every setting, then the space,
    and only then the batch, so that a config error costs no solve."""
    rank_tol = _get(cfg, "tolerances.rank_tol", (int, float), default=1e-12)
    if rank_tol < 0:
        raise ConfigError("tolerances.rank_tol: must not be negative")
    if _get(cfg, "sampling.fd_step", default=None) is not None:
        raise ConfigError("sampling.fd_step: not used; every model this tool builds "
                          "gives its exact Jacobian")
    settings = _sampling_settings(cfg)
    batch_bytes = settings["count"] * model.field_size * model.n_params * 8
    if batch_bytes > _MAX_BATCH_BYTES:
        raise ConfigError(
            f"sampling.count: {settings['count']} samples of {model.field_size} field values "
            f"and {model.n_params} parameters make a {batch_bytes}-byte Jacobian batch, more "
            f"than the {_MAX_BATCH_BYTES} bytes this tool holds in one run")
    space = _design_space(model, arity, settings["count"])
    batch = _field_batch(cfg, settings, model, box, seed, args.workers)
    return rank_tol, settings, space, batch


def _exhaustive(cfg, args, seed, model, box, utility="ese_inverse"):
    """Every candidate's statistics, ranked by ``utility``, and the sampling
    settings: the scoring prologue of ``sweep`` and ``oed``.

    With a batch cache, the (C, 5) statistics are kept in a sidecar next to
    it, keyed on the batch recipe, the batch schema, the arity, ``rank_tol``
    and the statistics columns: everything the rows depend on.  A later run
    with the same key ranks the stored rows instead of running the
    kernels; any other sidecar is recomputed and overwritten.
    """
    arity = _get(cfg, "design.arity", int, default=2)
    rank_tol, settings, space, batch = _scoring_inputs(cfg, args, seed, model, box, arity)
    cache_path = _cache_path(cfg)
    if cache_path is None:
        return design.exhaustive_oed(space, batch, utility, rank_tol), settings
    sidecar = _statistics_path(cache_path)
    key = hashlib.sha256(json.dumps({
        "recipe": _batch_recipe(settings, model, box, seed),
        "batch_schema": sampling.BATCH_SCHEMA_VERSION, "arity": arity,
        "rank_tol": float(rank_tol), "statistics": criteria.STATISTICS,
    }, sort_keys=True).encode()).hexdigest()
    if sidecar.exists():
        try:
            stats = sampling.load_statistics(sidecar, key, (len(space), len(criteria.STATISTICS)))
            return design.rank_designs(space, stats, utility), settings
        except ValueError as exc:
            logger.warning("recomputing statistics cache %s: %s", sidecar, exc)
    result = design.exhaustive_oed(space, batch, utility, rank_tol)
    sampling.save_statistics(result.reports, sidecar, key)
    return result, settings


def _sensor_rows(cfg, model, path="dci.sensors") -> tuple[int, ...]:
    sensors = _get(cfg, path, list)
    if not sensors:
        raise ConfigError(f"{path}: need at least one sensor")
    return tuple(model.nearest_field_index(s) for s in sensors)


def _coordinate_rows(model, rows) -> list:
    coords = np.atleast_2d(model.coordinates.astype(float))
    if coords.shape[0] == 1:
        coords = coords.T
    return [coords[r].tolist() for r in rows]


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


def _write_manifest(outdir: Path, task, cfg, args, seed, outputs, elapsed) -> None:
    echo = {k: v for k, v in cfg.items() if not k.startswith("_")}
    canonical = json.dumps(echo, sort_keys=True).encode()
    _write_json(outdir / "manifest.json", {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "tool_version": __version__,
        "task": task,
        "config_sha256": hashlib.sha256(canonical).hexdigest(),
        "config": echo,
        "seed_used": seed,
        "workers": args.workers,
        "paper_scale": bool(args.paper_scale),
        "outputs": sorted(outputs),
        "elapsed_seconds": round(elapsed, 3),
    })


def _resolve_run(cfg, args):
    """The prologue every task shares: seed, output directory, model, box."""
    seed = args.seed if args.seed is not None else _get(cfg, "sampling.seed", int, default=0)
    outdir = Path(args.out) if args.out else cfg["_base_dir"] / _get(cfg, "output_dir", str)
    if args.paper_scale and _get(cfg, "model.kind", str, default="") == "heat_plate_2d":
        cfg.setdefault("sampling", {})["count"] = 1000
    model = build_model(cfg, paper_scale=args.paper_scale)
    box = _build_box(cfg, model)
    outdir.mkdir(parents=True, exist_ok=True)
    return seed, outdir, model, box


def run_sweep(cfg, args, seed, outdir, model, box) -> list[str]:
    result, settings = _exhaustive(cfg, args, seed, model, box)
    space, stats = result.space, result.reports
    coords = space.index_geometry
    header = [f"c{i}" for i in range(coords.shape[1])] + ["design_id"]
    header += [*criteria.STATISTICS[:4], "sample_count", criteria.STATISTICS[4], "hm_measure"]
    _write_csv(outdir / "sweep.csv", header, [
        *coords.T, space.candidates, *stats[:, :4].T,
        np.broadcast_to(settings["count"], len(space)), stats[:, 4].astype(np.int64),
        np.broadcast_to(settings["measure"], len(space))])
    return ["sweep.csv"]


def run_oed(cfg, args, seed, outdir, model, box) -> list[str]:
    utility = _get(cfg, "design.utility", str, default="ese_inverse",
                   choices=design.UTILITIES)
    result, _ = _exhaustive(cfg, args, seed, model, box, utility)
    space = result.space
    ranked = result.reports[result.order]
    coords = space.index_geometry[result.order]
    header = ["rank", "design_id"] + [f"c{i}" for i in range(coords.shape[1])]
    _write_csv(outdir / "ranking.csv", header + list(criteria.STATISTICS), [
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
    _write_json(outdir / "oed_summary.json", summary)
    return ["ranking.csv", "oed_summary.json"]


def run_greedy(cfg, args, seed, outdir, model, box) -> list[str]:
    tol = _get(cfg, "tolerances.greedy_tol", (int, float), default=1e-3)
    if tol <= 0:
        raise ConfigError("tolerances.greedy_tol: must be positive")
    m_target = _get(cfg, "greedy.m_target", int)
    if m_target < 1:
        raise ConfigError("greedy.m_target: must be at least 1")
    rank_tol, _, space, batch = _scoring_inputs(cfg, args, seed, model, box, arity=1)
    trace = design.greedy_oed(space, batch, m_target=m_target, tol=tol, rank_tol=rank_tol)
    coords = space.index_geometry
    design.trace_to_json(trace, outdir / "greedy_trace.json", coordinates=coords)
    outputs = ["greedy_trace.json", "greedy_summary.json"]
    header = ["candidate"] + [f"c{i}" for i in range(coords.shape[1])]
    for rnd in trace.rounds:
        name = f"greedy_round_{rnd.round_index:02d}.csv"
        _write_csv(outdir / name, header + [rnd.utility],
                   [np.arange(len(space)), *coords.T, rnd.scores])
        outputs.append(name)
    _write_json(outdir / "greedy_summary.json", {
        "schema_version": 1,
        "selected_rows": list(trace.selected),
        "selected_coordinates": _coordinate_rows(model, trace.selected),
        "stop_reason": trace.stop_reason,
        "rounds_run": len(trace.rounds),
        "tol": tol,
    })
    return outputs


def _dci_pieces(cfg, args, seed, model, box):
    """Design rows and the arguments of :func:`dci.dci_weights` after them.

    Every setting is checked before the one solve here, at the model
    midpoint, whose outputs an observed density at ``model-midpoint`` is
    centred on.
    """
    rows = _sensor_rows(cfg, model)
    if len(rows) > model.n_params:
        raise ConfigError(f"dci.sensors: {len(rows)} sensors, more than the model's "
                          f"{model.n_params} parameters")
    count = _get(cfg, "dci.count", int, default=_get(cfg, "sampling.count", int, default=1000))
    if count < 2:
        raise ConfigError("dci.count: the predicted density needs at least 2 samples")
    dci_seed = _get(cfg, "dci.seed", int, default=seed)
    bandwidth = _get(cfg, "dci.bandwidth", str, default="silverman",
                     choices=("silverman", "scott"))
    init_spec = _get(cfg, "dci.init", dict, default=None)
    init = (dci.UniformBoxDensity(box) if init_spec is None
            else build_density(init_spec, model, "dci.init", default_box=box))
    obs_spec = _get(cfg, "dci.observed", dict, default=None)
    if obs_spec is None:
        obs_spec = {"kind": "gaussian", "mean": "model-midpoint", "cov": 0.15}
    if obs_spec.get("kind") == "gaussian" and obs_spec.get("mean") == "model-midpoint":
        # Checks the covariance on a zero mean of the right length first.
        build_density(dict(obs_spec, mean=[0.0] * len(rows)), model, "dci.observed")
        midpoint_qoi = model.evaluate(box.midpoint)[list(rows)]
        obs_spec = dict(obs_spec, mean=midpoint_qoi.tolist())
    observed = build_density(obs_spec, model, "dci.observed")
    return rows, (init, observed, count, dci_seed, bandwidth, args.workers)


def run_dci(cfg, args, seed, outdir, model, box) -> list[str]:
    rows, pieces = _dci_pieces(cfg, args, seed, model, box)
    ensemble = dci.dci_solve(model, rows, *pieces)
    points, qoi = ensemble.points, ensemble.qoi
    header = [f"lambda_{j + 1}" for j in range(points.shape[1])]
    header += [f"q_{k + 1}" for k in range(qoi.shape[1])] + ["ratio", "accepted"]
    _write_csv(outdir / "ensemble.csv", header, [
        *points.T, *qoi.T, ensemble.weights, ensemble.accepted.astype(np.int64)])
    summary = ensemble.summary()
    summary["design_rows"] = list(rows)
    summary["design_coordinates"] = _coordinate_rows(model, rows)
    _write_json(outdir / "dci_summary.json", summary)
    outputs = ["ensemble.csv", "dci_summary.json"]
    if model.n_params == 2:
        x, y, values = dci.updated_density_grid(ensemble, box)
        _write_csv(outdir / "updated_density.csv", ["lambda_1", "lambda_2", "density"],
                   [np.repeat(x, y.size), np.tile(y, x.size), values.ravel()])
        outputs.append("updated_density.csv")
    return outputs


def run_diag(cfg, args, seed, outdir, model, box) -> list[str]:
    rows, pieces = _dci_pieces(cfg, args, seed, model, box)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dci.PredictabilityWarning)
        ensemble = dci.dci_weights(model, rows, *pieces)
    summary = ensemble.summary()
    summary["design_rows"] = list(rows)
    summary["predictability_ok"] = bool(
        abs(ensemble.mean_ratio - 1.0) <= dci.DIAGNOSTIC_TOL
    )
    _write_json(outdir / "diagnostics.json", summary)
    return ["diagnostics.json"]


_TASKS = {
    "sweep": run_sweep,
    "oed": run_oed,
    "greedy": run_greedy,
    "dci": run_dci,
    "diag": run_diag,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svoed",
        description="Design-criterion sweeps, greedy sensor placement and "
                    "data-consistent inversion from one JSON run config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep", "score every candidate design"),
        ("oed", "rank designs by a utility and report the argmax"),
        ("greedy", "sequential component-by-component design"),
        ("dci", "solve the inverse problem for one design"),
        ("diag", "predictability diagnostic for one design"),
    ):
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
        cfg["_base_dir"] = config_path.parent
        task = _get(cfg, "task", str, default=args.command)
        if task != args.command:
            raise ConfigError(
                f"task: config says {task!r} but the {args.command!r} subcommand was invoked"
            )
        runner = _TASKS[args.command]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        seed, outdir, model, box = _resolve_run(cfg, args)
        outputs = runner(cfg, args, seed, outdir, model, box)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (sampling.ModelEvaluationError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    _write_manifest(outdir, args.command, cfg, args, seed,
                    outputs, time.perf_counter() - started)
    print(f"{args.command}: wrote {', '.join(sorted(outputs) + ['manifest.json'])} "
          f"to {outdir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
