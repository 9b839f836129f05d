"""One design study in a fresh directory, run as its own process.

    python3 benchmark/workload.py --workload NAME --seed N --dir DIR
                                  [--trace] [--full-checks]

The process writes the study's configs into DIR (derived from the seed
only), runs the timed section, then checks the outputs against the oracles
in ``oracles.py``.  Its last stdout line is one JSON object: the timed
section's start on the monotonic clock, its wall and CPU seconds, the
process's peak RSS at its end, every attempted operation with its outcome,
a digest of every file written and, with ``--trace``, the per-layer
metrics.  ``run.py`` starts these processes one at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from svoed import cli, design, models, sampling  # noqa: E402

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
from oracles import require  # noqa: E402

# Problem sizes.  Each study takes 5-8 s on a 2-vCPU machine, so a 44 s run
# holds four to six of them; see NOTES.md.
ROD_ELEMENTS = 40
ROD_PAIRS = (ROD_ELEMENTS + 1) * ROD_ELEMENTS // 2
ROD_SAMPLES = 500
ROD_DCI_SAMPLES = 2500
PLATE_PARAMS = 9
GREEDY_SAMPLES = 15
E99_SAMPLES = 6


class StudyFailed(Exception):
    """A stage of the timed section failed; later stages are not attempted."""


class Ops:
    """Every attempted operation and its outcome.

    A CLI call that exits non-zero or raises, a library stage that raises,
    and a check that raises or disagrees with its oracle each count as one
    failed operation.
    """

    def __init__(self):
        self.records: list[dict] = []

    def _record(self, op: str, error) -> None:
        self.records.append({"op": op, "ok": error is None, "error": error})

    def cli(self, argv: list[str]) -> None:
        try:
            code = cli.main(argv)  # looked up per call, so a traced wrapper is used
        except (Exception, SystemExit) as exc:
            code = repr(exc)
        self._record(f"cli {argv[0]}", None if code == 0 else f"exit {code}")
        if code != 0:
            raise StudyFailed(argv[0])

    def stage(self, op: str, fn):
        try:
            result = fn()
        except Exception as exc:
            self._record(op, repr(exc))
            raise StudyFailed(op) from exc
        self._record(op, None)
        return result

    def check(self, op: str, fn) -> None:
        try:
            fn()
        except Exception as exc:
            self._record(f"check {op}", repr(exc))
        else:
            self._record(f"check {op}", None)


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _load_cache(path: Path):
    with np.load(path) as data:
        return data["points"], data["jacobians"]


class RodPairStudy:
    """Rod: ``oed`` over all pairs, ``sweep`` on its batch cache, ``dci`` at
    the argmax pair.  All three run through ``cli.main``."""

    cli_outputs = ("oed", "sweep", "dci")
    load_batch_calls = 1

    def __init__(self, work: Path, seed: int):
        rng = random.Random(seed)
        self.work = work
        self.sample_seed = rng.randrange(2**31)
        self.dci_seed = rng.randrange(2**31)
        self.model = {"kind": "heat_rod_1d", "elements": ROD_ELEMENTS, "time_steps": 20}
        batch = {"count": ROD_SAMPLES, "seed": self.sample_seed,
                 "batch_cache": "cache/batch.npz"}
        _write_json(work / "oed.json", {
            "task": "oed", "model": self.model, "sampling": batch,
            "design": {"arity": 2, "utility": "ese_inverse"}, "output_dir": "oed"})
        _write_json(work / "sweep.json", {
            "task": "sweep", "model": self.model, "sampling": batch,
            "design": {"arity": 2}, "output_dir": "sweep"})

    def run(self, ops: Ops) -> None:
        w = self.work
        ops.cli(["oed", "--config", str(w / "oed.json")])
        ops.cli(["sweep", "--config", str(w / "sweep.json")])
        best = ops.stage("read oed argmax",
                         lambda: _read_json(w / "oed" / "oed_summary.json")["best_candidate"])
        _write_json(w / "dci.json", {
            "task": "dci", "model": self.model, "sampling": {"seed": self.sample_seed},
            "dci": {"sensors": [row / ROD_ELEMENTS for row in best],
                    "count": ROD_DCI_SAMPLES, "seed": self.dci_seed},
            "output_dir": "dci"})
        ops.cli(["dci", "--config", str(w / "dci.json")])

    def check(self, ops: Ops, rng: np.random.Generator, full: bool) -> None:
        w = self.work

        def rows():
            for path in (w / "oed" / "ranking.csv", w / "sweep" / "sweep.csv"):
                count = len(oracles.read_csv(path))
                require(count == ROD_PAIRS, f"{path.name}: {count} rows, want {ROD_PAIRS}")

        def jacobians():
            points, jacs = _load_cache(w / "cache" / "batch.npz")
            pick = rng.choice(len(points), size=3, replace=False)
            model = cli.build_model({"model": self.model})
            oracles.check_jacobians(model, points[pick], jacs[pick])

        def utilities():
            _, jacs = _load_cache(w / "cache" / "batch.npz")
            ranking = {r["design_id"]: r for r in oracles.read_csv(w / "oed" / "ranking.csv")}
            sweep = {r["design_id"]: r for r in oracles.read_csv(w / "sweep" / "sweep.csv")}
            for _ in range(6):
                i, j = sorted(rng.choice(ROD_ELEMENTS + 1, size=2, replace=False), reverse=True)
                ese, esk = oracles.expected_utilities(jacs, (i, j))
                for table in (ranking, sweep):
                    row = table[f"{i}-{j}"]
                    oracles.check_close(f"ese {i}-{j}", float(row["ese_inverse"]), ese)
                    oracles.check_close(f"esk {i}-{j}", float(row["esk_inverse"]), esk)

        def dci_summary():
            summary = _read_json(w / "dci" / "dci_summary.json")
            ratio, rate = summary["mean_ratio"], summary["acceptance_rate"]
            require(np.isfinite(ratio) and ratio > 0.0, f"mean_ratio {ratio}")
            require(rate is not None and 0.0 < rate <= 1.0, f"acceptance_rate {rate}")
            require(summary["sample_count"] == ROD_DCI_SAMPLES,
                    f"sample_count {summary['sample_count']}")

        ops.check("rows", rows)
        if full:
            ops.check("jacobians", jacobians)
        ops.check("utilities", utilities)
        ops.check("dci", dci_summary)


class PlateGreedy:
    """Plate e30, serial: greedy design of 9 sensors.

    The library is called directly because ``svoed greedy`` passes
    ``trace_to_json`` its arguments in swapped order and dies; see
    NOTES.md.  The config is the one ``svoed greedy`` would read.
    """

    cli_outputs = ()
    load_batch_calls = 0

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.config = work / "greedy.json"
        _write_json(self.config, {
            "task": "greedy",
            "model": {"kind": "heat_plate_2d", "elements": 30, "time_steps": 40},
            "sampling": {"count": GREEDY_SAMPLES, "seed": random.Random(seed).randrange(2**31)},
            "greedy": {"m_target": PLATE_PARAMS},
            "tolerances": {"greedy_tol": 1e-3, "rank_tol": 1e-12},
            "output_dir": "greedy"})

    def run(self, ops: Ops) -> None:
        cfg = ops.stage("load config", lambda: cli.load_config(self.config))
        count, seed = cfg["sampling"]["count"], cfg["sampling"]["seed"]
        tol = cfg["tolerances"]
        self.model = model = ops.stage("build model", lambda: cli.build_model(cfg))
        samples = ops.stage("draw samples",
                            lambda: sampling.draw_samples(model.parameter_box, count, seed))
        self.batch = batch = ops.stage(
            "field jacobians", lambda: sampling.estimate_field_jacobians(model, samples))
        space = design.scalar_space(model.field_size, coordinates=model.coordinates)
        trace = ops.stage("greedy", lambda: design.greedy_oed(
            space, batch, m_target=cfg["greedy"]["m_target"],
            tol=tol["greedy_tol"], rank_tol=tol["rank_tol"]))
        out = self.work / cfg["output_dir"]
        out.mkdir()
        ops.stage("trace to json", lambda: design.trace_to_json(
            trace, out / "greedy_trace.json", coordinates=space.index_geometry))

    def check(self, ops: Ops, rng: np.random.Generator, full: bool) -> None:
        field_size = self.model.field_size

        def greedy():
            doc = _read_json(self.work / "greedy" / "greedy_trace.json")
            selected = doc["selected"]
            require(len(selected) == PLATE_PARAMS and len(set(selected)) == PLATE_PARAMS,
                    f"selected {selected}")
            require(doc["stop_reason"] == "reached_m", f"stop_reason {doc['stop_reason']}")
            require([len(r["scores"]) for r in doc["rounds"]] == [field_size] * PLATE_PARAMS,
                    "want 9 rounds scoring every node")

        def jacobians():
            pick = rng.choice(self.batch.count, size=2, replace=False)
            oracles.check_jacobians(self.model, self.batch.samples.points[pick],
                                    self.batch.jacobians[pick])

        def utilities():
            doc = _read_json(self.work / "greedy" / "greedy_trace.json")
            jacs = self.batch.jacobians
            later = int(rng.integers(2, PLATE_PARAMS + 1))
            for p in rng.choice(field_size, size=4, replace=False):
                ese, _ = oracles.expected_utilities(jacs, (p,))
                oracles.check_close(f"round 1 ese {p}", doc["rounds"][0]["scores"][p], ese)
                rows = tuple(doc["selected"][: later - 1]) + (int(p),)
                _, esk = oracles.expected_utilities(jacs, rows)
                oracles.check_close(f"round {later} esk {rows}",
                                    doc["rounds"][later - 1]["scores"][p], esk)

        ops.check("greedy", greedy)
        if full:
            ops.check("jacobians", jacobians)
        ops.check("utilities", utilities)


class PlateE99Field:
    """Plate e99 (10,000 nodes) on 2 worker threads: ``oed`` over
    every scalar candidate with a batch cache.

    ``--paper-scale`` forces 100 elements, which the plate rejects; the
    config sets ``elements: 99`` instead (see NOTES.md).
    """

    cli_outputs = ("oed",)
    load_batch_calls = 0

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.config = {
            "task": "oed",
            "model": {"kind": "heat_plate_2d", "elements": 99, "time_steps": 40},
            "sampling": {"count": E99_SAMPLES, "seed": random.Random(seed).randrange(2**31),
                         "batch_cache": "cache/batch.npz"},
            "design": {"arity": 1, "utility": "ese_inverse"},
            "output_dir": "oed"}
        _write_json(work / "oed.json", self.config)

    def run(self, ops: Ops) -> None:
        ops.cli(["oed", "--config", str(self.work / "oed.json"), "--workers", "2"])

    def check(self, ops: Ops, rng: np.random.Generator, full: bool) -> None:
        w = self.work

        def rows():
            count = len(oracles.read_csv(w / "oed" / "ranking.csv"))
            require(count == 100 * 100, f"ranking.csv: {count} rows, want 10000")

        def jacobians():
            points, jacs = _load_cache(w / "cache" / "batch.npz")
            pick = rng.choice(len(points), size=1)
            model = cli.build_model(self.config)
            oracles.check_jacobians(model, points[pick], jacs[pick],
                                    columns_per_sample=2, rng=rng)

        def utilities():
            _, jacs = _load_cache(w / "cache" / "batch.npz")
            ranking = {r["design_id"]: r for r in oracles.read_csv(w / "oed" / "ranking.csv")}
            for p in rng.choice(jacs.shape[1], size=20, replace=False):
                ese, esk = oracles.expected_utilities(jacs, (p,))
                row = ranking[str(p)]
                oracles.check_close(f"ese {p}", float(row["ese_inverse"]), ese)
                oracles.check_close(f"esk {p}", float(row["esk_inverse"]), esk)

        ops.check("rows", rows)
        if full:
            ops.check("jacobians", jacobians)
        ops.check("utilities", utilities)


STUDIES = {
    "rod-pair-study": RodPairStudy,
    "plate-greedy": PlateGreedy,
    "plate-e99-field": PlateE99Field,
}


# ---------------------------------------------------------------------------
# Tracing: which public calls are wrapped, and the per-layer metrics.
# ---------------------------------------------------------------------------


def _kernel_counts(layer):
    def after(tracer, args, kwargs, result):
        stack = np.asarray(args[0] if args else kwargs["stack"])
        tracer.add(f"{layer}.matrices", stack.shape[0])
        tracer.add(f"{layer}.bytes_computed", stack.nbytes + np.asarray(result).nbytes)
        tracer.add("geometry.full_rank", np.count_nonzero(result))
    return after


def _batch_samples(tracer, args, kwargs, result):
    tracer.add("sampling.field_jacobians.samples", result.count)


def _saved_bytes(tracer, args, kwargs, result):
    path = Path(args[1] if len(args) > 1 else kwargs["path"])
    tracer.add("sampling.save_batch.bytes", path.stat().st_size)


def _candidates(tracer, args, kwargs, result):
    tracer.add("design.exhaustive_oed.candidates", len(result.reports))


def _rounds(tracer, args, kwargs, result):
    tracer.add("design.greedy_oed.rounds", len(result.rounds))
    tracer.add("design.greedy_oed.candidate_evals", sum(len(r.scores) for r in result.rounds))


def _acceptance(tracer, args, kwargs, result):
    tracer.add("dci.attempted", result.count)
    tracer.add("dci.accepted", int(np.sum(result.accepted)))
    tracer.add("dci.excluded", result.excluded_count)


TARGETS = (
    ("models.build", "svoed.cli", "build_model", None),
    ("models.evaluate", "svoed.models", "HeatRod1D.evaluate", None),
    ("models.evaluate", "svoed.models", "HeatPlate2D.evaluate", None),
    # No metric of its own; wrapped so plate-greedy's top-level spans cover its timed section.
    ("sampling.draw_samples", "svoed.sampling", "draw_samples", None),
    ("sampling.field_jacobians", "svoed.sampling", "estimate_field_jacobians", _batch_samples),
    ("sampling.save_batch", "svoed.sampling", "save_batch", _saved_bytes),
    ("sampling.load_batch", "svoed.sampling", "load_batch", None),
    ("geometry.scaling_reciprocal", "svoed.geometry", "batch_scaling_reciprocal",
     _kernel_counts("geometry.scaling_reciprocal")),
    ("geometry.skewness_reciprocal", "svoed.geometry", "batch_skewness_reciprocal",
     _kernel_counts("geometry.skewness_reciprocal")),
    ("criteria.reports", "svoed.criteria", "report_from_reciprocals", None),
    ("criteria.reports_to_csv", "svoed.criteria", "reports_to_csv", None),
    ("design.exhaustive_oed", "svoed.design", "exhaustive_oed", _candidates),
    ("design.greedy_oed", "svoed.design", "greedy_oed", _rounds),
    ("design.outputs", "svoed.design", "ranking_to_csv", None),
    ("design.outputs", "svoed.design", "trace_to_json", None),
    ("dci.dci_solve", "svoed.dci", "dci_solve", _acceptance),
    ("dci.kde", "svoed.dci", "KdeDensity.__init__", None),
    ("dci.kde", "svoed.dci", "KdeDensity.pdf", None),
    ("dci.density_grid", "svoed.dci", "updated_density_grid", None),
    ("cli.main", "svoed.cli", "main", None),
)

# (metric, unit, layer it is measured at); run.py adds the trace.* metrics.
LAYER_METRICS = (
    ("models.build.busy_s", "s", "models.build"),
    ("models.evaluate.calls", "count", "models.evaluate"),
    ("models.evaluate.busy_s", "s", "models.evaluate"),
    ("models.evaluate.mean_ms", "ms", "models.evaluate"),
    ("sampling.field_jacobians.calls", "count", "sampling.field_jacobians"),
    ("sampling.field_jacobians.busy_s", "s", "sampling.field_jacobians"),
    ("sampling.field_jacobians.self_s", "s", "sampling.field_jacobians"),
    ("sampling.field_jacobians.samples", "count", "sampling.field_jacobians"),
    ("sampling.field_jacobians.model_solves", "count", "sampling.field_jacobians"),
    ("sampling.field_jacobians.model_busy_s", "s", "sampling.field_jacobians"),
    ("sampling.field_jacobians.parallelism", "ratio", "sampling.field_jacobians"),
    ("sampling.save_batch.busy_s", "s", "sampling.save_batch"),
    ("sampling.save_batch.bytes", "B", "sampling.save_batch"),
    ("sampling.load_batch.calls", "count", "sampling.load_batch"),
    ("sampling.load_batch.busy_s", "s", "sampling.load_batch"),
    ("geometry.scaling_reciprocal.busy_s", "s", "geometry.scaling_reciprocal"),
    ("geometry.scaling_reciprocal.matrices", "count", "geometry.scaling_reciprocal"),
    ("geometry.scaling_reciprocal.bytes_computed", "B", "geometry.scaling_reciprocal"),
    ("geometry.skewness_reciprocal.busy_s", "s", "geometry.skewness_reciprocal"),
    ("geometry.skewness_reciprocal.matrices", "count", "geometry.skewness_reciprocal"),
    ("geometry.skewness_reciprocal.bytes_computed", "B", "geometry.skewness_reciprocal"),
    ("geometry.full_rank_ratio", "ratio", "geometry.scaling_reciprocal"),
    ("criteria.reports.calls", "count", "criteria.reports"),
    ("criteria.reports.busy_s", "s", "criteria.reports"),
    ("criteria.reports_to_csv.busy_s", "s", "criteria.reports_to_csv"),
    ("design.exhaustive_oed.busy_s", "s", "design.exhaustive_oed"),
    ("design.exhaustive_oed.self_s", "s", "design.exhaustive_oed"),
    ("design.exhaustive_oed.candidates", "count", "design.exhaustive_oed"),
    ("design.greedy_oed.busy_s", "s", "design.greedy_oed"),
    ("design.greedy_oed.self_s", "s", "design.greedy_oed"),
    ("design.greedy_oed.rounds", "count", "design.greedy_oed"),
    ("design.greedy_oed.candidate_evals", "count", "design.greedy_oed"),
    ("design.outputs.busy_s", "s", "design.outputs"),
    ("dci.dci_solve.busy_s", "s", "dci.dci_solve"),
    ("dci.model_solves", "count", "dci.dci_solve"),
    ("dci.model_busy_s", "s", "dci.dci_solve"),
    ("dci.kde.busy_s", "s", "dci.kde"),
    ("dci.density_grid.busy_s", "s", "dci.density_grid"),
    ("dci.acceptance_rate", "ratio", "dci.dci_solve"),
    ("dci.excluded", "count", "dci.dci_solve"),
    ("cli.main.busy_s", "s", "cli.main"),
    ("cli.main.self_s", "s", "cli.main"),
    ("cli.output_bytes", "B", "cli.main"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: tracing.Tracer, output_bytes: int) -> tuple[dict, list, float]:
    """Per-layer metrics, absent layers and top-level span seconds."""
    summary = tracing.summarize(tracer)
    layers, nested, counters = summary["layers"], summary["nested"], tracer.counters

    def get(layer, key):
        return layers.get(layer, {}).get(key, 0.0)

    def under(parent, key):
        return nested.get((parent, "models.evaluate"), {}).get(key, 0.0)

    fj = "sampling.field_jacobians"
    kernels = ("geometry.scaling_reciprocal", "geometry.skewness_reciprocal")
    values = {
        "models.evaluate.mean_ms": 1e3 * _ratio(get("models.evaluate", "busy_s"),
                                                get("models.evaluate", "calls")),
        f"{fj}.model_solves": under(fj, "calls"),
        f"{fj}.model_busy_s": under(fj, "busy_s"),
        f"{fj}.parallelism": _ratio(under(fj, "busy_s"), get(fj, "busy_s")),
        "geometry.full_rank_ratio": _ratio(
            counters.get("geometry.full_rank", 0.0),
            sum(counters.get(f"{k}.matrices", 0.0) for k in kernels)),
        "dci.model_solves": under("dci.dci_solve", "calls"),
        "dci.model_busy_s": under("dci.dci_solve", "busy_s"),
        "dci.acceptance_rate": _ratio(counters.get("dci.accepted", 0.0),
                                      counters.get("dci.attempted", 0.0)),
        "cli.output_bytes": output_bytes,
    }
    wrapped = {layer for layer, *_ in TARGETS}
    missing = {t for t in wrapped if all(
        f"{module}.{attr}" in tracer.absent
        for layer, module, attr, _ in TARGETS if layer == t)}
    metrics, absent = {}, []
    for name, unit, layer in LAYER_METRICS:
        if name in values:
            value = values[name]
        elif name in counters:
            value = counters[name]
        else:
            value = get(layer, name.rsplit(".", 1)[1])
        if layer in missing:
            absent.append(name)
            value = 0.0
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics, absent, summary["top_level_s"]


# ---------------------------------------------------------------------------
# Outputs.
# ---------------------------------------------------------------------------


def digest(work: Path) -> dict:
    """SHA-256 of every file the study wrote.

    The manifest is hashed without ``elapsed_seconds``.  The npz cache is
    hashed over its arrays, because zip members carry a write timestamp.
    """
    out = {}
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        if path.name == "manifest.json":
            doc = _read_json(path)
            doc.pop("elapsed_seconds", None)
            h.update(json.dumps(doc, sort_keys=True).encode())
        elif path.suffix == ".npz":
            with np.load(path) as data:
                for name in sorted(data.files):
                    arr = data[name]
                    h.update(f"{name}:{arr.dtype}:{arr.shape}".encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
        else:
            h.update(path.read_bytes())
        out[path.relative_to(work).as_posix()] = h.hexdigest()
    return out


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(STUDIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--full-checks", action="store_true")
    args = parser.parse_args(argv)

    study = STUDIES[args.workload](args.dir, args.seed)
    ops = Ops()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, TARGETS)

    timed_start = time.monotonic()
    cpu_start = _cpu_s()
    try:
        study.run(ops)
        completed = True
    except StudyFailed:
        completed = False
    wall_s = time.monotonic() - timed_start
    cpu_s = _cpu_s() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"timed_start": timed_start, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb,
              "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                           "blas": _blas_name()}}
    if tracer is not None:
        output_bytes = sum(p.stat().st_size for d in study.cli_outputs
                           for p in (args.dir / d).rglob("*") if p.is_file())
        metrics, absent, top_level_s = layer_metrics(tracer, output_bytes)
        result["trace"] = {"metrics": metrics, "absent": absent, "top_level_s": top_level_s,
                           "spans": len(tracer.spans)}

        def cold_start():
            calls = metrics["sampling.field_jacobians.calls"]["value"]
            loads = metrics["sampling.load_batch.calls"]["value"]
            require(calls == 1, f"sampling.field_jacobians ran {calls:g} times, want 1")
            require(loads == study.load_batch_calls,
                    f"sampling.load_batch ran {loads:g} times, want {study.load_batch_calls}")

        if completed:
            ops.check("cold start", cold_start)
    if completed:
        study.check(ops, np.random.default_rng(args.seed), args.full_checks)
        result["digest"] = digest(args.dir)
    result["ops"] = ops.records
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
