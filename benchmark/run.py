"""Design-study benchmark for ``svoed``.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each study of the workload runs in a fresh
process (``workload.py``) and a fresh directory, one at a time, so every
study starts cold: no batch cache is ever reused across studies.  Studies
repeat until the next one would end after ``--seconds`` (at least two), and
their outputs must be identical.  The last stdout line is the result:

* ``--trace 0``: medians over the studies of ``wall_s``, ``cpu_s``,
  ``peak_rss_mb`` and ``setup_s``;
* ``--trace 1``: the same untraced studies, then one traced study whose
  per-layer metrics are reported, with the tracing overhead.

The line before it carries the per-study figures, the environment and any
failed operation.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("rod-pair-study", "plate-greedy", "plate-e99-field")
MIN_STUDIES = 2
# Every run must end within 180 s; no study starts that could end past this.
RUN_LIMIT_S = 165.0
# One thread per process for BLAS; only plate-e99-field uses threads, two.
BLAS_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_study(workload: str, seed: int, trace: bool, full_checks: bool,
              timeout: float) -> dict:
    """Run one study process and return its report plus ``setup_s``.

    A process that exits non-zero, times out or prints no report yields a
    report holding one failed operation.
    """
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(work)]
    cmd += ["--trace"] * trace + ["--full-checks"] * full_checks
    try:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **BLAS_ENV},
                                stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"ops": [{"op": "study process", "ok": False,
                             "error": f"timed out after {timeout:.0f} s"}]}
        ended = time.monotonic()
        lines = stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            report = None
        if proc.returncode != 0 or not isinstance(report, dict):
            return {"ops": [{"op": "study process", "ok": False,
                             "error": f"exit {proc.returncode}, no report"}]}
        report["setup_s"] = report["timed_start"] - spawned
        report["process_s"] = ended - spawned
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def environment() -> dict:
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": 1,
            "git_commit": commit, "source_sha256": source.hexdigest(),
            "python": sys.version.split()[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "svoed" / "__init__.py").is_file():
        print(f"run.py: no svoed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    studies: list[dict] = []
    while True:
        elapsed = time.monotonic() - started
        longest = max((s.get("process_s", 0.0) for s in studies), default=0.0)
        reserve = longest * (2 if args.trace else 1)
        if studies and ("wall_s" not in studies[-1] or elapsed + reserve > RUN_LIMIT_S):
            break
        if len(studies) >= MIN_STUDIES and elapsed + longest > args.seconds:
            break
        studies.append(run_study(args.workload, args.seed, trace=False,
                                 full_checks=not studies,
                                 timeout=RUN_LIMIT_S - elapsed))
    traced = None
    if args.trace:
        traced = run_study(args.workload, args.seed, trace=True, full_checks=False,
                           timeout=RUN_LIMIT_S - (time.monotonic() - started))

    ops = [op for s in studies + [traced] if s for op in s["ops"]]
    digests = [s["digest"] for s in studies + [traced] if s and "digest" in s]
    for index, other in enumerate(digests[1:], start=2):
        ops.append({"op": f"check outputs of study {index} equal study 1",
                    "ok": other == digests[0], "error": None if other == digests[0]
                    else "outputs differ between two runs of one seed"})
    failed = [op for op in ops if not op["ok"]]

    measured = [s for s in studies if "wall_s" in s]
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    medians = {name: statistics.median(s[name] for s in measured)
               for name in units if measured}
    if args.trace:
        metrics = {}
        if traced and "trace" in traced:
            metrics = dict(traced["trace"]["metrics"])
            wall, top = traced["wall_s"], traced["trace"]["top_level_s"]
            untraced = medians.get("wall_s", 0.0)
            for name, value, unit in (
                    ("trace.wall_s", wall, "s"),
                    ("trace.untraced_wall_s", untraced, "s"),
                    ("trace.overhead_s", wall - untraced, "s"),
                    ("trace.spans", traced["trace"]["spans"], "count"),
                    ("trace.coverage", top / wall, "ratio"),
                    ("trace.coverage_untraced", top / untraced if untraced else 0.0, "ratio")):
                metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in medians.items()}

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": {**environment(), **(measured[0]["versions"] if measured else {})},
        "studies": [{k: s[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
                    for s in measured],
        "absent_layers": traced["trace"]["absent"] if traced and "trace" in traced else [],
        "failed_ops": failed,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
