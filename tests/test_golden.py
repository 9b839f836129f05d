"""Golden CLI outputs: small fixed runs whose every output file must not change.

Each case runs ``svoed`` on a small rod or plate config and compares every
file it writes, byte for byte, with the copy under ``tests/golden/CASE/``.
The manifest is compared as JSON without ``elapsed_seconds``, and is
stored without it.  A refactor that changes no number passes unchanged; a
change that moves a number, a format or a file name fails here first.

Regenerate the files from the code on the path (for a refactor, a checkout
of the commit before it) with

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

Named cases are rewritten and the others left as they are; with no names,
every case is.  Either way a directory that names no case is removed.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from svoed import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

ROD = {"kind": "heat_rod_1d", "elements": 10, "time_steps": 5}
PLATE3 = {"kind": "heat_plate_2d", "elements": 3, "time_steps": 8}
PLATE6 = {"kind": "heat_plate_2d", "elements": 6, "time_steps": 8}

# name -> (subcommand, config, extra arguments).  Output goes to "out" next
# to the config unless the case passes --out; "{work}" is the run directory.
CASES = {
    "rod-sweep-pairs": ("sweep", {
        "model": ROD, "sampling": {"count": 8, "seed": 3},
        "design": {"arity": 2}}, []),
    "rod-sweep-initial": ("sweep", {
        "model": ROD,
        "sampling": {"count": 8, "seed": 4,
                     "init": {"kind": "gaussian", "mean": [0.1, 0.12], "cov": 0.002}},
        "design": {"arity": 2}}, []),
    "rod-oed-pairs": ("oed", {
        "model": ROD, "sampling": {"count": 8, "seed": 3},
        "design": {"arity": 2, "utility": "esk_inverse"}}, []),
    "rod-oed-scalar-seed-out": ("oed", {
        "model": ROD, "sampling": {"count": 6, "seed": 1},
        "design": {"arity": 1}}, ["--seed", "17", "--out", "{work}/elsewhere"]),
    "rod-greedy": ("greedy", {
        "model": ROD, "sampling": {"count": 6, "seed": 5},
        "greedy": {"m_target": 2}}, []),
    "plate-sweep-scalar": ("sweep", {
        "model": PLATE3, "sampling": {"count": 10, "seed": 2},
        "design": {"arity": 1}}, []),
    "plate-oed-pairs": ("oed", {
        "model": PLATE3, "sampling": {"count": 10, "seed": 2},
        "design": {"arity": 2}}, []),
    "plate-greedy": ("greedy", {
        "model": PLATE6, "sampling": {"count": 6, "seed": 8},
        "greedy": {"m_target": 4}}, []),
    "rod-dci": ("dci", {
        "model": ROD, "sampling": {"seed": 2},
        "dci": {"sensors": [0.0, 1.0], "count": 300, "seed": 9}}, []),
}


def run_case(name: str, workdir: Path) -> Path:
    """Run one case in ``workdir``; returns its output directory."""
    task, config, extra = CASES[name]
    path = workdir / "run.json"
    path.write_text(json.dumps(dict(config, task=task, output_dir="out")))
    extra = [a.format(work=workdir) for a in extra]
    assert cli.main([task, "--config", str(path)] + extra) == cli.EXIT_OK
    return Path(extra[extra.index("--out") + 1]) if "--out" in extra else workdir / "out"


def comparable(path: Path) -> bytes:
    if path.name != "manifest.json":
        return path.read_bytes()
    manifest = json.loads(path.read_text())
    manifest.pop("elapsed_seconds", None)
    return json.dumps(manifest, indent=1).encode()


def assert_matches_golden(name: str, outdir: Path) -> None:
    golden = GOLDEN / name
    written = sorted(p.name for p in outdir.iterdir())
    assert written == sorted(p.name for p in golden.iterdir())
    for file in written:
        assert comparable(outdir / file) == comparable(golden / file), file


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name, tmp_path):
    assert_matches_golden(name, run_case(name, tmp_path))


@pytest.mark.parametrize("name", ["rod-oed-pairs", "rod-sweep-pairs", "rod-dci"])
def test_csv_blocks_do_not_change_the_outputs(name, tmp_path, monkeypatch):
    # The goldens fit in one block of rows; split them into many.
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 7)
    assert_matches_golden(name, run_case(name, tmp_path))


def regenerate(names) -> None:
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"no such case: {', '.join(unknown)}")
    for stale in GOLDEN.glob("*"):
        if stale.name not in CASES or stale.name in (names or CASES):
            shutil.rmtree(stale)
    for name in sorted(names or CASES):
        with tempfile.TemporaryDirectory() as work:
            shutil.copytree(run_case(name, Path(work)), GOLDEN / name)
        # The run time varies from run to run and is never compared.
        (GOLDEN / name / "manifest.json").write_bytes(
            comparable(GOLDEN / name / "manifest.json") + b"\n")
        print(f"wrote {GOLDEN / name}")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
