"""Sweep coverage: every (rank program, size) pair of the tree is run.

The COMM5xx verdicts are only as good as the runs behind them.  A pair
is accounted for when it completed after the program posted at least
one op -- run directly with its probe, or reached from a probed caller
-- or when it is pinned below as ending in the program's own argument
check before it communicates.  A new rank program without a probe or a
probed caller fails here by name.
"""

import ast
from pathlib import Path

import pytest

from repro.check import sweep_programs
from repro.check.sweep import DEFAULT_SIZES

SRC = Path(__file__).resolve().parent.parent / "src"

#: (program, nranks) -> the argument check it ends in
PINNED = {
    (program, n): "needs a power-of-two rank count"
    for program in ("juqcs_program", "dist_apply", "dist_gather")
    for n in (3, 5)
}


def _tree_modules(root: Path, base: Path):
    return [(p.relative_to(base).as_posix(), p, ast.parse(p.read_text()))
            for p in sorted(root.rglob("*.py"))
            if "check/" not in p.relative_to(base).as_posix()]


def unaccounted(report) -> list[str]:
    missing = []
    for run in report.runs:
        pair = (run.relpath, run.program, run.nranks)
        if pair in report.reached:
            continue
        check = PINNED.get((run.program, run.nranks))
        if check and run.outcome == "raised" and run.posted == 0 and \
                check in run.error:
            continue
        missing.append(f"{run.relpath}:{run.program} at {run.nranks} "
                       f"ranks ({run.outcome})")
    return missing


@pytest.fixture(scope="module")
def report():
    return sweep_programs(_tree_modules(SRC / "repro", SRC))


def test_every_pair_is_accounted_for(report):
    pairs = {(r.relpath, r.program, r.nranks) for r in report.runs}
    programs = {(r.relpath, r.program) for r in report.runs}
    assert len(pairs) == len(report.runs) == \
        len(programs) * len(DEFAULT_SIZES)
    assert len(pairs) >= 148
    assert unaccounted(report) == []


def test_pinned_pairs_still_end_in_their_argument_check(report):
    runs = {(r.program, r.nranks): r for r in report.runs}
    for pair, check in PINNED.items():
        run = runs[pair]
        assert run.outcome == "raised" and run.posted == 0, pair
        assert check in run.error, (pair, run.error)


def test_unprobed_program_fails_by_name(tmp_path):
    (tmp_path / "newapp.py").write_text(
        "def new_timing_program(comm, steps):\n"
        "    for _ in range(steps):\n"
        "        yield comm.barrier()\n")
    swept = sweep_programs(_tree_modules(tmp_path, tmp_path))
    assert unaccounted(swept) == [
        f"newapp.py:new_timing_program at {n} ranks (unprobed)"
        for n in DEFAULT_SIZES]
