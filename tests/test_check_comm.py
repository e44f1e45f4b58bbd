"""COMM5xx protocol-verification tests: discovery, sweep verdicts,
goldens, filtering, and the clean-at-HEAD acceptance criterion.

Every verdict test writes its program under ``tmp_path`` and runs it
through the sweep, i.e. through the step engine at sizes 2-5."""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.check import (
    Analyzer,
    load_baseline,
    rank_programs,
    render_json,
    render_sarif,
    sweep_programs,
)
from repro.check.rules import expand_rule_prefixes, rule_ids
from repro.check.rules.comm import ID_DESCRIPTIONS, ID_SEVERITY
from repro.check.sweep import DEFAULT_SIZES

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures" / "comm"
GOLDEN_DIR = Path(__file__).parent / "goldens"

COMM_IDS = tuple(sorted(ID_SEVERITY))


@pytest.fixture
def analyze_source(tmp_path):
    """Write ``source`` to ``prog.py`` under tmp_path and sweep it."""

    def analyze(source: str, sizes=DEFAULT_SIZES):
        path = tmp_path / "prog.py"
        path.write_text(textwrap.dedent(source))
        modules = [("prog.py", path, ast.parse(path.read_text()))]
        return sweep_programs(modules, sizes=sizes).findings

    return analyze


# -- model/engine contracts --------------------------------------------------

def test_comm_ids_registered():
    ids = rule_ids()
    for rid in COMM_IDS:
        assert rid in ids
    assert set(ID_DESCRIPTIONS) == set(ID_SEVERITY)


# -- extraction --------------------------------------------------------------

def test_rank_program_detection():
    tree = ast.parse(textwrap.dedent("""
        def prog(comm, n):
            yield comm.barrier()

        def helper(comm):
            return comm.size  # not a generator

        def other(x):
            yield x  # first arg is not a communicator

        def annotated(c: Comm):
            yield c.barrier()
    """))
    names = [fn.name for fn in rank_programs(tree)]
    assert names == ["prog", "annotated"]


def test_skeleton_follows_yield_from_helpers(analyze_source):
    # the helper's parameter is not named ``comm``, so it is not a
    # standalone rank program -- only running its caller sees the bug
    findings = analyze_source("""
        def half_barrier(c):
            if c.rank == 0:
                yield c.barrier()

        def prog(comm):
            yield from half_barrier(comm)
            yield comm.compute(flops=1.0)
    """)
    assert [f.rule_id for f in findings] == ["COMM501"]
    # the finding anchors at the collective inside the helper
    assert findings[0].line == 4
    assert findings[0].program == "prog"


def test_unresolvable_programs_stay_quiet(analyze_source):
    # communication under a branch on received data: the engine moves
    # the real payloads, every rank takes the branch, nothing to report
    findings = analyze_source("""
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            (back,) = yield comm.exchange(sends=((right, 1.0),),
                                          recvs=(left,), tag=1)
            if back:
                yield comm.barrier()
    """)
    assert findings == []


def test_out_of_range_peer_is_not_a_protocol_bug(analyze_source):
    # xor partners fall outside the communicator at non-power-of-two
    # sizes; the facade raises at construction (a crash, not a
    # deadlock), so the pass must not report it
    findings = analyze_source("""
        def prog(comm):
            peer = comm.rank ^ 1
            yield comm.send(peer, 1.0, tag=1)
            back = yield comm.recv(peer, tag=1)
    """, sizes=(3,))
    assert findings == []


# -- verdicts ----------------------------------------------------------------

def test_comm501_divergent_collective(analyze_source):
    findings = analyze_source("""
        def prog(comm):
            if comm.rank < comm.size - 1:
                yield comm.barrier()
    """)
    assert [f.rule_id for f in findings] == ["COMM501"]
    assert findings[0].nranks == 2


def test_comm502_order_mismatch(analyze_source):
    findings = analyze_source("""
        def prog(comm):
            if comm.rank == 0:
                yield comm.barrier()
                yield comm.allreduce(1.0)
            else:
                yield comm.allreduce(1.0)
                yield comm.barrier()
    """)
    assert [f.rule_id for f in findings] == ["COMM502"]


def test_comm503_recv_cycle(analyze_source):
    findings = analyze_source("""
        def prog(comm):
            left = (comm.rank - 1) % comm.size
            right = (comm.rank + 1) % comm.size
            token = yield comm.recv(left, tag=1)
            yield comm.send(right, token, tag=1)
    """)
    assert [f.rule_id for f in findings] == ["COMM503"]
    assert any("wait-for cycle" in f.message for f in findings)


def test_comm503_rendezvous_head_to_head(analyze_source):
    # payloads over the engine's eager limit rendezvous; symmetric
    # sends deadlock
    findings = analyze_source("""
        from repro.vmpi import Phantom

        def prog(comm):
            peer = (comm.rank + 1) % 2
            yield comm.send(peer, Phantom(1 << 20), tag=2)
            back = yield comm.recv(peer, tag=2)
    """, sizes=(2,))
    assert [f.rule_id for f in findings] == ["COMM503"]


def test_eager_sends_do_not_deadlock(analyze_source):
    # same shape, small payload: eager completes locally, no deadlock
    findings = analyze_source("""
        def prog(comm):
            peer = (comm.rank + 1) % 2
            yield comm.send(peer, 1.0, tag=2)
            back = yield comm.recv(peer, tag=2)
    """, sizes=(2,))
    assert findings == []


def test_comm504_tag_collision_in_batch(analyze_source):
    findings = analyze_source("""
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            reqs = yield (comm.isend(right, 1.0, tag=9),
                          comm.isend(right, 2.0, tag=9),
                          comm.irecv(left, tag=9),
                          comm.irecv(left, tag=9))
            yield comm.waitall(reqs)
    """)
    assert "COMM504" in {f.rule_id for f in findings}
    assert all(f.rule_id == "COMM504" for f in findings)


def test_comm505_rank_dependent_root(analyze_source):
    findings = analyze_source("""
        def prog(comm):
            yield comm.reduce(1.0, root=comm.rank % 2)
    """)
    assert [f.rule_id for f in findings] == ["COMM505"]


def test_comm506_orphan_recv(analyze_source):
    findings = analyze_source("""
        def prog(comm):
            if comm.rank == 0:
                yield comm.recv(1, tag=5)
    """)
    assert [f.rule_id for f in findings] == ["COMM506"]


def test_comm506_orphan_send(analyze_source):
    findings = analyze_source("""
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, 7.0, tag=6)
            yield comm.barrier()
    """)
    assert [f.rule_id for f in findings] == ["COMM506"]


def test_clean_ring_is_quiet(analyze_source):
    findings = analyze_source("""
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            token = yield comm.sendrecv(right, 1.0, left, tag=2)
            total = yield comm.allreduce(token)
            yield comm.barrier()
    """)
    assert findings == []


def test_split_collectives_are_tracked(analyze_source):
    # divergence *within* a derived communicator is still caught:
    # at size 4 the even subgroup is {0, 2} but only rank 0 posts
    findings = analyze_source("""
        def prog(comm):
            sub = yield comm.split(comm.rank % 2)
            if comm.rank < 2:
                yield sub.barrier()
    """, sizes=(4,))
    assert [f.rule_id for f in findings] == ["COMM501"]


def test_split_clean_subgroups(analyze_source):
    findings = analyze_source("""
        def prog(comm):
            sub = yield comm.split(comm.rank % 2)
            total = yield sub.allreduce(1.0)
            yield comm.barrier()
    """)
    assert findings == []


def test_unprobed_programs_stay_quiet(analyze_source):
    # a program that needs arguments runs only with a probe (or from a
    # probed caller); without one the sweep does not guess and stays
    # quiet, however buggy the program is
    findings = analyze_source("""
        def prog(comm, rounds):
            if comm.rank == 0:
                yield comm.barrier()
    """)
    assert findings == []


def test_own_exception_stays_quiet(analyze_source):
    # a program's own argument check is not a protocol bug
    findings = analyze_source("""
        def prog(comm):
            if comm.size % 2:
                raise ValueError("needs an even rank count")
            yield comm.recv((comm.rank + 1) % comm.size)
    """, sizes=(3,))
    assert findings == []


def test_findings_carry_program_provenance(analyze_source):
    findings = analyze_source("""
        def prog(comm):
            if comm.rank == 0:
                yield comm.barrier()
    """)
    (f,) = findings
    assert f.program == "prog"
    assert f.trace[0].startswith("program prog (prog.py:")
    assert f.trace[1] == f"nranks={f.nranks}"


# -- fixture corpus + goldens ------------------------------------------------

@pytest.fixture(scope="module")
def fixture_report():
    return Analyzer(only=expand_rule_prefixes(["COMM"])).run(
        FIXTURES, rel_base=FIXTURES)


def test_fixture_corpus_covers_every_rule_id(fixture_report):
    seen = {f.rule for f in fixture_report.active}
    assert seen == set(COMM_IDS)


def test_fixture_json_matches_golden(fixture_report):
    golden = (GOLDEN_DIR / "comm_fixture.json").read_text()
    assert render_json(fixture_report, strict=True) == golden


def test_fixture_sarif_matches_golden(fixture_report):
    golden = (GOLDEN_DIR / "comm_fixture.sarif").read_text()
    assert render_sarif(fixture_report) == golden


def test_fixture_sarif_is_valid(fixture_report):
    doc = json.loads(render_sarif(fixture_report))
    assert doc["version"] == "2.1.0"
    (run,) = doc["runs"]
    rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert set(COMM_IDS) <= rules


# -- family filtering --------------------------------------------------------

def test_expand_rule_prefixes():
    assert expand_rule_prefixes(["COMM"]) == list(COMM_IDS)
    assert expand_rule_prefixes(["COMM503"]) == ["COMM503"]
    assert expand_rule_prefixes(["UNIT3", "COMM50"]) == \
        [rid for rid in rule_ids() if rid.startswith("UNIT3")] + \
        list(COMM_IDS)
    with pytest.raises(ValueError):
        expand_rule_prefixes(["NOPE"])


def test_select_family_reaches_analyzer():
    report = Analyzer(only=expand_rule_prefixes(["COMM"])).run(
        FIXTURES, rel_base=FIXTURES)
    assert {f.rule for f in report.active} == set(COMM_IDS)
    # non-COMM rules did not run: fixtures contain no other findings
    assert all(f.rule.startswith("COMM") for f in report.active)


def test_select_does_not_report_filtered_baselines_stale():
    # entries of rules that did not run cannot have matched anything;
    # a family-filtered run must not flag them for pruning
    baseline = load_baseline(REPO_ROOT / "check-baseline.json")
    assert baseline.entries, "expected a non-empty committed baseline"
    report = Analyzer(baseline=baseline,
                      only=expand_rule_prefixes(["COMM"])).run(
        REPO_ROOT / "src" / "repro", rel_base=REPO_ROOT)
    assert report.unused_baseline == []


def test_select_comm_cold_vs_warm_identical(tmp_path):
    from repro.exec import DiskCache

    cache = DiskCache(tmp_path / "cache")
    only = expand_rule_prefixes(["COMM"])
    cold = Analyzer(only=only).run(FIXTURES, rel_base=FIXTURES,
                                   cache=cache)
    warm = Analyzer(only=only).run(FIXTURES, rel_base=FIXTURES,
                                   cache=cache)
    assert render_json(cold, strict=True) == \
        render_json(warm, strict=True)
    assert render_sarif(cold) == render_sarif(warm)


# -- acceptance: the repository itself --------------------------------------

def test_repo_has_zero_comm_findings_at_head():
    """COMM5xx acceptance criterion: apps/ and synthetic/ are clean
    (the linktest spectator-barrier bug is fixed, nothing baselined)."""
    baseline = load_baseline(REPO_ROOT / "check-baseline.json")
    analyzer = Analyzer(baseline=baseline,
                        only=expand_rule_prefixes(["COMM"]))
    report = analyzer.run(REPO_ROOT / "src" / "repro",
                          rel_base=REPO_ROOT)
    assert not report.active, [f.render() for f in report.active]
    assert not any(f.rule.startswith("COMM")
                   for f in report.baselined)
