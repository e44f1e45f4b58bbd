"""Self-test of the benchmark itself (not of ``repro``).

    python3 perfbench/selftest.py

Checks, in about half a minute:

1. ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints;
2. the span recorder computes self time as duration minus the part of
   the interval its children cover (fake clock, threads included);
3. the benchmark refuses to run under another vmpi core;
4. a run against an expected-digest file with one digest altered
   reports ``correct: false`` with the failed check named, while the
   pinned digests pass.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import run
import spanrec

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def check_spec() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, catalogue in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        expect(listed == catalogue, f"BENCHMARK.json {key} matches run.py")
    expect([w["name"] for w in spec["workloads"]] ==
           list(run.WORKLOAD_NAMES), "BENCHMARK.json workloads match run.py")


def check_recorder() -> None:
    now = [0.0]
    rec = spanrec.Recorder(clock=lambda: now[0])
    with rec.span("root"):
        now[0] = 1.0
        with rec.span("child"):
            now[0] = 2.0
            frame = rec.hot_enter()
            now[0] = 2.5
            rec.hot_exit("leaf", frame)
            now[0] = 3.0
        now[0] = 4.0
        # a worker-thread span parents to the open main-thread span
        worker = threading.Thread(target=lambda: rec.close(rec.open("w")))
        worker.start()
        worker.join(timeout=10)
        now[0] = 5.0
    names = {s[0]: s[1] for s in rec.spans}
    selfs = {names[sid]: t for sid, t in rec.self_times().items()}
    parents = {s[1]: names.get(s[4]) for s in rec.spans}
    expect(selfs == {"root": 3.0, "child": 1.5, "w": 0.0},
           f"self times are duration minus covered part ({selfs})")
    expect(parents == {"root": None, "child": "root", "w": "root"},
           f"spans record their parents ({parents})")
    expect(rec.hot["leaf"] == [1, 0.5, 0.5], "hot spans aggregate")


def run_bench(*args: str, env: dict[str, str] | None = None
              ) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          cwd=run.ROOT, env=env, capture_output=True,
                          text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def check_refusal() -> None:
    env = dict(os.environ, REPRO_VMPI_MODE="step")
    code, out = run_bench("--workload", "suite-engine", "--seed", "1",
                          "--seconds", "1", "--trace", "0", env=env)
    expect(code != 0 and not out, "refuses REPRO_VMPI_MODE=step")


def check_digests() -> None:
    pinned = json.loads((run.HERE / "expected.json").read_text())
    altered = json.loads(json.dumps(pinned))
    digest = altered["suite-engine"]["fig2_sha256"]
    altered["suite-engine"]["fig2_sha256"] = \
        ("0" if digest[0] != "0" else "1") + digest[1:]
    work = run.ROOT / ".perfbench" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    path = work / "expected-altered.json"
    path.write_text(json.dumps(altered))
    for expected, want in ((path, False), (run.HERE / "expected.json", True)):
        code, out = run_bench("--workload", "suite-engine", "--seed", "1",
                              "--seconds", "1", "--trace", "0",
                              "--expected", str(expected))
        result = json.loads(out[-1]) if code == 0 and out else {}
        expect(result.get("correct") is want and
               (result.get("failed", 0) > 0) is not want,
               f"digests {'pinned' if want else 'altered'}: "
               f"correct={result.get('correct')}")
        if not want:
            expect("# FAILED CHECK: fig2 curves digest" in out,
                   "the altered digest is the failed check")


def main() -> int:
    check_spec()
    check_recorder()
    check_refusal()
    check_digests()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
