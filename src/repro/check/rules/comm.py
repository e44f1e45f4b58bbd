"""COMM5xx: MPI-protocol verification of vmpi rank programs.

One project-scoped rule hands every module to the sweep
(``repro.check.sweep``), which imports each rank program and runs it
through ``VmpiEngine(mode="step")`` at communicator sizes 2-5.  The
engine is the oracle: its outcomes map onto six rule ids.

* **COMM501** -- a collective sits under rank-dependent control flow
  with non-covering branches: the engine deadlocks with the collective
  waiting on members that finished or are blocked elsewhere;
* **COMM502** -- ranks of one communicator disagree on the *order* of
  collectives: the engine reports a collective-kind mismatch;
* **COMM503** -- a send/recv wait-for cycle: the engine deadlocks and
  no blocked rank waits on a finished one;
* **COMM504** -- two transfers of one yielded batch share a
  (communicator, channel, tag): the tag no longer discriminates the
  messages and matching silently falls back to posting order;
* **COMM505** -- a rooted/reducing collective's root or reduce op
  differs across ranks: the engine reports that mismatch;
* **COMM506** -- an orphan endpoint: a transfer whose peer already
  finished, or a send still unreceived when every rank returned.

The pass is deliberately quiet at its boundary: a program that needs
arguments but has no probe (and no probed caller), and a program that
raises its own exception -- an argument check, an out-of-range peer --
produce *no* findings.  See DESIGN.md §12.
"""

from __future__ import annotations

from ..findings import Severity
from ..sweep import DEFAULT_SIZES, sweep_programs
from .base import Collector, ModuleInfo, Rule

ID_SEVERITY = {
    "COMM501": Severity.ERROR,
    "COMM502": Severity.ERROR,
    "COMM503": Severity.ERROR,
    "COMM504": Severity.WARNING,
    "COMM505": Severity.ERROR,
    "COMM506": Severity.ERROR,
}

ID_DESCRIPTIONS = {
    "COMM501": ("A collective is issued under rank-dependent control "
                "flow with non-covering branches; ranks that skip it "
                "leave the collective incomplete forever."),
    "COMM502": ("Ranks of one communicator post collectives in "
                "different orders: the same sequence position mixes "
                "different collective kinds."),
    "COMM503": ("Send/recv wait-for cycle in the per-tag channel "
                "graph: no rank in the cycle can progress (deadlock, "
                "differentially validated against the step engine)."),
    "COMM504": ("Concurrent transfers in one batch share a "
                "(communicator, channel, tag); the tag no longer "
                "discriminates the messages and matching falls back "
                "to posting order."),
    "COMM505": ("A rooted or reducing collective's root/reduce op is "
                "not derivably consistent across ranks "
                "(subset-participation mismatch)."),
    "COMM506": ("Unmatched point-to-point endpoint: a send nobody "
                "receives, a receive whose peer terminated without "
                "sending, or asymmetric exchange transfer counts."),
}


class CommProtocolRule(Rule):
    """COMM501..COMM506: engine outcomes of the rank-program sweep."""

    id = "COMM501"
    ids = ("COMM502", "COMM503", "COMM504", "COMM505", "COMM506")
    name = "comm-protocol"
    severity = Severity.ERROR
    description = ID_DESCRIPTIONS["COMM501"]
    #: project scope: verdicts depend on *all* modules (a program runs
    #: its helpers from other modules), so per-module caching would be
    #: unsound -- and cold/warm output is trivially identical
    scope = "project"

    #: communicator sizes each program runs at
    sizes = DEFAULT_SIZES

    def __init__(self) -> None:
        self._modules: list[ModuleInfo] = []

    def descriptors(self) -> list[dict]:
        return [{"id": rid, "name": f"{self.name}-{rid[-3:]}",
                 "description": ID_DESCRIPTIONS[rid],
                 "severity": ID_SEVERITY[rid]}
                for rid in sorted(ID_SEVERITY)]

    def applies_to(self, relpath: str) -> bool:
        # the analyzer's own code and its fixtures talk *about*
        # protocols; only model/app code communicates
        return "check/" not in relpath

    def check_module(self, module: ModuleInfo, out: Collector) -> None:
        self._modules.append(module)

    def finalize(self, out: Collector) -> None:
        report = sweep_programs(
            [(m.relpath, m.path, m.tree) for m in self._modules],
            sizes=self.sizes)
        for finding in report.findings:
            if not self.emits(finding.rule_id):
                continue
            out.add(self, finding.relpath, finding.line,
                    finding.message, rule_id=finding.rule_id,
                    severity=ID_SEVERITY[finding.rule_id],
                    trace=list(finding.trace))
        self._modules = []
