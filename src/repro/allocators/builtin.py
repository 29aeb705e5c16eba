"""Registration of every built-in allocation strategy.

Imported by the registry on its first lookup, so ``import
repro.allocators`` alone stays cheap.  Spec strings equal
the produced allocators' ``name`` attributes — report labels survive
the trip through a JSON sweep spec and resolve back to a strategy.

The table below is the design space the paper explores: the HYDRA
greedy (with its solver variants exercising :mod:`repro.opt.period` and
:mod:`repro.opt.gp`), the SingleCore and OPT baselines (the latter via
:mod:`repro.opt.exhaustive` / :mod:`repro.opt.branch_bound`, each
assignment scored by the :mod:`repro.opt.joint` LP), the LP-refined
extension, the cheap greedy ablation rules, and the classic
bin-packing family of :mod:`repro.allocators.binpack`.  Every greedy
entry — HYDRA, ``hydra[np]``, SingleCore, the two ablation rules and
the four bin-packing rules — is HYDRA's one walk with its own core
rule or core filter.
"""

from __future__ import annotations

from repro.allocators.adaptive import AdaptiveAllocator
from repro.allocators.binpack import BIN_PACKING_RULES, BinPackingAllocator
from repro.allocators.registry import register_allocator
from repro.core.hydra import CoreRule, HydraAllocator
from repro.core.nonpreemptive import NonPreemptiveHydraAllocator
from repro.core.optimal import OptimalAllocator
from repro.core.singlecore import SingleCoreAllocator
from repro.core.variants import (
    LpRefinedHydraAllocator,
    first_feasible,
    slackiest_core,
)


def _core_rule(spec: str, rule: CoreRule) -> HydraAllocator:
    """HYDRA's walk under the core ``rule``, named ``spec``."""
    walk = HydraAllocator()
    walk.name, walk._choose = spec, rule
    return walk


register_allocator(
    "hydra",
    title="HYDRA (Algorithm 1): argmax-tightness greedy",
    description=(
        "The paper's algorithm: per security task, solve Eq. (7) on "
        "every core and take the core with the best tightness."
    ),
    tags=("paper", "greedy"),
)(HydraAllocator)

register_allocator(
    "hydra[gp]",
    title="HYDRA with the geometric-program inner solver",
    description=(
        "Same optimum as the closed form, but each Eq. (7) solve runs "
        "through the interior-point GP pipeline (repro.opt.gp) — the "
        "paper's actual solution route."
    ),
    tags=("paper", "greedy", "gp"),
)(lambda: HydraAllocator(solver="gp"))

register_allocator(
    "hydra[exact-rta]",
    title="HYDRA with exact response-time analysis",
    description=(
        "Replaces the linearised Eq. (5) interference bound with the "
        "exact fixed-point response time (extension; strictly more "
        "permissive)."
    ),
    tags=("extension", "greedy"),
)(lambda: HydraAllocator(solver="exact-rta"))

register_allocator(
    "hydra+lp",
    title="HYDRA assignment + joint LP period refinement",
    description=(
        "Keeps HYDRA's task-to-core assignment but re-solves all "
        "periods jointly with the exact LP (repro.opt.joint / "
        "repro.opt.lp); never worse than greedy periods."
    ),
    tags=("extension", "lp"),
)(LpRefinedHydraAllocator)

register_allocator(
    "hydra[np]",
    title="Blocking-aware HYDRA for non-preemptive security",
    description=(
        "HYDRA variant that only admits a core if its real-time tasks "
        "tolerate the security task's non-preemptive blocking (§V)."
    ),
    tags=("extension", "greedy"),
)(NonPreemptiveHydraAllocator)

register_allocator(
    "adaptive",
    title="Period-adaptation pass over HYDRA (closed form)",
    description=(
        "Re-solves every core's security periods in priority order "
        "after the HYDRA placement (arXiv:1911.11937 style).  With the "
        "closed-form solver over HYDRA this is a property-tested fixed "
        "point; it re-tightens inners whose periods are not per-core "
        "optimal (construct AdaptiveAllocator(inner=...) directly)."
    ),
    tags=("extension", "adaptive"),
)(AdaptiveAllocator)

register_allocator(
    "adaptive[exact-rta]",
    title="Exact-RTA period tightening over HYDRA",
    description=(
        "Keeps HYDRA's placement but replaces the linearised Eq. (7) "
        "periods with exact response-time optima — never looser, "
        "usually tighter monitoring at the same task→core map."
    ),
    tags=("extension", "adaptive"),
)(lambda: AdaptiveAllocator(solver="exact-rta"))

register_allocator(
    "adaptive[contego]",
    title="Contego-style mode-change-safe period adaptation",
    description=(
        "Re-adapts each period against both the normal mode and a "
        "simulated mode change (real-time WCETs inflated 1.5×, "
        "arXiv:1705.00138 style) and keeps the looser of the two; "
        "cores that cannot sustain the mode change revert to HYDRA's "
        "periods."
    ),
    tags=("extension", "adaptive"),
)(lambda: AdaptiveAllocator(solver="exact-rta", mode_factor=1.5))

register_allocator(
    "singlecore",
    title="SingleCore baseline: one dedicated security core",
    description=(
        "All security tasks on a core free of real-time tasks, periods "
        "adapted sequentially; prepare the system with "
        "build_singlecore_system (the scenario runner does this "
        "automatically)."
    ),
    tags=("paper", "baseline"),
)(SingleCoreAllocator)

register_allocator(
    "optimal",
    title="OPT baseline: exhaustive assignment enumeration",
    description=(
        "Enumerates every task-to-core assignment "
        "(repro.opt.exhaustive) and scores each with the joint period "
        "LP; exponential in the security task count."
    ),
    tags=("paper", "optimal", "lp"),
)(OptimalAllocator)

register_allocator(
    "optimal[branch-bound]",
    title="OPT via branch-and-bound (same optimum, fewer LP solves)",
    description=(
        "Provably the same optimum as exhaustive enumeration, pruning "
        "with monotone feasibility and LP upper bounds "
        "(repro.opt.branch_bound)."
    ),
    tags=("extension", "optimal", "lp"),
)(lambda: OptimalAllocator(search="branch-bound"))

register_allocator(
    "first-feasible",
    title="Ablation: first feasible core instead of argmax tightness",
    description="Cheapest possible core choice; isolates what HYDRA's "
    "argmax rule buys.",
    tags=("ablation", "greedy"),
)(lambda: _core_rule("first-feasible", first_feasible))

register_allocator(
    "slackiest-core",
    title="Ablation: feasible core with the most utilisation slack",
    description="A worst-fit flavour that spreads the security load.",
    tags=("ablation", "greedy"),
)(lambda: _core_rule("slackiest-core", slackiest_core))

_BINPACK_NOTES = {
    "first-fit": " The core rule of 'first-feasible', so the two place "
    "identically; registered under both names so packing grids and "
    "ablation grids read naturally.",
    "worst-fit": " Ranks cores by utilisation; the 'slackiest-core' "
    "ablation rule ranks by 1 − U, which can tie where this does not.",
}

for _rule in BIN_PACKING_RULES:
    register_allocator(
        f"binpack-{_rule}",
        title=f"Classic {_rule} bin-packing for security tasks",
        description=(
            f"Places each security task by the {_rule} rule over the "
            f"cores with a feasible Eq. (7) period (Hasan et al. 2018 "
            f"style baseline).{_BINPACK_NOTES.get(_rule, '')}"
        ),
        tags=("binpack",),
    )(lambda rule=_rule: BinPackingAllocator(rule=rule))
