"""Table I — the security-task catalogue, plus achieved allocations.

The paper's Table I lists each security task and its function.  The
reproduction regenerates that listing from
:data:`repro.taskgen.security_apps.TABLE1_SPECS` and extends it with
the timing parameters this library attaches (WCET, desired/maximum
period) and — as a cross-reference with Fig. 1 — the core and period
each task receives under HYDRA and SingleCore on the UAV platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    GoldenFixture,
    RawRun,
)
from repro.experiments.registry import register_experiment
from repro.experiments.reporting import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentScale
    from repro.experiments.parallel import SweepSpec

__all__ = [
    "Table1Row",
    "Table1Experiment",
    "table1_sweep_spec",
    "format_table1",
]


@dataclass(frozen=True)
class Table1Row:
    name: str
    application: str
    function: str
    surface: str
    wcet: float
    period_des: float
    period_max: float
    hydra_core: int
    hydra_period: float
    single_period: float


def table1_sweep_spec(cores: int = 2) -> "SweepSpec":
    """Table I as a single-point sweep (cacheable like the others)."""
    from repro.experiments.parallel import SweepSpec

    return SweepSpec(
        kind="table1",
        seed=0,  # the case study is deterministic; no randomness drawn
        points=({"cores": cores},),
    )


def _row_from_dict(row: Mapping[str, Any]) -> Table1Row:
    return Table1Row(
        name=row["name"],
        application=row["application"],
        function=row["function"],
        surface=row["surface"],
        wcet=float(row["wcet"]),
        period_des=float(row["period_des"]),
        period_max=float(row["period_max"]),
        hydra_core=int(row["hydra_core"]),
        hydra_period=float(row["hydra_period"]),
        single_period=float(row["single_period"]),
    )


@register_experiment("table1")
class Table1Experiment(Experiment):
    """Table I on the unified experiment protocol.

    The case study is deterministic, so the single-point sweep ignores
    the scale — ``--scale`` changes nothing here, by design.
    """

    name = "table1"
    title = "Table I — security-task catalogue + achieved allocations"
    description = (
        "Regenerate the paper's security-task listing, extended with "
        "the core and period each task receives under HYDRA and "
        "SingleCore on the UAV platform."
    )
    version = 1
    tags = ("paper", "table")
    order = 10
    columns = (
        "task", "application", "surface", "wcet", "period_des",
        "period_max", "hydra_core", "hydra_period", "single_period",
    )

    def __init__(self, cores: int = 2) -> None:
        self.cores = cores

    def sweeps(self, scale: "ExperimentScale") -> list["SweepSpec"]:
        return [table1_sweep_spec(self.cores)]

    def aggregate_domain(self, raw: RawRun) -> list[Table1Row]:
        return [_row_from_dict(row) for row in raw.payloads[0]["rows"]]

    def encode_data(self, domain: list[Table1Row]) -> dict[str, Any]:
        return {
            "cores": self.cores,
            "rows": [
                {
                    "name": r.name,
                    "application": r.application,
                    "function": r.function,
                    "surface": r.surface,
                    "wcet": r.wcet,
                    "period_des": r.period_des,
                    "period_max": r.period_max,
                    "hydra_core": r.hydra_core,
                    "hydra_period": r.hydra_period,
                    "single_period": r.single_period,
                }
                for r in domain
            ],
        }

    def decode_data(self, data: Mapping[str, Any]) -> list[Table1Row]:
        return [_row_from_dict(row) for row in data["rows"]]

    def render(self, result: ExperimentResult) -> str:
        # The platform size lives in the result, not this instance: a
        # 4-core result loaded from JSON must render as 4 cores even
        # through a default-constructed (2-core) experiment.
        self.check_result(result)
        return format_table1(
            self.decode_data(result.data),
            cores=int(result.data.get("cores", self.cores)),
        )

    def render_domain(self, domain: list[Table1Row]) -> str:
        return format_table1(domain, cores=self.cores)

    def table_rows(self, domain: list[Table1Row]) -> list[Sequence[Any]]:
        return [
            (r.name, r.application, r.surface, r.wcet, r.period_des,
             r.period_max, r.hydra_core, r.hydra_period, r.single_period)
            for r in domain
        ]

    def golden_fixture(self) -> GoldenFixture:
        from repro.experiments.golden import (
            table1_mini_aggregate,
            table1_mini_spec,
        )

        return GoldenFixture(
            name="table1_mini",
            build_spec=table1_mini_spec,
            summarize=table1_mini_aggregate,
        )


def format_table1(rows: list[Table1Row], cores: int = 2) -> str:
    return format_table(
        [
            "task", "app", "surface", "C (ms)", "T_des", "T_max",
            "HYDRA core", "HYDRA T", "SingleCore T",
        ],
        [
            (
                r.name,
                r.application,
                r.surface,
                f"{r.wcet:.0f}",
                f"{r.period_des:.0f}",
                f"{r.period_max:.0f}",
                r.hydra_core,
                f"{r.hydra_period:.0f}",
                f"{r.single_period:.0f}",
            )
            for r in rows
        ],
        title=f"Table I — security tasks (UAV platform, {cores} cores)",
    )
