"""Paper-vs-measured summary report (``cryowire report``).

Runs the experiments that carry a quantitative paper reference and
prints one line per anchored quantity: the paper's value, this
repository's regenerated value, and the relative difference. Simulation-
heavy experiments run with reduced cycle counts so the whole report
takes well under a minute.
"""

from __future__ import annotations

import statistics
from typing import Callable, List, Optional, Tuple

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import run_experiment

Row = Tuple[str, str, float, float]

#: The experiments whose outputs carry the anchors, in report order.
REPORT_IDS = (
    "fig02", "fig03", "fig05", "fig10", "fig12_14", "fig17",
    "fig20", "fig22", "fig23", "fig24", "table3", "fig09",
)

#: A runner maps an experiment id to its result. The default is the
#: serial uncached path; the CLI runs :data:`REPORT_IDS` through the
#: caching engine in one sweep and reads the results mapping.
Runner = Callable[[str], ExperimentResult]


def _fig23_rows(runner: Runner) -> List[Row]:
    result = runner("fig23")

    def mean(column: str) -> float:
        return result.lookup("workload", "mean", column)

    combined = mean("CryoSP (77K, CryoBus)")
    return [
        ("fig23", "CryoSP+CryoBus vs CHP mesh (avg)", 2.53, combined),
        ("fig23", "CryoSP+CryoBus vs 300K (avg)", 3.82,
         combined / mean("Baseline (300K, Mesh)")),
        ("fig23", "CryoBus alone (avg)", 2.10, mean("CHP-core (77K, CryoBus)")),
        ("fig23", "CryoSP alone (avg)", 1.161, mean("CryoSP (77K, Mesh)")),
        ("fig23", "streamcluster combined", 5.74,
         result.lookup("workload", "streamcluster", "CryoSP (77K, CryoBus)")),
    ]


def collect(runner: Optional[Runner] = None) -> List[Row]:
    """(experiment, quantity, paper, measured) for every anchor."""
    runner = runner or run_experiment
    rows: List[Row] = []

    fig02 = runner("fig02")
    rows.append(
        ("fig02", "forwarding-stage wire share", 0.576,
         fig02.lookup("stage", "mean", "wire_fraction"))
    )

    fig03 = runner("fig03")
    rows.append(
        ("fig03", "NoC(+sync) CPI share (avg)", 0.456,
         fig03.lookup("workload", "mean", "noc_plus_sync"))
    )

    fig05 = runner("fig05")
    series = {}
    for name, length, speedup in fig05.rows:
        series[(name, length)] = speedup
    rows.append(("fig05", "repeated global @6.22mm", 3.38,
                 series[("global_repeated", 6220.0)]))
    rows.append(("fig05", "max unrepeated semi-global", 3.69,
                 max(v for (n, _), v in series.items()
                     if n == "semi_global_unrepeated")))

    fig10 = runner("fig10")
    rows.append(("fig10", "6mm link speed-up @77K", 3.05, fig10.rows[0][1]))

    fig12 = runner("fig12_14")
    cold = max(r[5] for r in fig12.rows if r[0] == "fig13_77K")
    superpipelined = max(
        r[5] for r in fig12.rows if r[0] == "fig14_superpipelined_77K"
    )
    rows.append(("fig13", "77K max-delay reduction", 0.19, 1 - cold))
    rows.append(("fig14", "superpipelined reduction", 0.38, 1 - superpipelined))

    fig17 = runner("fig17")
    rows.append(("fig17", "77K mesh vs ideal NoC", 0.567,
                 fig17.lookup("workload", "mean", "mesh_77k")))

    fig20 = runner("fig20")
    rows.append(("fig20", "CryoBus broadcast cycles", 1.0,
                 float(fig20.lookup("design", "cryobus", "broadcast"))))

    fig22 = runner("fig22")
    rows.append(("fig22", "CryoBus power vs 300K mesh", 0.428,
                 fig22.lookup("design", "cryobus", "total")))

    rows.extend(_fig23_rows(runner))

    fig24 = runner("fig24")
    rows.append(("fig24", "CryoBus+prefetch vs 300K", 2.11,
                 fig24.lookup("workload", "mean", "CryoSP (77K, CryoBus)")))
    rows.append(("fig24", "2-way CryoBus vs 300K", 2.34,
                 fig24.lookup("workload", "mean",
                              "CryoSP (77K, CryoBus, 2-way)")))

    table3 = runner("table3")
    rows.append(("table3", "CryoSP frequency (GHz)", 7.84,
                 table3.lookup("design", "77K CryoSP", "frequency_ghz")))
    rows.append(("table3", "CHP-core frequency (GHz)", 6.1,
                 table3.lookup("design", "CHP-core", "frequency_ghz")))

    fig09 = runner("fig09")
    rows.append(("fig09", "pipeline 135K speed-up (model)", 1.150,
                 fig09.rows[0][1]))
    return rows


def render(rows: List[Row]) -> str:
    lines = [
        "# paper vs measured",
        "",
        f"{'experiment':10s} {'quantity':38s} {'paper':>8s} "
        f"{'measured':>9s} {'diff':>7s}",
        "-" * 78,
    ]
    diffs = []
    for experiment, quantity, paper, measured in rows:
        diff = (measured - paper) / paper
        diffs.append(abs(diff))
        lines.append(
            f"{experiment:10s} {quantity:38s} {paper:8.3f} "
            f"{measured:9.3f} {diff:+6.1%}"
        )
    lines.append("-" * 78)
    lines.append(
        f"median |diff| = {statistics.median(diffs):.1%} over {len(rows)} anchors"
    )
    return "\n".join(lines)


def main(runner: Optional[Runner] = None) -> str:
    return render(collect(runner))
