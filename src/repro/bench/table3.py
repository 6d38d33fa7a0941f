"""Table 3: efficacy of CRUSADE-FT.

Fault-tolerant co-synthesis with versus without dynamic
reconfiguration on the same eight examples.  The paper reports savings
of 30.7-53.2 %, with FT architectures costlier than Table 2's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional

from repro.core.config import CrusadeConfig
from repro.core.crusade_ft import FtConfig, FtCoSynthesisResult, crusade_ft
from repro.graph.spec import SystemSpec
from repro.resources.catalog import default_library
from repro.resources.library import ResourceLibrary
from repro.bench.examples import EXAMPLE_NAMES, build_example
from repro.bench.runner import pct, render_table
from repro.bench.table2 import bench_scale


@dataclass
class Table3Row:
    """One example's FT with/without-reconfiguration comparison."""

    example: str
    tasks: int
    without: FtCoSynthesisResult
    with_reconfig: FtCoSynthesisResult

    @property
    def savings_pct(self) -> float:
        """Cost savings of dynamic reconfiguration, percent."""
        if self.without.cost <= 0:
            return 0.0
        return (self.without.cost - self.with_reconfig.cost) / self.without.cost * 100.0

    def cells(self) -> List[object]:
        return [
            "%s/(%d)" % (self.example, self.tasks),
            self.without.n_pes,
            self.without.n_links,
            "%.1f" % self.without.cpu_seconds,
            "%.0f" % self.without.cost,
            self.with_reconfig.n_pes,
            self.with_reconfig.n_links,
            "%.1f" % self.with_reconfig.cpu_seconds,
            "%.0f" % self.with_reconfig.cost,
            pct(self.savings_pct),
        ]


def run_table3_row(
    example: str,
    scale: Optional[float] = None,
    library: Optional[ResourceLibrary] = None,
    config: Optional[CrusadeConfig] = None,
    ft_config: Optional[FtConfig] = None,
    spec: Optional[SystemSpec] = None,
) -> Table3Row:
    """Synthesize one fault-tolerant example with and without
    reconfiguration."""
    if scale is None:
        scale = bench_scale()
    if library is None:
        library = default_library()
    if config is None:
        config = CrusadeConfig()
    if ft_config is None:
        ft_config = FtConfig()
    if spec is None:
        spec = build_example(example, scale=scale, library=library)
    baseline_config = replace(config, reconfiguration=False)
    without = crusade_ft(
        spec, library=library, config=baseline_config, ft_config=ft_config
    )
    with_reconfig = crusade_ft(
        spec, library=library, config=config, ft_config=ft_config, baseline=without
    )
    return Table3Row(
        example=example,
        tasks=spec.total_tasks,
        without=without,
        with_reconfig=with_reconfig,
    )


def run_table3(
    examples: Optional[Iterable[str]] = None, scale: Optional[float] = None
) -> List[Table3Row]:
    """Run every (or the given) example row."""
    if examples is None:
        examples = EXAMPLE_NAMES
    return [run_table3_row(name, scale=scale) for name in examples]


def render_table3(rows: Iterable[Table3Row]) -> str:
    """The paper's Table 3 layout."""
    headers = [
        "Example/(tasks)",
        "PEs",
        "links",
        "CPU s",
        "Cost $",
        "PEs'",
        "links'",
        "CPU s'",
        "Cost' $",
        "Savings %",
    ]
    return render_table(
        "Table 3: Efficacy of CRUSADE-FT "
        "(left: without dynamic reconfiguration, right: with)",
        headers,
        [row.cells() for row in rows],
    )
