"""The auto-generated experiment catalog.

The catalog renderer (``repro-runner list --markdown``) turns the
experiment registry into a Markdown document — ``docs/experiments.md``
is this output, committed.  Each experiment names its run surface
once, by dotted path; the catalog reads each surface's parameters from
its signature and its description from the first line of its
docstring, so the docs cannot name a function the runner does not
call.  The renderer is deterministic (sorted registries, stable value
formatting), so CI can regenerate the catalog and fail on any diff:
the committed docs can never drift from the registry that actually
runs.
"""

from __future__ import annotations

import inspect
from typing import Iterable, List

from .experiment import Experiment, list_experiments
from .grid import ParameterGrid


HEADER = """\
# Experiment catalog

Every registered experiment and named sweep of the parallel runner
(`repro.runner`), with its cache version, run surface, and parameter
grid.

> **Auto-generated** from the experiment registry by
> `repro-runner list --markdown > docs/experiments.md`.
> Do not edit by hand: CI regenerates this file and fails on any diff,
> so the catalog cannot drift from the registry that actually runs.
"""


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (tuple, list)):
        inner = ", ".join(_format_value(item) for item in value)
        return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"
    return str(value)


def _format_axis(values: List[object]) -> str:
    if len(values) == 1:
        return _format_value(values[0])
    return ", ".join(_format_value(value) for value in values)


def _grid_rows(grid: ParameterGrid) -> List[str]:
    rows = ["| axis | values |", "| --- | --- |"]
    for key, values in grid.axes().items():
        rows.append(f"| `{key}` | {_format_axis(values)} |")
    if len(grid.subgrids()) > 1:
        rows += [
            "",
            f"(a union of {len(grid.subgrids())} subgrids — the table "
            "shows the last member's axes; swept axes below cover all "
            "members)",
        ]
    return rows


def _swept_axes(grid: ParameterGrid) -> str:
    """Axes with more than one value — within a subgrid or across the
    members of a union grid (e.g. the per-pattern ablation subgrids)."""
    swept = set()
    subgrids = grid.subgrids()
    for axes in subgrids:
        swept.update(key for key, values in axes.items() if len(values) > 1)
    for key in {key for axes in subgrids for key in axes}:
        per_subgrid = [axes.get(key) for axes in subgrids]
        if any(values != per_subgrid[0] for values in per_subgrid[1:]):
            swept.add(key)
    return ", ".join(f"`{key}`" for key in sorted(swept)) or "—"


def _experiment_section(experiment: Experiment) -> List[str]:
    lines = [f"### `{experiment.name}` (v{experiment.version})", ""]
    if experiment.description:
        lines += [experiment.description, ""]
    smoke = (
        f"{len(experiment.smoke_grid)} points"
        if experiment.smoke_grid is not None
        else "none"
    )
    lines += [
        f"- **surface:** `{experiment.surface}`",
        f"- **default grid:** {len(experiment.grid)} points"
        f" — **smoke grid:** {smoke}",
    ]
    if experiment.param_names:
        params = ", ".join(f"`{name}`" for name in experiment.param_names)
        lines.append(f"- **parameters:** {params}")
    lines += ["", "Default grid:", ""]
    lines += _grid_rows(experiment.grid)
    lines.append("")
    return lines


def _sweep_rows(sweeps: Iterable) -> List[str]:
    rows = [
        "| sweep | experiment | runs | swept axes |",
        "| --- | --- | --- | --- |",
    ]
    for name, sweep in sweeps:
        grid = sweep.grid
        runs = len(grid) if grid is not None else 0
        swept = _swept_axes(grid) if grid is not None else "—"
        rows.append(f"| `{name}` | `{sweep.experiment}` | {runs} | {swept} |")
    return rows


def _surface_rows() -> List[str]:
    rows = [
        "| surface | description | parameters |",
        "| --- | --- | --- |",
    ]
    surfaces = {exp.surface: exp for exp in list_experiments()}
    for path, experiment in sorted(surfaces.items()):
        doc = inspect.getdoc(experiment.resolve())
        description = doc.splitlines()[0] if doc else "—"
        params = ", ".join(f"`{name}`" for name in experiment.param_names or ())
        rows.append(f"| `{path}` | {description} | {params} |")
    return rows


def catalog_markdown() -> str:
    """The full catalog document, newline-terminated."""
    from .experiments import BUILTIN_SWEEPS

    lines: List[str] = [HEADER, "## Experiments", ""]
    for experiment in list_experiments():
        lines += _experiment_section(experiment)
    lines += [
        "## Run surfaces",
        "",
        "The registered run surfaces experiments execute through: each",
        "is a pure module-level function, `(params) -> dict`, resolved",
        "by dotted path in worker processes.",
        "",
    ]
    lines += _surface_rows()
    lines += [
        "",
        "## Named sweeps",
        "",
        "What `repro-runner sweep <name>` actually runs; grids with a",
        "single value per axis are one-run sweeps (the figure anchors).",
        "",
    ]
    lines += _sweep_rows(sorted(BUILTIN_SWEEPS.items()))
    lines.append("")
    return "\n".join(lines)
