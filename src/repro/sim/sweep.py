"""Generic parameter-sweep driver.

The paper's Figures 9/10 sweep one analyzer parameter (epsilon); studies
of a system like ATMem routinely sweep others — tree arity, chunk count,
sampling budget, TR base threshold.  This module runs any such sweep with
one call, returning a :class:`repro.bench.report.Series` ready to render,
and is what the figure builders and the sensitivity example are built on.

A sweep point is produced by rebuilding the runtime config through a
user-supplied ``configure(value)`` function, so any knob reachable from
:class:`repro.core.runtime.RuntimeConfig` can be swept.  Configurators
derive each point's config with :func:`dataclasses.replace`, so new
config fields ride along automatically instead of being silently dropped.

Sweeps parallelise: when the app factory is a picklable
:class:`repro.sim.parallel.AppSpec`, the points fan out across an
:class:`repro.sim.parallel.ExperimentPool` (``jobs`` argument, or the
``REPRO_JOBS`` environment variable), and each worker reuses the app's
deterministic trace — plus its LLC hit mask and compiled miss profile
(:mod:`repro.sim.profilepack`) — across its points via the per-process
trace cache, so every run of the sweep is priced in O(pages) from one
shared profile.  Arbitrary callables still run serially in-process, and
each of their runs builds its own mask and profile: without a content
key there is nothing to share.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.apps.base import GraphApp
from repro.bench.report import Series
from repro.config import PlatformConfig
from repro.core.runtime import RuntimeConfig
from repro.sim.experiment import AtMemRunResult, run_atmem
from repro.sim.parallel import AppSpec, ExperimentPool, JobSpec, resolve_jobs


@dataclass
class SweepPoint:
    """One sweep evaluation."""

    value: float
    result: AtMemRunResult
    label: str = "sweep"

    @property
    def data_ratio(self) -> float:
        return self.result.data_ratio

    @property
    def seconds(self) -> float:
        return self.result.seconds


def run_sweep(
    app_factory: Callable[[], GraphApp],
    platform: PlatformConfig,
    values: Iterable[float],
    configure: Callable[[float], RuntimeConfig],
    *,
    label: str = "sweep",
    jobs: int | None = None,
) -> list[SweepPoint]:
    """Run the ATMem flow once per parameter value.

    ``label`` tags every returned point (and flows into
    :func:`to_series`); ``jobs`` fans the points out across worker
    processes when the factory is an :class:`~repro.sim.parallel.AppSpec`.
    """
    values = [float(v) for v in values]
    if isinstance(app_factory, AppSpec):
        specs = [
            JobSpec(
                app=app_factory,
                platform=platform,
                flow="atmem",
                runtime_config=configure(value),
                value=value,
                tag=label,
            )
            for value in values
        ]
        results = ExperimentPool(resolve_jobs(jobs)).run(specs)
    else:
        results = [
            run_atmem(app_factory, platform, runtime_config=configure(value))
            for value in values
        ]
    return [
        SweepPoint(value=value, result=result, label=label)
        for value, result in zip(values, results)
    ]


def to_series(
    points: list[SweepPoint],
    *,
    title: str,
    x: str = "value",
    y: str = "seconds",
    label: str | None = None,
) -> Series:
    """Render sweep points as a Series; x/y pick SweepPoint attributes.

    Points group under their own ``label`` unless an explicit ``label``
    overrides it for the whole series.
    """
    series = Series(title=title, x_label=x, y_label=y)
    for p in points:
        series.add_point(
            label if label is not None else p.label,
            getattr(p, x) if x != "value" else p.value,
            getattr(p, y),
        )
    return series


# ----------------------------------------------------------------------
# Ready-made configurators for the knobs users actually sweep.
# ----------------------------------------------------------------------
def epsilon_configurator(base: RuntimeConfig | None = None):
    """Sweep the Eq. 5 epsilon (the Figures 9/10 knob)."""
    base = base or RuntimeConfig()

    def configure(value: float) -> RuntimeConfig:
        return dataclasses.replace(
            base, analyzer=dataclasses.replace(base.analyzer, epsilon=float(value))
        )

    return configure


def arity_configurator(base: RuntimeConfig | None = None):
    """Sweep the m-ary tree arity (Section 4.3.1)."""
    base = base or RuntimeConfig()

    def configure(value: float) -> RuntimeConfig:
        return dataclasses.replace(
            base, analyzer=dataclasses.replace(base.analyzer, m=int(value))
        )

    return configure


def chunk_cap_configurator(base: RuntimeConfig | None = None):
    """Sweep the max-chunks cap (Section 4.1's metadata trade-off)."""
    base = base or RuntimeConfig()

    def configure(value: float) -> RuntimeConfig:
        return dataclasses.replace(
            base, chunking=dataclasses.replace(base.chunking, max_chunks=int(value))
        )

    return configure


def sampling_budget_configurator(base: RuntimeConfig | None = None):
    """Sweep the per-chunk sample budget (Section 5.1's rate adaption)."""
    base = base or RuntimeConfig()

    def configure(value: float) -> RuntimeConfig:
        return dataclasses.replace(
            base,
            sampling=dataclasses.replace(
                base.sampling, samples_per_chunk=float(value)
            ),
        )

    return configure
