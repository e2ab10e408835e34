"""The instrumentation naming taxonomy: one registry, one shape.

Every metric, span, and event name in ``src/repro`` is a lowercase
dotted path whose first segment — the *family* — must be registered in
:data:`FAMILIES`.  The table is the single place a new subsystem claims
its namespace; ``tools/astlint.py`` walks every ``inc``/``gauge``/
``observe``/``span``/``instant``/``emit`` call with a literal name and
rejects anything unregistered or mis-shaped, so instrumentation cannot
fragment into ``Serve_Admit`` / ``serve-admit`` / ``admitServe``
variants that dashboards then have to union forever.

Only *literal* first arguments are checked.  Dynamic names (f-strings,
variables) are checked down to their leading literal family prefix
when one exists — ``f"traffic.{tier.name}.read_lines"`` pins the
``traffic`` family even though the tier segment is runtime data.
"""

from __future__ import annotations

import re

#: family -> one-line owner note (kept alphabetical; lint sorts errors).
FAMILIES: dict[str, str] = {
    "cache": "trace/profile/mask construction (repro.sim.tracecache)",
    "chain": "append-only phase-chain rows (repro.mem.trace)",
    "executor": "simulated execution accounting (repro.sim.executor)",
    "fault": "injected-fault span markers (repro.faults)",
    "faults": "injected-fault counters (repro.faults)",
    "mask": "hit-mask parity audits (repro.mem.cache)",
    "migration": "page-migration accounting (repro.core.migration)",
    "phase": "runtime phase lifecycle (repro.core.runtime, repro.sim.experiment)",
    "pool": "process-pool engine (repro.sim.parallel)",
    "pricing": "tier-pricing parity audits (repro.sim.executor)",
    "reuse": "reuse-profile parity audits (repro.sim.reusepack)",
    "serve": "placement-service lifecycle (repro.serve.service)",
    "shm": "shared-memory dataset plane (repro.graph.shm)",
    "stage": "per-stage wall timings (repro.sim)",
    "store": "trace-store persistence (repro.sim.tracestore)",
    "tenant": "multi-tenant host lifecycle (repro.sim.multitenant)",
    "traffic": "per-tier line/byte traffic (repro.mem.telemetry)",
}

#: Full-name shape: lowercase dotted path, two or more segments.
NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


def check_name(name: str) -> str | None:
    """Why ``name`` violates the taxonomy, or ``None`` when it is fine."""
    if not NAME_RE.match(name):
        return (
            f"instrumentation name {name!r} is not lowercase dotted "
            "`family.name`"
        )
    family = name.split(".", 1)[0]
    if family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        return (
            f"instrumentation family {family!r} (from {name!r}) is not "
            f"registered in repro.obs.naming.FAMILIES ({known})"
        )
    return None


def check_family_prefix(prefix: str) -> str | None:
    """Check a dynamic name's leading literal (must pin a known family)."""
    family = prefix.split(".", 1)[0]
    if not family or "." not in prefix:
        # No complete leading segment — nothing checkable statically.
        return None
    if not re.match(r"^[a-z][a-z0-9_]*$", family):
        return (
            f"instrumentation family {family!r} (from dynamic name "
            f"{prefix!r}...) is not lowercase"
        )
    if family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        return (
            f"instrumentation family {family!r} (from dynamic name "
            f"{prefix!r}...) is not registered in "
            f"repro.obs.naming.FAMILIES ({known})"
        )
    return None
