"""The fast tier of the streaming DSP front end's hot primitives.

The streaming front end (NCO, CIC, FIR, the fused ``FixedDDC`` chain and
the ``Simulator`` latch loop) ships exactly two implementations per
primitive, selected by the ``engine=`` keyword of each hot
``generate``/``process``/``compile`` method:

``python``
    The original, line-for-line oracle on the class itself
    (``_process_python``, the tuple step plan) — the bit-true reference
    the fast tier is pinned against.
``fused`` (the default)
    :mod:`repro.kernels.fused` — restructured single-pass numpy kernels —
    and :mod:`repro.kernels.simloop` — the code-generated
    ``Simulator.step`` latch loop.  Each hot method imports its kernel
    lazily and calls it directly.

Both tiers of one primitive are bit-identical by contract (pinned by the
Hypothesis suites in ``tests/test_kernels.py``), so the choice is a pure
performance decision.  :func:`dispatch` is the one gate every hot method
passes: it refuses unknown engine names and counts which tier ran.
"""

from __future__ import annotations

from .. import telemetry
from ..errors import ConfigurationError

#: Engine tiers, oracle first.
ENGINES = ("python", "fused")


def dispatch(primitive: str, engine: str, fused: bool = True) -> bool:
    """Check ``engine`` and count the dispatch; True when ``fused`` runs.

    ``fused=False`` says the configuration has no fused kernel (e.g. a
    Taylor-mode NCO), so the oracle runs whatever ``engine`` names.  The
    ``kernel.dispatch`` telemetry counter records the tier that ran.
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown kernel engine {engine!r} for {primitive!r} "
            f"(expected one of {', '.join(ENGINES)})"
        )
    tier = engine if fused else "python"
    telemetry.counter("kernel.dispatch", primitive=primitive, engine=tier)
    return tier == "fused"


__all__ = ["ENGINES", "dispatch"]
