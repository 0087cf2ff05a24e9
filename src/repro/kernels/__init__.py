"""The compiled hot-kernel tier for the streaming DSP front end.

Public surface:

- :func:`resolve` / :func:`kernel` / :func:`register` — the dispatch
  layer (see :mod:`repro.kernels.dispatch` for the selection rules and
  the ``REPRO_KERNELS`` environment variable);
- :mod:`repro.kernels.fused` — restructured single-pass numpy kernels,
  always available;
- :mod:`repro.kernels.simloop` — the code-generated ``Simulator.step``
  latch loop.

Importing this package registers every tier; the hot classes
(``NCO``, ``FixedCICDecimator``, ``FixedPolyphaseDecimator``,
``FixedDDC``, ``Simulator``) dispatch through it via their ``engine=``
keywords, defaulting to the fastest registered tier.
"""

from __future__ import annotations

from . import fused, simloop  # noqa: F401  (registration side effects)
from .dispatch import ENGINES, ENV_VAR, kernel, register, registered, resolve

__all__ = [
    "ENGINES",
    "ENV_VAR",
    "kernel",
    "register",
    "registered",
    "resolve",
    "fused",
    "simloop",
]
