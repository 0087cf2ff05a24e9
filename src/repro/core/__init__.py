"""The generalised "optimal architecture for a DDC" API.

The paper answers one instance of a general question: *given a DDC task
(input rate, output band) and a deployment scenario, which architecture —
and which decimation plan — minimises energy?*  This package exposes that
question as a library:

- :mod:`~repro.core.spec` — :class:`DDCSpec`, the task description;
- :mod:`~repro.core.planner` — search over CIC2/CIC5/FIR decimation splits
  for a total decimation, costed with the ASIC gate-activity model (the
  generalisation of the paper's hand-chosen 16 x 21 x 8);
- :mod:`~repro.core.evaluator` — realise a spec on all five architecture
  models and produce the Table 7-style comparison and the Section 7
  scenario recommendation.
"""

from .spec import DDCSpec
from .planner import DecimationPlan, plan_decimation, enumerate_plans
from .evaluator import (
    DDCEvaluator,
    EvaluationResult,
    ReportCache,
    config_cache_key,
    default_models,
)

__all__ = [
    "DDCSpec",
    "DecimationPlan",
    "plan_decimation",
    "enumerate_plans",
    "DDCEvaluator",
    "EvaluationResult",
    "ReportCache",
    "config_cache_key",
    "default_models",
]
