"""A cached one-configuration implement for the report-cache suites."""

from __future__ import annotations


def cached_implement(cache, model, config):
    """``model.implement(config)`` served through ``cache``: one
    one-configuration cached batch, re-raising a cached mapping error."""
    return cache.implement_batch(model, [config]).report_at(0)
