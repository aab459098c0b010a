"""The benchmark's tracer (perfbench/tracing.py) still finds every function
it traces: each SPANS site must be the function traced under its name."""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def test_tracer_patches_and_restores_every_span_site(tracing):
    sites = [site for names in tracing.SPANS.values() for site in names]
    lookup = lambda site: getattr(*tracing._resolve(site))
    before = {site: lookup(site) for site in sites}
    # patch() raises when a site no longer resolves to its span's function
    with tracing.Tracer().patch():
        assert all(lookup(site) is not before[site] for site in sites)
    assert all(lookup(site) is before[site] for site in sites)
