"""The benchmark tracer still finds every function it wraps in the package.

``perfbench/tracer.py`` wraps each traced layer at the call sites where its
callers look it up by name.  A refactor that renames, moves or stops
importing one of those names would silently drop that layer from the
benchmark's per-layer metrics; this test fails instead.  The tracer module
is only loaded and asked to resolve its sites: nothing is patched.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_call_site_resolves():
    tracer = load_tracer()
    sites, skipped = tracer.Tracer()._find_sites()
    assert skipped == []
    assert len(sites) == sum(len(callers) for _, callers in tracer.LAYERS) == 19
    for module, attr, original, _ in sites:
        assert getattr(module, attr) is original
