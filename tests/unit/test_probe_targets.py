"""Every timing probe of the repository benchmark (``perfbench/
probes.py``) names a function that still exists in ``src/``.

A probe whose target a refactor renamed or removed is only reported
as absent when the benchmark runs, and its per-layer row reads zero.
This test reads the probe table and resolves each target the way the
probes do, so such a refactor fails here first."""

import importlib
import importlib.util
import os

import pytest

PROBES_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "perfbench", "probes.py"
)


def _probe_table():
    spec = importlib.util.spec_from_file_location(
        "perfbench_probes", PROBES_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PROBES


PROBES = _probe_table()


@pytest.mark.parametrize(
    "target", sorted({target for _, target, _ in PROBES})
)
def test_probe_target_resolves(target):
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), "%s has no %r" % (target, part)
        owner = getattr(owner, part)
    assert callable(owner), target
