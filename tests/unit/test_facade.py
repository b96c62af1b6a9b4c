"""The lazy (PEP 562) facade: ``import repro`` must stay cheap.

The 1.x facade eagerly imported every subpackage; 2.0 resolves each
exported name on first attribute access.  These tests pin both halves
of the contract: laziness (a bare import pulls in no subpackage) and
completeness (every ``__all__`` name still resolves to the same object
as its defining module).
"""

import json
import os
import re
import subprocess
import sys

import pytest

#: Subpackages a bare ``import repro`` must NOT load.
HEAVY_MODULES = (
    "repro.core",
    "repro.obs",
    "repro.robustness",
    "repro.serving",
    "repro.workloads",
    "repro.xpath",
    "repro.dtd",
)

_PROBE = """
import json
import sys

import repro

version = repro.__version__
loaded_before = sorted(
    name for name in sys.modules if name.startswith("repro.")
)
repro.SecureQueryEngine  # force one lazy resolution
loaded_after = sorted(
    name for name in sys.modules if name.startswith("repro.")
)
repro.SecureQueryEngine(repro.parse_dtd("<!ELEMENT r (#PCDATA)>"))
loaded_by_engine = sorted(
    name for name in sys.modules if name.startswith("repro.")
)
print(json.dumps({
    "version": version,
    "before": loaded_before,
    "after": loaded_after,
    "engine": loaded_by_engine,
}))
"""


@pytest.fixture(scope="module")
def probe():
    """Run the import probe in a pristine interpreter (this test
    process has long since imported everything)."""
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout)


class TestLazyImport:
    def test_bare_import_loads_no_subpackage(self, probe):
        loaded = set(probe["before"])
        for module in HEAVY_MODULES:
            assert module not in loaded, (
                "import repro eagerly loaded %s" % module
            )

    def test_attribute_access_loads_on_demand(self, probe):
        assert "repro.core" not in set(probe["before"])
        assert "repro.core" in set(probe["after"])

    def test_constructing_an_engine_loads_no_serving_code(self, probe):
        serving = [
            name for name in probe["engine"]
            if name == "repro.serving" or name.startswith("repro.serving.")
        ]
        assert "repro.core.engine" in probe["engine"]
        assert serving == []

    def test_version(self, probe):
        assert probe["version"] == "10.0.0"

    def test_pyproject_version_matches_package(self, probe):
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        with open(os.path.join(root, "pyproject.toml")) as handle:
            declared = re.search(
                r'^version\s*=\s*"([^"]+)"', handle.read(), re.MULTILINE
            )
        assert declared is not None
        assert declared.group(1) == probe["version"]


class TestFacadeCompleteness:
    def test_every_export_resolves(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_exports_match_defining_modules(self):
        import repro
        from repro.core.engine import SecureQueryEngine
        from repro.errors import AdmissionRejected
        from repro.serving.protocol import QueryRequest, QueryResponse
        from repro.serving.server import QueryServer

        assert repro.SecureQueryEngine is SecureQueryEngine
        assert repro.QueryRequest is QueryRequest
        assert repro.QueryResponse is QueryResponse
        assert repro.QueryServer is QueryServer
        assert repro.AdmissionRejected is AdmissionRejected

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.definitely_not_an_export

    def test_dir_covers_exports(self):
        import repro

        listed = set(dir(repro))
        assert set(repro.__all__) <= listed

    def test_resolution_is_cached(self):
        import repro

        first = repro.ExecutionOptions
        assert repro.__dict__["ExecutionOptions"] is first
