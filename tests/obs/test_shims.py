"""The package surface: importing ``repro.serve`` warns about nothing,
and the top-level package exports the operational entry points."""

import pathlib
import subprocess
import sys

REPO_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


class TestPackageSurface:
    def test_serve_package_does_not_warn(self):
        # A subprocess keeps this hermetic: reloading ``repro.serve``
        # in-process would desync the package object other tests
        # already hold.
        proc = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::DeprecationWarning",
                "-c",
                "import repro.serve",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr

    def test_top_level_exports(self):
        import repro

        for name in (
            "QueryService",
            "ServeClient",
            "DurableDatabase",
            "Store",
            "Catalog",
            "MetricsRegistry",
            "SlowQueryLog",
            "enable_tracing",
            "get_registry",
            "render_prometheus",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__
