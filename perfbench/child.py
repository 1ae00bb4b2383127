"""Run one netsde CLI command in this process and write its timings as JSON.

    python3 child.py ROOT RESULT_JSON MODE -- NETSDE_ARGV...

``run.py`` starts one such process per command, so that each command's
peak memory is its own.  The package is imported from ``ROOT/src``.
Interpreter start-up and ``import netsde`` fall outside ``wall_s``.  MODE is

- ``run``: the only wrapper is one timer pair around ``netsde.cli.build_model``,
  whose return ends ``setup_s``;
- ``setup``: the same, but the command stops as soon as ``build_model``
  returns, which samples ``setup_s`` alone;
- ``trace``: the span tracer of ``spans.py`` wraps every layer boundary.
"""

from __future__ import annotations

import ctypes
import json
import platform
import resource
import sys
import time
from pathlib import Path


def _openblas() -> dict:
    """Version, core type and thread count of the OpenBLAS numpy loaded."""
    import numpy as np

    info = {"version": np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            .get("version"), "threads": None, "config": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None:
                    info["threads"] = int(threads())
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        info["config"] = config().decode()
                    return info
    return info


def _provenance() -> dict:
    import numpy as np
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": _openblas()}


class _SetupDone(Exception):
    """Stops a ``setup`` command; netsde's own handlers do not catch it."""


def main(argv) -> int:
    root, result_path, mode = Path(argv[1]), Path(argv[2]), argv[3]
    if mode not in ("run", "setup", "trace") or argv[4] != "--":
        raise SystemExit("usage: child.py ROOT RESULT_JSON run|setup|trace -- NETSDE_ARGV...")
    cli_argv = argv[5:]
    src = root / "src"
    sys.path.insert(0, str(src))
    import netsde
    import netsde.cli as cli

    if Path(netsde.__file__).resolve().parent != (src / "netsde").resolve():
        raise SystemExit(f"netsde was imported from {netsde.__file__}, not from {src}")

    result = {}
    end = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            rc = tracer.call("cli.run_command", cli.run_command, cli_argv)
            end = time.perf_counter()
        finally:
            tracer.uninstall()
        builds = [s["end"] for s in tracer.spans if s["name"] == "config.build_model"]
        build_end = builds[0] if builds else None
        result["layers"] = tracer.layer_metrics()
        result["violations"] = tracer.violations
    else:
        stamps = []
        original = cli.build_model

        def build_model(*args, **kwargs):
            model = original(*args, **kwargs)
            stamps.append(time.perf_counter())
            if mode == "setup":
                raise _SetupDone
            return model

        cli.build_model = build_model
        try:
            start = time.perf_counter()
            rc = cli.run_command(cli_argv)
            end = time.perf_counter()
        except _SetupDone:
            rc = 0
        finally:
            cli.build_model = original
        build_end = stamps[0] if stamps else None

    result.update(
        rc=rc, wall_s=None if end is None else end - start,
        setup_s=None if build_end is None else build_end - start,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        provenance=_provenance())
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
