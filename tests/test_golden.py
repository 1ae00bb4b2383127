"""Golden artifacts: the bytes every CLI command writes for small configs.

Each case runs one ``netsde`` command in-process on a config under
``golden/configs/`` and hashes every file the manifest lists, and the
manifest itself.  ``golden/hashes.json`` holds the expected SHA-256 values
together with the ``noise.STREAM_VERSION``, the numpy and scipy versions
they were made with, and the OpenBLAS core (the kernel set that OpenBLAS
picks for the processor at load time, or that ``OPENBLAS_CORETYPE`` forces)
of the library each bundles.  A numpy or scipy version may move
floating-point results in the last bits, so every case keys on both.  Only
``spectrum`` keys on the OpenBLAS core too, through its dense ``eigh``.  The
other cases' bytes are the same under every core (the step solve's
``dpttrs`` is reference LAPACK's plain loops, fits and norms are numpy sums,
and SuperLU's white-noise factor gives the same bytes under each), which
``test_cases_skip_and_name_the_kernel_under_another_openblas_core`` checks
under ``OPENBLAS_CORETYPE=Haswell`` (what an AVX2 processor without AVX-512
gets) and ``Prescott``.  The processor count and the OpenBLAS thread count
are not part of it: the cases give the same bytes with one BLAS thread and
with two, which ``test_bytes_do_not_depend_on_blas_threads`` checks for both
colored cases and one white case, and for ``simulate_colored`` at 400
interior nodes.

With other numpy or scipy versions the cases are skipped, and under another
core ``spectrum`` is, with the fields that differ; an older stream version
fails.  Regenerate the hashes with ``python3 tests/golden/regen.py``, and
only together with a stream-version bump or a declared change of artifact
format.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import netsde
from netsde.cli import run_command
from netsde.noise import STREAM_VERSION

GOLDEN = Path(__file__).resolve().parent / "golden"
HASHES = GOLDEN / "hashes.json"

# case name -> (command, config under golden/configs, extra arguments)
CASES = {
    "holder_white": ("holder", "holder_white.json", []),
    "convergence_ladder": ("convergence", "convergence_ladder.json", []),
    "simulate_colored": ("simulate", "simulate_colored.json", []),
    "simulate_white_fine": ("simulate", "simulate_white_fine.json", []),
    "colored_weighted": ("simulate", "colored_weighted.json", []),
    "validate": ("validate", "validate.json", []),
    "spectrum": ("spectrum", "spectrum.json", ["--dump-matrices"]),
}


def openblas_core(package, library: str, symbol: str) -> str:
    """The core name that the OpenBLAS bundled in ``package``'s ``.libs``
    directory (the one ``library`` matches) reports through ``symbol``."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    (path,) = libs.glob(library)
    corename = getattr(ctypes.CDLL(str(path)), symbol)
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


# the cases whose bytes depend on the OpenBLAS core: spectrum's dense eigh
CORE_KEYED = ("spectrum",)


def platform_fingerprint() -> dict:
    """The package versions every case keys on, and the OpenBLAS cores that
    the ``CORE_KEYED`` cases key on too."""
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_openblas_core": openblas_core(np, "libscipy_openblas64_*.so",
                                                 "scipy_openblas_get_corename64_"),
            "scipy_openblas_core": openblas_core(scipy, "libscipy_openblas-*.so",
                                                 "scipy_openblas_get_corename")}


def platform_differences(recorded: dict, keys) -> str:
    """The fields among ``keys`` whose recorded value differs from this
    platform's, as ``key: recorded ..., here ...`` joined by ``; ``."""
    current = platform_fingerprint()
    return "; ".join(f"{key}: recorded {recorded.get(key)!r}, here {current[key]!r}"
                     for key in keys if recorded.get(key) != current[key])


def run_case(name: str, out_dir: Path, configs: Path = GOLDEN / "configs") -> dict:
    """Run one case on its config under ``configs`` into ``out_dir``; its exit
    code and artifact hashes."""
    command, config, extra = CASES[name]
    code = run_command([command, "--config", str(configs / config),
                        "--output-dir", str(out_dir), *extra])
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    hashes = {}
    for artifact in ["manifest.json", *manifest["artifacts"]]:
        hashes[artifact] = hashlib.sha256((out_dir / artifact).read_bytes()).hexdigest()
    return {"exit_code": code, "sha256": hashes}


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(HASHES.read_text(encoding="utf-8"))
    assert recorded["stream_version"] == STREAM_VERSION, (
        f"golden hashes are for stream version {recorded['stream_version']}, the code "
        f"writes {STREAM_VERSION}: regenerate them with tests/golden/regen.py")
    differ = platform_differences(recorded["platform"], ("numpy", "scipy"))
    if differ:
        pytest.skip(f"golden hashes were made on another platform ({differ})")
    return recorded


def test_every_case_is_recorded(golden):
    assert sorted(golden["cases"]) == sorted(CASES)
    assert sorted(golden["platform"]) == sorted(platform_fingerprint())
    configs = sorted(path.name for path in (GOLDEN / "configs").iterdir())
    assert configs == sorted(config for _, config, _ in CASES.values())


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_bytes_match_golden(golden, name, tmp_path):
    if name in CORE_KEYED:
        differ = platform_differences(golden["platform"],
                                      ("numpy_openblas_core", "scipy_openblas_core"))
        if differ:
            pytest.skip(f"{name} hashes were made under another OpenBLAS core ({differ})")
    expected = golden["cases"][name]

    actual = run_case(name, tmp_path)
    assert actual["exit_code"] == expected["exit_code"]
    differ = [f"{artifact}: expected {expected['sha256'].get(artifact)}, got {digest}"
              for artifact, digest in actual["sha256"].items()
              if expected["sha256"].get(artifact) != digest]
    missing = sorted(set(expected["sha256"]) - set(actual["sha256"]))
    assert not differ and not missing, (
        f"{name} artifacts differ from the golden hashes: " + "; ".join(differ)
        + (f"; not written: {', '.join(missing)}" if missing else ""))


def hashes_with_blas_threads(threads: int, names, out_dir: Path,
                             configs: Path = GOLDEN / "configs") -> dict:
    """``run_case`` of each named case, on its config under ``configs``, in a
    fresh interpreter whose OpenBLAS runs ``threads`` threads (the thread
    count is read once, at start-up)."""
    paths = [Path(netsde.__file__).resolve().parent.parent, Path(__file__).resolve().parent]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(map(str, paths)))
    script = ("import json, sys\n"
              "from pathlib import Path\n"
              "from test_golden import run_case\n"
              "out, configs = Path(sys.argv[1]), Path(sys.argv[2])\n"
              "hashes = {name: run_case(name, out / name, configs) for name in sys.argv[3:]}\n"
              "(out / 'hashes.json').write_text(json.dumps(hashes))\n")
    result = subprocess.run([sys.executable, "-c", script, str(out_dir), str(configs), *names],
                            env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    return json.loads((out_dir / "hashes.json").read_text(encoding="utf-8"))


def test_bytes_do_not_depend_on_blas_threads(tmp_path):
    names = ["colored_weighted", "simulate_colored", "simulate_white_fine"]
    one, two = (hashes_with_blas_threads(n, names, tmp_path / f"threads{n}") for n in (1, 2))
    assert sorted(one) == names
    assert one == two
    # at N = 40 OpenBLAS runs every GEMM on one thread; at N = 400 it may use two
    config = json.loads((GOLDEN / "configs" / "simulate_colored.json").read_text(encoding="utf-8"))
    config["mesh"]["interior_nodes"] = 400
    (tmp_path / "large").mkdir()
    (tmp_path / "large" / "simulate_colored.json").write_text(json.dumps(config))
    one, two = (hashes_with_blas_threads(n, ["simulate_colored"], tmp_path / f"large{n}",
                                         tmp_path / "large") for n in (1, 2))
    assert one == two


def test_cases_skip_and_name_the_kernel_under_another_openblas_core():
    # the hashes were recorded under another core; only the core-keyed cases skip
    recorded = json.loads(HASHES.read_text(encoding="utf-8"))["platform"]
    root = Path(__file__).resolve().parent.parent
    for core in ("Haswell", "Prescott"):
        assert core not in (recorded["numpy_openblas_core"], recorded["scipy_openblas_core"])
        env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=os.pathsep.join(
            [str(Path(netsde.__file__).resolve().parent.parent),
             *filter(None, [os.environ.get("PYTHONPATH")])]))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider",
             f"{Path(__file__).resolve()}::test_artifact_bytes_match_golden"],
            cwd=root, env=env, capture_output=True, text=True, timeout=600)
        assert result.returncode == 0, result.stdout + result.stderr
        counts = f"{len(CASES) - len(CORE_KEYED)} passed, {len(CORE_KEYED)} skipped"
        assert counts in result.stdout, result.stdout
        for name in CORE_KEYED:
            assert f"{name} hashes were made under another OpenBLAS core" in result.stdout
        # the skip names each core as OpenBLAS reports it (Prescott reports 'Katmai')
        for key in ("numpy_openblas_core", "scipy_openblas_core"):
            assert f"{key}: recorded {recorded[key]!r}, here '" in result.stdout, key
