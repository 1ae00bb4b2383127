"""Regenerate tests/golden/hashes.json from the current code and platform.

    PYTHONPATH=src python3 tests/golden/regen.py

Run it only together with a stream-version bump or a declared change of
artifact format, and record the regeneration as a test-data change.  The
recorded numpy and scipy versions key every case; the recorded OpenBLAS
cores key only ``test_golden.CORE_KEYED``, whose bytes depend on the core,
so a run under any core gives the other cases' hashes.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import CASES, HASHES, platform_fingerprint, run_case  # noqa: E402

from netsde.noise import STREAM_VERSION  # noqa: E402


def main() -> None:
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            cases[name] = run_case(name, Path(tmp) / name)
    payload = {"stream_version": STREAM_VERSION, "platform": platform_fingerprint(),
               "cases": cases}
    HASHES.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {HASHES}")


if __name__ == "__main__":
    main()
