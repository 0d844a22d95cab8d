"""One set-up sample: import procpyramid and run the warm-up command once.

    python3 perfbench/setup_probe.py MANIFEST

Prints one JSON object: the reference seconds (`reference.py`) from before
the import to after the warm-up, the warm-up's exit code and the sha256 of
its report. Interpreter start-up is not included.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time

import reference  # adds signal and gc, which procpyramid does not import


def main() -> int:
    manifest = sys.argv[1]
    out = io.StringIO()
    with reference.Gauge() as gauge:
        started = time.perf_counter()
        from procpyramid import cli

        with contextlib.redirect_stdout(out):
            code = cli.run(["report", manifest, "--json"])
        wall = time.perf_counter() - started
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    print(json.dumps({"seconds": gauge.reference_seconds(wall), "exit": code, "sha256": digest}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
