"""Start ``repro`` with the benchmark's wrappers installed.

    python3 perfbench/launcher.py RECORD TRACED -- <repro arguments>

Runs ``repro.cli.main(<repro arguments>)`` from the checkout's
``src/`` after :func:`spans.install` (fingerprint wrappers always;
span timers when TRACED is ``1``), and writes what the wrappers
recorded to the JSON file RECORD when the process exits, also on
SIGINT (how the benchmark stops ``repro serve``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv) -> int:
    started = time.perf_counter()
    record_path, traced = argv[0], argv[1] == "1"
    if argv[2] != "--":
        raise SystemExit("usage: launcher.py RECORD TRACED -- ARGS...")
    import spans
    from repro import cli

    recorder = spans.install(traced)
    try:
        code = cli.main(argv[3:])
    finally:
        document = recorder.dump()
        document["started"] = started
        document["finished"] = time.perf_counter()
        Path(record_path).write_text(json.dumps(document))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
