"""Time one cold set-up of a workload instance in a fresh interpreter.

Usage: python3 setup_probe.py '<instance json>'

Prints one JSON object: import_s (import mhd2d), init_s (initial state)
and setup_s (import + validate_params + build_grid + initial state).
run.py starts this script several times, one after another, and reports
the median, because a cold import can only be measured once per process.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402  (pure Python, imports nothing heavy)


def main() -> None:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import mhd2d

    t1 = time.perf_counter()
    *_, init_s = inputs.setup_instance(mhd2d, spec)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "init_s": init_s, "setup_s": t2 - t0}))


if __name__ == "__main__":
    main()
