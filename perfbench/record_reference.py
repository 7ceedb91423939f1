"""Record the probe references that the benchmark's output checks compare to.

Run from the repository root on a commit whose outputs are known to be
right; it rewrites ``perfbench/reference.json``:

    python3 perfbench/record_reference.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402


def main() -> int:
    values = checks.probe_values()
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
