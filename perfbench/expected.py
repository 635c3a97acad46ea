"""Write expected.json: the answers every reference platform must give.

Run from the root of a checkout::

    python3 perfbench/expected.py

The benchmark compares each reference platform (map_build's runs and
durable_replay's replayed captures of each of SCANNER_SEEDS, and
serving_mix's warm-up, at the full and at the tests' tiny scale) with
these digests.

Rewrite the file only for a change to ``src/`` that is meant to change
what the platform answers, and say so with the change: once rewritten,
the file no longer detects that change.  Removing the PYTHONHASHSEED
pin changes the map, so it is such a change.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.pin_hash_seed()
    sys.path.insert(0, str(run.ROOT / "src"))
    import gate
    import workloads

    data = {scale.name: workloads.expected_fixtures(scale)
            for scale in (workloads.FULL, workloads.TINY)}
    gate.EXPECTED_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(v) for v in data.values())} fixtures to {gate.EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
