"""Record the reference digests the benchmark checks its outputs against.

Runs one pass of every workload at every scale on ``SEED`` and writes
``reference.json`` next to this file.  Rerun it only when a change is meant
to alter seeded results, and say so in the change's notes::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json

import workloads as wl
from run import REFERENCE

SEED = 1


def main() -> None:
    wl.use_checkout_source()
    digests: dict[str, dict[str, str]] = {}
    for scale in wl.SCALES:
        digests[scale] = {}
        for name in wl.WORKLOADS:
            ops = wl.OpLog()
            record = wl.build(name, SEED, scale).run_pass(ops)
            if ops.failed:
                raise SystemExit(f"{name} ({scale}) failed: {ops.problems}")
            digests[scale].update(record.digests)
    REFERENCE.write_text(json.dumps({"seed": SEED, "digests": digests}, indent=2) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
