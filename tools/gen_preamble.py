#!/usr/bin/env python3
"""Generate the preamble table shipped in chunksdr/data.

A profile's preamble is a QPSK sequence drawn from its ``preamble_seed``:
quadrant q gives the symbol exp(j(pi/4 + q pi/2)).  The table holds, for
every seed of a shipped profile, the quadrants
``numpy.random.default_rng(seed).integers(0, 4, size=n)`` for the longest
preamble ``n`` using that seed; a shorter preamble is the prefix.  So the
receiver builds the shipped preambles without importing numpy.random.

Run from the repository root:  python3 tools/gen_preamble.py
"""

import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
OUT = SRC / "chunksdr" / "data" / "preambles.table"

HEADER = """\
# seed, then the preamble's QPSK quadrants in order, one digit per symbol:
# numpy.random.default_rng(seed).integers(0, 4, size=n) for the longest
# shipped preamble with that seed.  Generated by tools/gen_preamble.py.
"""


def table_text() -> str:
    sys.path.insert(0, str(SRC))
    from chunksdr.numerology import load_profile

    longest: dict[int, int] = {}
    for profile, _packet in map(load_profile, ("desk", "paper")):
        seed = profile.preamble_seed
        longest[seed] = max(longest.get(seed, 0), profile.preamble_symbols)
    lines = [
        f"{seed} {''.join(map(str, np.random.default_rng(seed).integers(0, 4, size=n)))}"
        for seed, n in sorted(longest.items())
    ]
    return HEADER + "\n".join(lines) + "\n"


def main() -> None:
    OUT.write_text(table_text())
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
