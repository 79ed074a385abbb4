#!/usr/bin/env python3
"""Decision-procedure observability: time every per-state controllability
decision for each quantifier prefix on the six-state model and dump the
collected elimination statistics as JSON."""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hdmas.engine import quantified_prf
from hdmas.logic import EXISTS, FORALL
from hdmas.parsing import parse_model
from hdmas.qe import QeStats, decide

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "hdmas" / "fixtures"

PREFIXES = {
    "none (7 vs 5)": (7, 5, ()),
    "E y1": ("y1", 4, ((EXISTS, 1),)),
    "A y2": (3, "y2", ((FORALL, 2),)),
    "E y1 A y2": ("y1", "y2", ((EXISTS, 1), (FORALL, 2))),
    "A y2 E y1": ("y1", "y2", ((FORALL, 2), (EXISTS, 1))),
}


def _accumulate(grand: QeStats, stats: QeStats) -> None:
    """Add one decision's counters: peaks by maximum, the rest by sum."""
    for name, part in vars(stats).items():
        total = getattr(grand, name)
        setattr(grand, name,
                max(total, part) if name.startswith("peak_") else total + part)


def main():
    model = parse_model((FIXTURES / "fig2.hdmas").read_text()).model
    targets = model.mask_of(["s2", "s3", "s4", "s5", "s6"])
    grand = QeStats()
    for label, (t1, t2, prefix) in PREFIXES.items():
        print(f"prefix {label}:")
        for state in model.states:
            stats = QeStats()
            phi = quantified_prf(model, state, t1, t2, targets, prefix)
            begun = time.perf_counter()
            verdict = decide(phi, stats)
            elapsed = time.perf_counter() - begun
            _accumulate(grand, stats)
            print(f"  {state}: {str(verdict):5s}  {elapsed * 1000:7.1f} ms  "
                  f"quantifiers={stats.eliminated:2d}  "
                  f"peak_atoms={stats.peak_atoms}")
    print("\naggregate:", json.dumps(grand.to_json(), indent=2))


if __name__ == "__main__":
    main()
