#!/usr/bin/env python3
"""Decision-procedure observability: time every per-state controllability
decision for each quantifier prefix on the six-state model and dump the
collected elimination statistics as JSON."""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hdmas.engine import build_prf
from hdmas.parsing import parse_model
from hdmas.presburger import Exists, Forall
from hdmas.qe import QeStats, decide

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "hdmas" / "fixtures"

PREFIXES = {
    "none (7 vs 5)": (7, 5, ()),
    "E y1": ("y1", 4, (("E", "y1"),)),
    "A y2": (3, "y2", (("A", "y2"),)),
    "E y1 A y2": ("y1", "y2", (("E", "y1"), ("A", "y2"))),
    "A y2 E y1": ("y1", "y2", (("A", "y2"), ("E", "y1"))),
}


def main():
    model = parse_model((FIXTURES / "fig2.hdmas").read_text()).model
    targets = model.mask_of(["s2", "s3", "s4", "s5", "s6"])
    grand = QeStats()
    for label, (t1, t2, prefix) in PREFIXES.items():
        print(f"prefix {label}:")
        for state in model.states:
            stats = QeStats()
            phi = build_prf(model, state, t1, t2, targets)
            for quant, name in reversed(prefix):
                phi = Exists(name, phi) if quant == "E" else Forall(name, phi)
            begun = time.perf_counter()
            verdict = decide(phi, stats)
            elapsed = time.perf_counter() - begun
            grand.eliminated += stats.eliminated
            grand.peak_divisor_lcm = max(grand.peak_divisor_lcm,
                                         stats.peak_divisor_lcm)
            grand.peak_atoms = max(grand.peak_atoms, stats.peak_atoms)
            grand.elapsed += stats.elapsed
            grand.cap_fallbacks += stats.cap_fallbacks
            grand.early_exits += stats.early_exits
            print(f"  {state}: {str(verdict):5s}  {elapsed * 1000:7.1f} ms  "
                  f"quantifiers={stats.eliminated:2d}  "
                  f"peak_atoms={stats.peak_atoms}")
    print("\naggregate:", json.dumps(grand.to_json(), indent=2))


if __name__ == "__main__":
    main()
