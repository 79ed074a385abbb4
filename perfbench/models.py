"""Model families of the benchmark, written as hdmas model files.

``ring-n``: actions ``a b``; every ``s_i`` moves to ``s_{i+1 mod n}`` on
``#a > #b`` and stays on ``else``; ``goal`` labels ``s_{n-1}``.

``fortress-k``: the fortress fixture generalised to k entries.  Entry i is
defended by ``d_i`` and attacked by ``r_i``; it falls when fewer than 2
defenders hold it, or fewer than 5 do and the attackers there outnumber
them.  The fortress falls when every entry falls at once and then stays
captured.

The ill-formed variants break one ring state on purpose.  Each carries the
guards of the broken state as Python predicates over the counters, so a
reported witness is re-checked without the program under test.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Callable

REPO = pathlib.Path(__file__).resolve().parent.parent
FIG2 = REPO / "src" / "hdmas" / "fixtures" / "fig2.hdmas"

Predicate = Callable[[int, int], bool]


def ring_text(n: int, broken: dict[int, str] | None = None) -> str:
    """Ring of n states; ``broken`` replaces the ``else`` guard of a state."""
    broken = broken or {}
    lines = ["actions a b;", "props goal;"]
    for i in range(n):
        label = "goal" if i == n - 1 else ""
        lines.append(f"state s{i} {{ avail: a b; label: {label}; }}")
    for i in range(n):
        lines.append(f"guard s{i} -> s{(i + 1) % n} : #a > #b;")
        lines.append(f"guard s{i} -> s{i} : {broken.get(i, 'else')};")
    return "\n".join(lines) + "\n"


def fortress_text(k: int) -> str:
    entries = range(1, k + 1)
    actions = " ".join([f"d{i}" for i in entries] + [f"r{i}" for i in entries])
    falls = "\n              && ".join(
        f"(#d{i} < 2 || (#d{i} < 5 && #d{i} < #r{i}))" for i in entries)
    return (f"# Fortress with {k} entry points.\n"
            f"actions {actions};\n"
            "props captured;\n\n"
            f"state s1 {{ avail: {actions}; label: ; }}\n"
            "state s2 { avail: ; label: captured; }\n\n"
            f"guard s1 -> s2 : {falls};\n"
            "guard s1 -> s1 : else;\n"
            "guard s2 -> s2 : else;\n")


@dataclass(frozen=True)
class IllFormed:
    """A ring with one state whose guards are not total or not disjoint."""

    name: str
    n: int
    state: int
    kind: str                 # "totality" | "determinism"
    stay_guard: str
    stay: Predicate           # the replaced self-loop guard over (#a, #b)

    def text(self) -> str:
        return ring_text(self.n, {self.state: self.stay_guard})

    def witness_breaks(self, witness: dict) -> bool:
        """Whether the valuation really breaks the claimed property."""
        a, b = witness.get("#a"), witness.get("#b")
        if not isinstance(a, int) or not isinstance(b, int) or a < 0 or b < 0:
            return False
        move, stay = a > b, self.stay(a, b)
        if self.kind == "totality":
            return not move and not stay
        return move and stay


def _ill_name(kind: str, n: int, variant: int) -> str:
    return f"{kind}-ring-{n}" + (f"-{chr(ord('a') + variant)}" if variant else "")


def not_total(n: int, state: int, variant: int = 0) -> IllFormed:
    # with #a < #b as the self-loop, #a = #b enables no edge
    return IllFormed(_ill_name("not-total", n, variant), n, state, "totality",
                     "#a < #b", lambda a, b: a < b)


def overlapping(n: int, state: int, slack: int, variant: int = 0) -> IllFormed:
    # #a <= #b + slack overlaps #a > #b whenever 0 < #a - #b <= slack
    return IllFormed(_ill_name("overlapping", n, variant), n, state,
                     "determinism",
                     f"#a <= #b + {slack}", lambda a, b: a <= b + slack)


def model_text(name: str, ill: dict[str, IllFormed]) -> str:
    """Text of a model named ``fig2``, ``ring-n``, ``fortress-k`` or an
    ill-formed variant listed in ``ill``."""
    if name == "fig2":
        return FIG2.read_text(encoding="utf-8")
    if name in ill:
        return ill[name].text()
    family, _, size = name.rpartition("-")
    if family == "ring":
        return ring_text(int(size))
    if family == "fortress":
        return fortress_text(int(size))
    raise ValueError(f"unknown model {name!r}")


def write_models(names, ill: dict[str, IllFormed],
                 directory: pathlib.Path) -> dict[str, pathlib.Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        path = directory / f"{name}.hdmas"
        path.write_text(model_text(name, ill), encoding="utf-8")
        paths[name] = path
    return paths
