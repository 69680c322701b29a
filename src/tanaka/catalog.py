"""Built-in symbol algebras and their frozen regression values.

The expected dimensions below were generated by the independent
slow-path oracle in tests/slow_oracle.py (naive dense solves, no
graded-block shortcuts) and then frozen; tests/test_oracle_slowpath.py
regenerates them on every run. Analytic cross-checks, where a closed
form is classical, live in the acceptance suite.
"""

from __future__ import annotations

import re
from typing import Optional

from ._record import record
from .graded import GradedSpace
from .lie import GradedLieAlgebra

PRESETS = ("abelian", "heisenberg", "free_235")


def make_algebra(name: str) -> GradedLieAlgebra:
    """Catalog algebra by name: abelian<n>, heisenberg<2n+1>, free_235.

    A parenthesized parameter is accepted too (abelian(3) = abelian3).
    """
    compact = name.strip().lower().replace("(", "").replace(")", "")
    if compact == "free_235" or compact == "free235":
        space = GradedSpace.make({-1: ("e1", "e2"), -2: ("e3",), -3: ("e4", "e5")})
        return GradedLieAlgebra.from_bracket_dict(space, {
            ("e1", "e2"): {"e3": 1},
            ("e1", "e3"): {"e4": 1},
            ("e2", "e3"): {"e5": 1},
        })
    m = re.fullmatch(r"(abelian|heisenberg)(\d+)", compact)
    if not m:
        raise ValueError(f"unknown catalog preset {name!r}; expected one of {PRESETS}")
    kind, num = m.group(1), int(m.group(2))
    if kind == "abelian":
        if num < 1:
            raise ValueError("abelian preset needs dimension >= 1")
        return GradedLieAlgebra.from_bracket_dict(GradedSpace.from_dims({-1: num}), {})
    if num < 3 or num % 2 == 0:
        raise ValueError("heisenberg preset needs odd dimension 2n+1 >= 3")
    half = (num - 1) // 2
    labels = tuple(f"e{i + 1}" for i in range(2 * half))
    space = GradedSpace.make({-1: labels, -2: (f"e{num}",)})
    table = {(f"e{i + 1}", f"e{half + i + 1}"): {f"e{num}": 1} for i in range(half)}
    return GradedLieAlgebra.from_bracket_dict(space, table)


@record
class ExpectedCheck:
    """One frozen regression value with its provenance.

    kind is one of: der0_dim; prolong (g0_preset/depth parametrize the
    run, dims list the nonzero level dimensions in order, order is the
    prolongation order when finite and None when the run truncates,
    bound the automorphism-dimension bound for base_dim = dim m).
    """

    kind: str
    g0_preset: Optional[str] = None
    depth: Optional[int] = None
    dims: Optional[tuple[int, ...]] = None
    order: Optional[int] = None
    bound: Optional[int] = None
    value: Optional[int] = None
    provenance: str = "derived: slow-path oracle"


# frozen from tests/slow_oracle.py runs; regenerated by test_oracle_slowpath
EXPECTED: dict[str, tuple[ExpectedCheck, ...]] = {
    "abelian2": (
        ExpectedCheck(kind="der0_dim", value=4, provenance="trivial: all of gl(2)"),
        ExpectedCheck(kind="prolong", g0_preset="gl", depth=3, dims=(6, 8, 10), order=None),
        ExpectedCheck(kind="prolong", g0_preset="sl", depth=3, dims=(4, 5, 6), order=None),
        ExpectedCheck(kind="prolong", g0_preset="zero", depth=1, dims=(), order=0, bound=2),
    ),
    "abelian3": (
        ExpectedCheck(kind="der0_dim", value=9, provenance="trivial: all of gl(3)"),
        ExpectedCheck(kind="prolong", g0_preset="gl", depth=3, dims=(18, 30, 45), order=None),
        ExpectedCheck(kind="prolong", g0_preset="so", depth=1, dims=(), order=0, bound=6),
        ExpectedCheck(kind="prolong", g0_preset="co", depth=2, dims=(3,), order=1, bound=10),
        ExpectedCheck(kind="prolong", g0_preset="sl", depth=2, dims=(15, 24), order=None),
    ),
    "heisenberg3": (
        ExpectedCheck(kind="der0_dim", value=4),
        ExpectedCheck(kind="prolong", g0_preset="der0", depth=3, dims=(6, 9, 12), order=None),
    ),
    "free_235": (
        ExpectedCheck(kind="der0_dim", value=4),
        ExpectedCheck(kind="prolong", g0_preset="der0", depth=4, dims=(2, 1, 2), order=3, bound=14),
    ),
}


@record
class CatalogEntry:
    name: str
    algebra: GradedLieAlgebra
    expected: tuple[ExpectedCheck, ...]


def entries() -> list[CatalogEntry]:
    return [CatalogEntry(name, make_algebra(name), checks)
            for name, checks in EXPECTED.items()]
