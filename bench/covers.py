"""k-fold cyclic chain covers of the figure-eight knot complement, as
`tri v1` text.

Tetrahedron (i, s) of the cover, i in {0, 1} and s in Z/k, is numbered
2 s + i.  Base gluing g of `fig8_complement` joins face f1 of tetrahedron i
to face f2 of tetrahedron j; the cover joins (i, s) to (j, s + PHI[g] mod k)
with the same vertex permutation.  With PHI = (0, 1, 1, 0) the cover has
n = m = 2k and every edge has degree 6; its complete structure has every
shape equal to exp(i pi / 3) and volume k * 2 * V_TET.

This generator depends on nothing in `idealglue`, so the benchmark hands the
program text it did not produce itself.
"""
from __future__ import annotations

import math

# the four glue lines of fig8_complement: (t1, f1, t2, f2, permutation)
FIG8_GLUINGS = (
    (0, 0, 1, 0, "0132"),
    (0, 1, 1, 1, "2103"),
    (0, 2, 1, 2, "0321"),
    (0, 3, 1, 3, "1023"),
)
PHI = (0, 1, 1, 0)

# Clausen values Cl2(pi/3) and Cl2(2 pi/3), used as independent references:
# the regular ideal tetrahedron has volume Cl2(pi/3), and a shape
# exp(i theta) on the unit circle has Bloch-Wigner volume Cl2(theta).
CL2_PI_OVER_3 = 1.0149416064096536250
CL2_2PI_OVER_3 = 0.6766277376064357500
V_TET = CL2_PI_OVER_3
REGULAR_SHAPE = complex(0.5, math.sqrt(3.0) / 2.0)


def chain_cover_text(k: int) -> str:
    """The k-fold cyclic chain cover of fig8_complement (n = 2k)."""
    if k < 1:
        raise ValueError(f"cover degree must be positive, got {k}")
    lines = ["tri v1", f"tetrahedra {2 * k}"]
    for s in range(k):
        for (t1, f1, t2, f2, perm), phi in zip(FIG8_GLUINGS, PHI):
            lines.append(f"glue {2 * s + t1} {f1} "
                         f"{2 * ((s + phi) % k) + t2} {f2} {perm}")
    return "\n".join(lines) + "\n"


def chain_cover_volume(k: int) -> float:
    """Volume of the complete structure on the k-fold chain cover."""
    return k * 2 * V_TET
