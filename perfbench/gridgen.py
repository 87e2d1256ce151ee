"""Seeded n x n bidirectional grid scenarios in proxbp's scenario text format.

Only `random.Random.random()` is drawn, whose stream is fixed across Python
versions, and every number is rounded before it is printed, so one seed gives
byte-identical text everywhere.
"""
from __future__ import annotations

import random

# proxbp builds a dense (N, L) float64 incidence matrix for every scenario, so
# the grid size is limited by N * L * 8 bytes. A 150 x 150 grid would need 15 GiB
# (1.6e10 bytes).
INCIDENCE_CAP_BYTES = 64 * 2**20


def incidence_bytes(n: int) -> int:
    """Bytes of the dense incidence matrix of an n x n bidirectional grid."""
    return n * n * 4 * n * (n - 1) * 8


def grid_scenario(n: int, sessions: int, seed: int) -> str:
    """Scenario text: n*n nodes, 4n(n-1) links with capacities in [0.5, 2],
    and `sessions` sessions between distinct random nodes with weights in
    [0.5, 2]. Even session ids use wlog utilities, odd ids wlog1p. Every link
    allows every session, so every session is routable."""
    if n < 2:
        raise ValueError(f"grid side must be at least 2, got {n}")
    if sessions < 1:
        raise ValueError(f"need at least one session, got {sessions}")
    need = incidence_bytes(n)
    if need > INCIDENCE_CAP_BYTES:
        raise ValueError(f"a {n}x{n} grid needs a {need} byte incidence matrix, "
                         f"over the {INCIDENCE_CAP_BYTES} byte cap")
    rng = random.Random(seed)
    nodes = n * n

    def uniform(lo, hi):
        return round(lo + (hi - lo) * rng.random(), 3)

    def node():
        return min(int(rng.random() * nodes), nodes - 1)

    out = [f"# {n}x{n} bidirectional grid, {sessions} sessions, seed {seed}",
           f"nodes {nodes}"]
    for r in range(n):
        for c in range(n):
            u = r * n + c
            for v in ([u + 1] if c + 1 < n else []) + ([u + n] if r + 1 < n else []):
                out.append(f"link {u} {v} {uniform(0.5, 2.0)!r}")
                out.append(f"link {v} {u} {uniform(0.5, 2.0)!r}")
    for f in range(sessions):
        src = node()
        dst = node()
        while dst == src:
            dst = node()
        kind = "wlog" if f % 2 == 0 else "wlog1p"
        out.append(f"session {f} {src} {dst} {kind} {uniform(0.5, 2.0)!r}")
    return "\n".join(out) + "\n"
