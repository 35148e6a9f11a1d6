"""Subset dynamic program for families whose sets carry at most one red element.

Two tables over blue-element bitmasks drive the decision:

  w[red][mask]  minimum family size covering the mask while touching no red
                element other than `red` (no red at all when red is None);
  t[j][mask]    minimum family size covering the mask while touching at
                most j red elements.

Both are flat lists filled bottom-up, the set-cover program over subsets
(Cygan et al., Parameterized Algorithms, 2015, section 6.1).  A cover of a
mask is one usable set plus a cover of the mask minus that set's blues, a
smaller number, so ascending masks only read entries already filled.
t[0] equals w[None]; a later layer picks the blue subset handled by sets
sharing one red element, at its cheapest red, and adds layer j - 1 on the
rest (the empty subset is a legal, if useless, pick).  The instance is a YES
exactly when the full-mask entry of layer budget_red is within the line
budget.  Layers stop early once two consecutive layers coincide: the
recurrence is stationary, so all later layers would be identical.

Unreachable values use the sentinel (number of sets + 1), strictly above any
real family size.  No argmin is stored: reconstruction recomputes each one
from the tables, breaking ties toward the smallest set id, then the
smallest red (None first), then the smallest blue submask, so witnesses are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import model
from .errors import PreconditionViolated, RedDegreeExceeded, TooManyBlues
from .model import Instance, Solution

MAX_BLUES = 24


@dataclass
class DpTables:
    blues: tuple[int, ...]
    reds: tuple[int, ...]
    infinity: int
    w: dict[tuple[int, int | None], int]
    t: list[list[int]]


def _fill(instance: Instance):
    """Check the preconditions, then fill every table bottom-up.

    Returns the reds held by some set; per red (None first, then ascending)
    the usable (set id, blue mask) pairs in id order and the cover table w;
    the cheapest cover per mask over all reds, v; and the layers t.
    """
    if instance.budget_lines is None:
        raise PreconditionViolated("a finite line budget is required")
    if instance.is_weighted():
        raise PreconditionViolated("red weights must all be 1 for the subset program")
    ix = instance.index
    if len(ix.blues) > MAX_BLUES:
        raise TooManyBlues(f"{len(ix.blues)} blue elements exceed the limit of {MAX_BLUES}")
    free: list[tuple[int, int]] = []
    owned: dict[int, list[tuple[int, int]]] = {}
    for sid, split in ix.sets.items():
        if len(split.red) >= 2:
            raise RedDegreeExceeded(f"set {sid} has {len(split.red)} red elements")
        if split.red:
            owned.setdefault(min(split.red), []).append((sid, split.blue_mask))
        else:
            free.append((sid, split.blue_mask))
    reds = tuple(sorted(owned))
    # Sets usable while paying for a given red: red-free always, plus the
    # sets owning exactly that red.
    usable = {None: free, **{r: sorted(free + owned[r]) for r in reds}}
    size = 1 << len(ix.blues)
    inf = instance.num_sets + 1
    w: dict[int | None, list[int]] = {}
    for red, sets in usable.items():
        masks = [bm for _, bm in sets]
        table = [0] * size
        for m in range(1, size):
            best = min([table[m & ~bm] for bm in masks if bm & m], default=inf) + 1
            table[m] = best if best < inf else inf
        w[red] = table
    v = [min(col) for col in zip(*w.values())]
    t = [w[None]]
    for _ in range(instance.budget_red):
        prev = t[-1]
        cur = prev[:]  # the empty submask keeps prev[m]
        for m in range(1, size):
            best = prev[m]
            sub = m
            while sub:
                val = v[sub] + prev[m ^ sub]
                if val < best:
                    best = val
                sub = (sub - 1) & m
            cur[m] = best
        if cur == prev:
            break  # stationary: every later layer is identical
        t.append(cur)
    return reds, usable, w, v, t


def compute_tables(instance: Instance) -> DpTables:
    """Fill both tables bottom-up (mainly for inspection and property tests)."""
    reds, _, w, _, t = _fill(instance)
    flat = {(mask, red): value for red, table in w.items() for mask, value in enumerate(table)}
    return DpTables(instance.index.blues, reds, instance.num_sets + 1, flat, t)


def dp_solve(instance: Instance) -> Solution | None:
    """Decide the instance and reconstruct an optimal-cardinality witness."""
    _, usable, w, v, t = _fill(instance)
    rest = len(v) - 1
    optimum = t[-1][rest]
    if optimum >= instance.num_sets + 1 or optimum > instance.budget_lines:
        return None
    chosen: set[int] = set()

    def cover(mask: int, red: int | None):
        table = w[red]
        while mask:
            sid, bm = next(
                (sid, bm)
                for sid, bm in usable[red]
                if bm & mask and table[mask & ~bm] + 1 == table[mask]
            )
            chosen.add(sid)
            mask &= ~bm

    for j in range(len(t) - 1, 0, -1):
        prev = t[j - 1]
        sub = next(
            s for s in range(rest + 1) if s & rest == s and v[s] + prev[rest ^ s] == t[j][rest]
        )
        cover(sub, next(red for red in w if w[red][sub] == v[sub]))
        rest ^= sub
    cover(rest, None)
    if len(chosen) != optimum:
        raise AssertionError("witness size disagrees with the table optimum")
    sol = model.verify(instance, chosen)
    if not sol.feasible:
        raise AssertionError("reconstructed family failed verification")
    return sol
