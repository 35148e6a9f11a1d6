"""Subset dynamic program for families whose sets carry at most one red element.

Two tables over blue-element bitmasks drive the decision:

  w[(mask, red)]  minimum family size covering the mask while touching no red
                  element other than `red` (no red at all when red is None);
  t[j][mask]      minimum family size covering the mask while touching at
                  most j red elements.

t[0] equals w with red=None; a later layer picks the blue subset handled by
sets sharing one red element and recurses on the rest with one budget unit
less (the empty subset is a legal, if useless, pick).  The instance is a YES
exactly when the full-mask entry of layer budget_red is within the line
budget.  Layers stop early once two consecutive layers coincide: the
recurrence is stationary, so all later layers would be identical.

Unreachable values use the sentinel (number of sets + 1), strictly above any
real family size.  Argmins break ties toward the smallest set id, then the
smallest blue submask, so reconstructed witnesses are reproducible.
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


class _Solver:
    def __init__(self, instance: Instance):
        if instance.budget_lines is None:
            raise PreconditionViolated("a finite line budget is required")
        if instance.is_weighted():
            raise PreconditionViolated("red weights must all be 1 for the subset program")
        ix = instance.index
        if len(ix.blues) > MAX_BLUES:
            raise TooManyBlues(f"{len(ix.blues)} blue elements exceed the limit of {MAX_BLUES}")
        self.instance = instance
        self.blues = ix.blues
        self.infinity = instance.num_sets + 1
        reds_seen: set[int] = set()
        self.set_blue_mask: dict[int, int] = {}
        self.set_red: dict[int, int | None] = {}
        for sid, split in ix.sets.items():
            if len(split.red) >= 2:
                raise RedDegreeExceeded(f"set {sid} has {len(split.red)} red elements")
            self.set_blue_mask[sid] = split.blue_mask
            self.set_red[sid] = next(iter(split.red), None)
            reds_seen |= split.red
        self.reds = tuple(sorted(reds_seen))
        # Sets usable while paying for a given red: red-free always, plus the
        # sets owning exactly that red.
        free = [
            (sid, self.set_blue_mask[sid]) for sid in instance.set_ids if self.set_red[sid] is None
        ]
        self.applicable: dict[int | None, list[tuple[int, int]]] = {None: free}
        for r in self.reds:
            owned = [
                (sid, self.set_blue_mask[sid])
                for sid in instance.set_ids
                if self.set_red[sid] == r
            ]
            self.applicable[r] = sorted(free + owned)
        self._w: dict[int | None, dict[int, tuple[int, int | None]]] = {
            rp: {} for rp in [None, *self.reds]
        }
        self._v: list[tuple[int, int | None]] | None = None

    def w(self, mask: int, red: int | None) -> tuple[int, int | None]:
        """(value, argmin set id) covering `mask` with no red except `red`."""
        memo = self._w[red]
        got = memo.get(mask)
        if got is not None:
            return got
        if mask == 0:
            got = (0, None)
        else:
            best, arg = self.infinity, None
            for sid, bm in self.applicable[red]:
                if bm & mask:
                    val = self.w(mask & ~bm, red)[0] + 1
                    if val < best:
                        best, arg = val, sid
            got = (best, arg)
        memo[mask] = got
        return got

    def v(self, mask: int) -> tuple[int, int | None]:
        """min over red choices of w, preferring None then the smallest red."""
        if self._v is None:
            self._v = [(-1, None)] * (1 << len(self.blues))
            for m in range(1 << len(self.blues)):
                best, arg = self.w(m, None)[0], None
                for r in self.reds:
                    val = self.w(m, r)[0]
                    if val < best:
                        best, arg = val, r
                self._v[m] = (best, arg)
        return self._v[mask]

    def layers(self) -> tuple[list[list[int]], list[list[int] | None]]:
        full = (1 << len(self.blues)) - 1
        inf = self.infinity
        t0 = [min(self.w(m, None)[0], inf) for m in range(full + 1)]
        t: list[list[int]] = [t0]
        args: list[list[int] | None] = [None]
        j = 1
        while j <= self.instance.budget_red:
            prev = t[-1]
            cur = [0] * (full + 1)
            arg = [0] * (full + 1)
            for m in range(full + 1):
                best_v, best_sub = inf, 0
                sub = m
                while True:
                    val = self.v(sub)[0] + prev[m ^ sub]
                    if val <= best_v:  # descending submasks: ties keep the smallest
                        best_v, best_sub = val, sub
                    if sub == 0:
                        break
                    sub = (sub - 1) & m
                cur[m] = min(best_v, inf)
                arg[m] = best_sub
            if cur == prev:
                break  # stationary: every later layer is identical
            t.append(cur)
            args.append(arg)
            j += 1
        return t, args

    def reconstruct(self, t, args) -> set[int]:
        chosen: set[int] = set()

        def chain(mask: int, red: int | None):
            while mask:
                _, sid = self.w(mask, red)
                chosen.add(sid)
                mask &= ~self.set_blue_mask[sid]

        mask = (1 << len(self.blues)) - 1
        for j in range(len(t) - 1, 0, -1):
            sub = args[j][mask]
            chain(sub, self.v(sub)[1])
            mask ^= sub
        chain(mask, None)
        return chosen


def compute_tables(instance: Instance) -> DpTables:
    """Materialize both tables (mainly for inspection and property tests)."""
    solver = _Solver(instance)
    t, _ = solver.layers()
    full = (1 << len(solver.blues)) - 1
    w = {}
    for red in [None, *solver.reds]:
        for mask in range(full + 1):
            w[(mask, red)] = min(solver.w(mask, red)[0], solver.infinity)
    return DpTables(solver.blues, solver.reds, solver.infinity, w, t)


def dp_solve(instance: Instance) -> Solution | None:
    """Decide the instance and reconstruct an optimal-cardinality witness."""
    solver = _Solver(instance)
    t, args = solver.layers()
    full = (1 << len(solver.blues)) - 1
    optimum = t[-1][full]
    if optimum >= solver.infinity or optimum > instance.budget_lines:
        return None
    chosen = solver.reconstruct(t, args)
    if len(chosen) != optimum:
        raise AssertionError("witness size disagrees with the table optimum")
    sol = model.verify(instance, chosen)
    if not sol.feasible:
        raise AssertionError("reconstructed family failed verification")
    return sol
