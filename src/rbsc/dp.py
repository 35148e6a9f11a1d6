"""Subset dynamic program for families whose sets carry at most one red element.

Two tables over blue-element bitmasks drive the decision:

  w[red][mask]  minimum family size covering the mask while touching no red
                element other than `red` (no red at all when red is None);
  t[j][mask]    minimum family size covering the mask while touching at
                most j red elements.

Both are flat lists filled bottom-up, the set-cover program over subsets
(Cygan et al., Parameterized Algorithms, 2015, section 6.1).  Every cover of
a mask holds a set containing the mask's lowest blue, and that set plus a
cover of the rest is a cover, so w[red][mask] is one more than the least
w[red][mask minus the set's blues] over the usable sets holding that blue.
Masks are filled by lowest blue, highest first, so each entry reads only
entries already filled.

t[0] equals w[None]; a later layer picks the blue subset handled by sets
sharing one red element, at its cheapest red (v[sub], the least w[red][sub]),
and adds layer j - 1 on the rest (the empty subset is a legal, if useless,
pick):

  t[j][m] = min over sub within m of v[sub] + t[j - 1][m minus sub].

The instance is a YES exactly when the full-mask entry of layer budget_red
is within the line budget.  Layers stop early once two consecutive layers
coincide: the recurrence is stationary, so all later layers would be
identical.  They also stop after as many layers as there are reds: two picks
paying for the same red merge into one at no extra cost.

Each layer is a cover product.  Every table is monotone, since a cover of a
mask covers each of its subsets.  So the minimum above equals the minimum of
v[A] + t[j - 1][B] over all pairs with A | B == m: a pair that overlaps can
shrink B to m minus A at no extra cost.  Björklund, Husfeldt, Kaski and
Koivisto ("Fourier meets Möbius: fast subset convolution", STOC 2007)
compute such a product with zeta and Möbius transforms over subsets, in
O(2^b * b) big-integer additions instead of the 3^b (mask, submask) pairs.
A value x is packed as the integer 2^(x*W), with W the bit length of 3^b,
and the sentinel as 0.  The zeta transforms sum these over subsets; their
pointwise product holds, in slot s (bits s*W to s*W + W - 1), the number of
pairs of subsets of m whose values sum to s; the Möbius transform keeps the
pairs whose union is m.  Products are cut to their low (inf + 1) * W bits
with `&`, the slots of sums up to the sentinel: reduction modulo
2^((inf + 1) * W) commutes with the transforms, and it bounds every entry
the transforms take by the width the guard's estimate counts.  Every final
count is at most 3^b < 2^W, so no slot carries into the next, and each entry
agrees with its packed counts modulo the cut: its lowest set bit lies in its
lowest nonzero slot, whose index (the bit divided by W) is the minimum.
Setting the sentinel's bit before reading caps the result at the sentinel,
which also covers an entry with no pair below the cut (0 modulo the cut).
All of it is integer arithmetic.

Before any table, dp_solve looks at the sets usable at its red budget:
every set when the budget is at least 1, the red-free sets alone when it is
0, since a set holding a red then joins no feasible family.  It answers NO
when a blue lies in none of them, or when a greedy pass finds more blues
than the line budget that pairwise share no usable set (any one blue, when
no line is left).  This is the disjoint-elements lower bound for set cover:
by weak duality, a packing of elements bounds every cover from below.  No
usable set holds two of the packed blues, so every feasible family spends
one set on each, and a NO from the bound is a NO of the tables.  The bound
never answers YES; those instances go on to the tables.

Before dp_solve fills a table it drops every implied blue: blue i is implied
when some other blue j lies only in sets that hold i, since then covering j
covers i (element domination for set cover; Weihe, "Covering trains by
stations or the power of data reduction", ALEX 1998).  Of equal columns the
smallest blue is kept.  The rule reads the whole family, so it holds in
every table: a set holding j holds i, whichever reds it may pay for.  Each
dropped blue has a kept blue below it, so a family covers every blue exactly
when it covers the kept ones, and the tables run over the kept blues alone,
numbered in order.  With no red budget, only the red-free table is filled,
since no layer reads the others.

Unreachable values use the sentinel (number of sets + 1), strictly above any
real family size.  No argmin is stored: reconstruction recomputes each one
from the tables, breaking ties toward the smallest set id, then the
smallest red (None first), then the smallest blue submask, so witnesses are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add, and_, mul, or_, sub

from . import model
from .errors import PreconditionViolated, RedDegreeExceeded, TooManyBlues
from .model import Instance, Solution

# Estimated bytes the two packed layer lists may take.  Measured on a 2-core
# container with Python 3.11: 17 blues and 24 sets (estimate 30 MB) solve in
# 3.6 s at 52 MB resident, 18 blues and 25 sets (65.5 MB) in 8.5 s at 90 MB.
MAX_TABLE_BYTES = 1 << 26


@dataclass
class DpTables:
    blues: tuple[int, ...]
    reds: tuple[int, ...]
    infinity: int
    w: dict[tuple[int, int | None], int]
    t: list[list[int]]


def table_bytes(instance: Instance) -> int:
    """Estimated bytes of the two packed lists the layers keep alive.

    Each holds 2^b integers of (sentinel + 1) * W bits and a 28-byte header.
    b counts every blue, before implied ones are dropped, so the estimate is
    an upper bound and depends on the instance alone.
    """
    b = len(instance.index.blues)
    return 2 * (1 << b) * ((instance.num_sets + 2) * (3**b).bit_length() // 8 + 28)


def fits(instance: Instance) -> bool:
    """Whether the layer lists stay within MAX_TABLE_BYTES.

    Judged on every blue, as table_bytes is, so auto's pick does not depend
    on how many blues the reduction keeps.
    """
    return table_bytes(instance) <= MAX_TABLE_BYTES


def _usable(instance: Instance):
    """Check the preconditions.

    Returns the reds held by some set and, per red (None first, then
    ascending), the usable (set id, blue mask) pairs in id order.
    """
    if instance.budget_lines is None:
        raise PreconditionViolated("a finite line budget is required")
    if instance.is_weighted():
        raise PreconditionViolated("red weights must all be 1 for the subset program")
    if not fits(instance):
        raise TooManyBlues(
            f"{instance.num_blue} blue elements and {instance.num_sets} sets: the layer"
            f" lists need an estimated {table_bytes(instance)} bytes, over the limit"
            f" of {MAX_TABLE_BYTES}"
        )
    free: list[tuple[int, int]] = []
    owned: dict[int, list[tuple[int, int]]] = {}
    ix = instance.index
    for sid, (bm, rm) in ix.sets.items():
        if rm.bit_count() >= 2:
            raise RedDegreeExceeded(f"set {sid} has {rm.bit_count()} red elements")
        if rm:
            owned.setdefault(ix.reds[rm.bit_length() - 1], []).append((sid, bm))
        else:
            free.append((sid, bm))
    reds = tuple(sorted(owned))
    # Sets usable while paying for a given red: red-free always, plus the
    # sets owning exactly that red.
    return reds, {None: free, **{r: sorted(free + owned[r]) for r in reds}}


def _transform(a: list[int], op) -> None:
    """Zeta (op add) or Möbius (op sub) transform over subsets, in place.

    For each bit, every mask holding it takes op(a[mask], a[mask minus the
    bit]).  The pairs are slices: strided ones for a low bit, blocks for a
    high bit, whichever needs fewer of them.
    """
    size = len(a)
    half = 1
    while half < size:
        step = half << 1
        if half < size // step:
            for hi in range(half, step):
                a[hi::step] = map(op, a[hi::step], a[hi - half :: step])
        else:
            for hi in range(half, size, step):
                a[hi : hi + half] = map(op, a[hi : hi + half], a[hi - half : hi])
        half = step


def _drop_implied_blues(instance: Instance, usable):
    """Keep the blues that decide, and number them in order.

    A blue is implied when some other blue's holders (the sets containing
    it) are among its own; of equal columns the smallest blue is kept.
    Returns the kept blue bits and every usable (set id, blue mask) pair
    with its mask projected onto them.
    """
    holders = [0] * instance.num_blue
    for k, split in enumerate(instance.index.sets.values()):
        for i in model.bits(split.blue_mask):
            holders[i] |= 1 << k
    kept = [
        i
        for i, col in enumerate(holders)
        if not any(h | col == col for h in holders[:i])
        and not any(h | col == col != h for h in holders[i + 1 :])
    ]
    if len(kept) == len(holders):
        return kept, usable
    projected = {
        sid: sum(1 << k for k, i in enumerate(kept) if split.blue_mask >> i & 1)
        for sid, split in instance.index.sets.items()
    }
    return kept, {red: [(sid, projected[sid]) for sid, _ in sets] for red, sets in usable.items()}


def _packing(masks, b: int) -> int:
    """How many of the b blues a greedy pass finds that pairwise share no set.

    masks are the blue masks of the usable sets.  A blue's neighbourhood is
    the union of the sets holding it.  Blues are visited by neighbourhood
    size, then by index, and taken when no blue taken so far lies in it.
    """
    near = [0] * b
    for bm in masks:
        for i in model.bits(bm):
            near[i] |= bm
    taken = 0
    for i in sorted(range(b), key=lambda i: near[i].bit_count()):
        if not near[i] & taken:
            taken |= 1 << i
    return taken.bit_count()


def _fill(instance: Instance, usable, b: int):
    """Fill every table bottom-up over b blues.

    Returns per red the cover table w, the cheapest cover per mask over all
    reds v, and the layers t.
    """
    size = 1 << b
    inf = instance.num_sets + 1
    w: dict[int | None, list[int]] = {}
    for red, sets in usable.items():
        table = [inf] * size
        table[0] = 0
        for i in reversed(range(b)):
            bit = 1 << i
            masks = range(bit, size, bit << 1)  # the masks whose lowest blue is i
            rests = [
                map(table.__getitem__, map(and_, masks, repeat(~bm)))
                for _, bm in sets
                if bm & bit
            ]
            if rests:  # 1 + the least rest, capped at the sentinel
                table[bit::bit << 1] = map(add, map(min, repeat(inf - 1), *rests), repeat(1))
        w[red] = table
    v = [min(col) for col in zip(*w.values())]
    t = [w[None]]
    layers = min(instance.budget_red, len(w) - 1)  # at most one layer per red
    if not layers:
        return w, v, t

    width = (3**b).bit_length()
    cut = (1 << (inf + 1) * width) - 1
    cap = 1 << inf * width
    pack = [1 << x * width for x in range(inf)] + [0]
    zv = list(map(pack.__getitem__, v))
    _transform(zv, add)
    for _ in range(layers):
        prev = t[-1]
        a = list(map(pack.__getitem__, prev))
        _transform(a, add)
        a = list(map(and_, map(mul, a, zv), repeat(cut)))
        _transform(a, sub)
        cur = [((y & -y).bit_length() - 1) // width for y in map(or_, a, repeat(cap))]
        if cur == prev:
            break  # stationary: every later layer is identical
        t.append(cur)
    return w, v, t


def compute_tables(instance: Instance) -> DpTables:
    """Fill both tables over every blue, implied ones too (for inspection and tests)."""
    reds, usable = _usable(instance)
    w, _, t = _fill(instance, usable, instance.num_blue)
    flat = {(mask, red): value for red, table in w.items() for mask, value in enumerate(table)}
    return DpTables(instance.index.blues, reds, instance.num_sets + 1, flat, t)


def dp_solve(instance: Instance) -> Solution | None:
    """Decide the instance and reconstruct an optimal-cardinality witness.

    The tables run over the kept blues, so ties go to the smallest blue
    submask in their numbering.  The witness must have the optimum's size
    and pass model.certify; either failure raises AssertionError.
    """
    _, usable = _usable(instance)
    if not instance.budget_red:
        usable = {None: usable[None]}  # the red-free sets alone; no layer reads the others
    masks = {bm for sets in usable.values() for _, bm in sets}
    full = (1 << instance.num_blue) - 1
    if full and (
        reduce(or_, masks, 0) != full or _packing(masks, instance.num_blue) > instance.budget_lines
    ):
        return None  # a blue in no usable set, or more blues pairwise apart than lines
    kept, usable = _drop_implied_blues(instance, usable)
    w, v, t = _fill(instance, usable, len(kept))
    rest = (1 << len(kept)) - 1
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
        part = next(
            s for s in range(rest + 1) if s & rest == s and v[s] + prev[rest ^ s] == t[j][rest]
        )
        cover(part, next(red for red in w if w[red][part] == v[part]))
        rest ^= part
    cover(rest, None)
    if len(chosen) != optimum:
        raise AssertionError("witness size disagrees with the table optimum")
    return model.certify(instance, chosen)
