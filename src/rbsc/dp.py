"""Subset dynamic program for families whose sets carry at most one red element.

Two tables over blue-element bitmasks drive the decision:

  w[red][mask]  minimum family size covering the mask while touching no red
                element other than `red` (no red at all when red is None);
  t[j][mask]    minimum family size covering the mask while touching at
                most j red elements.

Each w[red] is held as its level sets, the set-cover program over subsets
(Cygan et al., Parameterized Algorithms, 2015, section 6.1) run on all 2^b
masks at once.  Level j is one 2^b-bit integer whose bit m is set when mask
m has a cover by at most j of the table's usable sets, and w[red][mask] is
the least level holding the mask.  Level 0 holds the empty mask alone;
level j + 1 is the OR, over the usable blue masks S, of ext_S(level j),
which for each blue i of S does

  ext |= (ext << 2^i) & has[i],

where has[i] holds every mask containing blue i.  Every level is downward
closed, since a cover of a mask covers each of its subsets, so ext_S(D) is
exactly the masks m with m minus S in D, and a cover of m by at most j + 1
sets is one set plus a cover of the rest by at most j.  The levels stop
once one holds every mask or equals the one below; a minimal cover takes at
most one set per blue, so there are at most b + 1.  v's levels (below) are
the OR of the tables' levels.

Only w[None], which is t[0], and v are decoded into lists.  Each level
becomes one 0/1 byte per mask; summed as base-256 integers, byte m counts
the levels holding mask m.  The count is at most b + 1 < 256, so no byte
carries into the next, and a lookup turns it into the least level holding
the mask, or the sentinel when no level does.

t[0] equals w[None]; a later layer picks the blue subset handled by sets
sharing one red element, at its cheapest red (v[sub], the least w[red][sub]),
and adds layer j - 1 on the rest (the empty subset is a legal, if useless,
pick):

  t[j][m] = min over sub within m of v[sub] + t[j - 1][m minus sub].

t[1] is v itself: the pick sub = m gives v[m] + t[0][empty] = v[m], and every
other pick is a cover of m paying for at most one red, which costs at least
v[m].  So only layers 2 and up are computed as below.

The instance is a YES exactly when the full-mask entry of layer budget_red
is within the line budget.  Layers stop early once two consecutive layers
coincide: the recurrence is stationary, so all later layers would be
identical.  They also stop after as many layers as there are reds: two picks
paying for the same red merge into one at no extra cost.

Each later layer is a cover product; layer 2 multiplies the zeta transform
of v by itself.  Every table is monotone, since a cover of a mask covers
each of its subsets.  So the minimum above equals the minimum of
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
never answers YES; those instances go on to the tables, and the count goes
with them.  Every full-mask entry is a cover of every blue by usable sets,
so none lies below it.  When the red-free table's full entry equals it, no
red table and no layer is filled; otherwise the layers stop once the full
entry reaches it.  The witness is the one every layer would give: where
t[j][full] equals t[j - 1][full], reconstruction at layer j takes the empty
submask first and adds nothing, and that is all a cut layer would do.

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
from the tables, reading w[red][mask] as the least level holding the mask
(so a set S continues a cover of the mask when level w[red][mask] - 1
holds the mask minus S), breaking ties toward the smallest set id, then the
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

_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # a binary digit to its byte value


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
    an upper bound and depends on the instance alone.  The cover tables'
    levels take at most (b + 1) * 2^b bits per table, below the layer
    lists, so the estimate still bounds the memory.
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


def _holding(b: int) -> list[int]:
    """Per blue i, the 2^b-bit integer whose bit m is set when mask m holds i.

    Built one blue at a time: adding blue k copies every pattern into the
    masks that hold k, and blue k's own pattern is those masks.
    """
    has: list[int] = []
    for k in range(b):
        half = 1 << k
        has = [h | h << half for h in has] + [(1 << half) - 1 << half]
    return has


def _levels(sets, has: list[int]) -> list[int]:
    """The level sets of one cover table, from its usable (set id, blue mask) pairs.

    Level j is a 2^b-bit integer whose bit m is set when mask m has a cover
    by at most j of the sets.  Each level extends the one below by any one
    set; the list stops at the first level that holds every mask or equals
    the one below.
    """
    everything = (1 << (1 << len(has))) - 1
    steps = [[(1 << i, has[i]) for i in model.bits(bm)] for bm in {bm for _, bm in sets}]
    levels = [1]  # only the empty mask is covered by no set
    while levels[-1] != everything:
        cur = levels[-1]
        nxt = cur
        for pairs in steps:
            ext = cur
            for shift, held in pairs:
                ext |= (ext << shift) & held
            nxt |= ext
        if nxt == cur:
            break
        levels.append(nxt)
    return levels


def _decode(levels: list[int], size: int, inf: int) -> list[int]:
    """The table whose entry m is the least level holding mask m, else inf.

    Each level becomes one 0/1 byte per mask; summed as base-256 integers,
    byte m counts the levels holding m, with no carry since there are at
    most b + 1 < 256 levels.
    """
    counts = sum(
        int.from_bytes(format(d, f"0{size}b")[::-1].encode().translate(_BIT_BYTES), "little")
        for d in levels
    )
    value = [inf, *range(len(levels) - 1, -1, -1)]
    return list(map(value.__getitem__, counts.to_bytes(size, "little")))


def _level(levels: list[int], j: int) -> int:
    """The masks with a cover by at most j sets: level j, or the last level."""
    return levels[min(j, len(levels) - 1)]


def _fill(instance: Instance, usable, b: int, bound: int | None = None):
    """Fill the tables bottom-up over b blues.

    Returns per red the levels of the cover table w, and the layers t; t[0]
    is w[None] decoded, and t[1], when there is one, is v, the cheapest
    cover per mask over all reds.  bound, when given, is at most the size
    of every cover of all b blues: the layers stop once the full mask
    reaches it, and no red table is filled when the red-free one already
    does.
    """
    size = 1 << b
    inf = instance.num_sets + 1
    has = _holding(b)
    w: dict[int | None, list[int]] = {None: _levels(usable[None], has)}
    t = [_decode(w[None], size, inf)]
    if t[0][-1] == bound:
        return w, t  # no cover of every blue is smaller
    w.update((red, _levels(sets, has)) for red, sets in usable.items() if red is not None)
    layers = min(instance.budget_red, len(w) - 1)  # at most one layer per red
    if not layers:
        return w, t
    depth = max(map(len, w.values()))
    v = _decode(
        [reduce(or_, (_level(levels, j) for levels in w.values())) for j in range(depth)], size, inf
    )
    if v == t[0]:
        return w, t  # stationary: every later layer is identical
    t.append(v)
    if layers == 1 or v[-1] == bound:
        return w, t

    width = (3**b).bit_length()
    cut = (1 << (inf + 1) * width) - 1
    cap = 1 << inf * width
    pack = [1 << x * width for x in range(inf)] + [0]

    def zeta(row: list[int]) -> list[int]:
        a = list(map(pack.__getitem__, row))
        _transform(a, add)
        return a

    zv = a = zeta(v)  # layer 1 is v, so layer 2 multiplies zv by itself
    while True:
        a = list(map(and_, map(mul, a, zv), repeat(cut)))
        _transform(a, sub)
        cur = [((y & -y).bit_length() - 1) // width for y in map(or_, a, repeat(cap))]
        if cur == t[-1]:
            return w, t  # stationary
        t.append(cur)
        if len(t) > layers or cur[-1] == bound:
            return w, t
        a = zeta(cur)


def compute_tables(instance: Instance) -> DpTables:
    """Fill both tables over every blue, implied ones too, and with no bound (for tests).

    Every cover table is decoded from its levels into DpTables.w.
    """
    reds, usable = _usable(instance)
    w, t = _fill(instance, usable, instance.num_blue)
    size, inf = 1 << instance.num_blue, instance.num_sets + 1
    flat = {
        (mask, red): value
        for red, levels in w.items()
        for mask, value in enumerate(_decode(levels, size, inf))
    }
    return DpTables(instance.index.blues, reds, inf, flat, t)


def dp_solve(instance: Instance) -> Solution | None:
    """Decide the instance and reconstruct an optimal-cardinality witness.

    The tables run over the kept blues, so ties go to the smallest blue
    submask in their numbering.  The packing count bounds them too: the
    layers stop once the full mask reaches it, with the witness that every
    layer would give.  The witness must have the optimum's size and pass
    model.certify; either failure raises AssertionError.
    """
    _, usable = _usable(instance)
    if not instance.budget_red:
        usable = {None: usable[None]}  # the red-free sets alone; no layer reads the others
    masks = {bm for sets in usable.values() for _, bm in sets}
    full = (1 << instance.num_blue) - 1
    bound = _packing(masks, instance.num_blue)
    if full and (reduce(or_, masks, 0) != full or bound > instance.budget_lines):
        return None  # a blue in no usable set, or more blues pairwise apart than lines
    kept, usable = _drop_implied_blues(instance, usable)
    w, t = _fill(instance, usable, len(kept), bound)
    rest = (1 << len(kept)) - 1
    optimum = t[-1][rest]
    if optimum >= instance.num_sets + 1 or optimum > instance.budget_lines:
        return None
    chosen: set[int] = set()

    def cover(mask: int, red: int | None):
        levels = w[red]
        while mask:
            below = levels[next(j for j, d in enumerate(levels) if d >> mask & 1) - 1]
            sid, bm = next(
                (sid, bm) for sid, bm in usable[red] if bm & mask and below >> (mask & ~bm) & 1
            )
            chosen.add(sid)
            mask &= ~bm

    for j in range(len(t) - 1, 0, -1):
        prev, v = t[j - 1], t[1]  # layer 1 is v
        part = next(
            s for s in range(rest + 1) if s & rest == s and v[s] + prev[rest ^ s] == t[j][rest]
        )
        cover(part, next(red for red in w if _level(w[red], v[part]) >> part & 1))
        rest ^= part
    cover(rest, None)
    if len(chosen) != optimum:
        raise AssertionError("witness size disagrees with the table optimum")
    return model.certify(instance, chosen)
