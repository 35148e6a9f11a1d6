"""Subset dynamic program for families whose sets carry at most one red element.

Two tables over blue-element bitmasks drive the decision:

  w[red][mask]  minimum family size covering the mask while touching no red
                element other than `red` (no red at all when red is None);
  t[j][mask]    minimum family size covering the mask while touching at
                most j red elements.

Every table is held as its level sets, the set-cover program over subsets
(Cygan et al., Parameterized Algorithms, 2015, section 6.1) run on all 2^b
masks at once.  Level c is one 2^b-bit integer whose bit m is set when the
entry of mask m is at most c, and the entry is the least level holding the
mask.  Every table is monotone, since a cover of a mask covers each of its
subsets, so every level is downward closed.

One routine grows them all.  Given seed levels and some blue masks, level c
holds m = A | B when B lies in seed level c' and A has a cover by at most
c - c' of the masks.  Level c is seed level c OR'd with level c - 1
extended by any one mask S, and the extension ext_S(D) does, for each blue
i of S,

  ext |= (ext << 2^i) & has[i],

where has[i] holds every mask containing blue i.  Since D is downward
closed, ext_S(D) is exactly the masks m with m minus S in D.  The levels
stop at the first that holds every mask, or at the first equal to the one
below once the seed has run out: from there on nothing is added.  Every
finite entry is at most b, since a minimal cover takes at most one set per
blue, so a list grown from a seed of at most b + 1 levels has at most b + 1
levels too.

w[None] grows from the empty mask by the red-free sets.  A later layer picks
the blue subset handled by sets sharing one red element, at its cheapest red
(v[sub], the least w[red][sub]), and adds layer j - 1 on the rest (the empty
subset is a legal, if useless, pick):

  t[j][m] = min over sub within m of v[sub] + t[j - 1][m minus sub].

Since the tables are monotone, this is the min-plus cover product: the
least v[A] + t[j - 1][B] over all pairs with A | B == m, as a pair that
overlaps can shrink B to m minus A at no extra cost.  The product is
associative and commutative, and it takes the minimum over reds apart.
w[red] is w[None] times the cover table of the sets owning red alone, so it
grows from w[None] by those sets.  Every layer is w[None] (t[0]) times some
table, and w[None] times itself is w[None], so w[red] times layer j - 1 is
layer j - 1 grown by red's own sets.  Layer j is the OR, level by level and
over the reds, of those grown lists; layer 1, v itself, is the OR of the
w[red].

Every table, layers included, stays as its levels while it is filled.  Two
layers are the same table when they hold the same masks at every level,
reading past the end of the shorter list as its last level (an OR of grown
lists can end in repeated levels), and an entry is the least level holding
the mask.  Only the submask search of a YES that pays for reds decodes the
layers into lists.  Each level becomes one 0/1 byte per mask; summed as
base-256 integers, byte m counts the levels holding mask m.  The count is at
most b + 1 < 256, so no byte carries into the next, and a lookup turns it
into the least level holding the mask, or the sentinel when no level does.

The instance is a YES exactly when the full-mask entry of layer budget_red
is within the line budget.  Layers stop early once two consecutive layers
coincide: the recurrence is stationary, so all later layers would be
identical.  They also stop after as many layers as there are reds: two picks
paying for the same red merge into one at no extra cost.

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

from functools import reduce
from operator import or_

from . import model
from .errors import PreconditionViolated, RedDegreeExceeded, TooManyBlues
from .model import Instance, Solution

# Limit on the table_bytes estimate.  Measured on a 2-core container with
# Python 3.11, on one-blue sets, all but two paying for one of 8 reds: 17
# blues and 24 sets (estimate 30 MB) solve in 0.10 s at 29 MB resident, 18
# blues and 25 sets (65.5 MB) in 0.24 s at 44 MB.
MAX_TABLE_BYTES = 1 << 26

_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # a binary digit to its byte value


def table_bytes(instance: Instance) -> int:
    """Estimated bytes of the tables the layers keep alive.

    The formula, 2 * 2^b * ((sentinel + 1) * W / 8 + 28) with W the bit
    length of 3^b, was sized for packed layer lists this module no longer
    builds; it stays so that auto's picks do not move.  The tables now are
    level sets, (b + 1) bits per mask per table, and a YES that pays for
    reds decodes its layers, an 8-byte slot per mask in each of at most
    min(b, reds) + 1 lists.  b counts every blue, before implied ones are
    dropped, so the estimate depends on the instance alone.  It stays above
    the measured peak except when every blue needs a red of its own and all
    b + 1 layers are filled and decoded: b one-blue sets, each paying for
    its own red, peak at about 1.2 times the estimate.
    """
    b = len(instance.index.blues)
    return 2 * (1 << b) * ((instance.num_sets + 2) * (3**b).bit_length() // 8 + 28)


def fits(instance: Instance) -> bool:
    """Whether the table_bytes estimate stays within MAX_TABLE_BYTES.

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


def _level(levels: list[int], j: int) -> int:
    """The masks whose entry is at most j: level j, or the last level."""
    return levels[min(j, len(levels) - 1)]


def _entry(levels: list[int], mask: int, inf: int) -> int:
    """The least level holding the mask, or inf when none does."""
    return next((c for c, d in enumerate(levels) if d >> mask & 1), inf)


def _grow(seed: list[int], masks, has: list[int]) -> list[int]:
    """The level sets of a seed table grown by a cover with the given blue masks.

    Level c holds every A | B with B in seed level c' and A covered by at
    most c - c' of the masks: seed level c, OR'd with level c - 1 extended by
    any one mask.  The list stops at the first level that holds every mask,
    or at the first level equal to the one below once the seed has run out.
    """
    everything = (1 << (1 << len(has))) - 1
    steps = [[(1 << i, has[i]) for i in model.bits(bm)] for bm in masks]
    levels = [seed[0]]
    while levels[-1] != everything:
        cur = levels[-1]
        nxt = cur | _level(seed, len(levels))
        for pairs in steps:
            ext = cur
            for shift, held in pairs:
                ext |= (ext << shift) & held
            nxt |= ext
        if nxt == cur and len(levels) >= len(seed):
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


def _fill(instance: Instance, usable, b: int, bound: int | None = None):
    """Fill the tables bottom-up over b blues, all as level lists.

    Returns per red the levels of the cover table w, and the levels of the
    layers t; t[0] is w[None], and t[1], when there is one, is v, the
    cheapest cover per mask over all reds.  bound, when given, is at most
    the size of every cover of all b blues: the layers stop once the full
    mask reaches it, and no red table is filled when the red-free one
    already does.
    """
    full, inf = (1 << b) - 1, instance.num_sets + 1
    has = _holding(b)
    free = {bm for _, bm in usable[None]}
    w: dict[int | None, list[int]] = {None: _grow([1], free, has)}
    t = [w[None]]
    if _entry(t[0], full, inf) == bound:
        return w, t  # no cover of every blue is smaller
    own = {red: {bm for _, bm in sets} - free for red, sets in usable.items() if red is not None}
    w.update((red, _grow(w[None], masks, has)) for red, masks in own.items())
    layers = min(instance.budget_red, len(own))  # at most one layer per red
    if not layers:
        return w, t
    grown = list(w.values())  # layer 1, v, is the OR of the cover tables
    while True:
        top = max(map(len, grown))
        levels = [reduce(or_, (_level(g, c) for g in grown)) for c in range(top)]
        if all(_level(levels, c) == _level(t[-1], c) for c in range(max(top, len(t[-1])))):
            return w, t  # stationary: every later layer is identical
        t.append(levels)
        if len(t) > layers or _entry(levels, full, inf) == bound:
            return w, t
        grown = [_grow(levels, masks, has) for masks in own.values()]


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
    rest, inf = (1 << len(kept)) - 1, instance.num_sets + 1
    optimum = _entry(t[-1], rest, inf)
    if optimum >= inf or optimum > instance.budget_lines:
        return None
    chosen: set[int] = set()

    def cover(mask: int, red: int | None):
        levels = w[red]
        while mask:
            below = levels[_entry(levels, mask, inf) - 1]
            sid, bm = next(
                (sid, bm) for sid, bm in usable[red] if bm & mask and below >> (mask & ~bm) & 1
            )
            chosen.add(sid)
            mask &= ~bm

    # The submask search reads the layers as lists; with no layer past t[0]
    # it does not run, and nothing is decoded.
    layers = [_decode(levels, rest + 1, inf) for levels in t] if len(t) > 1 else []
    for j in range(len(layers) - 1, 0, -1):
        prev, v = layers[j - 1], layers[1]  # layer 1 is v
        part = next(
            s for s in range(rest + 1) if s & rest == s and v[s] + prev[rest ^ s] == layers[j][rest]
        )
        cover(part, next(red for red in w if _level(w[red], v[part]) >> part & 1))
        rest ^= part
    cover(rest, None)
    if len(chosen) != optimum:
        raise AssertionError("witness size disagrees with the table optimum")
    return model.certify(instance, chosen)
