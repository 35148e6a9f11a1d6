"""Workload pools, corpus construction and the expected answers.

Each workload has a fixed pool of instances, listed with their expected
answers in expected.json.  A run's seed does not pick a different pool: it
permutes element and set ids of every pool instance and shuffles the order in
which they are solved; an instance solved again gets a fresh permutation.
Relabelling preserves every answer, so the committed answers hold for any
seed, while the solvers, which break ties and order their searches by id,
see different inputs and take different paths.  The structure of each pool,
and with it the slow tail, stays the same from seed to seed, so runs with
different seeds compare.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from rbsc import generators, model
from rbsc.model import ABSTRACT, BLUE, RED, Element, Instance

EXPECTED_FILE = Path(__file__).with_name("expected.json")

WORKLOADS = ("geo-lines", "one-blue-core", "dp-one-red")

# Every maximal line through 18 random grid points; auto sends these to
# fpt.solve_kl_kr.
GEO_PROFILE = generators.RandomProfile(
    min_points=18, max_points=18, max_sets=1000, max_budget_lines=5, max_budget_red=6
)
GEO_POOL = range(200)

# Non-linear, at most one red per set; auto sends these to dp.dp_solve.
DP_PROFILE = generators.RandomProfile(
    mode=ABSTRACT,
    linear=False,
    structure="max-one-red",
    min_points=13,
    max_points=19,
    min_sets=16,
    max_sets=24,
    max_budget_lines=8,
    max_budget_red=5,
    blue_chance=(2, 3),
)
# Pool size per blue count: the DP costs ~3^b, so the pool thins out as b grows.
DP_BLUE_BINS = {9: 45, 10: 25, 11: 17, 12: 9, 13: 4}

# Pool size per blue count for the one-blue core, whose NO cost grows ~10x per blue.
ONE_BLUE_BINS = {6: 70, 7: 25, 8: 5}
ONE_BLUE_SETS_PER_BLUE = 3
ONE_BLUE_BUDGET_RED = 2


def one_blue_core(seed: int, blues: int) -> Instance:
    """A linear abstract instance in which every set holds exactly one blue.

    The line budget equals the blue count and every set carries one or two
    reds, within the red budget of 2, so neither the blue-count shortcut nor
    any kernel rule decides it: the one-blue core search does.
    """
    rng = random.Random(seed)
    reds = list(range(blues, 2 * blues + 2))
    family: list[frozenset[int]] = []
    for blue in range(blues):
        own: list[frozenset[int]] = []
        for _ in range(200):
            if len(own) == ONE_BLUE_SETS_PER_BLUE:
                break
            picked = frozenset(rng.sample(reds, rng.randint(1, 2)))
            candidate = picked | {blue}
            if any(picked & other for other in own):
                continue
            if any(len(candidate & other) >= 2 for other in family):
                continue
            own.append(picked)
            family.append(candidate)
    elements = [Element(b, BLUE) for b in range(blues)] + [Element(r, RED) for r in reds]
    return Instance(
        tuple(elements), tuple(enumerate(family)), blues, ONE_BLUE_BUDGET_RED, ABSTRACT
    )


def generate(workload: str, entry: dict) -> Instance:
    """The pool instance an expected.json entry describes, before relabelling."""
    if workload == "geo-lines":
        return generators.gen_random(entry["gen_seed"], GEO_PROFILE)
    if workload == "dp-one-red":
        return generators.gen_random(entry["gen_seed"], DP_PROFILE)
    if workload == "one-blue-core":
        return one_blue_core(entry["gen_seed"], entry["blues"])
    raise ValueError(f"unknown workload {workload!r}")


def fingerprint(instance: Instance) -> str:
    """Digest of an instance's content, independent of the file format."""
    elements = [
        (e.eid, e.color, None if e.point is None else (str(e.point.x), str(e.point.y)), e.weight)
        for e in instance.elements
    ]
    family = [(sid, sorted(mem)) for sid, mem in instance.family]
    text = repr((instance.mode, instance.budget_lines, instance.budget_red, elements, family))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def relabel(instance: Instance, rng: random.Random) -> Instance:
    """An isomorphic copy with element ids and set ids permuted."""
    eids = [e.eid for e in instance.elements]
    new_eids = eids[:]
    rng.shuffle(new_eids)
    emap = dict(zip(eids, new_eids))
    sids = [sid for sid, _ in instance.family]
    new_sids = sids[:]
    rng.shuffle(new_sids)
    smap = dict(zip(sids, new_sids))
    elements = tuple(Element(emap[e.eid], e.color, e.point, e.weight) for e in instance.elements)
    family = tuple((smap[sid], frozenset(emap[e] for e in mem)) for sid, mem in instance.family)
    return Instance(elements, family, instance.budget_lines, instance.budget_red, instance.mode)


def load_pool(workload: str) -> list[dict]:
    return json.loads(EXPECTED_FILE.read_text())[workload]


@dataclass
class Case:
    """One corpus instance: its file, its expected answer, its solution path."""

    position: int
    label: str  # seeds this instance's relabellings
    entry: dict
    base: Instance
    instance: Instance
    path: Path
    out: Path

    @property
    def expected_yes(self) -> bool:
        return self.entry["answer"] == "yes"

    def write_variant(self, variant: int):
        """Replace the instance file with relabelling number `variant`."""
        self.instance = relabel(self.base, random.Random(f"{self.label}:{variant}"))
        self.path.write_text(model.serialize_instance(self.instance))


class CorpusError(Exception):
    """The corpus could not be built as expected.json describes it."""


def build_corpus(
    workload: str, seed: int, workdir: Path, clock=time.perf_counter
) -> tuple[list[Case], float, str]:
    """Generate, validate, serialize and write the corpus for one seed.

    Returns the cases in solve order, the seconds `clock` counted in the
    program's generate, validate and serialize steps plus the file writes
    (relabelling and the pool checks are the benchmark's own work and not
    counted), and a digest of every file written.
    """
    pool = load_pool(workload)
    order = list(range(len(pool)))
    random.Random(f"{workload}:{seed}").shuffle(order)
    digest = hashlib.sha256()
    cases = []
    spent = 0.0
    for position, index in enumerate(order):
        entry = pool[index]
        t0 = clock()
        base = generate(workload, entry)
        spent += clock() - t0
        if fingerprint(base) != entry["fingerprint"]:
            raise CorpusError(f"{workload} pool entry {index} no longer matches expected.json")
        label = f"{workload}:{seed}:{index}"
        inst = relabel(base, random.Random(f"{label}:0"))
        path = workdir / f"{position:03d}.rbsc"
        t0 = clock()
        report = model.validate(inst)
        text = model.serialize_instance(inst)
        path.write_text(text)
        spent += clock() - t0
        if not report.ok:
            raise CorpusError(f"{path.name}: " + "; ".join(report.violations))
        digest.update(text.encode())
        cases.append(Case(position, label, entry, base, inst, path, path.with_suffix(".solution")))
    return cases, spent, digest.hexdigest()
