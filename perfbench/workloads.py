"""Input pools and seeded batches for the three workloads.

Every workload draws from a finite pool. The pools depend on nothing but
this file, so the references in ``refs/`` cover them once and for all. A
batch is stratified: the number of queries in each cost class is fixed, and
the seed picks which pool member fills each slot and the order in which the
queries are sent. Two seeds therefore ask different questions of about the
same total cost, which keeps the figures of different seeds comparable.

Nothing here imports schurcalc: the program sees only the generated inputs.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("cli-deck", "graded-powers", "symmetrizers")


# ---------------------------------------------------------------------------
# small combinatorics of the inputs themselves


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n in decreasing lexicographic order, (n) first."""

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return list(gen(n, n))


def conjugate(shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in shape if p > j) for j in range(shape[0])) if shape else ()


def contains(big: tuple[int, ...], small: tuple[int, ...]) -> bool:
    return len(small) <= len(big) and all(s <= b for s, b in zip(small, big))


def standard_tableaux(shape: tuple[int, ...]) -> list[list[list[int]]]:
    """Every standard filling of the shape, as lists of rows."""
    out = []
    rows: list[list[int]] = [[] for _ in shape]

    def place(value: int):
        if value > sum(shape):
            out.append([list(r) for r in rows])
            return
        for i, row in enumerate(rows):
            if len(row) < shape[i] and (i == 0 or len(rows[i - 1]) > len(row)):
                row.append(value)
                place(value + 1)
                row.pop()

    place(1)
    return out


def shape_text(shape: tuple[int, ...]) -> str:
    return ",".join(str(p) for p in shape)


def graded_objects(total: int, degrees: int = 4) -> list[dict[int, int]]:
    """Dimension vectors over degrees 0..degrees-1 with the given total."""

    def gen(deg: int, left: int):
        if deg == degrees - 1:
            yield (left,)
            return
        for d in range(left, -1, -1):
            for rest in gen(deg + 1, left - d):
                yield (d,) + rest

    return [
        {deg: dim for deg, dim in enumerate(vec) if dim} for vec in gen(0, total)
    ]


def object_json(dims: dict[int, int]) -> str:
    body = {str(deg): dims[deg] for deg in sorted(dims)}
    return json.dumps({"dims": body}, separators=(",", ":"))


def query_key(query) -> str:
    """Canonical text of one query; the key of its reference."""
    return json.dumps(query, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# cli-deck: argv lists for the schurcalc entry point

_SEQS = [
    {"1": {"1": 1}},
    {"2": {"2": 1, "1,1": 1}},
    {"3": {"2,1": 2, "3": 1}},
    {"2": {"2": 1}, "3": {"1,1,1": 1}},
    {"1": {"1": 2}, "4": {"3,1": 1}},
    {"4": {"2,1,1": 1, "3,1": 2}},
    {"4": {"2,2": 1, "4": 1}},
    {"4": {"4": 1, "3,1": 3, "2,2": 2, "2,1,1": 3, "1,1,1,1": 1}},
]


def _seq_json(levels: dict) -> str:
    return json.dumps({"levels": levels}, separators=(",", ":"))


def _max_level(levels: dict) -> int:
    return max(int(k) for k in levels)


def _lr_pool() -> list[list[str]]:
    triples = []
    for a, b in ((3, 3), (4, 3), (4, 4), (5, 4), (5, 5)):
        for lam in partitions(a):
            for mu in partitions(b):
                for nu in partitions(a + b):
                    if contains(nu, lam) and contains(nu, mu):
                        triples.append((lam, mu, nu))
    step = max(1, len(triples) // 60)
    return [
        ["lr", shape_text(lam), shape_text(mu), shape_text(nu)]
        for lam, mu, nu in triples[::step]
    ]


# Inputs that must end in a documented error code, with that code.
ERROR_POOL: list[tuple[list[str], int]] = [
    (["lr", "3,x", "1", "2"], 2),
    (["symmetrizer", "2,3"], 2),
    (["wedge-dim", '{"dims":{"0":'], 2),
    (["serre", "--n", "2", "--window", "4:-4"], 2),
    (["free-gen"], 2),
    (["euler-chi", '{"dims":{"0":-1}}'], 2),
    (["free-gen", "--level", "9"], 3),
    (["symmetrizer", "3,3,3"], 3),
    (["serre", "--n", "2", "--window", "-11:10"], 3),
    (["seq-tensor", _seq_json(_SEQS[5]), _seq_json({"5": {"5": 1}})], 3),
    (["wedge-component", "--n", "9"], 3),
]

# JSON payloads that are not objects. The documented code is 2; the seed
# exits 1 with a traceback on each (ROADMAP item 4).
KNOWN_DEFECTS: list[tuple[list[str], int]] = [
    (["wedge-dim", "[1,2]"], 2),
    (["schur-weyl", "--d", "2", "--seq", "[1]"], 2),
    (["euler-chi", "null"], 2),
]


def cli_strata() -> list[tuple[str, int, list[list[str]]]]:
    """(stratum name, queries per batch, pool of argv lists)."""
    small_shapes = [p for n in range(2, 6) for p in partitions(n)]
    objs = {t: [object_json(o) for o in graded_objects(t)] for t in range(1, 5)}
    seq_pairs = [
        (a, b) for a in _SEQS for b in _SEQS if _max_level(a) + _max_level(b) <= 8
    ]
    p3_core = [(a, a + 20) for a in range(-14, -9)]
    p3_rest = [(a, a + 20) for a in range(-20, 1) if not -14 <= a <= -10]
    small_serre = [
        (n, a, a + 10, dual)
        for n in (1, 2, 3)
        for a in range(-10, 1, 2)
        for dual in (False, True)
    ]

    def serre(n, lo, hi, dual):
        argv = ["serre", "--n", str(n), "--window", f"{lo}:{hi}"]
        return argv + ["--verify-duality"] if dual else argv

    return [
        ("lr", 8, _lr_pool()),
        ("symmetrizer", 6, [["symmetrizer", shape_text(p)] for p in small_shapes]),
        (
            "schur-weyl",
            4,
            [["schur-weyl", "--d", str(d), "--seq", _seq_json(s)] for d in range(1, 5) for s in _SEQS],
        ),
        ("seq-tensor", 6, [["seq-tensor", _seq_json(a), _seq_json(b)] for a, b in seq_pairs]),
        ("free-gen", 3, [["free-gen", "--level", str(k)] for k in range(9)]),
        (
            "localize",
            3,
            [["localize", "--d", str(d), _seq_json(s)] for d in range(4) for s in _SEQS],
        ),
        ("wedge-component", 2, [["wedge-component", "--n", str(k)] for k in range(9)]),
        ("wedge-dim-1", 1, [["wedge-dim", o] for o in objs[1]]),
        ("wedge-dim-2", 1, [["wedge-dim", o] for o in objs[2]]),
        ("wedge-dim-3", 2, [["wedge-dim", o] for o in objs[3]]),
        ("kimura", 3, [["kimura", o] for t in (1, 2, 3) for o in objs[t]]),
        ("euler-chi", 3, [["euler-chi", o] for t in range(1, 5) for o in objs[t]]),
        ("serre-p3-core", 2, [serre(3, lo, hi, True) for lo, hi in p3_core]),
        ("serre-p3", 2, [serre(3, lo, hi, True) for lo, hi in p3_rest]),
        ("serre-small", 2, [serre(*w) for w in small_serre]),
        (
            "gm-shift",
            2,
            [
                ["gm-shift", json.dumps({"dims": {f"{w},{i}": d}}, separators=(",", ":"))]
                for w in (-2, -1, 1, 2)
                for i in (0, 1, 3)
                for d in (1, 2)
            ],
        ),
        ("error", 5, [argv for argv, _ in ERROR_POOL]),
        ("known-defect", 3, [argv for argv, _ in KNOWN_DEFECTS]),
    ]


# ---------------------------------------------------------------------------
# graded-powers: one API session


def _gl_pool() -> list[dict]:
    weights = []
    for d in range(1, 5):
        for size in range(1, 4):
            for shape in partitions(size):
                if len(shape) <= d:
                    weights.append((d, shape + (0,) * (d - len(shape))))
        if d > 1:
            weights.append((d, (1,) + (0,) * (d - 2) + (-1,)))
    return [{"d": d, "weight": list(w)} for d, w in weights]


def graded_strata() -> list[tuple[str, int, list[dict]]]:
    """Strata keyed by total dimension t and the number k of odd dimensions.

    The cost of a signed power depends on n, t and k, not on which degrees
    carry the dimensions, so the seed picks the degrees within a class.
    """
    classes: dict[tuple[int, int], list[dict]] = {}
    for t in range(1, 5):
        for o in graded_objects(t):
            odd = sum(dim for deg, dim in o.items() if deg % 2)
            classes.setdefault((t, odd), []).append(
                {str(deg): dim for deg, dim in sorted(o.items())}
            )

    strata = []
    for t in range(1, 5):
        if t < 4:  # t = 4 builds S_7 for about 6 s, half a round (see README)
            certify = [{"op": "certify", "dims": o} for o in classes[(t, t // 2)]]
            strata.append((f"certify-{t}", 1, certify))
        kimura = [{"op": "kimura", "dims": o} for k in range(t + 1) for o in classes[(t, k)]]
        strata.append((f"kimura-{t}", 2, kimura))
    for (t, k), members in sorted(classes.items()):
        for op in ("wedge", "sym"):
            for n in range(2, 7):
                strata.append(
                    (f"{op}-{n}-{t}-{k}", 1, [{"op": op, "n": n, "dims": o} for o in members])
                )
        if t in (2, 4):
            for n in range(3, 6):
                for shape in partitions(n):
                    strata.append(
                        (
                            f"gpi-{shape_text(shape)}-{t}-{k}",
                            1,
                            [{"op": "gpi", "shape": list(shape), "dims": o} for o in members],
                        )
                    )
    for op in ("ext", "symp"):
        for n in (2, 3, 4):
            strata.append((f"{op}-{n}", 2, [dict(w, op=op, n=n) for w in _gl_pool()]))
    return strata


# ---------------------------------------------------------------------------
# symmetrizers: one API session, symmetrizers first, then decompositions

# Size-7 shapes come in conjugate pairs of equal support, so drawing one
# member of each pair keeps the batch cost about fixed; (4,1,1,1) is its own
# conjugate and is always asked. Left out, for the length of a round: (7) and
# (1^7), about 28 s each, (6,1)/(2,1^5), about 3.6 s each, and (4,3)/(2,2,2,1),
# about 1.5 s each (see README).
SIZE7_PAIRS = [
    ((5, 2), (2, 2, 1, 1, 1)),
    ((3, 3, 1), (3, 2, 2)),
    ((5, 1, 1), (3, 1, 1, 1, 1)),
    ((4, 2, 1), (3, 2, 1, 1)),
    ((4, 1, 1, 1),),
]

# Size-6 decompositions are drawn the same way, one idempotent of each
# conjugate pair. (6) and (1^6) are left out: their idempotence checks take
# 3-5 s each and differ in cost by half.
SIZE6_PAIRS = [
    ((5, 1), (2, 1, 1, 1, 1)),
    ((4, 2), (2, 2, 1, 1)),
    ((4, 1, 1), (3, 1, 1, 1)),
    ((3, 3), (2, 2, 2)),
    ((3, 2, 1),),
]


def symmetrizer_phases() -> list[list[tuple[str, int, list[dict]]]]:
    def ysym(shape):
        return {"op": "ysym", "shape": list(shape)}

    def decompose(shape):
        # the idempotent of the row reading tableau
        return {"op": "decompose", "tableau": standard_tableaux(shape)[0]}

    first = [(f"ysym-{shape_text(p)}", 1, [ysym(p)]) for p in partitions(6)]
    first += [(f"ysym7-{shape_text(a[0])}", 1, [ysym(p) for p in a]) for a in SIZE7_PAIRS]
    # every standard tableau up to size 5, then the size-6 draw
    second = [
        (f"decompose-{shape_text(p)}-{i}", 1, [{"op": "decompose", "tableau": t}])
        for n in range(1, 6)
        for p in partitions(n)
        for i, t in enumerate(standard_tableaux(p))
    ]
    second += [
        (f"decompose6-{shape_text(a[0])}", 1, [decompose(p) for p in a]) for a in SIZE6_PAIRS
    ]
    return [first, second]


# ---------------------------------------------------------------------------
# batches


def _draw(strata, rng: random.Random) -> list:
    batch = []
    for _name, count, pool in strata:
        batch.extend(rng.sample(pool, count))
    rng.shuffle(batch)
    return batch


def batch(workload: str, seed: int) -> list:
    """The fixed batch of one run: a list of queries, in sending order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-deck":
        return _draw(cli_strata(), rng)
    if workload == "graded-powers":
        return _draw(graded_strata(), rng)
    if workload == "symmetrizers":
        out = []
        for phase in symmetrizer_phases():
            out.extend(_draw(phase, rng))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def pool(workload: str) -> list:
    """Every query a batch of the workload can contain, without repeats."""
    if workload == "cli-deck":
        strata = cli_strata()
    elif workload == "graded-powers":
        strata = graded_strata()
    elif workload == "symmetrizers":
        strata = [s for phase in symmetrizer_phases() for s in phase]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    seen: dict[str, object] = {}
    for _name, _count, members in strata:
        for query in members:
            seen.setdefault(query_key(query), query)
    return list(seen.values())
