"""What a query computes, and the canonical form its answer is checked in.

A session query is split into ``call`` (the work a user waits for, timed)
and ``encode`` (turning the result into JSON, not part of the query's
latency). A CLI answer is its stdout document without ``elapsed``. Either
way the answer is compared through ``digest`` of its canonical JSON.

The schurcalc modules are imported lazily and looked up at call time, so
the tracing wrappers installed after import are the ones that run.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def cli_answer(stdout: bytes):
    """The stdout document of a successful CLI query, minus ``elapsed``."""
    doc = json.loads(stdout)
    doc.pop("elapsed", None)
    return doc


def _lib():
    import schurcalc.glchar as glchar
    import schurcalc.koszul as koszul
    import schurcalc.partitions as partitions
    import schurcalc.symgroup as symgroup

    return glchar, koszul, partitions, symgroup


def _idempotent(target):
    """Normalised Young idempotent c/a of a tableau or of a shape's row
    reading tableau."""
    _glchar, _koszul, _partitions, symgroup = _lib()
    c, a = symgroup.young_symmetrizer(target)
    return c.scale(Fraction(1) / a)


def call(query):
    glchar, koszul, partitions, symgroup = _lib()
    op = query["op"]
    if op in ("certify", "kimura", "wedge", "sym", "gpi"):
        obj = koszul.GradedObject({int(k): v for k, v in query["dims"].items()})
    if op == "certify":
        return koszul.certify_finiteness(obj)
    if op == "kimura":
        return koszul.kimura_split(obj)
    if op == "wedge":
        return koszul.wedge(obj, query["n"])
    if op == "sym":
        return koszul.sym(obj, query["n"])
    if op == "gpi":
        shape = partitions.Partition(tuple(query["shape"]))
        return koszul.graded_power_image(obj, _idempotent(shape))
    if op in ("ext", "symp"):
        char = glchar.GLChar.irreducible(
            glchar.DominantWeight(query["d"], tuple(query["weight"]))
        )
        power = glchar.exterior_power if op == "ext" else glchar.symmetric_power
        return power(char, query["n"])
    if op == "ysym":
        return symgroup.young_symmetrizer(partitions.Partition(tuple(query["shape"])))
    if op == "decompose":
        tableau = partitions.StandardTableau(tuple(map(tuple, query["tableau"])))
        return symgroup.decompose_module(_idempotent(tableau))
    raise ValueError(f"unknown op {op!r}")


def encode(query, result):
    op = query["op"]
    if op == "kimura":
        return [part.to_json() for part in result]
    if op == "ysym":
        c, a = result
        return {"scalar": [a.numerator, a.denominator], "terms": c.to_json()}
    return result.to_json()
