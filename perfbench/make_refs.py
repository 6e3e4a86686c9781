"""Record the reference answer of every query in a workload's pool.

Each reference is the canonical answer's digest and the exit code. Before a
reference is written it is cross-checked against a route that does not go
through the code under test:

- LR coefficients against ``induction_multiplicity`` (characters);
- Cech dimensions against binomial counts;
- symmetrizer scalars against the hook product n!/f;
- wedge and symmetric power Euler characteristics against the
  falling- and rising-factorial identities, and general graded power
  images against the hook-content polynomial at the Euler characteristic;
- decompositions of Young idempotents against the single shape;
- GL_d power dimensions against binomial counts of the hook-content
  dimension.

Error inputs must exit with their documented code. The known non-object
defects are recorded with the documented code 2, which the seed does not
meet. Run from the repository root (a few minutes per workload):

    PYTHONPATH=src python3 perfbench/make_refs.py cli-deck graded-powers symmetrizers
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import answers
import run
import workloads

REFS = Path(__file__).resolve().parent / "refs"


class CrossCheckError(AssertionError):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CrossCheckError(what)


def hooks(shape) -> list[int]:
    conj = workloads.conjugate(tuple(shape))
    return [
        shape[i] - j - 1 + conj[j] - i - 1 + 1
        for i in range(len(shape))
        for j in range(shape[i])
    ]


def contents(shape) -> list[int]:
    return [j - i for i in range(len(shape)) for j in range(shape[i])]


def hook_content(shape, d) -> Fraction:
    """The hook-content polynomial of the shape, evaluated at d."""
    return Fraction(math.prod(d + c for c in contents(shape)), math.prod(hooks(shape)))


def gl_dim(weight, d: int) -> Fraction:
    """Dimension of the GL_d irreducible of a dominant weight, by hook-content."""
    part = tuple(x - weight[-1] for x in weight if x > weight[-1])
    return hook_content(part, d)


def binom(x: int, k: int) -> Fraction:
    """x (x-1) ... (x-k+1) / k!, for any integer x."""
    return Fraction(math.prod(x - i for i in range(k)), math.factorial(k))


def euler(dims: dict) -> int:
    return sum(v if int(k) % 2 == 0 else -v for k, v in dims.items())


def cech_dims(n: int, r: int) -> dict[str, int]:
    """Cohomology of O(r) on P^n by the binomial counts."""
    if r >= 0:
        return {"0": math.comb(r + n, n)}
    if r <= -n - 1:
        return {str(n): math.comb(-r - 1, n)}
    return {}


def check_powers(chi: int, wedge_powers: dict, sym_powers: dict) -> None:
    for m, dims in wedge_powers.items():
        check(euler(dims) == binom(chi, int(m)), f"Euler of wedge^{m} at chi={chi}")
    for m, dims in sym_powers.items():
        check(
            euler(dims) == binom(chi + int(m) - 1, int(m)),
            f"Euler of sym^{m} at chi={chi}",
        )


def _shape(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def cross_check_cli(argv: list[str], output: dict) -> str | None:
    """Cross-check one successful CLI answer; returns the check's kind."""
    from schurcalc.partitions import Partition
    from schurcalc.symgroup import induction_multiplicity

    command = argv[0]
    if command == "lr":
        lam, mu, nu = (Partition(_shape(t)) for t in argv[1:4])
        check(
            output["coefficient"] == induction_multiplicity(lam, mu, nu),
            f"lr vs induction for {argv}",
        )
        return "lr-vs-induction"
    if command == "symmetrizer":
        shape = _shape(argv[1])
        hook = math.prod(hooks(shape))
        check(output["scalar"] == {"num": hook, "den": 1}, f"scalar of {shape}")
        check(output["dim"] == math.factorial(sum(shape)) // hook, f"dim of {shape}")
        return "scalar-vs-hooks"
    if command == "serre":
        n = int(argv[argv.index("--n") + 1])
        if "--verify-duality" in argv:
            for row in output["checked"]:
                partner = output["dualizing_weight"] - row["r"]
                check(row["h0_dim"] == cech_dims(n, row["r"]).get("0", 0), f"h0 at {row}")
                check(
                    row["dual_hn_dim"] == cech_dims(n, partner).get(str(n), 0),
                    f"h^n at {row}",
                )
        else:
            for r, coh in output["cohomology"].items():
                check(coh["dims"] == cech_dims(n, int(r)), f"Cech dims of O({r}) on P^{n}")
        return "cech-vs-binomial"
    if command == "wedge-dim":
        chi = euler(json.loads(argv[1])["dims"])
        check_powers(chi, output["wedge_powers"], output["sym_powers"])
        return "euler-identity"
    return None


def cross_check_session(query: dict, answer) -> str | None:
    op = query["op"]
    if op in ("wedge", "sym"):
        chi = euler(query["dims"])
        powers = {str(query["n"]): answer["dims"]}
        check_powers(chi, powers if op == "wedge" else {}, powers if op == "sym" else {})
        return "euler-identity"
    if op == "certify":
        check_powers(euler(query["dims"]), answer["wedge_powers"], answer["sym_powers"])
        return "euler-identity"
    if op == "gpi":
        chi = euler(query["dims"])
        check(
            euler(answer["dims"]) == hook_content(query["shape"], chi),
            f"Euler of image for {query}",
        )
        return "hook-content"
    if op == "ysym":
        check(
            answer["scalar"] == [math.prod(hooks(query["shape"])), 1],
            f"scalar of {query['shape']}",
        )
        return "scalar-vs-hooks"
    if op == "decompose":
        shape = tuple(len(row) for row in query["tableau"])
        check(answer == {workloads.shape_text(shape): 1}, f"decompose {query}")
        return "single-shape"
    if op in ("ext", "symp"):
        d, n = query["d"], query["n"]
        base = gl_dim(query["weight"], d)
        total = sum(mult * gl_dim(json.loads(key), d) for key, mult in answer["coeffs"].items())
        expected = binom(base, n) if op == "ext" else binom(base + n - 1, n)
        check(total == expected, f"dimension of {query}")
        return "dimension-binomial"
    return None


def record(workload: str) -> dict:
    entries: dict[str, dict] = {}
    kinds: dict[str, int] = {}
    if workload == "cli-deck":
        bench = run.Build(run.ROOT)
        expected_codes = {
            workloads.query_key(argv): (code, known)
            for pool, known in ((workloads.ERROR_POOL, False), (workloads.KNOWN_DEFECTS, True))
            for argv, code in pool
        }
        for argv in workloads.pool(workload):
            proc = bench.run_cli(argv, traced=False)
            code, known = expected_codes.get(workloads.query_key(argv), (0, False))
            entry = {"exit": code}
            if known:
                entry["known_defect"] = True
            elif proc.returncode != code:
                raise CrossCheckError(f"{argv} exited {proc.returncode}, expected {code}")
            elif code == 0:
                doc = answers.cli_answer(proc.stdout)
                kind = cross_check_cli(argv, doc["output"])
                if kind:
                    kinds[kind] = kinds.get(kind, 0) + 1
                entry["digest"] = answers.digest(doc)
            entries[workloads.query_key(argv)] = entry
    else:
        for query in workloads.pool(workload):
            answer = answers.encode(query, answers.call(query))
            kind = cross_check_session(query, answer)
            if kind:
                kinds[kind] = kinds.get(kind, 0) + 1
            entries[workloads.query_key(query)] = {"exit": 0, "digest": answers.digest(answer)}
    return {"workload": workload, "cross_checks": kinds, "entries": entries}


def main(names: list[str]) -> int:
    REFS.mkdir(exist_ok=True)
    for workload in names or workloads.WORKLOADS:
        refs = record(workload)
        path = REFS / f"{workload}.json"
        path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
        print(f"{workload}: {len(refs['entries'])} references, cross-checks {refs['cross_checks']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
