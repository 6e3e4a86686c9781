"""Command line front end.

Every subcommand prints a single JSON document of the form
{"command", "inputs", "output", "elapsed"} (or the same content as indented
text with --pretty). Exit codes: 0 on success, 2 for usage errors or
malformed input, 3 when a size or window bound is exceeded, 4 when an
internal consistency check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import BoundExceededError, InvariantError
from .glchar import lr_coeff, schur_weyl
from .koszul import GradedObject, _certified_split, certify_finiteness
from .partitions import Partition, canonical_tableau, dim_sym_irrep
from .serre import (
    BigradedVS,
    build_serre_algebra,
    gm_shift_functor,
    verify_serre_duality,
)
from .symgroup import SYMMETRIZER_BOUND, young_symmetrizer
from .symseq import (
    DEFAULT_LEVEL_BOUND,
    SymSeq,
    free_generator,
    localize,
    tensor,
    wedge_component,
)
from .values import read_ints


# a JSON file argument longer than this is refused, so a huge or endless
# file (a device such as /dev/zero) costs at most this much memory
PAYLOAD_BYTE_BOUND = 1 << 20


def _unique_keys(pairs: list) -> dict:
    """A decoded JSON object; one that names a key twice raises ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"the JSON object names the key {key!r} twice")
        obj[key] = value
    return obj


def _load_payload(text: str):
    """Parse an argument as inline JSON, or as a path to a JSON file.

    A file is read up to one byte past PAYLOAD_BYTE_BOUND; a longer one
    raises BoundExceededError. An unreadable file (a directory, no
    permission), JSON nested too deeply and a key named twice raise ValueError.
    """
    if os.path.exists(text):
        try:
            with open(text, "rb") as fh:
                data = fh.read(PAYLOAD_BYTE_BOUND + 1)
        except OSError as exc:
            raise ValueError(f"cannot read {text}: {exc.strerror or exc}") from None
        if len(data) > PAYLOAD_BYTE_BOUND:
            raise BoundExceededError(
                f"payload file {text} is longer than {PAYLOAD_BYTE_BOUND} bytes"
            )
        text = data.decode("utf-8")
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON payload nests too deeply") from None


def _read_int(text: str, what: str) -> int:
    """The int an argument names, written as the output writes it."""
    return read_ints(text, what, length=1)[0]


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (inputs, output)


def _cmd_lr(args):
    lam = Partition.from_string(args.lam)
    mu = Partition.from_string(args.mu)
    nu = Partition.from_string(args.nu)
    coeff = lr_coeff(lam, mu, nu)
    inputs = {"lam": str(lam), "mu": str(mu), "nu": str(nu)}
    return inputs, {"coefficient": coeff}


def _cmd_symmetrizer(args):
    shape = Partition.from_string(args.shape)
    # the size bound is checked before any tableau is built
    c, a = young_symmetrizer(shape)
    tableau = canonical_tableau(shape)
    output = {
        "tableau": [list(row) for row in tableau.rows],
        "dim": dim_sym_irrep(shape),
        "scalar": {"num": a.numerator, "den": a.denominator},
        "support_size": len(c.nums),
        "idempotent_after_scaling": True,
        "terms": c.to_json(),
    }
    return {"shape": str(shape), "bound": SYMMETRIZER_BOUND}, output


def _cmd_schur_weyl(args):
    d = _read_int(args.d, "rank")
    seq = SymSeq.from_json(_load_payload(args.seq))
    return {"d": d, "seq": seq.to_json()}, schur_weyl(seq, d).to_json()


def _cmd_seq_tensor(args):
    left = SymSeq.from_json(_load_payload(args.left))
    right = SymSeq.from_json(_load_payload(args.right))
    result = tensor(left, right)
    inputs = {
        "left": left.to_json(),
        "right": right.to_json(),
        "bound": DEFAULT_LEVEL_BOUND,
    }
    return inputs, result.to_json()


def _cmd_free_gen(args):
    level = _read_int(args.level, "level")
    return {"level": level}, free_generator(level).to_json()


def _cmd_localize(args):
    d = _read_int(args.d, "rank")
    seq = SymSeq.from_json(_load_payload(args.seq))
    return {"d": d, "seq": seq.to_json()}, localize(seq, d).to_json()


def _cmd_wedge_component(args):
    n = _read_int(args.n, "level")
    return {"n": n}, wedge_component(n).to_json()


def _cmd_wedge_dim(args):
    bound = None if args.bound is None else _read_int(args.bound, "bound")
    obj = GradedObject.from_json(_load_payload(args.object))
    inputs = {"object": obj.to_json()}
    if bound is not None:
        inputs["bound"] = bound
    return inputs, certify_finiteness(obj, bound=bound).to_json()


def _cmd_kimura(args):
    obj = GradedObject.from_json(_load_payload(args.object))
    plus, minus, cert_plus, cert_minus = _certified_split(obj)
    # each table runs one order past its part's total dimension, so both
    # first zeros are in it
    output = {
        "plus": plus.to_json(),
        "minus": minus.to_json(),
        "wedge_vanishes_at": next(
            m for m, power in cert_plus.wedge_powers.items() if power.is_zero()
        ),
        "sym_vanishes_at": next(
            m for m, power in cert_minus.sym_powers.items() if power.is_zero()
        ),
    }
    return {"object": obj.to_json()}, output


def _cmd_euler_chi(args):
    obj = GradedObject.from_json(_load_payload(args.object))
    return {"object": obj.to_json()}, {"euler": obj.euler()}


def _cmd_serre(args):
    n = _read_int(args.n, "dimension")
    lo, colon, hi = args.window.partition(":")
    if not colon:
        raise ValueError(f"the window {args.window!r} must be written A:B")
    r_min, r_max = _read_int(lo, "lowest twist"), _read_int(hi, "highest twist")
    alg = build_serre_algebra(n, r_min, r_max)
    inputs = {"n": n, "window": [r_min, r_max]}
    if args.verify_duality:
        return inputs, verify_serre_duality(alg)
    return inputs, alg.to_json()


def _cmd_gm_shift(args):
    space = BigradedVS.from_json(_load_payload(args.space))
    return {"space": space.to_json()}, gm_shift_functor(space).to_json()


def _run_selftest(args) -> int:
    # imported here so that no other subcommand pays for loading the suite
    from .selftest import run_checks

    results = run_checks(quick=args.quick)
    failed = 0
    for name, ok, message in results:
        if ok:
            print(f"ok {name}")
        else:
            failed += 1
            print(f"FAIL {name}: {message}")
    mode = "quick" if args.quick else "full"
    print(f"{len(results) - failed}/{len(results)} checks passed ({mode})")
    return 0 if failed == 0 else 4


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty", action="store_true", help="emit indented text instead of JSON"
    )

    parser = argparse.ArgumentParser(
        prog="schurcalc", description="exact calculator for symmetric and"
        " general linear group decompositions"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lr", parents=[common], help="one branching coefficient")
    p.add_argument("lam", help="first shape, e.g. 2,1")
    p.add_argument("mu", help="second shape")
    p.add_argument("nu", help="target shape")
    p.set_defaults(handler=_cmd_lr)

    p = sub.add_parser(
        "symmetrizer", parents=[common],
        help="Young symmetrizer of a shape with its scaling constant",
    )
    p.add_argument("shape")
    p.set_defaults(handler=_cmd_symmetrizer)

    p = sub.add_parser(
        "schur-weyl", parents=[common],
        help="multiplicity transfer of a sequence into rank d characters",
    )
    p.add_argument("--d", required=True)
    p.add_argument("--seq", required=True, help="sequence JSON (inline or a file path)")
    p.set_defaults(handler=_cmd_schur_weyl)

    p = sub.add_parser(
        "seq-tensor", parents=[common], help="levelwise product of two sequences"
    )
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_seq_tensor)

    p = sub.add_parser(
        "free-gen", parents=[common], help="free generator power at one level"
    )
    p.add_argument("--level", required=True)
    p.set_defaults(handler=_cmd_free_gen)

    p = sub.add_parser(
        "localize", parents=[common], help="drop constituents with more than d rows"
    )
    p.add_argument("--d", required=True)
    p.add_argument("seq")
    p.set_defaults(handler=_cmd_localize)

    p = sub.add_parser(
        "wedge-component", parents=[common],
        help="sign-isotypic cut of the n-th generator power",
    )
    p.add_argument("--n", required=True)
    p.set_defaults(handler=_cmd_wedge_component)

    p = sub.add_parser(
        "wedge-dim", parents=[common],
        help="finiteness certificate of a graded object",
    )
    p.add_argument("object", help="graded object JSON (inline or a file path)")
    p.add_argument("--bound")
    p.set_defaults(handler=_cmd_wedge_dim)

    p = sub.add_parser(
        "kimura", parents=[common],
        help="parity split with both vanishing indices",
    )
    p.add_argument("object")
    p.set_defaults(handler=_cmd_kimura)

    p = sub.add_parser(
        "euler-chi", parents=[common], help="alternating sum of graded dimensions"
    )
    p.add_argument("object")
    p.set_defaults(handler=_cmd_euler_chi)

    p = sub.add_parser(
        "serre", parents=[common],
        help="twist algebra of a projective space over a twist window",
    )
    p.add_argument("--n", required=True)
    p.add_argument("--window", required=True, help="twist range A:B")
    p.add_argument("--verify-duality", action="store_true")
    p.set_defaults(handler=_cmd_serre)

    p = sub.add_parser(
        "gm-shift", parents=[common],
        help="weight-driven degree shift of a bigraded space",
    )
    p.add_argument("space")
    p.set_defaults(handler=_cmd_gm_shift)

    p = sub.add_parser("selftest", help="run the built-in invariant checks")
    p.add_argument("--quick", action="store_true", help="smaller grids")
    p.set_defaults(handler=None)

    return parser


def _pretty_lines(value, indent: int = 0):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            yield pad + "{}"
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                yield f"{pad}{key}:"
                yield from _pretty_lines(item, indent + 1)
            else:
                yield f"{pad}{key}: {json.dumps(item)}"
    elif isinstance(value, list):
        if all(not isinstance(item, (dict, list)) for item in value):
            yield pad + json.dumps(value)
        else:
            for item in value:
                yield from _pretty_lines(item, indent)
    else:
        yield pad + json.dumps(value)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _glue_window(list(argv))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    if args.command == "selftest":
        return _run_selftest(args)

    start = time.perf_counter()
    try:
        inputs, output = args.handler(args)
    except BoundExceededError as exc:
        print(json.dumps({"error": "bound-exceeded", "detail": str(exc)}),
              file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(json.dumps({"error": "invariant-violation", "detail": str(exc)}),
              file=sys.stderr)
        return 4
    except (ValueError, KeyError, TypeError) as exc:
        print(json.dumps({"error": "bad-input", "detail": str(exc)}),
              file=sys.stderr)
        return 2
    elapsed = round(time.perf_counter() - start, 6)

    result = {
        "command": args.command,
        "inputs": inputs,
        "output": output,
        "elapsed": elapsed,
    }
    if args.pretty:
        print("\n".join(_pretty_lines(result)))
    else:
        print(json.dumps(result))
    return 0


def _glue_window(argv: list[str]) -> list[str]:
    # argparse rejects option values like "-4:4"; join them onto the flag
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--window" and i + 1 < len(argv):
            out.append("--window=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


if __name__ == "__main__":
    sys.exit(main())
