import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _dump(workload, seed):
    return json.dumps(workloads.batch(workload, seed)).encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert _dump(workload, 7) == _dump(workload, 7)
    assert _dump(workload, 7) != _dump(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_do_not_depend_on_the_interpreter(workload):
    code = (
        "import json, sys, workloads; "
        f"sys.stdout.write(json.dumps(workloads.batch({workload!r}, 7)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=BENCH, env=dict(os.environ, PYTHONHASHSEED="123"),
        capture_output=True, check=True,
    ).stdout
    assert out == _dump(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_batches_draw_from_the_referenced_pool(workload):
    pool = {workloads.query_key(q) for q in workloads.pool(workload)}
    with open(os.path.join(BENCH, "refs", f"{workload}.json"), encoding="utf-8") as fh:
        refs = json.load(fh)["entries"]
    assert set(refs) == pool
    for seed in range(5):
        assert {workloads.query_key(q) for q in workloads.batch(workload, seed)} <= pool


def test_cli_deck_has_a_fixed_share_of_known_defects():
    defects = {workloads.query_key(argv) for argv, _ in workloads.KNOWN_DEFECTS}
    sizes = set()
    for seed in range(5):
        deck = [workloads.query_key(q) for q in workloads.batch("cli-deck", seed)]
        sizes.add(len(deck))
        assert Counter(k for k in deck if k in defects) == Counter(defects)
        assert {argv[0] for argv in workloads.batch("cli-deck", seed)} >= {
            "lr", "symmetrizer", "schur-weyl", "seq-tensor", "free-gen", "localize",
            "wedge-component", "wedge-dim", "kimura", "euler-chi", "serre", "gm-shift",
        }
    assert len(sizes) == 1


def test_symmetrizers_draw_one_shape_of_each_size7_pair():
    for seed in range(10):
        batch = workloads.batch("symmetrizers", seed)
        drawn = [tuple(q["shape"]) for q in batch if q["op"] == "ysym" and sum(q["shape"]) == 7]
        assert sorted(drawn) == sorted(
            next(s for s in pair if s in drawn) for pair in workloads.SIZE7_PAIRS
        )
        assert len(drawn) == len(workloads.SIZE7_PAIRS)
        ops = [q["op"] for q in batch]
        assert ops == sorted(ops, key=lambda op: op != "ysym")
