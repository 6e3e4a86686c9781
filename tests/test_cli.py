"""End-to-end runs of the command line program, including exit codes."""

import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import schurcalc
from schurcalc import selftest, symgroup
from schurcalc.cli import PAYLOAD_BYTE_BOUND, build_parser, main
from schurcalc.errors import InvariantError
from schurcalc.glchar import SCHUR_WEYL_RANK_BOUND

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
ELAPSED = re.compile(r'("?elapsed"?: )[-0-9.e]+')


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_result_envelope(capsys):
    result = run_json(capsys, "lr", "2,1", "2,1", "3,2,1")
    assert set(result) == {"command", "inputs", "output", "elapsed"}
    assert result["command"] == "lr"
    assert result["output"] == {"coefficient": 2}
    assert result["inputs"] == {"lam": "2,1", "mu": "2,1", "nu": "3,2,1"}


def test_lr_zero_case(capsys):
    result = run_json(capsys, "lr", "2", "1", "1,1,1")
    assert result["output"] == {"coefficient": 0}


def test_symmetrizer_output(capsys):
    result = run_json(capsys, "symmetrizer", "2,1")
    out = result["output"]
    assert out["scalar"] == {"num": 3, "den": 1}
    assert out["dim"] == 2
    assert out["support_size"] == 4
    assert out["idempotent_after_scaling"] is True


def test_size_eight_symmetrizer(capsys):
    result = run_json(capsys, "symmetrizer", "2,1,1,1,1,1,1")
    out = result["output"]
    assert out["scalar"] == {"num": 5760, "den": 1}
    assert out["support_size"] == 10080


def test_schur_weyl_inline_json(capsys):
    result = run_json(
        capsys, "schur-weyl", "--d", "2", "--seq", '{"levels":{"2":{"2":1,"1,1":1}}}'
    )
    assert result["output"] == {"d": 2, "coeffs": {"[1,1]": 1, "[2,0]": 1}}


def test_seq_tensor_from_files(capsys, tmp_path):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text('{"levels":{"1":{"1":1}}}')
    right.write_text('{"levels":{"1":{"1":1}}}')
    result = run_json(capsys, "seq-tensor", str(left), str(right))
    assert result["output"] == {"levels": {"2": {"2": 1, "1,1": 1}}}


def test_localize_drops_tall_rows(capsys):
    result = run_json(
        capsys, "localize", "--d", "1", '{"levels":{"2":{"2":1,"1,1":1}}}'
    )
    assert result["output"] == {"levels": {"2": {"2": 1}}}


def test_free_gen_and_wedge_component(capsys):
    gen = run_json(capsys, "free-gen", "--level", "3")
    assert gen["output"]["levels"]["3"] == {"3": 1, "2,1": 2, "1,1,1": 1}
    cut = run_json(capsys, "wedge-component", "--n", "3")
    assert cut["output"]["levels"] == {"3": {"1,1,1": 1}}


def test_wedge_dim_example(capsys):
    result = run_json(capsys, "wedge-dim", '{"dims":{"0":3}}', "--bound", "5")
    assert result["output"]["kind"] == "wedge-finite"
    assert result["output"]["n"] == 3


def test_kimura_split_command(capsys):
    result = run_json(capsys, "kimura", '{"dims":{"2":1,"3":2}}')
    out = result["output"]
    assert out["plus"] == {"dims": {"2": 1}}
    assert out["minus"] == {"dims": {"3": 2}}
    assert out["wedge_vanishes_at"] == 2
    assert out["sym_vanishes_at"] == 3


def test_kimura_of_the_empty_object(capsys):
    out = run_json(capsys, "kimura", '{"dims":{}}')["output"]
    assert out == {
        "plus": {"dims": {}},
        "minus": {"dims": {}},
        "wedge_vanishes_at": 1,
        "sym_vanishes_at": 1,
    }


def test_euler_chi_command(capsys):
    result = run_json(capsys, "euler-chi", '{"dims":{"0":2,"1":3,"4":1}}')
    assert result["output"] == {"euler": 0}


def test_serre_window_with_negative_bound(capsys):
    result = run_json(capsys, "serre", "--n", "1", "--window", "-2:2")
    coh = result["output"]["cohomology"]
    assert coh["-2"]["dims"] == {"1": 1}
    assert coh["2"]["dims"] == {"0": 3}


def test_serre_duality_report(capsys):
    result = run_json(
        capsys, "serre", "--n", "1", "--window", "-4:4", "--verify-duality"
    )
    assert result["output"]["all_perfect"] is True


def test_serre_duality_skips_a_dualizing_weight_outside_the_window(capsys):
    result = run_json(capsys, "serre", "--n", "3", "--window", "-2:0", "--verify-duality")
    report = result["output"]
    assert report["dualizing_weight"] == -4
    assert report["checked"] == []
    assert report["skipped"] == [
        {"r": -2, "partner": -2, "reason": "dualizing weight outside window"},
        {"r": -1, "partner": -3, "reason": "partner outside window"},
        {"r": 0, "partner": -4, "reason": "partner outside window"},
    ]


def test_gm_shift_command(capsys):
    result = run_json(capsys, "gm-shift", '{"dims":{"1,0":2,"-1,3":1}}')
    assert result["output"] == {"dims": {"-1,1": 1, "1,2": 2}}


def test_pretty_flag(capsys):
    code, out, err = run(capsys, "lr", "1", "1", "2", "--pretty")
    assert code == 0
    assert "coefficient: 1" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


@pytest.mark.parametrize(
    "case", json.loads(GOLDEN.read_text()), ids=lambda case: case["argv"][0]
)
def test_output_bytes_match_recording(capsys, case):
    """One call per subcommand against bytes recorded before the value
    classes were rewritten; elapsed is the only field allowed to differ."""
    code, out, err = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert ELAPSED.sub(r"\g<1>0", out) == case["stdout"]
    assert err == case["stderr"]


def test_wedge_dim_of_degrees_far_apart_matches_the_dict_walk_recording(capsys):
    # degrees 10^11 apart are too wide to pack: the bytes were
    # recorded when every power image was summed on {degree: int} dicts
    case = json.loads((GOLDEN.parent / "wide_span_golden.json").read_text())
    start = time.perf_counter()
    code, out, err = run(capsys, *case["argv"])
    assert time.perf_counter() - start < 1
    assert code == case["exit"] == 0
    assert ELAPSED.sub(r"\g<1>0", out) == case["stdout"]
    assert err == case["stderr"]


def test_import_loads_neither_dataclasses_nor_selftest():
    src = str(Path(schurcalc.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, schurcalc.cli; "
        "print([m for m in ('dataclasses', 'inspect', 'schurcalc.selftest')"
        " if m in sys.modules])"
    )
    # -S: no site hooks, so only the package's own imports are seen
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_deterministic_output(capsys):
    first = run_json(capsys, "serre", "--n", "1", "--window", "0:3")
    second = run_json(capsys, "serre", "--n", "1", "--window", "0:3")
    assert first["output"] == second["output"]
    assert first["inputs"] == second["inputs"]


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exits_2(capsys):
    code, out, err = run(capsys, "no-such-command")
    assert code == 2
    code, out, err = run(capsys)
    assert code == 2


def test_bad_partition_exits_2(capsys):
    code, out, err = run(capsys, "lr", "1,2", "1", "2,1")
    assert code == 2
    assert "bad-input" in err


def test_malformed_json_exits_2(capsys):
    code, out, err = run(capsys, "euler-chi", "{not json")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("wedge-dim", "[1,2]"),
        ("schur-weyl", "--d", "2", "--seq", "[1]"),
        ("euler-chi", "null"),
        ("wedge-dim", '{"dims":[1]}'),
        ("localize", "--d", "2", '{"levels":{"2":[1]}}'),
        ("gm-shift", "3"),
    ],
)
def test_non_object_payload_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert json.loads(err)["error"] == "bad-input"


@pytest.mark.parametrize(
    "argv",
    [
        ("wedge-dim", '{"dims":{"0":2.5}}'),
        ("wedge-dim", '{"dims":{"0":true}}'),
        ("euler-chi", '{"dims":{"0":"3"}}'),
        ("gm-shift", '{"dims":{"1,0":1.0}}'),
        ("localize", "--d", "2", '{"levels":{"2":{"2":false}}}'),
        ("schur-weyl", "--d", "2", "--seq", '{"levels":{"1":{"1":"1"}}}'),
    ],
)
def test_non_integer_count_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be a JSON integer" in json.loads(err)["detail"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (("euler-chi", '{"dims":{"1":1,"01":5}}'), "'01'"),
        (("localize", "--d", "2", '{"levels":{"2":{"2":1},"02":{"1,1":4}}}'), "'02'"),
        (("gm-shift", '{"dims":{"1,0":2,"1, 0":7}}'), "'1, 0'"),
        (("wedge-dim", '{"dim":{"0":3}}'), "'dim'"),
        (("schur-weyl", "--d", "2", "--seq", '{"level":{"2":{"2":1}}}'), "'level'"),
        (("euler-chi", '{"dims":{"0":1,"0":2}}'), "'0'"),
    ],
    ids=["aliased-degree", "aliased-level", "aliased-bidegree", "misspelled-dims",
         "misspelled-levels", "duplicate-key"],
)
def test_a_payload_not_in_the_written_form_exits_2(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "bad-input"
    assert named in error["detail"]


# argv values not in the written form, each with its one written form: the
# reader of payload keys reads every argv int, shape and window too
@pytest.mark.parametrize(
    "argv, written",
    [
        (("free-gen", "--level", "\u0662"), ("free-gen", "--level", "2")),
        (("free-gen", "--level", "0_2"), ("free-gen", "--level", "2")),
        (("serre", "--n", "1", "--window=-0_1:+1"), ("serre", "--n", "1", "--window=-1:1")),
        (("lr", " 2,1", "2, 1", "3,2,1"), ("lr", "2,1", "2,1", "3,2,1")),
        (("symmetrizer", "2, 1"), ("symmetrizer", "2,1")),
        (
            ("schur-weyl", "--d", "+2", "--seq", '{"levels":{"1":{"1":1}}}'),
            ("schur-weyl", "--d", "2", "--seq", '{"levels":{"1":{"1":1}}}'),
        ),
        (
            ("wedge-dim", '{"dims":{"0":1}}', "--bound", "05"),
            ("wedge-dim", '{"dims":{"0":1}}', "--bound", "5"),
        ),
        (("serre", "--n", "1", "--window", " -4:4"), ("serre", "--n", "1", "--window", "-4:4")),
    ],
    ids=lambda value: " ".join(value),
)
def test_an_argument_not_in_the_written_form_exits_2(capsys, argv, written):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "bad-input"
    assert "must be written" in error["detail"]
    code, out, err = run(capsys, *written)
    assert code == 0, err


def test_negative_rank_exits_2(capsys):
    code, out, err = run(
        capsys, "schur-weyl", "--d", "-1", "--seq", '{"levels":{"1":{"1":1}}}'
    )
    assert code == 2
    assert json.loads(err)["error"] == "bad-input"


def test_directory_payload_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "euler-chi", str(tmp_path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "bad-input"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_payload_exits_3_after_the_byte_bound(capsys):
    code, out, err = run(capsys, "euler-chi", "/dev/zero")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "bound-exceeded"


def test_payload_byte_bound(capsys, tmp_path):
    payload = b'{"dims":{"0":2,"1":3}}'
    at_bound = tmp_path / "at_bound.json"
    at_bound.write_bytes(payload + b" " * (PAYLOAD_BYTE_BOUND - len(payload)))
    assert run_json(capsys, "euler-chi", str(at_bound))["output"] == {"euler": -1}
    over = tmp_path / "over.json"
    over.write_bytes(payload + b" " * (PAYLOAD_BYTE_BOUND + 1 - len(payload)))
    code, out, err = run(capsys, "euler-chi", str(over))
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "bound-exceeded"


def test_deeply_nested_payload_exits_2(capsys, tmp_path):
    deep = "[" * 100_000
    code, out, err = run(capsys, "euler-chi", deep)
    assert code == 2
    assert json.loads(err)["error"] == "bad-input"
    path = tmp_path / "deep.json"
    path.write_text(deep)
    code, out, err = run(capsys, "euler-chi", str(path))
    assert code == 2


def test_schur_weyl_rank_bound_exits_3(capsys):
    seq = '{"levels":{"1":{"1":1}}}'
    result = run_json(capsys, "schur-weyl", "--d", str(SCHUR_WEYL_RANK_BOUND), "--seq", seq)
    assert result["output"]["d"] == SCHUR_WEYL_RANK_BOUND
    start = time.perf_counter()
    code, out, err = run(capsys, "schur-weyl", "--d", "200000", "--seq", seq)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "bound-exceeded"


def test_bound_exceeded_exits_3(capsys):
    code, out, err = run(capsys, "symmetrizer", "5,4,3")
    assert code == 3
    assert "bound-exceeded" in err


def test_a_failed_proof_exits_4(capsys, monkeypatch):
    # an empty cache of symmetrizers in place of the process's, which is
    # restored after the test with every entry it held
    build = symgroup._young_symmetrizer_cached.__wrapped__
    monkeypatch.setattr(symgroup, "_young_symmetrizer_cached", functools.lru_cache(None)(build))
    monkeypatch.setattr(symgroup, "_symmetrizer_identity_holds", lambda *_args: False)
    idempotents = set(symgroup._YOUNG_IDEMPOTENTS)
    code, out, err = run(capsys, "symmetrizer", "2,1")
    assert (code, out) == (4, "")
    assert json.loads(err) == {
        "error": "invariant-violation",
        "detail": "symmetrizer square is not 3 times the symmetrizer for shape 2,1",
    }
    assert symgroup._young_symmetrizer_cached.cache_info().currsize == 0
    assert symgroup._YOUNG_IDEMPOTENTS == idempotents


def test_a_failed_selftest_check_exits_4(capsys, monkeypatch):
    def failing(_limits):
        raise InvariantError("planted failure")

    checks = [
        (name, failing if name == "symgroup.young-symmetrizer" else check)
        for name, check in selftest.CHECKS
    ]
    monkeypatch.setattr(selftest, "CHECKS", checks)
    code, out, err = run(capsys, "selftest", "--quick")
    assert (code, err) == (4, "")
    lines = out.strip().splitlines()
    assert lines.count("FAIL symgroup.young-symmetrizer: InvariantError: planted failure") == 1
    assert sum(line.startswith("ok ") for line in lines) == 30
    assert lines[-1] == "30/31 checks passed (quick)"


SEQ = '{"levels":{"1":{"1":1}}}'
ONE = '{"dims":{"0":1}}'


# each int option below zero, at its bound and one past it: a negative value
# is bad input (2) and one past a size bound is refused as such (3);
# localize has no bound on its rank
@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (("free-gen", "--level", "-1"), 2),
        (("free-gen", "--level", "8"), 0),
        (("free-gen", "--level", "9"), 3),
        (("wedge-component", "--n", "-1"), 2),
        (("wedge-component", "--n", "8"), 0),
        (("wedge-component", "--n", "9"), 3),
        (("schur-weyl", "--d", "-1", "--seq", SEQ), 2),
        (("schur-weyl", "--d", str(SCHUR_WEYL_RANK_BOUND), "--seq", SEQ), 0),
        (("schur-weyl", "--d", str(SCHUR_WEYL_RANK_BOUND + 1), "--seq", SEQ), 3),
        (("localize", "--d", "-1", SEQ), 2),
        (("localize", "--d", "0", SEQ), 0),
        (("localize", "--d", str(10 ** 9), SEQ), 0),
        (("wedge-dim", ONE, "--bound", "-1"), 2),
        (("wedge-dim", ONE, "--bound", "7"), 0),
        (("wedge-dim", ONE, "--bound", "8"), 3),
        (("serre", "--n", "-1", "--window", "0:0"), 2),
        (("serre", "--n", "3", "--window", "0:0"), 0),
        (("serre", "--n", "4", "--window", "0:0"), 3),
        (("symmetrizer", "-1"), 2),
        (("symmetrizer", "5,3"), 0),
        (("symmetrizer", "5,4"), 3),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else None,
)
def test_int_options_exit_codes(capsys, argv, exit_code):
    code, out, err = run(capsys, *argv)
    assert code == exit_code, err
    if exit_code:
        assert out == ""
        expected = "bound-exceeded" if exit_code == 3 else "bad-input"
        assert json.loads(err)["error"] == expected


@pytest.mark.parametrize("sign", ["", "-"])
def test_an_int_past_the_digit_limit_of_int_text_exits_3(capsys, sign):
    # int() reads at most 4300 digits; the text names the size, not the digits
    code, out, err = run(capsys, "free-gen", "--level", sign + "1" * 5000)
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "bound-exceeded",
        "detail": "the level holds an int of 5000 digits, at least 16607 bits;"
        " an int text may have at most 4300 digits",
    }


def test_window_exceeded_exits_3(capsys):
    code, out, err = run(capsys, "serre", "--n", "1", "--window", "-30:30")
    assert code == 3


def test_koszul_bound_exits_3_before_any_power(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "wedge-dim", '{"dims":{"0":12}}')
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert json.loads(err)["error"] == "bound-exceeded"


@pytest.mark.parametrize(
    "dims, bound",
    [
        # 40 odd degrees far apart: the dict products pass the work bound at n = 5
        ({str(9 ** (12 + i)): 1 for i in range(40)}, "5"),
        # 2000 consecutive degrees: the packed sum passes it at n = 6
        ({str(deg): 1 for deg in range(2000)}, "6"),
    ],
)
def test_wedge_dim_of_a_wide_object_exits_3_within_two_seconds(capsys, dims, bound):
    start = time.perf_counter()
    code, out, err = run(capsys, "wedge-dim", json.dumps({"dims": dims}), "--bound", bound)
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert json.loads(err)["detail"].startswith("the graded power image work ")


def test_symmetrizer_bound_exits_3_before_any_tableau(capsys, monkeypatch):
    def no_tableau(shape):
        raise AssertionError(f"a tableau of {shape} was built")

    monkeypatch.setattr(schurcalc.cli, "canonical_tableau", no_tableau)
    monkeypatch.setattr(schurcalc.symgroup, "canonical_tableau", no_tableau)
    start = time.perf_counter()
    code, out, err = run(capsys, "symmetrizer", "10000000")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "bound-exceeded"


def test_tensor_bound_exits_3(capsys):
    code, out, err = run(
        capsys, "seq-tensor",
        '{"levels":{"5":{"5":1}}}', '{"levels":{"5":{"5":1}}}',
    )
    assert code == 3


def test_lr_on_the_size_55_staircase_ends_within_15_s():
    """The coefficient is 8 198 345 920. The row count either reaches it or
    stops at LR_STATE_BOUND with exit 3; either way it ends, in a process of
    its own that is killed after 15 s."""
    src = str(Path(schurcalc.__file__).parent.parent)
    staircase = ",".join(map(str, range(10, 0, -1)))
    done = subprocess.run(
        [sys.executable, "-m", "schurcalc.cli", "lr", staircase, staircase,
         "15,14,13,12,11,10,9,8,6,5,4,2,1"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=15,
    )
    if done.returncode == 0:
        assert json.loads(done.stdout)["output"] == {"coefficient": 8198345920}
    else:
        assert done.returncode == 3, done.stderr
        assert done.stdout == ""
        assert json.loads(done.stderr)["error"] == "bound-exceeded"


def test_symmetrizer_of_nine_rows_exits_3_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "symmetrizer", "1,1,1,1,1,1,1,1,1")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "bound-exceeded"


@pytest.mark.parametrize(
    "argv",
    [
        ("symmetrizer", "1,1,1,1,1,1,1,1,1,1", "--bound", "10"),
        ("seq-tensor", '{"levels":{"1":{"1":1}}}', '{"levels":{"1":{"1":1}}}',
         "--bound", "10"),
        ("free-gen", "--level", "60", "--bound", "100"),
        ("wedge-component", "--n", "9", "--bound", "9"),
    ],
)
def test_bound_flag_is_gone_and_exits_2_at_once(capsys, argv):
    """The caps are constants; a --bound that would lift one is a usage error."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --bound" in err


def test_the_json_flag_is_gone(capsys):
    """Compact JSON is what every command prints unless --pretty is given."""
    code, out, err = run(capsys, "free-gen", "--level", "2", "--json")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --json" in err


def test_only_wedge_dim_takes_a_bound(capsys):
    for command in SUBCOMMANDS:
        code, out, err = run(capsys, command, "-h")
        assert code == 0
        assert ("--bound" in out) == (command == "wedge-dim"), command


def test_selftest_quick(capsys):
    code, out, err = run(capsys, "selftest", "--quick")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("ok ") for line in lines[:-1])
    assert lines[-1].endswith("(quick)")


# ---------------------------------------------------------------------------
# fuzz: every argument list ends in a documented exit code

# the usage line lists the subcommands as {lr,symmetrizer,...}
SUBCOMMANDS = re.search(r"\{([^}]*)\}", build_parser().format_usage()).group(1).split(",")

_JSON = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 12), st.floats(allow_nan=False),
        st.sampled_from(["", "1", "2,1", "a"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(
            st.sampled_from(["dims", "levels", "0", "1", "-1", "2", "2,1", "1,0", "x"]),
            inner,
            max_size=3,
        ),
    ),
    max_leaves=8,
)
_INT = st.integers(-3, 8).map(str)
_PARTITION = st.lists(st.integers(0, 3), max_size=3).map(
    lambda parts: ",".join(map(str, sorted(parts, reverse=True)))
)
_COUNT = st.integers(-1, 3)
_GRADED = st.dictionaries(st.integers(-2, 3).map(str), _COUNT, max_size=3).map(
    lambda dims: json.dumps({"dims": dims})
)
_SEQ = st.dictionaries(
    st.integers(0, 4).map(str), st.dictionaries(_PARTITION, _COUNT, max_size=2), max_size=2
).map(lambda levels: json.dumps({"levels": levels}))
_BIGRADED = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-1, 3)).map(lambda k: f"{k[0]},{k[1]}"),
    _COUNT,
    max_size=3,
).map(lambda dims: json.dumps({"dims": dims}))
_WINDOW = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(lambda w: f"{w[0]}:{w[1]}")
_TOKEN = st.one_of(
    st.sampled_from([
        "--bound", "--d", "--n", "--level", "--window", "--seq", "--pretty",
        "--json", "--verify-duality", "--quick", "-h", ".",
    ]),
    _INT, _WINDOW, _PARTITION, _JSON.map(json.dumps), st.text(max_size=8),
)

# (flag or None for a positional, value strategy or None for a bare flag)
ARGUMENTS = {
    "lr": [(None, _PARTITION)] * 3,
    "symmetrizer": [(None, _PARTITION)],
    "schur-weyl": [("--d", _INT), ("--seq", _SEQ)],
    "seq-tensor": [(None, _SEQ), (None, _SEQ)],
    "free-gen": [("--level", _INT)],
    "localize": [("--d", _INT), (None, _SEQ)],
    "wedge-component": [("--n", _INT)],
    "wedge-dim": [(None, _GRADED), ("--bound", _INT)],
    "kimura": [(None, _GRADED)],
    "euler-chi": [(None, _GRADED)],
    "serre": [("--n", _INT), ("--window", _WINDOW), ("--verify-duality", None)],
    "gm-shift": [(None, _BIGRADED)],
    "selftest": [("--quick", None)],
}


def test_fuzz_covers_every_subcommand():
    assert sorted(ARGUMENTS) == sorted(SUBCOMMANDS)


@settings(max_examples=400, deadline=None)
@given(command=st.sampled_from(SUBCOMMANDS), data=st.data())
def test_every_argument_list_exits_0_2_or_3(command, data):
    """Well-formed arguments, each sometimes left out or replaced by any
    token, then a few stray tokens; the exit code is always 0, 2 or 3."""
    argv = [command]
    for flag, value in ARGUMENTS[command]:
        roll = data.draw(st.integers(0, 9))
        if roll == 0:
            continue
        if flag is not None:
            argv.append(flag)
        if value is not None:
            argv.append(data.draw(_TOKEN if roll == 1 else value))
    if data.draw(st.integers(0, 4)) == 0:
        argv += data.draw(st.lists(_TOKEN, min_size=1, max_size=2))
    # selftest with nothing to reject runs the whole suite (tested on its own above)
    assume(command != "selftest" or set(argv[1:]) - {"--quick"})
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (code, err.getvalue())
