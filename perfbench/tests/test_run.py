import time

import pytest

import run
import speed
import workloads


class FakeBuild:
    """Stands in for a built checkout: every query process ends as told."""

    def __init__(self, returncode):
        self.returncode = returncode
        self.imports = 0

    def run_cli(self, argv, traced):
        return run.Finished(self.returncode, b"", b"", 1024)

    def import_time(self):
        self.imports += 1
        return 0.001


def test_a_killed_cli_query_is_a_failure_not_a_setup_error():
    argv = ["lr", "2,1", "2,1", "3,2,1"]
    key = workloads.query_key(argv)
    refs = {key: {"exit": 0, "digest": "d"}}
    rnd = run.cli_round(FakeBuild(-9), [argv], refs, traced=False)
    assert rnd.failures == [(key, "killed by signal 9, expected exit 0", False)]


def test_a_killed_known_defect_stays_a_known_failure():
    argv, code = workloads.KNOWN_DEFECTS[0]
    key = workloads.query_key(argv)
    refs = {key: {"exit": code, "known_defect": True}}
    rnd = run.cli_round(FakeBuild(-11), [argv], refs, traced=False)
    assert [(k, known) for k, _why, known in rnd.failures] == [(key, True)]


def test_rounds_fit_the_seconds_and_spread_the_setup_samples(monkeypatch):
    def slow_round(build, queries, refs, traced):
        time.sleep(0.05)
        return run.Round(traced, 0.05, [0.05], [0.05], 0)

    monkeypatch.setattr(run, "cli_round", slow_round)
    build = FakeBuild(0)
    begun = time.perf_counter()
    rounds = run.run_rounds(build, "cli-deck", [], {}, 0.5, False, begun)
    used = time.perf_counter() - begun
    assert len(rounds) >= 2
    assert used < 0.5 + 0.05
    assert all(len(r.setup_samples) == run.SETUP_PER_ROUND for r in rounds)
    assert all(len(r.wall_setup_samples) == run.SETUP_PER_ROUND for r in rounds)
    assert build.imports == run.SETUP_PER_ROUND * len(rounds)


def test_a_traced_run_alternates_and_takes_no_setup_samples(monkeypatch):
    monkeypatch.setattr(
        run, "cli_round", lambda build, queries, refs, traced: run.Round(traced, 0.0, [0.0], [0.0], 0)
    )
    build = FakeBuild(0)
    rounds = run.run_rounds(build, "cli-deck", [], {}, 0.0, True, time.perf_counter())
    assert [r.traced for r in rounds] == [False, True]
    assert build.imports == 0


def test_adjusted_times_scale_by_the_probes_around_each_interval():
    ref = speed.REFERENCE_S
    probes = [ref, ref, 2 * ref, 2 * ref]
    # intervals 1 and 2 both lie between probes 1 and 2, at half the reference speed
    out = speed.adjusted([1.0, 3.0, 3.0, 4.0], probes, [0, 1, 1, 2])
    assert out == pytest.approx([1.0, 2.0, 2.0, 2.0])


def test_a_round_scales_its_batch_by_its_adjusted_share():
    rnd = run.Round(False, 10.0, [2.0, 6.0], [1.0, 3.0], 0)
    assert rnd.batch_s == pytest.approx(5.0)
