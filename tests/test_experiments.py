"""The trial harness: reports do not depend on how trials are scheduled."""

from dataclasses import replace

import pytest

from ffsc import experiments
from ffsc.cli import main
from ffsc.codec import CodecConfig, FeedforwardOracle
from ffsc.errors import ConfigError
from ffsc.experiments import ExperimentSpec, harness_workers, run_codec_experiment
from ffsc.model import DistortionMatrix, Pmf, TestChannel, blahut_arimoto


def _report_without_wall(workers: int, monkeypatch) -> list[list[str]]:
    monkeypatch.setenv("FFSC_THREADS", str(workers))
    assert harness_workers(4) == workers
    cfg = CodecConfig(
        prior=Pmf.uniform(2),
        channel=TestChannel.bsc(0.11),
        distortion=DistortionMatrix.hamming(2),
        min_block=256,
        passes=3,
        seed=17,
    )
    rep = run_codec_experiment(ExperimentSpec(name="workers", cfg=cfg, trials=4))
    assert not rep.violations
    lines = [line.split(",") for line in rep.to_csv().splitlines()]
    wall = lines[0].index("wall_s")
    return [cells[:wall] + cells[wall + 1:] for cells in lines]


def test_worker_count_does_not_change_the_report(monkeypatch):
    serial = _report_without_wall(1, monkeypatch)
    pooled = _report_without_wall(2, monkeypatch)
    assert [row[0] for row in serial[1:5]] == ["0", "1", "2", "3"]
    assert pooled == serial


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", " 2", "4_0"])
def test_thread_count_must_be_a_positive_integer(value, monkeypatch):
    monkeypatch.setenv("FFSC_THREADS", value)
    with pytest.raises(ConfigError, match="FFSC_THREADS"):
        harness_workers(4)


@pytest.mark.parametrize("trials, cores, want", [
    (1, 16, 1), (5, 2, 2), (5, 16, 5), (20, 16, 8), (3, None, 1)])
def test_unset_thread_count_runs_a_trial_per_core_up_to_8(
        trials, cores, want, monkeypatch):
    monkeypatch.delenv("FFSC_THREADS", raising=False)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
    assert harness_workers(trials) == want


@pytest.mark.parametrize("trials", [2.5, 3.0, "3", True])
def test_trial_count_must_be_an_integer(trials):
    cfg = CodecConfig(prior=Pmf.uniform(2), channel=TestChannel.bsc(0.11),
                      distortion=DistortionMatrix.hamming(2))
    with pytest.raises(ConfigError, match="trial count"):
        ExperimentSpec(name="trials", cfg=cfg, trials=trials)


def test_each_bound_missed_is_one_violation(monkeypatch):
    monkeypatch.setenv("FFSC_THREADS", "1")
    cfg = CodecConfig(
        prior=Pmf.uniform(2),
        channel=TestChannel.bsc(0.11),
        distortion=DistortionMatrix.hamming(2),
        min_block=256,
        passes=3,
        seed=23,
    )
    wide, narrow = (0.0, 10.0), (0.0, 0.01)
    for rate, dist, want in ((wide, wide, []),
                             (narrow, wide, ["rate"]),
                             (wide, narrow, ["distortion"])):
        rep = run_codec_experiment(ExperimentSpec(
            name="bounds", cfg=cfg, trials=2, rate_bounds=rate,
            distortion_bounds=dist))
        assert [v.split()[1] for v in rep.violations] == want


def test_low_distortion_trials_draw_enough_source(monkeypatch):
    """At D = 0.005 the first shaped block of a uniform binary source
    (M = 335) holds about 37 crossovers, so its length, and with it n,
    spreads by about 1/sqrt(37), 16%: 10% over the predicted n ran out
    of source on several of these 20 trials."""
    monkeypatch.setenv("FFSC_THREADS", "1")
    prior, d = Pmf.uniform(2), DistortionMatrix.hamming(2)
    channel, _, _ = blahut_arimoto(prior, d, 0.005)
    cfg = CodecConfig(prior=prior, channel=channel, distortion=d,
                      min_block=335, passes=3, seed=1)
    rep = run_codec_experiment(ExperimentSpec(name="low-D", cfg=cfg,
                                              trials=20))
    assert rep.violations == []


def _decode_flips_a_symbol(monkeypatch):
    decode = experiments.decode

    def flipped(*args):
        dec = decode(*args)
        xhat = dec.xhat.copy()
        xhat[0] ^= 1
        return replace(dec, xhat=xhat)

    monkeypatch.setattr(experiments, "decode", flipped)
    return "decoder output differs from encoder"


class _AuditFails(FeedforwardOracle):
    def audit_clean(self) -> bool:
        return False


def _audit_fails(monkeypatch):
    monkeypatch.setattr(experiments, "FeedforwardOracle", _AuditFails)
    return "causality audit failed"


@pytest.mark.parametrize("fault", [_decode_flips_a_symbol, _audit_fails])
def test_a_trial_that_fails_its_checks_is_a_violation(fault, monkeypatch,
                                                      tmp_path, capsys):
    monkeypatch.setenv("FFSC_THREADS", "1")
    problem = fault(monkeypatch)
    cfg = CodecConfig(prior=Pmf.uniform(2), channel=TestChannel.bsc(0.11),
                      distortion=DistortionMatrix.hamming(2), min_block=256,
                      passes=3, seed=29)
    rep = run_codec_experiment(ExperimentSpec(name="checks", cfg=cfg,
                                              trials=2))
    assert rep.violations == [f"trial {t}: {problem}" for t in range(2)]
    assert main(["exp-hamming", "--trials", "1",
                 "--out", str(tmp_path / "report.csv")]) == 1
    assert capsys.readouterr().err == f"violation: trial 0: {problem}\n"
