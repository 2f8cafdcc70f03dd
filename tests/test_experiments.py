"""The trial harness: reports do not depend on how trials are scheduled."""

import pytest

from ffsc.codec import CodecConfig
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
