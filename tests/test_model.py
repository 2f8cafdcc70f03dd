import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ffsc import model
from ffsc.coder import quantize_channel
from ffsc.errors import ModelError
from ffsc.model import (
    Alphabet,
    DistortionMatrix,
    Pmf,
    TestChannel,
    blahut_arimoto,
    bundled_model_names,
    conditional_entropy,
    entropy,
    expected_distortion,
    growth_factor,
    is_strongly_typical,
    load_model,
    mutual_information,
)
from testlib import h2

# closed-form reference values, frozen to 12 decimals
H_COND_011 = 0.499915958165  # H(out|in) for symmetric binary crossover 0.11
RATE_011 = 0.500084041835
RHO_011 = 2.000336223856
RATE_005 = 0.713603042884
RATE_025 = 0.188721875541
RATE_TERNARY_015 = 0.825122196005
RHO_TERNARY = 2.085915278359


def bsc_setup(eps=0.11):
    prior = Pmf([0.5, 0.5])
    ch = TestChannel.bsc(eps)
    d = DistortionMatrix.hamming(2)
    return prior, ch, d


def test_entropy_basics():
    assert entropy(Pmf([0.5, 0.5])) == pytest.approx(1.0)
    assert entropy(Pmf([1.0, 0.0])) == pytest.approx(0.0)
    assert entropy(Pmf.uniform(8)) == pytest.approx(3.0)


def test_conditional_entropy_and_mi():
    prior, ch, _ = bsc_setup()
    assert conditional_entropy(ch, prior) == pytest.approx(H_COND_011, abs=1e-12)
    assert mutual_information(prior, ch) == pytest.approx(RATE_011, abs=1e-12)


def test_growth_factor_value():
    prior, ch, _ = bsc_setup()
    assert growth_factor(prior, ch) == pytest.approx(RHO_011, abs=1e-9)


def test_growth_factor_rejects_deterministic_channel():
    prior = Pmf([0.5, 0.5])
    ident = TestChannel([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ModelError):
        growth_factor(prior, ident)


def test_expected_distortion_bsc():
    prior, ch, d = bsc_setup()
    assert expected_distortion(prior, ch, d) == pytest.approx(0.11)


def test_pmf_validation():
    with pytest.raises(ModelError):
        Pmf([0.5, 0.4])  # does not sum to 1
    with pytest.raises(ModelError):
        Pmf([1.5, -0.5])


def test_channel_rows_validated():
    with pytest.raises(ModelError):
        TestChannel([[0.9, 0.2], [0.5, 0.5]])


def test_alphabet_bounds():
    with pytest.raises(ModelError):
        Alphabet(1)
    with pytest.raises(ModelError):
        Alphabet(2**16 + 1)
    with pytest.raises(ModelError):
        Alphabet(2.5)
    assert Alphabet(2).size == 2


# ---------------------------------------------------------------------------
# rate-distortion solver


@pytest.mark.parametrize(
    "target,ref",
    [(0.05, RATE_005), (0.11, RATE_011), (0.25, RATE_025)],
)
def test_solver_matches_closed_form_binary(target, ref):
    prior, _, d = bsc_setup()
    ch, rate, dist = blahut_arimoto(prior, d, target)
    assert rate == pytest.approx(ref, abs=1e-4)
    assert dist == pytest.approx(target, abs=1e-6)
    # the optimal test channel for this source is the symmetric one
    assert ch.rows[0, 1] == pytest.approx(target, abs=1e-4)


def test_solver_ternary_uniform():
    prior = Pmf.uniform(3)
    d = DistortionMatrix.hamming(3)
    ch, rate, dist = blahut_arimoto(prior, d, 0.15)
    assert rate == pytest.approx(RATE_TERNARY_015, abs=1e-4)
    assert dist == pytest.approx(0.15, abs=1e-6)
    assert ch.rows[0, 0] == pytest.approx(0.85, abs=1e-3)


def test_solver_zero_distortion_endpoint():
    prior = Pmf([0.3, 0.7])
    d = DistortionMatrix.hamming(2)
    _, rate, dist = blahut_arimoto(prior, d, 0.0)
    assert dist == pytest.approx(0.0, abs=1e-12)
    assert rate == pytest.approx(entropy(prior), abs=1e-9)


def test_solver_zero_rate_endpoint():
    prior = Pmf([0.3, 0.7])
    d = DistortionMatrix.hamming(2)
    # putting everything on the majority symbol costs D = 0.3
    ch, rate, dist = blahut_arimoto(prior, d, 0.5)
    assert rate == 0.0
    assert dist == pytest.approx(0.3, abs=1e-12)
    assert np.all(ch.rows[:, 1] == 1.0)


def test_solver_monotone_in_distortion():
    prior, _, d = bsc_setup()
    rates = [blahut_arimoto(prior, d, t)[1] for t in np.linspace(0.01, 0.45, 12)]
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))


@settings(deadline=None, max_examples=25)
@given(
    st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5),
    st.floats(0.01, 0.3),
)
def test_solver_distortion_always_met(weights, frac):
    w = np.array(weights)
    prior = Pmf(w / w.sum())
    d = DistortionMatrix.hamming(len(weights))
    target = frac * d.d_max
    _, rate, dist = blahut_arimoto(prior, d, target)
    assert dist <= target + 1e-6
    assert rate >= -1e-12


def test_solver_revives_outputs_that_die_at_an_early_slope():
    """At the first slope this prior's zero-rate solution underflows some
    output probabilities to 0; a warm start that kept those zeros would
    close the search on a false jump and overstate R by 0.17 bits."""
    w = np.array([0.196, 0.1933, 0.1541, 0.3977, 0.0588])
    prior = Pmf(w / w.sum())
    _, rate, dist = blahut_arimoto(prior, DistortionMatrix.hamming(5), 0.18)
    assert rate == pytest.approx(1.06432, abs=1e-4)
    assert dist == pytest.approx(0.18, abs=1e-12)


@pytest.mark.parametrize("target", [1.0, 100.0, 2000.0])
def test_solver_survives_a_never_seen_input(target):
    """A zero-probability input whose best output goes unused: at these
    slopes every other kernel entry of its row underflows, so its
    normaliser would be 0 without the floor on output probabilities."""
    prior = Pmf([0.7, 0.3, 0.0])
    d = DistortionMatrix(1e4 * (1.0 - np.eye(3)))
    ch, rate, dist = blahut_arimoto(prior, d, target)
    assert np.all(np.isfinite(ch.rows))
    assert dist == pytest.approx(target, rel=1e-12)
    ref = h2(0.3) - h2(target / 1e4)
    assert rate == pytest.approx(ref, abs=1e-8)


_LN2 = np.log(2.0)


def _cold_slope_points(p, d, betas, iters=600):
    """(D, R) at each slope, every one solved from the uniform marginal."""
    log_kern = -_LN2 * np.asarray(betas)[:, None, None] * d
    q = np.full((len(betas), d.shape[1]), 1.0 / d.shape[1])
    with np.errstate(divide="ignore"):
        for _ in range(iters):
            log_w = np.log(q)[:, None, :] + log_kern
            w = np.exp(log_w - log_w.max(axis=2, keepdims=True))
            w /= w.sum(axis=2, keepdims=True)
            q = np.einsum("i,bij->bj", p, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(w > 0, w * np.log(w / q[:, None, :]), 0.0)
    dist = np.einsum("i,bij,ij->b", p, w, d)
    return dist, np.einsum("i,bij->b", p, t) / _LN2


def _cold_reference_rate(p, d, target, levels=4, points=16):
    """R(target) from grids of cold-started slopes, each grid spanning the
    previous one's bracket, and the chord across the last bracket."""
    lo, d_lo, r_lo = 0.0, float((p @ d).min()), 0.0   # zero-rate end
    hi = 128.0
    for _ in range(levels):
        betas = np.linspace(lo, hi, points + 1)[1:]
        dist, rate = _cold_slope_points(p, d, betas)
        k = int(np.argmax(dist <= target))
        assert dist[k] <= target
        if k:
            lo, d_lo, r_lo = betas[k - 1], dist[k - 1], rate[k - 1]
        hi, d_hi, r_hi = betas[k], dist[k], rate[k]
    lam = (target - d_hi) / (d_lo - d_hi)
    return lam * r_lo + (1 - lam) * r_hi


@pytest.mark.parametrize("case", range(16))
def test_solver_matches_cold_start_reference(case):
    rng = np.random.default_rng(case)
    n = 2 + case % 4
    w = rng.random(n) + 0.05
    if case % 3 == 0:
        w[rng.integers(n)] = 1e-4 * w.sum()
    p = w / w.sum()
    a = np.arange(n)
    if case % 2:
        d = (a[:, None] - a[None, :]) ** 2 / (n - 1) ** 2   # squared error
    else:
        d = 1.0 - np.eye(n)                                  # Hamming
    target = float(rng.uniform(0.1, 0.9) * (p @ d).min())
    _, rate, dist = blahut_arimoto(Pmf(p), DistortionMatrix(d),
                                   target)
    assert dist == pytest.approx(target, abs=1e-9)
    assert rate == pytest.approx(_cold_reference_rate(p, d, target), abs=1e-4)


def _measure_style_prior(counts):
    counts = np.asarray(counts, dtype=np.float64)
    return Pmf(counts / counts.sum())


@pytest.mark.parametrize("counts, target", [
    ([746, 764, 794], 0.15),
    ([685, 702, 727], 322 / 2114),
    ([690, 647, 644, 643], 386 / 2624),
])
def test_slope_search_makes_few_solves(monkeypatch, counts, target):
    """Priors like the ones ``codec.measure`` builds from short uniform
    ternary and 4-ary streams, scored at their measured distortion."""
    calls = []
    solve = model._ba_solve_slope
    monkeypatch.setattr(model, "_ba_solve_slope",
                        lambda *a: calls.append(a[2]) or solve(*a))
    prior = _measure_style_prior(counts)
    blahut_arimoto(prior, DistortionMatrix.hamming(len(counts)), target)
    assert len(calls) <= 8


# (sample counts or bundled model, target D, R, D): the points earlier
# slope searches returned
_RECORDED_POINTS = [
    ([746, 764, 794], 0.1471, 0.834849006941817, 0.1471),
    ([746, 764, 794], 0.15, 0.824643920223643, 0.15),
    ([746, 764, 794], 0.1532, 0.813493517675124, 0.1532),
    ([767, 782, 755], 0.15, 0.8249730804066878, 0.15),
    ([575, 590, 552, 587], 0.1471, 1.1638276902314806, 0.1471),
    ([575, 590, 552, 587], 0.15, 1.1519262122612155, 0.15),
    ([575, 590, 552, 587], 0.1532, 1.1389039297103887, 0.1532),
    ([591, 582, 597, 534], 0.15, 1.1510547088947416, 0.15),
    ("binary_hamming", 0.05, 0.7136030428840439, 0.05),
    ("binary_hamming", 0.11, 0.5000840418354721, 0.11),
    ("binary_hamming", 0.25, 0.18872187554086714, 0.25),
    ("ternary_hamming", 0.05, 1.2485655436052001, 0.05),
    ("ternary_hamming", 0.15, 0.825122196004756, 0.15),
    ("ternary_hamming", 0.25, 0.5236843762620232, 0.25),
    ([685, 702, 727], 322 / 2114, 0.8166025662447632, 322 / 2114),
]


@pytest.mark.parametrize("source, target, rate_ref, dist_ref",
                         _RECORDED_POINTS)
def test_solver_keeps_recorded_points(source, target, rate_ref, dist_ref):
    if isinstance(source, str):
        _, prior, d = load_model(source)
    else:
        prior = _measure_style_prior(source)
        d = DistortionMatrix.hamming(len(source))
    _, rate, dist = blahut_arimoto(prior, d, target)
    assert rate == pytest.approx(rate_ref, abs=1e-9)
    assert dist == pytest.approx(dist_ref, abs=1e-9)


@pytest.mark.parametrize("size, diag, off",
                         [(3, 55706, 4915), (4, 55705, 3277)])
def test_short_stream_channel_tables_unchanged(size, diag, off):
    """The uniform 3- and 4-ary channels at D = 0.15 quantize, at
    precision 16, to the same tables as under the bisecting solver."""
    ch, _, _ = blahut_arimoto(Pmf.uniform(size),
                              DistortionMatrix.hamming(size), 0.15)
    want = np.full((size, size), off) + (diag - off) * np.eye(size, dtype=int)
    assert quantize_channel(ch, 16).freq.tolist() == want.tolist()


# ---------------------------------------------------------------------------
# typicality


def test_strongly_typical_accepts_exact_composition():
    p = Pmf([0.75, 0.25])
    seq = np.array([0] * 75 + [1] * 25)
    assert is_strongly_typical(seq, p, 0.001)


def test_strongly_typical_rejects_off_composition():
    p = Pmf([0.75, 0.25])
    seq = np.array([0] * 60 + [1] * 40)
    assert not is_strongly_typical(seq, p, 0.02)


def test_strongly_typical_zero_prob_symbol_disqualifies():
    p = Pmf([0.75, 0.25, 0.0])
    seq = np.array([0] * 75 + [1] * 24 + [2])
    assert not is_strongly_typical(seq, p, 0.5)


def test_strongly_typical_statistical_acceptance():
    # i.i.d. draws of length 1e5 should almost always land inside the
    # delta=0.02 box
    p = Pmf([0.89, 0.11])
    rng = np.random.default_rng(123)
    delta = 0.02
    fails = sum(
        not is_strongly_typical(rng.choice(2, size=100_000, p=p.probs), p, delta)
        for _ in range(40)
    )
    assert fails / 40 < 0.05


# ---------------------------------------------------------------------------
# bundled model files


def test_bundled_models_load():
    names = bundled_model_names()
    assert "binary_hamming" in names and "ternary_hamming" in names
    name, prior, d = load_model("binary_hamming")
    assert prior.probs.tolist() == [0.5, 0.5]
    assert d.entries.shape == (2, 2)
    name, prior, d = load_model("ternary_hamming")
    assert prior.alphabet.size == 3
    assert sum(prior.probs) == pytest.approx(1.0, abs=1e-12)


def test_load_model_from_path(tmp_path):
    path = tmp_path / "skewed.json"
    path.write_text(
        '{"name": "skewed", "alphabet_size": 2, "probs": [0.9, 0.1],'
        ' "distortion": [[0, 1], [1, 0]]}'
    )
    name, prior, d = load_model(str(path))
    assert name == "skewed"
    assert prior.probs.tolist() == [0.9, 0.1]


def test_solver_convex_over_grid():
    prior, _, d = bsc_setup()
    grid = np.linspace(0.03, 0.4, 9)
    pts = [blahut_arimoto(prior, d, t)[1:] for t in grid]
    slopes = [
        (r2 - r1) / (d2 - d1) for (r1, d1), (r2, d2) in zip(pts, pts[1:])
    ]
    # R(D) convex: chord slopes are non-decreasing
    assert all(s2 >= s1 - 1e-6 for s1, s2 in zip(slopes, slopes[1:]))
