import json

import numpy as np
import pytest

from ffsc import _kernels
from ffsc.cli import _build_parser, main
from ffsc.codec import HEADER_LEN, CodecConfig, encode
from ffsc.experiments import uniform_source
from ffsc.model import blahut_arimoto, bundled_model_names, load_model
from testlib import h2

BINARY_RATE_011 = 0.500084041835
BACKEND = "numba" if _kernels.HAVE_NUMBA else "python"


def run(*argv):
    return main([str(a) for a in argv])


def write_source(path, n, seed=7, size=2):
    sym = uniform_source(seed, n, size)
    path.write_bytes(sym.astype(np.uint8).tobytes())
    return sym


# ---------------------------------------------------------------------------
# rd


def test_rd_single_target(capsys):
    assert run("rd", "--model", "binary_hamming", "--target-d", 0.11) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "D,R,channel_digest"
    d, r, digest = lines[1].split(",")
    assert abs(float(d) - 0.11) < 1e-9
    assert abs(float(r) - BINARY_RATE_011) < 1e-3
    assert len(digest) == 16


def test_rd_grid_monotone(tmp_path):
    out = tmp_path / "curve.csv"
    assert run("rd", "--grid", "0.05:0.45:5", "--out", out) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 5
    rates = [float(r.split(",")[1]) for r in rows]
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))


def test_rd_without_levels_prints_eleven_up_to_the_zero_rate_point(capsys):
    """Levels 0, 0.05, ..., 0.5: binary Hamming distortion's zero-rate
    point is D = 0.5, so the grid spans the curve, 1 - h2(D), and no
    level past it repeats that point."""
    assert run("rd", "--model", "binary_hamming") == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    points = [tuple(map(float, r.split(",")[:2])) for r in rows]
    assert len(points) == 11
    assert [d for d, _ in points] == pytest.approx(
        [k / 20 for k in range(11)], abs=1e-9)
    assert [r for _, r in points] == pytest.approx(
        [1 - h2(k / 20) if k else 1.0 for k in range(11)], abs=1e-6)
    assert points[-1][1] == 0.0


@pytest.mark.parametrize("name", bundled_model_names())
def test_rd_without_levels_prints_eleven_distinct_points(name, capsys):
    """Every bundled model's default grid ends at its zero-rate point,
    min over j of sum_x p_x d_xj, and reaches rate 0 there only."""
    _, prior, d = load_model(name)
    d_zero = (prior.probs @ d.entries).min()
    assert run("rd", "--model", name) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    points = [tuple(map(float, r.split(",")[:2])) for r in rows]
    assert len(set(rows)) == len(points) == 11
    assert [dist for dist, _ in points] == pytest.approx(
        np.linspace(0, d_zero, 11), abs=1e-9)
    assert [r > 0 for _, r in points] == [True] * 10 + [False]


def test_rd_unknown_model_exits_2(capsys):
    assert run("rd", "--model", "no_such_model") == 2
    assert "error:" in capsys.readouterr().err


# Each command that takes a distortion level, with its required flags.
TARGET_D_COMMANDS = [
    ["rd"], ["encode", "--in", "s", "--out", "o"],
    ["decode", "--in", "s", "--source", "s", "--out", "o"], ["exp-general"]]


@pytest.mark.parametrize("argv", TARGET_D_COMMANDS, ids=lambda a: a[0])
def test_target_d_is_the_distortion_levels_only_spelling(argv, capsys):
    """--target-d sets the level; --d0, once its alias, is an unknown
    flag."""
    args = _build_parser().parse_args([*argv, "--target-d", "0.2"])
    assert args.target_d in (0.2, [0.2])  # rd takes a list of levels
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--d0", 0.2)
    assert exc.value.code == 2
    assert "unrecognized arguments: --d0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# encode / decode pipeline


@pytest.fixture(scope="module")
def coded_dir(tmp_path_factory):
    """One encode shared by the pipeline tests (keeps the suite quick)."""
    d = tmp_path_factory.mktemp("pipeline")
    src = d / "source.bin"
    write_source(src, 40_000)
    code = run("encode", "--in", src, "--out", d / "out.ffsc",
               "--min-block", 2048, "--passes", 3, "--seed", 11)
    assert code == 0
    return d


def test_encode_outputs(coded_dir):
    stats = json.loads((coded_dir / "out.ffsc.stats.json").read_text())
    assert stats["n"] == sum(stats["pass_lengths"])
    assert len(stats["pass_lengths"]) == 3
    assert stats["source_offset"] == 40_000 - stats["n"]
    assert stats["total_bits"] == 8 * (coded_dir / "out.ffsc").stat().st_size
    assert 0.4 < stats["rate"] < 0.7
    assert stats["backend"] == BACKEND


def test_encode_defaults_are_the_library_defaults(tmp_path):
    src = tmp_path / "source.bin"
    sym = write_source(src, 150_000)
    out = tmp_path / "out.ffsc"
    assert run("encode", "--in", src, "--out", out) == 0
    _, prior, d = load_model("binary_hamming")
    channel, _, _ = blahut_arimoto(prior, d, 0.11)
    expected = encode(sym, CodecConfig(prior, channel, d))
    assert out.read_bytes() == expected.bitstream
    stats = json.loads((tmp_path / "out.ffsc.stats.json").read_text())
    assert stats["atypical_blocks"] == expected.atypical_blocks


def test_encode_is_deterministic(coded_dir, tmp_path):
    again = tmp_path / "again.ffsc"
    assert run("encode", "--in", coded_dir / "source.bin", "--out", again,
               "--min-block", 2048, "--passes", 3, "--seed", 11) == 0
    assert again.read_bytes() == (coded_dir / "out.ffsc").read_bytes()


def test_decode_report(coded_dir, capsys):
    out = coded_dir / "recon.bin"
    assert run("decode", "--in", coded_dir / "out.ffsc",
               "--source", coded_dir / "source.bin", "--out", out) == 0
    out_line = capsys.readouterr().out
    assert "audit clean" in out_line and f"backend {BACKEND}" in out_line
    stats = json.loads((coded_dir / "out.ffsc.stats.json").read_text())
    report = json.loads((coded_dir / "recon.bin.report.json").read_text())
    assert report["n"] == stats["n"]
    assert report["causality_audit"] == "pass"
    assert report["backend"] == BACKEND
    assert 0.08 < report["mean_distortion"] < 0.14
    # K=3 keeps a 1/(1 - rho^-3) ~ 8/7 factor over the ideal rate
    assert report["gap"] <= 0.13
    recon = np.frombuffer(out.read_bytes(), dtype=np.uint8)
    assert recon.size == stats["n"]
    assert set(np.unique(recon)) <= {0, 1}


def test_decode_explicit_offset_matches_sidecar(coded_dir, tmp_path):
    stats = json.loads((coded_dir / "out.ffsc.stats.json").read_text())
    out = tmp_path / "recon2.bin"
    assert run("decode", "--in", coded_dir / "out.ffsc",
               "--source", coded_dir / "source.bin", "--out", out,
               "--offset", stats["source_offset"],
               "--report", tmp_path / "rep.json") == 0
    assert out.read_bytes() == (coded_dir / "recon.bin").read_bytes()
    assert (tmp_path / "rep.json").exists()


def test_ascii_format_roundtrip(tmp_path):
    src = tmp_path / "source.txt"
    sym = uniform_source(3, 30_000, 2)
    src.write_text("".join("01"[v] for v in sym))
    out = tmp_path / "out.ffsc"
    assert run("encode", "--in", src, "--out", out, "--format", "ascii",
               "--min-block", 2048, "--passes", 2) == 0
    recon = tmp_path / "recon.txt"
    assert run("decode", "--in", out, "--source", src, "--out", recon,
               "--format", "ascii") == 0
    text = recon.read_text()
    n = json.loads((tmp_path / "out.ffsc.stats.json").read_text())["n"]
    assert len(text) == n and set(text) <= {"0", "1"}


def test_decode_garbage_stream_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ffsc"
    bad.write_bytes(b"not a bitstream")
    src = tmp_path / "src.bin"
    write_source(src, 1000)
    assert run("decode", "--in", bad, "--source", src,
               "--out", tmp_path / "x.bin") == 2
    assert "error:" in capsys.readouterr().err


def _header_cut_by_one_byte(stream):
    return stream[:HEADER_LEN - 1]


def _header_with_bad_magic(stream):
    return b"XXXX" + stream[4:]


def _header_with_version_1(stream):
    return stream[:4] + b"\x01" + stream[5:]


@pytest.mark.parametrize("mutate, message", [
    (_header_cut_by_one_byte, "stream shorter than its header"),
    (_header_with_bad_magic, "bad magic b'XXXX'"),
    (_header_with_version_1, "unsupported stream version 1"),
])
def test_decode_bad_header_exits_2(mutate, message, coded_dir, tmp_path,
                                   capsys):
    bad = tmp_path / "bad.ffsc"
    bad.write_bytes(mutate((coded_dir / "out.ffsc").read_bytes()))
    assert run("decode", "--in", bad, "--source", coded_dir / "source.bin",
               "--out", tmp_path / "x.bin") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_decode_payload_flip_fails_the_crc_and_writes_nothing(tmp_path,
                                                               capsys):
    # A one-pass stream has no shaped block to check, so its CRC-32
    # alone catches this flip.
    src = tmp_path / "source.bin"
    write_source(src, 4096)
    stream = tmp_path / "one.ffsc"
    assert run("encode", "--in", src, "--out", stream, "--min-block", 2048,
               "--passes", 1) == 0
    data = bytearray(stream.read_bytes())
    data[HEADER_LEN + 100] ^= 0x10
    stream.write_bytes(bytes(data))
    capsys.readouterr()
    out = tmp_path / "x.bin"
    assert run("decode", "--in", stream, "--source", src, "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: reconstruction fails the stream's CRC-32"]
    assert not out.exists() and not (tmp_path / "x.bin.report.json").exists()


def _ascii_symbol_x(tmp_path, coded_dir):
    src = tmp_path / "source.txt"
    src.write_text("0110x01")
    return ("encode", "--in", src, "--out", tmp_path / "x.ffsc",
            "--format", "ascii"), "character 'x'"


def _grid_without_count(tmp_path, coded_dir):
    return ("rd", "--grid", "0:0.5"), "--grid '0:0.5'"


def _grid_too_large(tmp_path, coded_dir):
    return ("rd", "--grid", "0:0.5:100000000000"), "outside [0, 1000000]"


def _model_not_json(tmp_path, coded_dir):
    (tmp_path / "bad.json").write_text('{"alphabet_size": 2,')
    return ("rd", "--model", tmp_path / "bad.json"), "is not UTF-8 JSON"


def _model_not_utf8(tmp_path, coded_dir):
    (tmp_path / "bad.json").write_bytes(b'{"name": "\xff"}')
    return ("rd", "--model", tmp_path / "bad.json"), "can't decode byte 0xff"


def _model_fractional_alphabet_size(tmp_path, coded_dir):
    (tmp_path / "bad.json").write_text(json.dumps({
        "alphabet_size": 2.7, "probs": [0.5, 0.5],
        "distortion": [[0, 1], [1, 0]],
    }))
    return ("rd", "--model", tmp_path / "bad.json"), "alphabet_size 2.7"


def _model_alphabet_past_the_streams_limit(tmp_path, coded_dir):
    """The size itself is refused, before the tables: a stream counts
    symbols in 2 bytes."""
    (tmp_path / "bad.json").write_text(json.dumps({
        "alphabet_size": 2**16, "probs": [0.5, 0.5],
        "distortion": [[0, 1], [1, 0]],
    }))
    return (("rd", "--model", tmp_path / "bad.json"),
            "alphabet_size 65536 is not an integer in [2, 65535]")


_DEEP_JSON = "[" * 100_000 + "]" * 100_000


def _model_nested_too_deeply(tmp_path, coded_dir):
    (tmp_path / "deep.json").write_text(_DEEP_JSON)
    return ("rd", "--model", tmp_path / "deep.json"), "nests too deeply"


def _zero_trials(tmp_path, coded_dir):
    return ("exp-hamming", "--trials", 0), "trial count"


def _sidecar_not_an_object(tmp_path, coded_dir):
    stream = tmp_path / "out.ffsc"
    stream.write_bytes((coded_dir / "out.ffsc").read_bytes())
    (tmp_path / "out.ffsc.stats.json").write_text("[1, 2]")
    return ("decode", "--in", stream, "--source", coded_dir / "source.bin",
            "--out", tmp_path / "x.bin"), "source_offset"


def _sidecar_not_json(tmp_path, coded_dir):
    stream = tmp_path / "out.ffsc"
    stream.write_bytes((coded_dir / "out.ffsc").read_bytes())
    (tmp_path / "out.ffsc.stats.json").write_text("{")
    return ("decode", "--in", stream, "--source", coded_dir / "source.bin",
            "--out", tmp_path / "x.bin"), "is not valid JSON"


def _sidecar_nested_too_deeply(tmp_path, coded_dir):
    stream = tmp_path / "out.ffsc"
    stream.write_bytes((coded_dir / "out.ffsc").read_bytes())
    (tmp_path / "out.ffsc.stats.json").write_text(_DEEP_JSON)
    return ("decode", "--in", stream, "--source", coded_dir / "source.bin",
            "--out", tmp_path / "x.bin"), "nests too deeply"


def _negative_offset(tmp_path, coded_dir):
    # -n slices the coded suffix from the end of the file: the decode
    # itself would go through
    n = json.loads((coded_dir / "out.ffsc.stats.json").read_text())["n"]
    return ("decode", "--in", coded_dir / "out.ffsc",
            "--source", coded_dir / "source.bin", "--out", tmp_path / "x.bin",
            "--offset", -n), f"source offset {-n} is negative"


def _source_outside_alphabet(tmp_path, coded_dir):
    # the last coded sample lies in the seed block, which decoding never
    # reads; scoring the reconstruction against the source rejects it
    src = bytearray((coded_dir / "source.bin").read_bytes())
    src[-1] = 7
    (tmp_path / "source.bin").write_bytes(bytes(src))
    return ("decode", "--in", coded_dir / "out.ffsc",
            "--source", tmp_path / "source.bin",
            "--out", tmp_path / "x.bin"), "outside alphabet"


def _duality_message_012(tmp_path, coded_dir):
    return ("exp-duality", "--message", "012"), "message '012'"


def _duality_message_abc(tmp_path, coded_dir):
    return ("exp-duality", "--message", "abc"), "message 'abc'"


def _duality_erasures_a_b(tmp_path, coded_dir):
    return ("exp-duality", "--erasures", "a,b"), "--erasures 'a,b'"


# Each trial source below is one numpy refuses at once (over 2^63 bytes),
# so a missing check fails fast instead of filling memory.
def _passes_2000(tmp_path, coded_dir):
    return ("exp-hamming", "--passes", 2000), "2000 passes"


def _passes_100(tmp_path, coded_dir):
    return ("exp-hamming", "--passes", 100), "source samples"


def _passes_50(tmp_path, coded_dir):
    return ("exp-general", "--passes", 50), "source samples"


def _min_block_over_header_field(tmp_path, coded_dir):
    return ("exp-hamming", "--passes", 1, "--min-block", 2**62), "min_block"


def _hamming_model(tmp_path, size):
    path = tmp_path / f"hamming{size}.json"
    path.write_text(json.dumps({
        "name": f"hamming{size}", "alphabet_size": size,
        "probs": [1 / size] * size,
        "distortion": (1 - np.eye(size)).tolist(),
    }))
    return path


def _bytes_format_260_symbols(tmp_path, coded_dir):
    # a byte cannot hold symbols 256-259: decode would write them wrapped
    return ("encode", "--model", _hamming_model(tmp_path, 260),
            "--in", coded_dir / "source.bin", "--out", tmp_path / "x.ffsc",
            "--min-block", 64, "--passes", 2,
            "--target-d", 0.5), "--format bytes holds at most 256 symbols"


def _ascii_format_4_symbols(tmp_path, coded_dir):
    return ("decode", "--model", _hamming_model(tmp_path, 4),
            "--in", coded_dir / "out.ffsc", "--source", coded_dir / "source.bin",
            "--out", tmp_path / "x.bin", "--format", "ascii",
            "--target-d", 0.5), "--format ascii holds at most 3 symbols"


def _offset_not_an_integer(tmp_path, coded_dir):
    return ("decode", "--in", coded_dir / "out.ffsc",
            "--source", coded_dir / "source.bin", "--out", tmp_path / "x.bin",
            "--offset", "1e3"), "argument --offset: invalid int value: '1e3'"


def _passes_abc(tmp_path, coded_dir):
    return (("exp-hamming", "--passes", "abc"),
            "argument --passes: invalid int value: 'abc'")


def _target_d_x(tmp_path, coded_dir):
    return (("encode", "--in", coded_dir / "source.bin",
             "--out", tmp_path / "x.ffsc", "--target-d", "x"),
            "argument --target-d: invalid float value: 'x'")


def _missing_bitstream(tmp_path, coded_dir):
    return ("decode", "--in", tmp_path / "none.ffsc",
            "--source", coded_dir / "source.bin",
            "--out", tmp_path / "x.bin"), "none.ffsc"


@pytest.mark.parametrize("case", [
    _ascii_symbol_x, _grid_without_count, _model_not_json, _model_not_utf8,
    _model_fractional_alphabet_size, _model_alphabet_past_the_streams_limit,
    _model_nested_too_deeply, _zero_trials,
    _sidecar_not_an_object, _sidecar_not_json, _sidecar_nested_too_deeply,
    _negative_offset,
    _missing_bitstream, _source_outside_alphabet, _duality_message_012,
    _duality_message_abc, _duality_erasures_a_b, _passes_2000, _passes_100,
    _passes_50, _min_block_over_header_field, _grid_too_large,
    _bytes_format_260_symbols, _ascii_format_4_symbols,
    _offset_not_an_integer, _passes_abc, _target_d_x,
])
def test_malformed_input_exits_2_with_one_error_line(case, coded_dir,
                                                     tmp_path, capsys):
    argv, reason = case(tmp_path, coded_dir)
    assert run(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and reason in err[0]
    assert not (tmp_path / "x.bin").exists()


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_malformed_thread_count_exits_2_with_one_error_line(value, monkeypatch,
                                                            capsys):
    monkeypatch.setenv("FFSC_THREADS", value)
    assert run("exp-hamming", "--trials", 2) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: FFSC_THREADS={value!r} is not a positive integer"]


def test_encode_short_source_exits_2(tmp_path, capsys):
    src = tmp_path / "tiny.bin"
    write_source(src, 64)
    assert run("encode", "--in", src, "--out", tmp_path / "x.ffsc") == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiment subcommands


def test_exp_beq_default(capsys):
    assert run("exp-beq") == 0
    out = capsys.readouterr().out
    assert "source=0**10**1 n=8 e=4" in out
    assert "message=0101 bits=4" in out
    assert "reconstruction=01110111" in out
    assert "distortion=0" in out
    assert "audit=clean" in out


def test_exp_duality_default(capsys):
    assert run("exp-duality") == 0
    out = capsys.readouterr().out
    assert "sent=01110111 uses=8" in out
    assert "received=0**10**1" in out
    assert "recovered=0101" in out
    assert "rate=4/8" in out


def test_exp_hamming_small(tmp_path):
    out = tmp_path / "hamming.csv"
    assert run("exp-hamming", "--trials", 3, "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("trial,seed,n,K,rate,distortion")
    assert len(lines) == 1 + 3 + 2  # header, trials, mean, std
    assert lines[-2].startswith("mean,") and lines[-1].startswith("std,")


def test_exp_hamming_exits_1_on_a_missed_rate_bound(tmp_path, capsys):
    """At M = 64 and K = 2 the frame's fixed cost puts the rate far
    above exp-hamming's rate bounds."""
    out = tmp_path / "hamming.csv"
    assert run("exp-hamming", "--trials", 1, "--min-block", 64,
               "--passes", 2, "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("violation: mean rate ")
    assert len(out.read_text().strip().splitlines()) == 1 + 1 + 2


def test_exp_general_small(tmp_path):
    out = tmp_path / "general.json"
    assert run("exp-general", "--trials", 2, "--format", "json",
               "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["experiment"] == "general"
    assert len(doc["rows"]) == 2
    assert doc["violations"] == []
    assert abs(doc["summary"]["mean"]["distortion"] - 0.15) < 0.015


def test_exp_general_codes_a_skewed_prior_within_its_bounds(tmp_path,
                                                             monkeypatch):
    """Each trial draws its source from the model's prior, so on the
    (0.6, 0.3, 0.1) ternary prior the harness meets exp-general's own
    bounds: mean rate within 10% of R(0.1), mean D within 0.015."""
    monkeypatch.setenv("FFSC_THREADS", "1")
    out = tmp_path / "skewed.json"
    assert run("exp-general", "--model", "ternary_skewed", "--target-d", 0.1,
               "--trials", 4, "--min-block", 1024, "--passes", 4,
               "--format", "json", "--out", out) == 0
    mean = json.loads(out.read_text())["summary"]["mean"]
    _, prior, d = load_model("ternary_skewed")
    _, ref_rate, _ = blahut_arimoto(prior, d, 0.1)
    assert abs(mean["rate"] / ref_rate - 1) <= 0.10
    assert abs(mean["distortion"] - 0.1) <= 0.015
