"""Command-line interface.

Subcommands:

* ``rd``          — rate-distortion curve for a model file.
* ``encode``      — compress a symbol file into a bitstream + stats sidecar.
* ``decode``      — reconstruct from bitstream + true-source file.
* ``exp-hamming`` — seeded trials on the binary symmetric benchmark.
* ``exp-general`` — seeded trials on an arbitrary model at a target
                    distortion (test channel from the solver).
* ``exp-beq``     — the erasure-quantization worked example.
* ``exp-duality`` — the feedback-erasure-channel worked example.

Exit status: 0 on success, 1 when an experiment violates its
thresholds or a transcript check fails, 2 on usage/config errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from . import _kernels
from .bits import as_int, fnv1a64
from .codec import (
    CodecConfig,
    FeedforwardOracle,
    decode,
    encode,
    measure,
    read_header,
)
from .erasure import ErasureSource
from .errors import ConfigError, FfscError
from .experiments import (
    ExperimentSpec,
    run_beq_example,
    run_codec_experiment,
    run_duality_example,
)
from .model import TestChannel, _zero_rate_point, blahut_arimoto, load_model

_BACKEND = "numba" if _kernels.HAVE_NUMBA else "python"
# Most points `rd --grid` accepts; each is one solver call.
_MAX_GRID = 1_000_000
# Most alphabet symbols each symbol-file format holds: a byte, or 0, 1, *.
_FORMAT_SYMBOLS = {"bytes": 256, "ascii": 3}


def _read_symbols(path: str, fmt: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if fmt == "ascii":
        return ErasureSource.from_string(raw.decode("latin-1")).seq
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def _write_symbols(path: str, symbols: np.ndarray, fmt: str):
    if fmt == "ascii":
        data = ErasureSource(symbols).to_string().encode("ascii")
    else:
        data = symbols.astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(data)


def _emit(text: str, out: str | None):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


_CODEC_DEFAULTS = {f.name: f.default for f in fields(CodecConfig)}
_CODEC_FLAGS = ("min_block", "passes", "seed", "precision")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are one ``error: ...`` line, as
    every other malformed input's, with exit status 2.  What it raises
    as ArgumentError, such as a malformed option value, ``main`` reports
    as it reports a package error; what it refuses itself, such as an
    unknown flag, ``error`` reports.  Subparsers take this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, exit_on_error=False, **kwargs)

    def error(self, message):
        sys.stderr.write(f"error: {message}\n")
        self.exit(2)


def _config_args(p: argparse.ArgumentParser):
    """A flag per CodecConfig field in _CODEC_FLAGS.  An unset flag stays
    off the namespace, so CodecConfig's own default applies."""
    for name in _CODEC_FLAGS:
        default = _CODEC_DEFAULTS[name]
        p.add_argument("--" + name.replace("_", "-"), type=type(default),
                       default=argparse.SUPPRESS,
                       help=f"CodecConfig.{name} (default {default})")


def _target_d_arg(p: argparse.ArgumentParser):
    p.add_argument("--target-d", dest="target_d", type=float,
                   default=0.11,
                   help="distortion level; the test channel is the "
                        "solver's channel at this level")


def _experiment_args(p: argparse.ArgumentParser):
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _config_args(p)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="ffsc",
        description="Lossy source coding with unit-lag feedforward side "
                    "information.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("rd", help="rate-distortion table for a model")
    p.add_argument("--model", default="binary_hamming")
    p.add_argument("--grid", default=None,
                   help="D grid as lo:hi:count (e.g. 0:0.5:11)")
    p.add_argument("--target-d", dest="target_d", type=float,
                   action="append", default=None,
                   help="single distortion level (repeatable)")
    p.add_argument("--out", default="-")

    p = sub.add_parser("encode", help="compress a symbol file")
    p.add_argument("--model", default="binary_hamming")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("bytes", "ascii"), default="bytes")
    _target_d_arg(p)
    _config_args(p)

    p = sub.add_parser("decode", help="reconstruct from a bitstream")
    p.add_argument("--model", default="binary_hamming")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--source", required=True,
                   help="true source file (feedforward side information)")
    p.add_argument("--offset", type=int, default=None,
                   help="source-file index of the first coded sample "
                        "(default: the encode stats sidecar, else 0)")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--format", choices=("bytes", "ascii"), default="bytes")
    _target_d_arg(p)

    p = sub.add_parser("exp-hamming",
                       help="binary symmetric benchmark (seeded trials)")
    _experiment_args(p)

    p = sub.add_parser("exp-general",
                       help="general-model benchmark at a target distortion")
    p.add_argument("--model", default="ternary_hamming")
    _experiment_args(p)
    _target_d_arg(p)
    p.set_defaults(target_d=0.15)

    p = sub.add_parser("exp-beq", help="erasure-quantization worked example")
    p.add_argument("--source", default="0**10**1")
    p.add_argument("--out", default="-")

    p = sub.add_parser("exp-duality",
                       help="feedback erasure-channel worked example")
    p.add_argument("--message", default="0101")
    p.add_argument("--erasures", default="2,3,6,7",
                   help="comma-separated 1-based erased channel uses")
    p.add_argument("--out", default="-")
    return ap


def _cmd_rd(args) -> int:
    _, prior, d = load_model(args.model)
    if args.grid:
        try:
            lo, hi, count = args.grid.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError:
            raise ConfigError(
                f"--grid {args.grid!r} is not lo:hi:count with count >= 0"
            ) from None
        if not 0 <= count <= _MAX_GRID:
            raise ConfigError(f"--grid {args.grid!r} count is outside "
                              f"[0, {_MAX_GRID}]")
        targets = np.linspace(lo, hi, count)
    elif args.target_d:
        targets = np.array(args.target_d, dtype=np.float64)
    else:
        targets = np.linspace(0.0, _zero_rate_point(prior, d)[1], 11)
    lines = ["D,R,channel_digest"]
    for t in targets:
        channel, rate, dist = blahut_arimoto(prior, d, float(t))
        digest = fnv1a64(np.round(channel.rows, 12).tobytes())
        lines.append(f"{dist:.12g},{rate:.12g},{digest:016x}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cfg_from_args(args, prior, d, channel) -> CodecConfig:
    given = {k: v for k, v in vars(args).items() if k in _CODEC_DEFAULTS}
    return CodecConfig(prior=prior, channel=channel, distortion=d, **given)


def _symbol_file_model(args):
    """(prior, distortion, test channel) for encode and decode.  Raises
    ConfigError, before any coding, if the symbol-file format cannot
    hold the model's alphabet, which would make decode write a wrong
    reconstruction."""
    _, prior, d = load_model(args.model)
    size, most = prior.probs.size, _FORMAT_SYMBOLS[args.format]
    if size > most:
        raise ConfigError(f"--format {args.format} holds at most {most} "
                          f"symbols, but the model has {size}")
    channel, _, _ = blahut_arimoto(prior, d, args.target_d)
    return prior, d, channel


def _cmd_encode(args) -> int:
    prior, d, channel = _symbol_file_model(args)
    cfg = _cfg_from_args(args, prior, d, channel)
    source = _read_symbols(args.infile, args.format)
    result = encode(source, cfg)
    with open(args.out, "wb") as fh:
        fh.write(result.bitstream)
    stats = {
        "n": result.n,
        "pass_lengths": result.pass_lengths,
        "rate": result.rate,
        "total_bits": result.total_bits,
        "source_length": int(source.size),
        "source_offset": int(source.size - result.n),
        "atypical_blocks": result.atypical_blocks,
        "backend": _BACKEND,
    }
    with open(args.out + ".stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(
        f"encoded n={result.n} samples in {len(result.pass_lengths)} passes, "
        f"rate {result.rate:.4f} bits/sample, backend {_BACKEND}\n"
    )
    return 0


def _sidecar_offset(path: str) -> int:
    """source_offset from an encode stats sidecar; 0 if there is none."""
    try:
        with open(path, encoding="utf-8") as fh:
            stats = json.load(fh)
    except FileNotFoundError:
        return 0
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{path} nests too deeply") from None
    offset = stats.get("source_offset", 0) if isinstance(stats, dict) else None
    return as_int(offset, None, None, ConfigError, f"{path} source_offset")


def _cmd_decode(args) -> int:
    prior, d, channel = _symbol_file_model(args)
    with open(args.infile, "rb") as fh:
        stream = fh.read()
    q, k, m, _, _ = read_header(stream)
    cfg = CodecConfig(prior=prior, channel=channel, distortion=d,
                      min_block=m, passes=k, precision=q)
    source = _read_symbols(args.source, args.format)
    offset = args.offset
    if offset is None:
        offset = _sidecar_offset(args.infile + ".stats.json")
    if offset < 0:
        raise ConfigError(f"source offset {offset} is negative")
    oracle = FeedforwardOracle(source[offset:])
    result = decode(stream, oracle, cfg)
    rep = measure(source[offset:offset + result.n], result, d)
    _write_symbols(args.out, result.xhat, args.format)
    report = {
        "n": result.n,
        "pass_lengths": result.pass_lengths,
        "rate": result.rate,
        "mean_distortion": rep.mean_distortion,
        "rd_reference": rep.rd_reference,
        "gap": rep.gap,
        "causality_audit": "pass" if oracle.audit_clean() else "fail",
        "backend": _BACKEND,
    }
    path = args.report or (args.out + ".report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(
        f"decoded n={result.n}, distortion {rep.mean_distortion:.5f}, "
        f"audit {'clean' if oracle.audit_clean() else 'VIOLATED'}, "
        f"backend {_BACKEND}\n"
    )
    return 0 if oracle.audit_clean() else 1


def _run_experiment(args, spec: ExperimentSpec) -> int:
    """Run spec, write its report, and list each violation on stderr."""
    report = run_codec_experiment(spec)
    _emit(report.to_json() if args.format == "json" else report.to_csv(),
          args.out)
    for v in report.violations:
        sys.stderr.write(f"violation: {v}\n")
    return 1 if report.violations else 0


def _cmd_exp_hamming(args) -> int:
    _, prior, d = load_model("binary_hamming")
    channel = TestChannel.bsc(0.11)
    cfg = _cfg_from_args(args, prior, d, channel)
    return _run_experiment(args, ExperimentSpec(
        name="hamming", cfg=cfg, trials=args.trials,
        rate_bounds=(0.50, 0.56), distortion_bounds=(0.10, 0.12),
    ))


def _cmd_exp_general(args) -> int:
    _, prior, d = load_model(args.model)
    channel, ref_rate, _ = blahut_arimoto(prior, d, args.target_d)
    cfg = _cfg_from_args(args, prior, d, channel)
    return _run_experiment(args, ExperimentSpec(
        name="general", cfg=cfg, trials=args.trials,
        rate_bounds=(0.9 * ref_rate, 1.1 * ref_rate),
        distortion_bounds=(args.target_d - 0.015, args.target_d + 0.015),
    ))


def _cmd_exp_beq(args) -> int:
    res = run_beq_example(args.source)
    text = (
        f"source={res['source']} n={res['n']} e={res['e']}\n"
        f"message={res['message']} bits={res['message_bits']}\n"
        f"reconstruction={res['reconstruction']}\n"
        f"distortion={res['distortion']}\n"
        f"audit={res['audit']}\n"
    )
    _emit(text, args.out)
    return 0 if res["ok"] else 1


def _cmd_exp_duality(args) -> int:
    try:
        erasures = tuple(int(x) for x in args.erasures.split(",") if x)
    except ValueError:
        raise ConfigError(f"--erasures {args.erasures!r} is not a "
                          f"comma-separated list of integers") from None
    res = run_duality_example(args.message, erasures)
    text = (
        f"message={res['message']} erasures={','.join(map(str, res['erasures']))}\n"
        f"sent={res['sent']} uses={res['uses']}\n"
        f"received={res['received']}\n"
        f"recovered={res['recovered']}\n"
        f"rate={res['rate']}\n"
    )
    _emit(text, args.out)
    return 0 if res["ok"] else 1


_DISPATCH = {
    "rd": _cmd_rd,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "exp-hamming": _cmd_exp_hamming,
    "exp-general": _cmd_exp_general,
    "exp-beq": _cmd_exp_beq,
    "exp-duality": _cmd_exp_duality,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _DISPATCH[args.cmd](args)
    except (FfscError, OSError, argparse.ArgumentError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
