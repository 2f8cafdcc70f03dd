"""Every status a kernel can return other than OK becomes a typed
package error.

Each kernel entry point is replaced by a stub that returns one status.
Each caller must then raise an FfscError subclass after a single kernel
call: no retry loop and no raw exception.  The one further call left
is shape() on NEED_MORE_SYM while the side has samples to spare, which
resumes the kernel from its returned state on the side tuples that
follow and a fresh chunk that doubles the symbol buffer's total.
"""

import numpy as np
import pytest

from ffsc import _kernels
from ffsc.coder import (
    compress,
    decode_frame_prefix,
    quantize,
    quantize_channel,
    to_tuples,
)
from ffsc.errors import FfscError, ShapingError
from ffsc.model import Pmf, TestChannel
from ffsc.shaping import deshape_raw, shape

STATUSES = {name: value for name, value in vars(_kernels).items()
            if name.isupper() and not name.startswith("_")
            and type(value) is int and name != "OK"}

# a frame table that is not dyadic (243 tuples of 269-270 units), so its
# frames run the coder loops: a dyadic one is coded in closed form
MODEL = quantize(Pmf.uniform(3), 16)
CHANNEL = quantize_channel(TestChannel.bsc(0.11), 16)
SIDE = np.zeros(4096, dtype=np.int64)
# a coder state for the shape_kernel stubs to return
STATE = (1 << 32, 0, 0)
# one tuple of the channel's k samples (k = 5), which deshape_raw needs
SYMBOLS = np.resize(np.array([0, 1, 1, 0], dtype=np.int64),
                    CHANNEL.kernel_form().k)

# (caller, kernel it calls, the kernel's return value for a status)
CALLS = {
    "compress": (lambda: compress(SYMBOLS, MODEL), "encode_kernel",
                 lambda st: (0, 0, st)),
    "deshape_raw": (lambda: deshape_raw(SYMBOLS, SYMBOLS, CHANNEL),
                    "encode_kernel", lambda st: (0, 0, st)),
    "shape": (lambda: shape(np.array([1, 0, 1]), SIDE, CHANNEL),
              "shape_kernel", lambda st: (0, STATE, st)),
    "decode_frame_prefix": (lambda: decode_frame_prefix(bytes(64), MODEL, 0),
                            "decode_kernel", lambda st: (0, st)),
}


def stub(monkeypatch, kernel, results):
    """Replace `kernel` with one returning `results` in turn; returns the
    list of calls it saw."""
    calls = []

    def fake(*args):
        calls.append(args)
        if len(calls) > len(results):
            pytest.fail(f"{kernel} called again")
        return results[len(calls) - 1]

    monkeypatch.setattr(_kernels, kernel, fake)
    return calls


def test_every_kernel_status_has_a_distinct_value():
    assert len(set(STATUSES.values())) == len(STATUSES)
    assert _kernels.OK not in STATUSES.values()


@pytest.mark.parametrize("caller, status", [
    (caller, status) for caller in sorted(CALLS) for status in sorted(STATUSES)
    if (caller, status) != ("shape", "NEED_MORE_SYM")
])
def test_status_raises_a_package_error(monkeypatch, caller, status):
    run, kernel, result = CALLS[caller]
    calls = stub(monkeypatch, kernel, [result(STATUSES[status])])
    with pytest.raises(FfscError):
        run()
    assert len(calls) == 1


def test_shape_resumes_need_more_sym_from_the_returned_state(monkeypatch):
    # shape's first chunk holds 52 tuples of the BSC's k = 5 samples; a
    # first call that fills it hands its state to a second call, which
    # gets the side tuples after those 52 and a chunk of 52 more.
    side = np.random.default_rng(5).integers(0, 2, SIDE.size)
    resumed = (1 << 30, 12345, 7)
    calls = []

    def fake(stream, m_bits, given, cum, slots, precision, out, state):
        calls.append((given.copy(), len(out), state,
                      _kernels.start_state(stream)))
        if len(calls) == 1:
            return len(out), resumed, _kernels.NEED_MORE_SYM
        return 2, STATE, _kernels.OK

    monkeypatch.setattr(_kernels, "shape_kernel", fake)
    symbols, used = shape(np.array([1, 0, 1]), side, CHANNEL)
    assert used == 5 * 54 and symbols.size == 5 * 54
    (first_side, first, start, fresh), (second_side, second, state, _) = calls
    assert start == fresh and state == resumed
    assert first == second == 52  # totals 52 and 104
    place = CHANNEL.kernel_form().row_place
    assert np.array_equal(first_side, to_tuples(side[:5 * 52], place))
    assert np.array_equal(second_side,
                          to_tuples(side[5 * 52:5 * 104], place))


def test_shape_refuses_need_more_sym_once_the_side_is_exhausted(
        monkeypatch):
    # shape's first buffer holds 52 tuples, more than this side's 51.
    _, kernel, _ = CALLS["shape"]
    calls = stub(monkeypatch, kernel,
                 [(256, STATE, _kernels.NEED_MORE_SYM)])
    with pytest.raises(ShapingError, match="side provider exhausted"):
        shape(np.array([1, 0, 1]), SIDE[:256], CHANNEL)
    assert len(calls) == 1
