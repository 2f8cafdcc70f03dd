"""Every status a kernel can return other than OK becomes a typed
package error.

Each kernel entry point is replaced by a stub that returns one status.
Each caller must then raise an FfscError subclass after a single kernel
call: no retry loop and no raw exception.  The one retry left is
shape() on NEED_MORE_SYM while the side has samples to spare, which
reruns with a doubled symbol buffer.
"""

import numpy as np
import pytest

from ffsc import _kernels
from ffsc.coder import (
    compress,
    decode_frame_prefix,
    quantize,
    quantize_channel,
)
from ffsc.errors import FfscError, ShapingError
from ffsc.model import Pmf, TestChannel
from ffsc.shaping import deshape_raw, shape

STATUSES = {name: value for name, value in vars(_kernels).items()
            if name.isupper() and not name.startswith("_")
            and type(value) is int and name != "OK"}

MODEL = quantize(Pmf.uniform(2), 16)
CHANNEL = quantize_channel(TestChannel.bsc(0.11), 16)
SIDE = np.zeros(4096, dtype=np.int64)
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
              "shape_kernel", lambda st: (0, st)),
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


def test_shape_retries_need_more_sym_with_a_doubled_buffer(monkeypatch):
    run, kernel, _ = CALLS["shape"]
    calls = stub(monkeypatch, kernel,
                 [(0, _kernels.NEED_MORE_SYM), (2, _kernels.OK)])
    symbols, used = run()
    # two tuples of the BSC's k = 5 samples
    assert used == 10 and symbols.size == 10
    first, second = (len(args[-1]) for args in calls)
    assert second == 2 * first


def test_shape_refuses_need_more_sym_once_the_side_is_exhausted(
        monkeypatch):
    # shape's first buffer holds 52 tuples, more than this side's 51.
    _, kernel, _ = CALLS["shape"]
    calls = stub(monkeypatch, kernel, [(256, _kernels.NEED_MORE_SYM)])
    with pytest.raises(ShapingError, match="side provider exhausted"):
        shape(np.array([1, 0, 1]), SIDE[:256], CHANNEL)
    assert len(calls) == 1
