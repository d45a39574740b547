"""`floatrepr.render` against its oracle, Python's `repr`, byte for byte."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vhpf import floatrepr


def _buffers(n):
    chars = np.empty((n, floatrepr.WIDTH), np.uint8)
    chars[...] = floatrepr.TEMPLATE
    return chars, np.empty((n, floatrepr.WIDTH), bool)


def _assert_reprs(values, buffers=None):
    values = np.ascontiguousarray(values, dtype=np.float64)
    chars, keep = buffers or _buffers(len(values))
    floatrepr.render(values, chars[:len(values)], keep[:len(values)])
    got = [c[k].tobytes() for c, k in zip(chars, keep)]
    bad = [(v, g) for v, g in zip(values.tolist(), got) if repr(v).encode() != g]
    assert not bad, bad[:10]


def _explicit():
    below = math.nextafter
    values = [0.0, math.inf, math.nan, 5e-324, below(2.2250738585072014e-308, 0.0),
              2.2250738585072014e-308, 1.7976931348623157e308,
              1e-4, below(1e-4, 0.0), 1e16, below(1e16, 0.0),
              1e22, 1e23, 2.0 ** 53, below(2.0 ** 53, 0.0), below(2.0 ** 53, math.inf),
              0.1, 0.3, 1 / 3, 2 / 3, 123.456, 1e-5, 9.5e-5, 0.5, 1.5, 100.0, 1e15]
    values += [float(f"1e{k}") for k in range(-323, 309)]
    values += [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    # 1 to 17 significant digits, in each layout of repr
    digits = "12345678901234567"
    values += [float(f"{digits[:n]}e{e}") for n in range(1, 18) for e in range(-330, 310, 3)]
    values += [float(f"9{'9' * (n - 1)}e{e}") for n in range(1, 17) for e in range(-20, 25)]
    # an odd significand's interval leaves out its ends: the lower end of
    # each of these is a decimal one digit shorter than the value's repr
    values += [7.205759403792821e+16, 1.4411518807585642e+17, 4.611686018432321e+18,
               1.4757395259048962e+20]
    return np.array(values + [-v for v in values])


def test_render_is_repr_on_the_boundaries_of_every_layout():
    values = _explicit()
    _assert_reprs(values)
    _assert_reprs(np.nextafter(values[np.isfinite(values)], 0.0))


def test_one_buffer_serves_call_after_call():
    # a value outside the arithmetic writes its repr into the digit columns;
    # the next call on the same buffers rewrites them
    buffers = _buffers(8)
    _assert_reprs([-math.inf, math.nan, -5e-324, 1e-310, -2.2250738585072009e-308, 0.0, -0.0,
                   math.inf], buffers)
    _assert_reprs([1.0, -2.5, 1e-05, 1e+16, 0.1, 123456789.0, -1e300, 7e-300], buffers)
    _assert_reprs([0.0, -0.0, 1.0], buffers)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=256))
def test_render_is_repr_on_any_bit_pattern(patterns):
    _assert_reprs(np.array(patterns, dtype=np.uint64).view(np.float64))
