"""The vectorized float encoder against the csv module writing ``repr``."""

import csv
import io

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tsvar.floatcsv import csv_bytes


def repr_csv(rows):
    """What the csv module writes for ``rows``, each float as its repr."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([repr(float(v)) for v in row] for row in rows)
    return buf.getvalue().encode()


def assert_matches_repr(values, n_cols=1):
    rows = np.asarray(values, dtype=np.float64).reshape(-1, n_cols)
    assert bytes(csv_bytes(rows)) == repr_csv(rows)


def with_neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        return np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])


@given(st.sampled_from([1, 2, 5]).flatmap(
    lambda n_cols: hnp.arrays(np.float64, st.tuples(st.integers(0, 40), st.just(n_cols)),
                              elements=st.floats(allow_nan=True, allow_infinity=True,
                                                 allow_subnormal=True))))
def test_any_floats_match_repr(rows):
    assert bytes(csv_bytes(rows)) == repr_csv(rows)


def test_random_bit_patterns_match_repr():
    """Every exponent, sign and special value, at random significands."""
    bits = np.random.default_rng(20).integers(0, 2**64, 30000, dtype=np.uint64, endpoint=False)
    assert_matches_repr(bits.view(np.float64), n_cols=3)


def test_powers_of_two_and_neighbours_match_repr():
    """At c = 2^52 the rounding interval is uneven: its lower half is half
    as wide, from the smallest normal up."""
    x = with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
    assert_matches_repr(np.concatenate([x, -x]), n_cols=2)


def test_powers_of_ten_and_neighbours_match_repr():
    x = with_neighbours([float(f"1e{e}") for e in range(-323, 309)])
    assert_matches_repr(x)


def test_integers_match_repr():
    """Whole numbers end in ".0" up to 1e16 and switch to the e-form after."""
    rng = np.random.default_rng(21)
    ints = np.concatenate([np.arange(-1000, 1000), rng.integers(0, 10**17, 20000),
                           10 ** np.arange(18), 2 ** np.arange(58)])
    assert_matches_repr(ints.astype(np.float64), n_cols=2)


def test_subnormals_and_layout_edges_match_repr():
    x = [5e-324 * k for k in range(1, 200)]
    x += [0.0, -0.0, 1e-4, 9.999999999999999e-05, 9999999999999998.0, 1e16,
          2.2250738585072014e-308, 1.7976931348623157e308, 0.1 + 0.2, -2.0 / 3.0]
    assert_matches_repr(with_neighbours(x))


def test_layout_edges_match_repr():
    """Each sign, decimal point position decpt from -5 to 18 and count of
    significant digits from 1 to 17 (value 0.d1..dn x 10^decpt), with the
    two neighbours of each value: both e-form boundaries (decpt -3/-4 and
    16/17), digits on both sides of the point, and the whole numbers that
    end in ".0"."""
    digits = "1234567891234567"
    x = [float(f"{sign}0.{digits[:nd - 1]}7e{decpt}")
         for sign in ("", "-") for decpt in range(-5, 19) for nd in range(1, 18)]
    assert_matches_repr(with_neighbours(x), n_cols=3)
