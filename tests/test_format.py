"""The numpy CSV formatter against Python's own ``%.17g`` and ``%d``.

``_format.csv_lines`` must give the bytes of ``template % row`` for every
row, whatever the values; these tests compare the two on fixed-seed
values of every kind, so they pin the bytes of ``traces.csv`` and
``aggregate.csv`` on any machine.
"""

import math
import warnings
from decimal import Decimal

import numpy as np
import pytest

from adagb2 import _format, harness
from adagb2.harness import ExperimentConfig, run_experiment


def _reference(columns) -> bytes:
    template = ",".join("%.17g" if c.dtype.kind == "f" else "%d"
                        for c in columns) + "\n"
    return "".join(template % row for row in
                   zip(*(c.tolist() for c in columns))).encode()


def _assert_formats(columns):
    got = _format.csv_lines(columns).tobytes()
    want = _reference(columns)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n"))
               if g != w]
        pytest.fail(f"{len(bad)} lines differ, first {bad[:3]}; "
                    f"{len(got)} against {len(want)} bytes")


def _assert_floats(values, columns=4):
    """``values`` as rows of ``columns`` float columns, 4096 rows at once."""
    values = np.asarray(values, dtype=np.float64)
    values = values[:len(values) - len(values) % columns]
    for part in np.array_split(values.reshape(-1, columns),
                               max(1, len(values) // (4096 * columns))):
        _assert_formats(list(part.T.copy()))


def test_random_bit_patterns():
    # Every binade, subnormals, +-0, +-inf and NaNs with payloads.
    bits = np.random.default_rng(20261019).integers(
        0, 2**64, 2**20, dtype=np.uint64, endpoint=False)
    _assert_floats(bits.view(np.float64))


def test_scaled_normals_across_the_range():
    rng = np.random.default_rng(7)
    with np.errstate(over="ignore", under="ignore"):
        _assert_floats(rng.standard_normal(2**17)
                       * 10.0 ** rng.uniform(-330, 310, 2**17))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf)])
    _assert_floats(np.concatenate([values, -values]), columns=1)


def test_integers_near_powers_of_two():
    ints = [(1 << j) + d for j in range(53, 65) for d in range(-3, 4)]
    floats = np.array([float(i) for i in ints])
    _assert_floats(np.concatenate([floats, -floats]), columns=1)
    signed = np.array([i for i in ints if i < 2**63] + [-i for i in ints
                                                         if i <= 2**63],
                      dtype=np.int64)
    _assert_formats([signed])
    _assert_formats([np.array([i for i in ints if i < 2**64],
                              dtype=np.uint64)])


def _ties(rng):
    """Doubles whose exact decimal has 18 significant digits, the last a
    5: each is a tie for 17 digits, rounded to even by ``%.17g``."""
    values = []
    for e10 in range(-12, 17):
        k = 17 - e10  # m 2^-k then has 18 significant digits
        low, high = math.ceil(10.0**e10 * 2.0**k), min(
            math.floor(10.0**(e10 + 1) * 2.0**k), 2**53)
        if low >= high:
            continue
        for m in rng.integers(low, high, 64).tolist():
            x = math.ldexp(m | 1, -k)
            digits = Decimal(x).as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                values.append(x)
    return np.array(values)


def test_exact_ties_at_the_eighteenth_digit():
    ties = _ties(np.random.default_rng(3))
    assert len(ties) > 1000
    # Both ways to even occur: the 17th digit is odd (up) or even (down).
    assert {Decimal(t).as_tuple().digits[16] % 2 for t in ties} == {0, 1}
    _assert_floats(np.concatenate([ties, -ties]), columns=1)


def test_special_values():
    nan_payload = np.array([0x7FF0000000000001, 0xFFF8000000000123],
                           dtype=np.uint64).view(np.float64)
    floats = np.concatenate([[np.nan, -np.nan, np.copysign(np.nan, -1.0),
                              np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                              2.2250738585072014e-308, 1.7976931348623157e308,
                              -1.7976931348623157e308, 1.0, -1.0, 0.1,
                              1e16, 1e17, 123456789012345678.0,
                              9.999999999999999e22, 1e-5, 1e-4, 0.5],
                             nan_payload])
    assert str(-np.nan) == "nan" and "%.17g" % -np.nan == "nan"
    _assert_floats(floats, columns=1)
    ints = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1,
                     1, 9, 10, -10, 99999, -100000], dtype=np.int64)
    _assert_formats([ints, np.arange(len(ints)) % 2 == 0,
                     np.arange(len(ints), dtype=np.uint64) * 2**60])


def test_bit_equal_columns_and_separators():
    rows = 300
    columns = [np.full(rows, 7), np.arange(rows) - 150, np.full(rows, 1.0),
               np.full(rows, -0.0), np.full(rows, np.nan),
               np.linspace(-3e-5, 4e17, rows), np.full(rows, True)]
    _assert_formats(columns)
    _assert_formats(columns[::-1])
    _assert_formats([np.array([0.0, -0.0, 0.0])])  # equal, not bit-equal


def test_chunks_split_and_join_blocks():
    rng = np.random.default_rng(11)
    blocks = [[np.full(n, i), np.arange(n), rng.standard_normal(n)]
              for i, n in enumerate((5, 11, 3, 1, 16))]
    whole = [np.concatenate(cols) for cols in zip(*blocks)]
    for size in (1, 4, 7, 16, 36, 100):
        chunks = list(_format.chunks(blocks, size))
        assert [len(c[0]) for c in chunks[:-1]] == [size] * (len(chunks) - 1)
        assert 0 < len(chunks[-1][0]) <= size
        text = b"".join(_format.csv_lines(c).tobytes() for c in chunks)
        assert text == _reference(whole)


def test_write_csv_chunk_boundaries_inside_a_replication(tmp_path):
    # Blocks longer than a chunk, and chunks that end mid-block.
    rng = np.random.default_rng(5)
    lengths = (_format.CHUNK_ROWS + 17, 3, 2 * _format.CHUNK_ROWS - 5, 40)
    blocks = [[np.full(n, i), np.arange(n), rng.standard_normal(n),
               np.full(n, 1.0)] for i, n in enumerate(lengths)]
    path = tmp_path / "out.csv"
    harness._write_csv(str(path), ("a", "b", "c", "d"), blocks)
    whole = [np.concatenate(cols) for cols in zip(*blocks)]
    assert path.read_bytes() == b"a,b,c,d\n" + _reference(whole)


@pytest.mark.parametrize("diagnostics", [True, False])
def test_traces_and_aggregate_files_match_the_row_loop(tmp_path, diagnostics):
    # Without diagnostics three trace columns are NaN; no warning may
    # escape the formatter.
    config = ExperimentConfig.from_dict({
        "problem": {"name": "boxed_rosenbrock", "dim": 3, "seed": 1},
        "oracle": {"kind": "gaussian", "sigma": 0.5},
        "run": {"horizon": 120, "replications": 5, "base_seed": 2,
                "diagnostics": diagnostics},
    })
    exp = run_experiment(config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        harness.write_traces_csv(str(tmp_path / "t.csv"), exp.results)
        harness.write_aggregate_csv(str(tmp_path / "a.csv"), exp.aggregate)
    traces = [np.concatenate(cols) for cols in zip(*(
        [np.full(r.horizon, i), np.arange(r.horizon), r.norm_d, r.norm_xi,
         r.err_norm, r.gamma, r.f_values, np.full(r.horizon, int(r.event_a))]
        for i, r in enumerate(exp.results)))]
    assert (tmp_path / "t.csv").read_bytes() == (
        ",".join(harness.TRACE_COLUMNS) + "\n").encode() + _reference(traces)
    agg = [np.broadcast_to(v, exp.aggregate.k.shape)
           for v in exp.aggregate.columns().values()]
    assert (tmp_path / "a.csv").read_bytes() == (
        ",".join(exp.aggregate.COLUMNS) + "\n").encode() + _reference(agg)


def test_non_finite_columns_raise_no_warning():
    values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for column in (np.full(50, np.nan), np.full(50, -np.inf),
                       np.resize(values, 50), values[::-1].copy()):
            _assert_formats([column, column[::-1].copy()])
