import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atispec import specfun
from atispec.specfun import (
    BesselRangeError,
    airy_ai,
    airy_ai_asymptotic,
    bessel_airy_approx,
    gen_bessel,
    gen_bessel_orders,
    gen_bessel_quadrature,
    ordinary_bessel,
)


def test_ordinary_bessel_trivial_values():
    assert ordinary_bessel(0, 0.0) == 1.0
    assert ordinary_bessel(3, 0.0) == 0.0


def test_ordinary_bessel_negative_order_symmetry():
    for n in (1, 2, 5, 11):
        for x in (0.3, 2.5, 40.0):
            np.testing.assert_allclose(
                ordinary_bessel(-n, x), (-1) ** n * ordinary_bessel(n, x), rtol=1e-14
            )


def test_ordinary_bessel_against_periodic_quadrature():
    # (1/2pi) int exp(i(x sin t - n t)) dt on a 256-node trapezoid grid
    def quad(n, x):
        m = 256
        t = -np.pi + 2 * np.pi * np.arange(m) / m
        return np.exp(1j * (x * np.sin(t) - n * t)).mean().real

    for (n, x) in [(5, 7.2), (0, 1.0), (12, 30.0), (40, 55.0), (3, 80.0)]:
        np.testing.assert_allclose(ordinary_bessel(n, x), quad(n, x), rtol=5e-13, atol=1e-14)


def test_ordinary_bessel_twelve_digits_against_mpmath():
    # high-precision reference; envelope floor because significant digits
    # of an oscillatory function are meaningless right at its zeros
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    cases = [(int(rng.integers(0, 700)), float(rng.uniform(0.0, 600.0))) for _ in range(25)]
    cases += [(50, 49.9), (200, 200.0), (600, 13.5), (2000, 1999.0)]
    for n, x in cases:
        with mp.workdps(60 + int(0.46 * x)):
            ref = float(mp.besselj(n, mp.mpf(x), maxterms=10**6))
        envelope = math.sqrt(2.0 / (math.pi * max(x, 1.0)))
        err = abs(ordinary_bessel(n, x) - ref)
        assert err <= 1e-12 * max(abs(ref), 0.01 * envelope)


def test_ordinary_bessel_range_errors():
    with pytest.raises(BesselRangeError):
        ordinary_bessel(2001, 1.0)
    with pytest.raises(BesselRangeError):
        ordinary_bessel(3, 5001.0)
    with pytest.raises(BesselRangeError):
        ordinary_bessel(0, math.inf)


def test_gen_bessel_args_delta_normalized():
    # the oracle reduces delta to (-pi, pi] before it builds its phase
    q1 = gen_bessel_quadrature(3, 1.0, 1.0, 7.5)
    q2 = gen_bessel_quadrature(3, 1.0, 1.0, 7.5 - 2 * math.pi)
    np.testing.assert_allclose([q1.real, q1.imag], [q2.real, q2.imag], rtol=1e-12, atol=1e-15)
    # value unchanged under 2*pi shifts of delta
    z1 = gen_bessel(3, 1.5, 0.7, 0.4)
    z2 = gen_bessel(3, 1.5, 0.7, 0.4 + 2 * math.pi)
    np.testing.assert_allclose([z1.real, z1.imag], [z2.real, z2.imag], rtol=1e-12, atol=1e-15)


def test_gen_bessel_reduces_to_ordinary_at_v_zero():
    for n in (-9, -2, 0, 1, 6):
        for u in (0.3, 2.0, 17.5):
            for d in (0.0, 0.8, -2.2):
                assert gen_bessel(n, u, 0.0, d) == ordinary_bessel(n, u) + 0j


def test_gen_bessel_at_u_zero_even_odd():
    # odd order vanishes; even order is exp(-i n delta) J_{n/2}(v)
    assert gen_bessel(3, 0.0, 2.5, 0.7) == 0j
    want = np.exp(-1j * 0.7 * 4) * ordinary_bessel(2, 2.5)
    got = gen_bessel(4, 0.0, 2.5, 0.7)
    np.testing.assert_allclose([got.real, got.imag], [want.real, want.imag], rtol=0, atol=1e-15)


def test_gen_bessel_matches_quadrature_oracle():
    got = gen_bessel(3, 1.5, 0.7, 0.4)
    ref = gen_bessel_quadrature(3, 1.5, 0.7, 0.4)
    assert abs(got - ref) <= 1e-10 * abs(ref)


def test_gen_bessel_orders_consistent_with_scalar():
    arr = gen_bessel_orders(-5, 5, 4.0, 1.5, 0.9)
    for i, n in enumerate(range(-5, 6)):
        assert arr[i] == gen_bessel(n, 4.0, 1.5, 0.9)


_U = st.one_of(st.just(0.0), st.floats(-30.0, 30.0))
_V = st.one_of(st.just(0.0), st.floats(-12.0, 12.0))


@settings(max_examples=30, deadline=None)
@given(
    points=st.lists(st.tuples(_U, _V), min_size=1, max_size=5),
    delta=st.sampled_from([0.0, 0.4, math.pi / 2, -2.1, math.pi]),
    n_lo=st.integers(-20, 20),
    width=st.integers(0, 5),
)
def test_batched_gen_bessel_orders_rows_match_one_point_calls(points, delta, n_lo, width):
    u = np.array([p[0] for p in points])
    v = np.array([p[1] for p in points])
    rows = gen_bessel_orders(n_lo, n_lo + width, u, v, delta)
    assert rows.shape == (len(points), width + 1)
    for row, ui, vi in zip(rows, u, v):
        one = gen_bessel_orders(n_lo, n_lo + width, ui, vi, delta)
        # rows share the largest truncation, so they differ by roundoff only
        assert np.all(np.abs(row - one) <= 1e-13 * np.max(np.abs(one)))
        for n, val in zip(range(n_lo, n_lo + width + 1), row):
            quad = gen_bessel_quadrature(n, ui, vi, delta)
            assert abs(val - quad) <= max(1e-10 * abs(quad), 1e-12)


@settings(max_examples=30, deadline=None)
@given(
    points=st.lists(st.tuples(_U, _V), min_size=2, max_size=5),
    delta=st.sampled_from([0.0, 0.4, math.pi / 2, -2.1, math.pi]),
    n_lo=st.integers(-20, 20),
    width=st.integers(0, 5),
)
def test_batched_gen_bessel_orders_rows_equal_one_point_calls_exactly(points, delta, n_lo, width):
    # every row keeps the truncation of its own one-point call; the extra
    # (u, v) = (0, 10) row has an exactly zero odd-order series, so its
    # tail bound is the absolute floor and its truncation grows alone
    u = np.array([p[0] for p in points] + [0.0])
    v = np.array([p[1] for p in points] + [10.0])
    rows = gen_bessel_orders(n_lo, n_lo + width, u, v, delta)
    for row, ui, vi in zip(rows, u, v):
        assert np.array_equal(row, gen_bessel_orders(n_lo, n_lo + width, ui, vi, delta))


def test_batched_rows_keep_their_own_truncation():
    # J_{70-2k}(1e-3) falls off so fast that the first row, truncated at
    # k = 21 by its small v, is far below its k = 35 term; the second row's
    # large v must not widen the first row's truncation
    u, v = np.array([1e-3, 5.0]), np.array([1.0, 30.0])
    rows = gen_bessel_orders(68, 72, u, v, 0.4)
    for row, ui, vi in zip(rows, u, v):
        assert np.array_equal(row, gen_bessel_orders(68, 72, ui, vi, 0.4))


@pytest.mark.parametrize("fault", [0.0, 1e-6])
def test_jn_ladder_equals_jn_exactly(fault):
    # every entry equals the kernel's own one-point value J_m(x), injected
    # fault included, and the reflections J_{-m}(x) = J_m(-x) = (-1)^m J_m(x)
    # hold bit for bit
    def one_point(m, x):
        return specfun._jn_table(np.array([m]), np.array([x]))[0, 0]

    orders = np.arange(-45, 46)
    x = np.array([-60.0, -7.5, -0.3, 0.0, 0.3, 7.5, 60.0, 251.0])
    # repeated and signed-zero arguments share the row of one evaluation
    x_rep = np.array([7.5, 0.0, 60.0, 7.5, -0.0, 60.0, 7.5])
    specfun.set_bessel_fault(fault)
    try:
        for xs in (x, x_rep):
            got = specfun._jn_table(orders, xs)
            want = np.array([[one_point(m, xi) for m in orders.tolist()] for xi in xs.tolist()])
            assert np.array_equal(got, want)
        # scattered, repeated and unsorted orders too
        odd = np.array([7, -3, 0, 3, -7, -7, 2])
        got = specfun._jn_table(odd, x)
        assert np.array_equal(got, np.array([[one_point(m, xi) for m in odd.tolist()] for xi in x.tolist()]))
    finally:
        specfun.set_bessel_fault(0.0)
    got = specfun._jn_table(orders, x)
    sign = np.where(orders % 2 == 1, -1.0, 1.0)
    assert np.array_equal(got[:, ::-1], got * sign)
    assert np.array_equal(got[6::-1], got[:7] * sign)  # x[:7] is symmetric about 0


def _mp_ladder(mp, x, m_max):
    with mp.workdps(30):
        return np.array([float(mp.besselj(m, mp.mpf(x))) for m in range(m_max + 1)])


def test_jn_ladder_against_mpmath():
    mp = pytest.importorskip("mpmath")
    orders = np.arange(-400, 401)
    xs = [0.0, 1e-300, -1e-300, 1e-8, 0.3, 7.5, 60.0, 251.0, 300.0, 5000.0]
    got = specfun._jn_table(orders, np.array(xs))
    assert got[0, 400] == 1.0 and np.count_nonzero(got[0]) == 1
    sign = np.where(orders % 2 == 1, -1.0, 1.0)
    for row, x in zip(got[1:], xs[1:]):
        ref = _mp_ladder(mp, x, 400)[np.abs(orders)]
        ref = np.where(orders < 0, sign * ref, ref)
        err = np.abs(row - ref)
        inside = np.abs(orders) <= abs(x)
        envelope = math.sqrt(2.0 / (math.pi * max(abs(x), 1.0)))
        assert np.all(err[inside] <= (2e-13 if abs(x) <= 300.0 else 1e-12) * envelope)
        beyond = ~inside & (np.abs(ref) >= 1e-280)
        assert np.all(err[beyond] <= 1e-12 * np.abs(ref[beyond]))


@settings(max_examples=40, deadline=None)
@given(
    xs=st.lists(st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e-290, 1e-290),
                          st.floats(-300.0, 300.0)), min_size=1, max_size=6),
    lo=st.integers(-80, 80),
    width=st.integers(0, 60),
)
def test_jn_ladder_row_bits_do_not_depend_on_the_rest_of_the_call(xs, lo, width):
    # a value depends on (m, x) alone: not on the other rows of the call,
    # nor on the order range it covers
    orders = np.arange(lo, lo + width + 1)
    got = specfun._jn_table(orders, np.array(xs))
    for row, x in zip(got, xs):
        assert np.array_equal(row, specfun._jn_table(orders, np.array([x]))[0])
        wide = specfun._jn_table(np.arange(-400, 401), np.array([x]))[0]
        assert np.array_equal(row, wide[orders + 400])


def test_jn_ladder_fault_applies_at_the_signed_order():
    orders = np.arange(-9, 10)
    x = np.array([-7.5, -0.0, 0.3, 7.5])
    clean = specfun._jn_table(orders, x)
    specfun.set_bessel_fault(1e-6)
    try:
        faulted = specfun._jn_table(orders, x)
    finally:
        specfun.set_bessel_fault(0.0)
    assert np.array_equal(faulted, clean * (1.0 + 1e-6 * np.cos(1.3 * orders[None, :] + 0.7 * x[:, None])))


def test_series_route_range_guard():
    # a recurrence takes about |x| steps: arguments past MAX_ARGUMENT raise,
    # as ordinary_bessel does, whether they are u or v
    with pytest.raises(BesselRangeError):
        ordinary_bessel(10, 8000.0)
    with pytest.raises(BesselRangeError):
        gen_bessel_orders(10, 12, 8000.0, 3.0, 0.0)
    with pytest.raises(BesselRangeError):
        gen_bessel_orders(10, 12, np.array([1.0, -5000.5]), np.array([3.0, 0.0]), 0.4)
    with pytest.raises(BesselRangeError):
        specfun._jn_table(np.arange(3), np.array([1.0, 6000.0]))
    assert np.all(np.isfinite(gen_bessel_orders(0, 2, 5000.0, 1.0, 0.3)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(-3e4, 3e4, allow_nan=False),
                          st.integers(0, 20000).map(float),
                          st.floats(-1e300, 1e300, allow_nan=False)), min_size=1, max_size=20))
def test_vectorized_truncation_start_equals_the_scalar_rule(vs):
    # against the rule at 50 digits, |v| + 10|v|^(1/3) + 10: its ceiling
    # wherever that value lies more than 1e-9 from an integer, within 1 of
    # it elsewhere, where one rounding may cross the integer; clamped at
    # MAX_ORDER + 1, past the box, so the int cast stays finite
    mp = pytest.importorskip("mpmath")
    got = specfun._k_start(np.array(vs))
    assert got.dtype == np.int64
    with mp.workdps(50):
        for v, k in zip(vs, got.tolist()):
            av = abs(mp.mpf(v))
            pre = av + 10 * mp.cbrt(av) + 10
            want = min(int(mp.ceil(pre)), specfun.MAX_ORDER + 1)
            if abs(pre - mp.nint(pre)) > 1e-9:
                assert k == want
            else:
                assert abs(k - want) <= 1


@pytest.mark.parametrize("fault", [0.0, 1e-6])
def test_series_rows_entries_sharing_u_equal_each_row_alone(fault, monkeypatch):
    # entries that share one u array, as the rescattering and direct series
    # of a phase-angle group do, with one first order per row, as rows of
    # several channels have, give the bits of each row run alone; every
    # row starts at K = 2, so the rows close in different later rounds.  The
    # first table reaches the orders of K' = 11 of the entry of first order
    # 200, so the other two entries run their five rounds on it; that
    # entry's rows pass its top at K = 24 and run three more rounds on a
    # second table
    monkeypatch.setattr(specfun, "_k_start", lambda v: np.full(v.size, 2))
    tables, rounds = [], []
    jtable, entry_sums = specfun._JTable, specfun._entry_sums

    def counting_table(x, top):
        tables.append(top)
        return jtable(x, top)

    def counting_sums(table, at, entry, t, K, dtype):
        rounds.append(id(entry[1]))
        return entry_sums(table, at, entry, t, K, dtype)

    monkeypatch.setattr(specfun, "_JTable", counting_table)
    monkeypatch.setattr(specfun, "_entry_sums", counting_sums)
    u = np.array([0.3, 7.5, 60.0, 7.5, 251.0])
    series = [(u, np.array([58, 58, 40, 7, 58]), 3, np.array([0.5, 3.0, 12.0, 30.0, 1.0]), 0.4),
              (u, np.array([60, -3, 60, 61, 200]), 1, np.array([-2.0, 0.0, 25.0, -9.0, 4.0]), 0.4),
              (u, np.array([59, 59, 12, 59, 90]), 3, np.array([6.0, 0.5, 40.0, 3.0, 18.0]),
               np.array([0.1, -1.2, 0.7, 2.0, 0.0]))]
    specfun.set_bessel_fault(fault)
    try:
        together = specfun._series_rows(series)
        tops, per_entry = list(tables), [rounds.count(id(first)) for _, first, *_ in series]
        alone = []
        for _, first, count, v, delta in series:
            rows = [(u[[p]], first[[p]], count, v[[p]], delta if np.ndim(delta) == 0 else delta[[p]])
                    for p in range(u.size)]
            alone.append(np.vstack([specfun._series_rows([row])[0] for row in rows]))
    finally:
        specfun.set_bessel_fault(0.0)
    assert tops == [224, 290] and per_entry == [5, 5, 5]
    for got, want in zip(together, alone):
        assert np.array_equal(got, want)


def _one_term_at_a_time(entry, t, K):
    # the reference for _entry_sums: each row alone, its terms added in a
    # loop over k from k = -k_top up, where k_top is the largest K of the
    # rows and a row's terms with |k| > K are products with a zero weight
    u, first, count, v, delta = entry
    k_top = int(K.max())
    ks = np.arange(-k_top, k_top + 1)
    rows = []
    for r, p in enumerate(t.tolist()):
        ju = specfun._jn_table(first[p] + 2 * np.arange(-k_top, count + k_top), u[[p]])[0]
        phase = specfun.phase_exp(-2 * ks, delta) if np.ndim(delta) == 0 \
            else np.exp(-2j * ks * delta[p])
        weights = specfun._jn_table(ks, v[[p]])[0] * phase
        weights[np.abs(ks) > K[r]] = 0.0
        acc = np.zeros(count, dtype=weights.dtype)
        for l in range(ks.size):
            acc = acc + ju[2 * k_top - l:2 * k_top - l + count] * weights[l]
        rows.append(acc)
    return np.array(rows).T


@pytest.mark.parametrize("delta", [0.0, math.pi / 2, 0.4, "rows"])
@pytest.mark.parametrize("count, size", [(3, 7), (1, 7), (3, 1), (1, 1)])
def test_entry_sums_add_one_term_at_a_time_from_minus_k(delta, count, size, monkeypatch):
    # the windowed product and the running sum over slabs of terms give the
    # bits of a sum of one term at a time, for one-row entries too (where a
    # pairwise reduce over k would round differently), with rows of unequal
    # K and arguments of either sign; a small slab bound makes many slabs.
    # Then the kernels' case, u >= 0 (u = alpha_amp), with first orders odd
    # and even and low enough that some orders are negative, with and
    # without the injected fault
    rng = np.random.default_rng(count * 10 + size)
    for signed, fault in [(True, 0.0), (False, 0.0), (False, 1e-6)]:
        u = rng.uniform(-40.0 if signed else 0.0, 40.0, 9)
        v = rng.uniform(-20.0, 20.0, 9)
        first = rng.integers(-30, 60, 9) if signed \
            else rng.integers(-4, 3, 9) * 2 + np.arange(9) % 2
        t = np.sort(rng.choice(9, size, replace=False))
        K = rng.integers(3, 30, size)
        entry = (u, first, count, v, rng.uniform(-3.0, 3.0, 9) if delta == "rows" else delta)
        specfun.set_bessel_fault(fault)
        try:
            want = _one_term_at_a_time(entry, t, K)
            top = int(2 * K.max() + np.abs(first).max() + 2 * count)
            table = specfun._JTable(np.concatenate([u[t], v[t]]), top)
            for cells in (specfun._SLAB_CELLS, 5):
                monkeypatch.setattr(specfun, "_SLAB_CELLS", cells)
                acc, _ = specfun._entry_sums(table, np.arange(2 * t.size).reshape(2, -1), entry,
                                             t, K, want.dtype)
                # bytes, so signed zeros as well: the first term is added to a +0.0 sum
                assert acc.shape == want.shape
                assert np.ascontiguousarray(acc).tobytes() == np.ascontiguousarray(want).tobytes()
        finally:
            specfun.set_bessel_fault(0.0)


@pytest.mark.parametrize("fault", [0.0, 1e-6])
def test_jtable_reads_apply_the_reflections_at_the_signed_order(fault):
    # a read of a column of orders, or of offsets plus one first order per
    # position, equals the table's value at (|m|, |x|), negated exactly
    # where m is odd and one of m and x is negative (x = -0.0 is not), the
    # fault applied at the signed order and argument; for positions whose
    # x are all >= 0, all < 0 or mixed.  _jn_table reads through the same
    # method
    rng = np.random.default_rng(53)
    x = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 0.3, -0.3], rng.uniform(-30.0, 30.0, 10)])
    table = specfun._JTable(x, 60)

    def want(m, at):
        xs = x[at]
        val = table.values[np.abs(m), table.col[at]]
        val = np.where((m % 2 == 1) & ((m < 0) != (xs < 0)), -val, val)
        return val * (1.0 + fault * np.cos(1.3 * m + 0.7 * xs)) if fault else val

    columns = [np.arange(-20, 23), np.concatenate([[0], rng.integers(-60, 61, 24)])]
    bases = [np.arange(-12, 13, 2), rng.integers(-20, 21, 9)]
    positions = [slice(None), np.flatnonzero(x >= 0), np.flatnonzero(x < 0), np.array([3])]
    specfun.set_bessel_fault(fault)
    try:
        for at in positions:
            size = x[at].size
            for offsets in columns:
                got = table(offsets, at)
                assert got.tobytes() == want(offsets[:, None], at).tobytes()
                assert specfun._jn_table(offsets, x[at]).T.tobytes() == got.tobytes()
            for offsets in bases:
                first = rng.integers(-40, 41, size)
                got = table(offsets, at, first)
                assert got.tobytes() == want(offsets[:, None] + first, at).tobytes()
    finally:
        specfun.set_bessel_fault(0.0)


def _spy_series_tables(monkeypatch):
    # the chunks that _series_rows plans, pass by pass, and the _miller
    # sweeps it runs
    passes, sweeps = [], []
    chunks, miller = specfun._chunks, specfun._miller

    def spy_chunks(series, live, width):
        passes.append(0)
        for chunk in chunks(series, live, width):
            passes[-1] += 1
            yield chunk

    def spy_miller(x, top, out):
        sweeps.append(top)
        return miller(x, top, out)

    monkeypatch.setattr(specfun, "_chunks", spy_chunks)
    monkeypatch.setattr(specfun, "_miller", spy_miller)
    return passes, sweeps


@pytest.mark.parametrize("fault", [0.0, 1e-6])
@pytest.mark.parametrize("k_start", [None, 2])
def test_series_rows_chunks_and_later_rounds_equal_one_point_calls(fault, k_start, monkeypatch):
    # a small cell bound splits 60 rows into chunks, each of whose rows
    # finish on their own table; with every row starting at K = 2 the
    # rows pass their table's top in round 3 or later and go on to later
    # tables.  Each row equals its one-point call bit for bit
    rng = np.random.default_rng(27)
    u, v = rng.uniform(-80.0, 80.0, 60), rng.uniform(-30.0, 30.0, 60)
    monkeypatch.setattr(specfun, "_TABLE_CELLS", 3000)
    if k_start:
        monkeypatch.setattr(specfun, "_k_start", lambda v: np.full(v.size, k_start))
    passes, sweeps = _spy_series_tables(monkeypatch)
    specfun.set_bessel_fault(fault)
    try:
        together = gen_bessel_orders(5, 9, u, v, 0.4)
        planned, swept = list(passes), len(sweeps)
        alone = np.array([gen_bessel_orders(5, 9, a, b, 0.4) for a, b in zip(u, v)])
    finally:
        specfun.set_bessel_fault(0.0)
    assert planned[0] > 1 and swept == sum(planned)
    assert (len(planned) > 1) == bool(k_start)
    assert together.tobytes() == alone.tobytes()


def test_series_rows_round_two_reads_the_round_one_table(monkeypatch):
    # order 60 at |u| <= 6, whose sums are small, so that the first
    # truncation leaves six rows open: their second round runs on the first
    # round's tables, one sweep per chunk, whatever the chunk count
    u, v = np.linspace(-6.0, 6.0, 40), np.linspace(30.0, 0.5, 40)
    passes, sweeps = _spy_series_tables(monkeypatch)
    rounds = []  # (the sweep of the table read, the smallest K) of each entry sum
    entry_sums = specfun._entry_sums

    def spy_sums(table, at, entry, t, K, dtype):
        rounds.append((len(sweeps), int(K.min())))
        return entry_sums(table, at, entry, t, K, dtype)

    monkeypatch.setattr(specfun, "_entry_sums", spy_sums)
    for cells in (specfun._TABLE_CELLS, 3000):
        monkeypatch.setattr(specfun, "_TABLE_CELLS", cells)
        for spied in (rounds, passes, sweeps):
            spied.clear()
        gen_bessel_orders(60, 60, u, v, 0.0)
        assert len(passes) == 1 and len(sweeps) == passes[0]
        assert len({k for _, k in rounds}) > 1
        assert len(rounds) > len({table for table, _ in rounds})


def test_series_box_edge_converged_in_round_one_keeps_its_bits(monkeypatch):
    # orders 3948 and 3950 at v = 1: round 1 (K = 21) reads orders up to
    # 3994 and converges, while K' = 39 would read past the box |m| <= 4000,
    # so the table stops at the box, raises nothing and gives the bits of
    # a table that stopped at 3994
    tops = []
    jtable = specfun._JTable
    monkeypatch.setattr(specfun, "_JTable", lambda x, top: (tops.append(top), jtable(x, top))[1])
    got = gen_bessel_orders(3948, 3950, np.array([3900.0, 1200.0]), np.array([1.0, -1.0]), 0.3)
    assert tops == [2 * specfun.MAX_ORDER]
    want = [complex(float.fromhex(a), float.fromhex(b)) for a, b in [
        ("0x1.df5b5bd7a74b8p-14", "-0x1.4208c4e5416f7p-14"),
        ("0x1.9871ed98c9181p-14", "-0x1.12bdf53de89dfp-14"),
        ("0x1.5b7c4a08e0de8p-14", "-0x1.d410b4a5041f5p-15")]]
    assert got[0].tolist() == want and not got[1].any()


def test_gen_bessel_orders_peak_memory():
    # 4096 rows in chunks of one 2 MB table: the traced peak holds one table
    # (the last chunk's is freed before the next is built), one entry's two
    # lookups and one slab of the windowed product; 5.18 MB is the peak of the
    # contraction that built each lookup whole and summed one numpy call per term
    u, v = np.linspace(1.0, 150.0, 4096), np.linspace(1.0, 60.0, 4096)
    gen_bessel_orders(100, 102, u[:8], v[:8], 0.3)
    tracemalloc.start()
    try:
        gen_bessel_orders(100, 102, u, v, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5_180_000


def _suffix_scan_chunks(series, live, width):
    # the planner that scanned the whole suffix of positions for every
    # chunk: the reference for the look-ahead window of specfun._chunks
    lo, end = 0, max(t.size for _, t in live)
    while lo < end:
        pos = np.concatenate([np.arange(lo, t.size) for _, t in live for _ in (0, 3)])
        hi = end
        if pos.size > width:
            ax = np.abs(np.concatenate([series[i][x][t[lo:]] for i, t in live for x in (0, 3)]))
            by_pos = np.argsort(pos, kind="stable")
            first = np.sort(pos[by_pos][np.unique(ax[by_pos], return_index=True)[1]])
            if first.size > width:
                hi = max(int(first[width]), lo + 1)
        yield [(i, t[lo:hi]) for i, t in live if t.size > lo]
        lo = hi


@pytest.mark.parametrize("seed", range(60))
def test_chunks_end_where_a_suffix_scan_ends_them(seed):
    # entries of unequal lengths over a few |x| of either sign (signed zeros
    # too), so most positions repeat values, and small tables
    rng = np.random.default_rng(seed)
    pool = np.concatenate([[0.0, -0.0], rng.uniform(-40.0, 40.0, int(rng.integers(1, 12)))])
    series, live = [], []
    for i in range(int(rng.integers(1, 5))):
        size = int(rng.integers(1, 80))
        u, v = rng.choice(pool, size), rng.choice(pool, size)
        series.append((u, np.zeros(size, dtype=int), 1, v, 0.0))
        t = np.flatnonzero(rng.random(size) < rng.uniform(0.2, 1.0))
        live.append((i, t if t.size else np.arange(size)))
    width = int(rng.integers(1, 10))
    got = [[(i, t.tolist()) for i, t in chunk] for chunk in specfun._chunks(series, live, width)]
    want = [[(i, t.tolist()) for i, t in chunk]
            for chunk in _suffix_scan_chunks(series, live, width)]
    assert got == want


def test_batched_gen_bessel_orders_checks():
    with pytest.raises(ValueError):
        gen_bessel_orders(0, 2, np.array([1.0, 2.0]), np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        gen_bessel_orders(0, 2, np.array([1.0, np.nan]), np.array([1.0, 2.0]), 0.0)
    with pytest.raises(BesselRangeError):
        gen_bessel_orders(3990, 3990, np.array([1.0, 2.0]), np.array([1.0, 2.0]), 0.0)
    # v = 1900 starts at K = 2034, clamped to MAX_ORDER + 1: its orders pass
    # the box, beside a row that converges at once
    with pytest.raises(BesselRangeError, match="beyond the supported box"):
        gen_bessel_orders(0, 0, np.array([1.0, 1.0]), np.array([0.5, 1900.0]), 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(-4100, 4100), st.integers(0, 3),
       st.lists(st.tuples(st.floats(-6000.0, 6000.0), st.floats(-6000.0, 6000.0)),
                min_size=1, max_size=3),
       st.floats(-10.0, 10.0))
def test_gen_bessel_orders_gives_finite_values_or_the_box_error(n_lo, width, uv, delta):
    # the box |m| <= 2 MAX_ORDER, |x| <= MAX_ARGUMENT is a series' one limit:
    # inside it every series converges to finite values, past it it raises
    # BesselRangeError, and nothing else comes out
    u, v = (np.array(x) for x in zip(*uv))
    try:
        got = gen_bessel_orders(n_lo, n_lo + width, u, v, delta)
    except BesselRangeError:
        return
    assert got.shape == (len(uv), width + 1) and np.all(np.isfinite(got))


def test_quadrature_trivial_values():
    assert abs(gen_bessel_quadrature(0, 0.0, 0.0, 0.0) - 1.0) < 1e-15
    assert abs(gen_bessel_quadrature(1, 0.0, 0.0, 0.0)) < 1e-15


def test_quadrature_regression_anchor():
    # frozen from a doubled-node run; guards against node-formula regressions
    val = gen_bessel_quadrature(7, 12.0, 3.0, 1.1)
    pinned = -0.09268460649679795 - 0.09156479679068867j
    assert abs(val - pinned) < 1e-13


def test_quadrature_doubled_nodes_stable(monkeypatch):
    a = gen_bessel_quadrature(9, 8.0, 4.0, 0.6)
    monkeypatch.setattr(specfun, "QUAD_POINTS", 1024)
    b = gen_bessel_quadrature(9, 8.0, 4.0, 0.6)
    assert abs(a - b) < 1e-13


def test_airy_value_at_origin():
    np.testing.assert_allclose(airy_ai(0.0), 3 ** (-2 / 3) / math.gamma(2 / 3), rtol=1e-15)


def test_airy_equation_finite_difference():
    h = 1e-4
    d2 = (airy_ai(1 + h) - 2 * airy_ai(1.0) + airy_ai(1 - h)) / h**2
    np.testing.assert_allclose(d2, 1.0 * airy_ai(1.0), rtol=1e-6)


def test_airy_asymptotic_branch_agreement():
    # leading decay branch within 2% for x >= 8, 0.5% at x = 25
    for x in (8.0, 12.0, 60.0):
        assert abs(airy_ai_asymptotic(x) / airy_ai(x) - 1.0) < 0.02
    assert abs(airy_ai_asymptotic(25.0) / airy_ai(25.0) - 1.0) < 0.005


AIRY_POINTS = np.concatenate([
    np.linspace(-20.0, 105.0, 501),
    # both sides of the series boundaries x = -3 and x = 2, and of x = 10
    [-3.0000001, np.nextafter(-3.0, -4.0), -3.0, np.nextafter(-3.0, 0.0), -2.9999999],
    [1.9999999, np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0), 2.0000001],
    [9.999999, np.nextafter(10.0, 0.0), 10.0, np.nextafter(10.0, 11.0), 10.000001],
    # the double underflow region: Ai(x) < 2.2e-308 from x ~ 103.9 on
    np.linspace(103.0, 106.0, 25),
])
# far on the oscillating side, where the phase zeta = 2/3 |x|^(3/2) is large
AIRY_FAR_NEGATIVE = np.array([-20.5, -50.0, -200.0, -1e3, -1e4, -1e5])


def _mpmath_airy(x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return np.array([float(mpmath.airyai(mpmath.mpf(float(v)))) for v in x])


def _airy_envelope(x):
    return np.maximum(np.abs(x), 1.0) ** -0.25 / math.sqrt(math.pi)


def test_airy_matches_mpmath_on_every_series():
    ref = _mpmath_airy(AIRY_POINTS)
    err = np.abs(airy_ai(AIRY_POINTS) - ref)
    pos = AIRY_POINTS > 0
    # relative for x > 0, down to the smallest normal double (1.7e-15
    # measured, near x = 2 where Q is summed with cancellation)
    assert np.all(err[pos] <= 4e-15 * np.abs(ref[pos]) + np.finfo(float).tiny)
    # relative to the oscillation envelope |x|^(-1/4)/sqrt(pi) for x <= 0
    # (6.3e-16 measured)
    assert np.all(err[~pos] <= 2e-15 * _airy_envelope(AIRY_POINTS[~pos]))


def test_airy_phase_and_modulus_share_one_map():
    # _airy_neg evaluates M and phi at the one argument of the M map
    from atispec import _airy_tables as tab

    assert tab.PHI_SCALE == tab.M_SCALE and tab.PHI_SHIFT == tab.M_SHIFT


def test_airy_far_negative_beats_scipy():
    # beyond x = -20 the bound is 1e-13 of the envelope, or twice the error
    # of scipy's cephes airy at the same point if that is smaller
    from scipy import special as sp

    x = AIRY_FAR_NEGATIVE
    ref = _mpmath_airy(x)
    env = _airy_envelope(x)
    scipy_err = np.abs(sp.airy(x)[0] - ref) / env
    err = np.abs(airy_ai(x) - ref) / env
    assert np.all(err <= np.minimum(1e-13, 2.0 * scipy_err))


def test_airy_scalar_contract_and_special_values():
    special = [math.inf, -math.inf, math.nan, 1e300, -1e300]
    points = np.concatenate([AIRY_POINTS, AIRY_FAR_NEGATIVE, special])
    array = airy_ai(points)
    for x, want in zip(points, array):
        for arg in (float(x), np.array(x), np.float64(x)):
            got = airy_ai(arg)
            assert type(got) is float
            # a scalar call gives the bits of the array call
            assert got == want or (math.isnan(got) and math.isnan(want))
    assert all(math.isnan(airy_ai(x)) for x in (math.inf, -math.inf, math.nan, -1e300))
    assert airy_ai(1e300) == 0.0
    arr = airy_ai(np.array([[1.0, 12.0], [math.nan, math.inf]]))
    assert arr.shape == (2, 2) and arr.dtype == np.float64
    assert airy_ai(np.array([])).shape == (0,)


# orders and arguments of the J_N kernel checks: every path (power series,
# recurrence from _N_UNIFORM, recurrence across the turning point, the
# uniform expansion itself) and x/N up to 1 - 1e-7
JN_ORDERS = [1, 2, 3, 5, 8, 13, 20, 30, 39, 40, 41, 55, 86, 87, 120, 200, 290, 500, 1000, 2000]
JN_FRACTIONS = [1e-9, 1e-4, 0.01, 0.1, 0.25, 0.4, 0.55, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99,
                0.999, 0.9999, 1 - 1e-5, 1 - 1e-7]


def _jn_points():
    pts = [(n, f * n) for n in JN_ORDERS for f in JN_FRACTIONS]
    pts += [(n, x) for n in JN_ORDERS for x in (0.5, 0.999, 1.0, 1.001, 3.0) if x < n]
    return np.array([p[0] for p in pts]), np.array([p[1] for p in pts])


def test_jn_kernel_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    n, x = _jn_points()
    got = specfun._jn(n, x)
    with mpmath.workdps(40):
        for order, arg, value in zip(n.tolist(), x.tolist(), got.tolist()):
            ref = mpmath.besselj(order, mpmath.mpf(arg))
            if abs(ref) < mpmath.mpf("1e-280"):
                continue
            assert abs(value / ref - 1) <= 2e-13, (order, arg)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 2000), st.floats(0.0, 1.0, exclude_max=True)),
                min_size=1, max_size=40))
def test_jn_row_bits_do_not_depend_on_the_rest_of_the_call(rows):
    n = np.array([r[0] for r in rows])
    x = np.array([r[0] * r[1] for r in rows])
    together = specfun._jn(n, x)
    alone = np.array([specfun._jn(np.array([a]), np.array([b]))[0] for a, b in zip(n, x)])
    assert np.array_equal(together, alone)
    assert np.array_equal(specfun._jn(n[::-1], x[::-1]), together[::-1])


def test_jn_at_and_just_past_the_turning_point_against_mpmath():
    # rounding may take a tag's argument to x = N or one double past it, where
    # the kernel recurs down from its start orders; it holds its bound there
    mpmath = pytest.importorskip("mpmath")
    orders = [1, 5, 30, 100, 400, 2000]
    n = np.repeat(orders, 2)
    x = np.array([v for o in orders for v in (float(o), np.nextafter(float(o), math.inf))])
    got = specfun._jn(n, x)
    with mpmath.workdps(40):
        for order, arg, value in zip(n.tolist(), x.tolist(), got.tolist()):
            ref = mpmath.besselj(order, mpmath.mpf(arg))
            assert abs(value / ref - 1) <= 2e-13, (order, arg)


def test_jn_special_values_and_shapes():
    assert np.array_equal(specfun._jn(np.array([1, 7, 300]), np.zeros(3)), np.zeros(3))
    assert specfun._jn(np.array([], dtype=int), np.array([])).shape == (0,)
    # far below the turning point J_N underflows to 0 without a warning
    with np.errstate(all="raise", under="ignore"):
        assert specfun._jn(np.array([400]), np.array([1.5]))[0] == 0.0


@pytest.mark.parametrize("fault", [1e-6, -3e-4])
def test_jn_fault_applies_on_every_path(fault):
    n, x = _jn_points()
    n, x = np.concatenate([n, [5]]), np.concatenate([x, [9.0]])
    clean = specfun._jn(n, x)
    specfun.set_bessel_fault(fault)
    try:
        faulted = specfun._jn(n, x)
    finally:
        specfun.set_bessel_fault(0.0)
    np.testing.assert_allclose(faulted, clean * (1.0 + fault * np.cos(1.3 * n + 0.7 * x)),
                               rtol=1e-15, atol=0.0)


def test_bessel_airy_direct_substitution():
    want = (2 / 100) ** (1 / 3) * airy_ai(50 ** (2 / 3))
    np.testing.assert_allclose(bessel_airy_approx(100, 0.0), want, rtol=1e-14)


def test_bessel_airy_near_turning_point():
    # (100, 99.5) sits at the turning point where the approximation is best
    exact = ordinary_bessel(100, 99.5)
    assert abs(bessel_airy_approx(100, 99.5) - exact) <= 0.05 * abs(exact)


@pytest.mark.parametrize("n", [50, 100, 200])
def test_bessel_airy_window_scan(n):
    # deviation measured against the scan maximum over x/N in [0.80, 0.999]
    xs = np.linspace(0.80 * n, 0.999 * n, 60)
    exact = np.array([ordinary_bessel(n, x) for x in xs])
    approx = np.array([bessel_airy_approx(n, x) for x in xs])
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(approx - exact)) <= 0.05 * scale


def test_bessel_airy_domain_checks():
    with pytest.raises(ValueError):
        bessel_airy_approx(0, 0.0)
    with pytest.raises(ValueError):
        bessel_airy_approx(50, 60.0)


def test_fault_hook_breaks_recurrence_identity():
    # an order-dependent 1e-6 perturbation must trip the recurrence;
    # clean build satisfies it to ~1e-13 of the term scale
    n, u, v, d = 4, 8.0, 2.0, 0.3

    def residual():
        j = {m: gen_bessel(m, u, v, d) for m in range(n - 2, n + 3)}
        lhs = 2 * n * j[n]
        rhs = u * (j[n - 1] + j[n + 1]) + 2 * v * (
            np.exp(-2j * d) * j[n - 2] + np.exp(2j * d) * j[n + 2]
        )
        return abs(lhs - rhs) / (abs(u) + abs(v) + abs(n) + 1)

    clean = residual()
    assert clean < 1e-9
    specfun.set_bessel_fault(1e-6)
    try:
        assert residual() > 1e-9
    finally:
        specfun.set_bessel_fault(0.0)
