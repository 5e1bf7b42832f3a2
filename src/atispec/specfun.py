"""Special functions for two-harmonic phase modulation problems.

Provides the ordinary Bessel function J_n(x), the complex three-argument
generalized Bessel function J_n(u, v, delta) that arises when a plane-wave
phase carries both sin(theta) and sin(2*theta) harmonics, the Airy function
Ai(x), and the large-order Airy approximation of J_N(x), with numpy alone.
The series route reads every ordinary-Bessel value of a chunk of rows from
one backward recurrence (Miller's algorithm, _JTable), and ordinary_bessel
reads the same kernel.  The batched single-order calls of tags 44 and 56
(_jn) sum Olver's uniform expansion below the turning point, with a short
backward recurrence where it does not reach and the leading power-series
term at tiny arguments.  Ai and the kernel's tables come from _airy_tables.

Two independent evaluation routes are kept for the generalized function:
a truncated bilinear series over ordinary Bessel factors, and a trapezoid
quadrature of the defining oscillatory integral (spectrally accurate for
periodic integrands).  The quadrature route is the validation oracle and
never shares code with the series route.
"""

from __future__ import annotations

import math

import numpy as np

from . import _airy_tables as _tab

__all__ = [
    "BesselRangeError",
    "ordinary_bessel",
    "gen_bessel",
    "gen_bessel_orders",
    "gen_bessel_quadrature",
    "airy_ai",
    "airy_ai_asymptotic",
    "bessel_airy_approx",
    "set_bessel_fault",
]

# supported box for the ordinary Bessel function
MAX_ORDER = 2000
MAX_ARGUMENT = 5000.0

# series truncation: a series stops once its tail bound is below REL_TOL of
# the largest partial sum, magnitudes below ABS_FLOOR counting as zero; its
# orders may not pass the box |m| <= 2 MAX_ORDER (BesselRangeError)
REL_TOL = 1e-12
ABS_FLOOR = 1e-12
# cells of one _series_rows sweep, arguments x (orders of the table + the 3
# _MILLER_BLOCK rows a recurrence keeps beside them): a bound on its memory
_TABLE_CELLS = 2**18
# cells of one slab of _entry_sums' windowed product, terms x orders x rows
# (one term at least): a bound on its memory
_SLAB_CELLS = 2**14
# quadrature nodes beyond the integrand bandwidth (even)
QUAD_POINTS = 256


class BesselRangeError(ValueError):
    """Order or argument outside the supported evaluation box."""


def _reduce_angle(delta: float) -> float:
    # reduce to (-pi, pi]
    d = math.remainder(delta, 2.0 * math.pi)
    if d <= -math.pi:
        d += 2.0 * math.pi
    return d


def phase_exp(m, delta: float):
    """exp(i m delta) for integer m, exact at the special angles 0, +-pi,
    +-pi/2 (the angles produced by pure linear/circular polarization, where
    spurious phase roundoff would otherwise leak into real quantities)."""
    m = np.asarray(m)
    if delta == 0.0:
        out = np.ones(m.shape)
    elif abs(delta) == math.pi:
        out = np.where(m % 2 == 0, 1.0, -1.0)
    elif abs(delta) == math.pi / 2:
        sign = 1.0 if delta > 0 else -1.0
        table = np.array([1 + 0j, sign * 1j, -1 + 0j, -sign * 1j])
        out = table[np.asarray(m) % 4]
    else:
        out = np.exp(1j * m * delta)
    return out if out.ndim else out[()]


# --------------------------------------------------------------------------
# ordinary Bessel function

_FAULT_EPS = 0.0


def set_bessel_fault(eps: float) -> None:
    """Testing hook: perturb J_n(x) by a relative, order/argument-dependent
    amount ~eps.  Used by the self-test to prove the identity checks trip.
    Never enable outside of fault-injection tests.  Raises ValueError on a
    non-finite eps."""
    global _FAULT_EPS
    eps = float(eps)
    if not math.isfinite(eps):
        raise ValueError(f"Bessel fault must be finite, got {eps!r}")
    _FAULT_EPS = eps


def _faulted(n, x, val):
    """val perturbed by the injected fault at orders n and arguments x."""
    if _FAULT_EPS == 0.0:
        return val
    return val * (1.0 + _FAULT_EPS * np.cos(1.3 * np.asarray(n, dtype=float) + 0.7 * np.asarray(x, dtype=float)))


# --------------------------------------------------------------------------
# ordinary-Bessel tables: Miller's backward recurrence

# A sweep starts at the order where the Debye estimate of J_S(x) is 2^-1000,
# with the value 2^-1000, so that the unnormalized values run at about the
# scale of J itself.
_MILLER_LOG = 1000.0 * math.log(2.0)
_MILLER_START = 2.0 ** -1000
# below this |x|, J_0 = 1, J_1 = x/2 and J_m = 0 for m >= 2, correctly rounded
_MILLER_TINY = 2.0 ** -1000
# the recurrence coefficients are computed this many steps at a time
_MILLER_BLOCK = 16


def _start_orders(x):
    """Start order S(x) of the backward recurrence at each x of a 1-D
    array in [2^-1000, MAX_ARGUMENT]: the first integer m > x at which the
    Debye estimate J_m(x) ~ exp(s - m a) / sqrt(2 pi s), with
    s = sqrt(m^2 - x^2) and cosh a = m / x (DLMF 10.19.3), falls to 2^-1000.
    Its exponent is increasing and convex in m there, so three Newton steps
    from the upper bound x + 82 x^(1/3) + 150 converge from above, to within
    1e-3 of an order."""
    m = x + 82.0 * np.cbrt(x) + 150.0
    for _ in range(3):
        s = np.sqrt((m - x) * (m + x))
        a = np.log((m + s) / x)
        m -= (m * a - s + 0.5 * np.log(2.0 * math.pi * s) - _MILLER_LOG) / (a + m / (2.0 * s * s))
    return np.ceil(m).astype(np.int64)


def _miller(x, top: int, out):
    """J_m(x) for m = 0..top at each x of a 1-D array in
    [2^-1000, MAX_ARGUMENT], written into the zeros of out, of shape
    (top + 1, x.size), column j for x[order[j]]; returns order.  Miller's
    algorithm (A&S 9.12, DLMF 10.74(iv), Numerical Recipes 6.5).

    Each row runs f_{m} = (2(m+1)/x) f_{m+1} - f_{m+2} from f_{S+1} = 0 and
    f_S = 2^-1000 at its own start order S(x) (_start_orders) down to order
    0, keeps the orders <= top, and divides by f_0 + 2 sum f_2k, because
    J_0 + 2 sum J_2k = 1.  J_S(x) is about 2^-1000, so f stays near the
    scale of J (below 2^1004 even at x = 2^-1000) and is never rescaled;
    the orders above S read 0.  The orders above top run through a ring of
    2 _MILLER_BLOCK rows with the same arithmetic, so top decides only which
    orders are kept: a taller table holds the same bits at every order of
    a shorter one, and _series_rows builds its tables up to the orders of
    a row's next truncation on that account.

    A row's bits depend on its x alone.  The rows are sorted by S and the
    orders run in blocks of _MILLER_BLOCK; a block runs on the prefix of
    rows that start at or above its lowest order, and a row that starts
    inside the block holds exact zeros until its start value is set.  Each
    coefficient 2(m+1)/x is a correctly rounded quotient (m+1 times a
    rounded 2/x would shift the argument of every row by its rounding
    error, 2e-13 of the envelope at x = 5000).  A step is two numpy calls,
    plus one every other step for the normalization sum.
    """
    s = _start_orders(x)
    by_start = np.argsort(-s, kind="stable")
    xs, s = x[by_start], s[by_start]
    rows, s_top, block = xs.size, int(s[0]), _MILLER_BLOCK
    # the rows [a, b) of xs start at order m, for each distinct m, descending
    cut = np.flatnonzero(s[1:] != s[:-1]) + 1
    starts = list(zip(s[np.r_[0, cut]].tolist(), [0, *cut.tolist()], [*cut.tolist(), rows]))
    starts.append((-1, 0, 0))
    los = np.arange(s_top - s_top % block, -1, -block)
    widths = np.searchsorted(-s, -los, side="right").tolist()
    table = out
    ring = np.zeros((2 * block, rows))  # order m > top sits in row m % (2 block)
    zero, acc = np.zeros(rows), np.zeros(rows)  # acc: f at the even orders >= 2

    def order(m):
        return table[m] if m <= top else ring[m % (2 * block)] if m <= s_top else zero

    mul, sub = np.multiply, np.subtract
    event = 0
    for lo, width in zip(los.tolist(), widths):
        hi = min(lo + block - 1, s_top)
        ms = np.arange(hi + 1, lo, -1.0)  # m + 1
        coef = np.divide.outer(ms + ms, xs[:width])
        split = min(max(hi - top, 0), hi - lo + 1)  # orders above top come first
        r = lo % (2 * block) + hi - lo + 1
        outs = list(ring[r - split:r, :width][::-1]) + list(table[lo:hi + 1 - split, :width][::-1])
        f1, f2, acc_w = order(hi + 1)[:width], order(hi + 2)[:width], acc[:width]
        for c, f0, m in zip(coef, outs, range(hi, lo - 1, -1)):
            mul(c, f1, f0)
            sub(f0, f2, f0)
            if m == starts[event][0]:
                _, a, b = starts[event]
                f0[a:b] = _MILLER_START
                event += 1
            if m and not m & 1:
                acc_w += f0
            f2, f1 = f1, f0
    table /= table[0] + 2.0 * acc
    return by_start


def _check_series_box(top: int, largest: float) -> None:
    """Raise BesselRangeError unless a series table of the orders up to top
    and arguments up to |x| = largest fits the box |m| <= 2 MAX_ORDER,
    |x| <= MAX_ARGUMENT (a recurrence takes about |x| steps); a NaN
    argument fails too."""
    if top > 2 * MAX_ORDER or not largest <= MAX_ARGUMENT:
        raise BesselRangeError(
            f"series requires ordinary-Bessel values beyond the supported box "
            f"|m|<={2 * MAX_ORDER}, |x|<={MAX_ARGUMENT}"
        )


class _JTable:
    """J_m(x) at the orders |m| <= top for a 1-D array of arguments x, from
    one backward recurrence (_miller) over their distinct |x|; a |x| below
    2^-1000 (0 included) takes J_0 = 1, J_1 = |x|/2 and 0 beyond, correctly
    rounded.  Orders past 2 MAX_ORDER and arguments past MAX_ARGUMENT (a
    recurrence takes about |x| steps) raise BesselRangeError.

    The table keeps, for each position of x, the column of its |x|
    (np.unique's inverse) and its signed value, so a read names the
    positions it wants and never searches.  table(offsets, at, first)
    reads J at the signed orders offsets[i] + first[r] for the arguments
    x[at] through J_{-m}(x) = J_m(-x) = (-1)^m J_m(x), with the injected
    fault applied at the signed order, in the layout (orders, rows): orders
    on axis 0 and one row per position on the contiguous last axis, the
    layout of the series contraction (_entry_sums).  A read is one np.take
    on the flat table at |m| ncols + col, whose index is one outer sum of
    the 1-D offsets and each position's first order and column; the
    absolute order and the sign are worked out only where a sign can flip,
    that is where m is odd and exactly one of m and x is negative.
    _jn_table and _jn read through it too, at every position.
    """

    def __init__(self, x, top: int):
        self.x = np.asarray(x, dtype=float)
        ax, inverse = np.unique(np.abs(self.x), return_inverse=True)
        _check_series_box(top, ax[-1] if ax.size else 0.0)
        tiny = int(np.searchsorted(ax, _MILLER_TINY))
        self.values = np.zeros((top + 1, ax.size))
        self.values[0, :tiny] = 1.0
        self.values[1:2, :tiny] = ax[:tiny] / 2.0
        col = np.arange(ax.size)  # the column of values for each |x|
        if tiny < ax.size:
            col[tiny + _miller(ax[tiny:], top, self.values[:, tiny:])] = col[tiny:].copy()
        self.col = col[inverse]

    def __call__(self, offsets, at, first=0):
        """J_m(x[at]) at the orders m = offsets[i] + first[r], shape
        (offsets.size, positions), for a 1-D integer array of offsets.

        first 0 reads one column of orders at every position: |m| is taken
        on the 1-D offsets, and the sign is (-1)^m where exactly one of m
        and x is negative, a column-sign product on the odd orders (one
        sign per order, times one per position where the positions' x
        have both signs).  first a 1-D integer array of one order per
        position (a J(u) lookup of _entry_sums, or _jn's one order per
        point) reads |m| and applies the sign on the leading offsets whose
        orders go negative at some position when no x is negative, and on
        every offset otherwise.
        """
        x, col = self.x[at], self.col[at]
        ncols = self.values.shape[1]
        neg = x < 0
        if np.ndim(first) == 0:
            m = offsets + first
            val = np.take(self.values, np.add.outer(np.abs(m) * ncols, col))
            # J_m(x) = s_m s_x J_|m|(|x|) at odd m, with s_m = -1 where m < 0 and
            # s_x = -1 where x < 0: a column-sign product on the odd orders
            odd = np.flatnonzero(m & 1 if neg.any() else (m & 1) & (m < 0))
            if odd.size:
                rows = slice(odd[0], odd[-1] + 1, 2) if (np.diff(odd) == 2).all() else odd
                sx = -1.0 if neg.all() else np.where(neg, -1.0, 1.0) if neg.any() else 1.0
                val[rows] *= np.where(m[rows] < 0, -1.0, 1.0)[:, None] * sx
            return _faulted(m[:, None], x, val)
        idx = np.add.outer(offsets * ncols, first * ncols + col)
        # the offsets at which some order is negative; where no x is, the
        # only ones at which a sign can flip
        low = np.flatnonzero(offsets < -first.min())
        span = slice(None) if neg.any() else slice(low[0], low[-1] + 1) if low.size else slice(0)
        m = np.add.outer(offsets[span], first)
        if low.size:
            idx[span] = np.abs(m) * ncols + col
        val = np.take(self.values, idx)
        flip = (m < 0) != neg
        flip &= (m & 1).astype(bool)
        if flip.any():
            # -1.0 where the sign flips, 1.0 elsewhere (np.where of two scalars is slower)
            sign = flip.astype(float)
            sign *= -2.0
            sign += 1.0
            val[span] *= sign
        if _FAULT_EPS:  # the one full mesh of signed orders, under the fault only
            val = _faulted(np.add.outer(offsets, first), x, val)
        return val


def _jn_table(orders, x):
    """J_m(x) at a 1-D integer array of orders m for every entry of a 1-D x,
    shape (x.size, orders.size), from a _JTable of its own, injected fault
    included."""
    return _JTable(x, int(np.max(np.abs(orders), initial=0)))(orders, slice(None)).T


def ordinary_bessel(n: int, x: float) -> float:
    """Ordinary Bessel function J_n(x) of integer order.

    Supported box: |n| <= 2000, |x| <= 5000.  The value is the one the
    series route reads (_jn_table), so gen_bessel(n, x, 0, delta) equals
    it exactly.  Against mpmath, for |n| <= x: within 3.3e-15 of the
    oscillation envelope sqrt(2/(pi x)) up to x = 300 and 3.1e-14 at
    x = 2000; beyond the turning point, 1e-14 relative down to 1e-280.
    """
    if not math.isfinite(x):
        raise BesselRangeError(f"argument must be finite, got {x}")
    n = int(n)
    if abs(n) > MAX_ORDER or abs(x) > MAX_ARGUMENT:
        raise BesselRangeError(
            f"J_{n}({x}) outside supported box |n|<={MAX_ORDER}, |x|<={MAX_ARGUMENT}"
        )
    return float(_jn_table(np.array([n]), np.array([float(x)]))[0, 0])


# --------------------------------------------------------------------------
# generalized Bessel function: series route

def _k_start(v):
    """The first truncation of a series row, ceil(|v| + 10|v|^(1/3) + 10)
    clamped at MAX_ORDER + 1, at every entry of a 1-D v, as one numpy
    expression.  A row at the clamp reads orders past the box
    |m| <= 2 MAX_ORDER and raises BesselRangeError, as it would at its
    unclamped K; the clamp keeps the int cast finite for |v| up to 1e300."""
    av = np.abs(v)
    return np.ceil(np.minimum(av + 10.0 * av ** (1.0 / 3.0) + 10.0, MAX_ORDER + 1)).astype(np.int64)


def _chunks(series, live, width):
    """The chunks of row positions of a _series_rows pass, each a list of
    (entry, open rows): from position 0 up, the most positions at which the
    u and v of the live entries take at most width distinct |x| (one
    position at least), so that the chunk's table has at most width
    columns.  _series_rows takes width from the pass's table top, the
    orders of its rows' next truncation, so a chunk's table holds every
    round that its rows run on it within _TABLE_CELLS.

    Each chunk looks ahead through a window of positions from its start,
    doubled until it holds width + 1 distinct |x| or reaches the end: the
    first appearances inside the window are those of the whole suffix, so
    the chunk ends where a scan of the suffix would end it, and planning
    costs about the rows of the chunks, not chunks x rows."""
    lo, end = 0, max(t.size for _, t in live)
    while lo < end:
        # the first window: about the fewest positions that can hold width + 1 |x|
        hi, span = end, width // (2 * len(live)) + 1
        while True:
            stop = min(lo + span, end)
            pos = np.concatenate([np.arange(lo, min(stop, t.size)) for _, t in live for _ in (0, 3)])
            if pos.size > width:  # else every |x| fits, distinct or not
                ax = np.abs(np.concatenate([series[i][x][t[lo:stop]]
                                            for i, t in live for x in (0, 3)]))
                by_pos = np.argsort(pos, kind="stable")
                # the position at which each distinct |x| first appears, ascending
                first = np.sort(pos[by_pos][np.unique(ax[by_pos], return_index=True)[1]])
                if first.size > width:
                    hi = max(int(first[width]), lo + 1)
                    break
            if stop == end:
                break
            span *= 2
        yield [(i, t[lo:hi]) for i, t in live if t.size > lo]
        lo = hi


def _entry_sums(table, at, entry, t, K, dtype):
    """The partial sums |k| <= K of a _series_rows entry at its rows t, from
    one table whose arguments hold u[t] at the positions at[0] and v[t] at
    at[1], shape (count, rows), and the tail bound of each row:
    2 (|J_{K+1}(v)| + |J_{K+2}(v)|).

    The lookups are laid out (orders, rows), rows on the contiguous axis:
    ju holds J_{first + 2i}(u) for i = -k_top .. count - 1 + k_top, and
    J_{first + 2j - 2k}(u) over every term k and order j is one as_strided
    window of it, with a negative stride over the terms.  The terms run in
    slabs of at most _SLAB_CELLS cells (terms x orders x rows; one term at
    least): a slab is one product of the window by its weights
    exp(-2ik delta) J_k(v) (0 where |k| > K of the row), the running sum
    so far added into its first plane, and one sum over its terms into
    the running sum.  Every row and order so sees the additions of one
    term at a time from k = -k_top up, starting from +0.0, whatever the
    slab bound and the row count.  The sum is np.add.reduce over the terms
    where the kept axes (orders x rows) hold more than one element: its
    inner loop runs over them, so it adds the terms in sequence.  Where
    they hold one element (a one-row entry of one order) np.add.reduce
    would sum pairwise and move the last bits, so the sum is
    np.add.accumulate there.  The weights skip the phase at the scalar
    delta 0, where it is 1, and the |k| > K mask where every row has
    K = k_top.  Lookups and slabs are freed on return, before the next
    entry's."""
    _, first, count, _, delta = entry
    k_top = int(K.max())
    terms = 2 * k_top + 1
    ju = table(np.arange(-2 * k_top, 2 * (count - 1 + k_top) + 1, 2), at[0], first[t])
    jk = table(np.arange(-k_top, k_top + 3), at[1])
    rows = np.arange(t.size)
    tail = 2.0 * (np.abs(jk[K + k_top + 1, rows]) + np.abs(jk[K + k_top + 2, rows]))
    # J_{first + 2j - 2k}(u) for k = l - k_top is the plane 2 k_top + j - l of ju
    window = np.lib.stride_tricks.as_strided(
        ju[2 * k_top:], (terms, count, t.size), (-ju.strides[0], *ju.strides), writeable=False)
    step = max(_SLAB_CELLS // (count * t.size), 1)
    slab = np.empty((min(step, terms), count, t.size), dtype=dtype)
    acc = np.zeros((count, t.size), dtype=dtype)
    clip = bool((K < k_top).any())
    for lo in range(0, terms, step):
        ks = np.arange(lo - k_top, min(lo + step, terms) - k_top)[:, None]
        weights = jk[lo:lo + ks.size]  # a view: the mask below zeros cells no later read needs
        if np.ndim(delta):
            weights = weights * np.exp(-2j * ks * delta[t])
        elif delta != 0.0:
            weights = weights * phase_exp(-2 * ks, delta)
        if clip:
            weights[np.abs(ks) > K] = 0.0
        s = slab[:ks.size]
        np.multiply(window[lo:lo + ks.size], weights[:, None], out=s)
        s[0] += acc
        if acc.size > 1:
            np.add.reduce(s, axis=0, out=acc)
        else:
            np.add.accumulate(s, axis=0, out=s)
            acc[...] = s[-1]
    return acc, tail


def _reach(entry, t, K):
    """A bound on the orders that _entry_sums reads for the rows t of an
    entry at truncations K: |first - 2K| and first + 2 (count - 1 + K)."""
    return 2 * int(K.max()) + int(np.abs(entry[1][t]).max()) + 2 * entry[2]


def _grow(K):
    """The truncation after K of a row that fails its tail bound."""
    return (K * 1.5).astype(int) + 8


def _series_rows(series):
    """Bilinear series sum_k exp(-2ik delta) J_{n-2k}(u) J_k(v) for each
    (u, first, count, v, delta) of a list: the orders first, first + 2,
    ... (count of them) at every row of (u, first, v, delta), first an
    integer array; a list of (rows, count) arrays.  delta is one scalar
    for every row, whose phases come from phase_exp, or (the elliptic
    rescattering series) a 1-D array of one value per row, whose phases
    come from np.exp.

    Each row has its own truncation |k| <= K: it starts where a one-point
    call in that row's v starts and grows to K' = 1.5 K + 8 (_grow) only
    while the row fails its own tail bound.  A row whose orders pass the
    box |m| <= 2 MAX_ORDER raises BesselRangeError (_JTable), which is the
    series' one limit: every row it sums has K < MAX_ORDER.  Every J value,
    J(u) and J(v) alike, comes from one _JTable per chunk of row positions
    of every entry, over the u and v of its open rows, with at most
    _TABLE_CELLS cells counted over their distinct |x| (_chunks; entries
    that share one u array sweep it once; a chunk's table is freed before
    the next is built).  A chunk's table holds the orders that its rows
    read at K and at K' (_reach), the latter up to the box
    |m| <= 2 MAX_ORDER, so the rows that the first truncation leaves open
    finish on it, and so do later rounds while an entry's orders stay
    within its top.  Only the rows whose orders pass it go on to a new
    table, planned by the same rule at their own K.  A table's top decides
    which orders a sweep keeps, never a value's bits.  An entry reads its u
    and v by their positions in the table's arguments.  The terms are
    added one k at a time from k = -K up (_entry_sums, rows on the
    contiguous axis), and rows with a smaller K than the widest row of
    their entry see zero terms in its place, so every row equals its
    one-point call bit for bit.  A result is real when its delta is the
    scalar 0 or +-pi, and complex otherwise.
    """
    k_row = [_k_start(s[3]) for s in series]
    out = [np.empty((s[3].size, s[2]), complex if np.ndim(s[4]) else phase_exp(2, s[4]).dtype)
           for s in series]
    live = [(i, np.arange(s[3].size)) for i, s in enumerate(series) if s[3].size]
    while live:
        # the orders of every live row at its K, and at its K' within the box
        top = max(max(_reach(series[i], t, k_row[i][t]) for i, t in live),
                  min(max(_reach(series[i], t, _grow(k_row[i][t])) for i, t in live),
                      2 * MAX_ORDER))
        later = {}  # the open rows of each entry whose orders pass their table's top
        for chunk in _chunks(series, live, _TABLE_CELLS // (top + 1 + 3 * _MILLER_BLOCK)):
            table = _JTable(np.concatenate([series[i][x][t] for i, t in chunk for x in (0, 3)]),
                            top)
            at = 0
            for i, t in chunk:
                # the positions of u[t] (row 0) and v[t] (row 1) among the table's arguments
                pos = np.arange(at, at + 2 * t.size).reshape(2, t.size)
                at += 2 * t.size
                K = k_row[i][t]
                while t.size and _reach(series[i], t, K) <= top:
                    acc, tail = _entry_sums(table, pos, series[i], t, K, out[i].dtype)
                    bound = REL_TOL * np.maximum(np.max(np.abs(acc), axis=0), ABS_FLOOR)
                    ok = tail <= bound
                    out[i][t[ok]] = acc[:, ok].T
                    t, pos, K = t[~ok], pos[:, ~ok], _grow(K[~ok])
                if t.size:
                    k_row[i][t] = K
                    later.setdefault(i, []).append(t)
            del table  # before the next chunk's table is built
        live = [(i, np.concatenate(later[i])) for i in sorted(later)]
    return out


def gen_bessel_orders(n_lo: int, n_hi: int, u, v, delta: float) -> np.ndarray:
    """J_n(u, v, delta) for all integer n in [n_lo, n_hi] at once.

    Evaluates the bilinear series sum_k exp(-2ik delta) J_{n-2k}(u) J_k(v),
    truncated at |k| <= K.  K starts at ceil(|v| + 10|v|^(1/3) + 10) and is
    enlarged until the tail bound drops below REL_TOL of the running sums
    (with ABS_FLOOR as the small-value cutoff); a series whose orders pass
    the box |m| <= 2 MAX_ORDER raises BesselRangeError.  The even and the
    odd orders of the range are two series, each with one truncation index
    for all its orders; the tail bound max_n |J_{n-2k}(u)| <= 1 makes it
    independent of n and u.  Both series read their J values from one
    backward recurrence (_series_rows).

    Scalar u and v give a 1-D array over the orders.  Equal-length 1-D
    arrays u and v (one shared delta) give one row per point, every J(u)
    and J_k(v) value read from one table per chunk of rows.  K is
    kept per row: each row starts at its own K and grows only while it
    fails its own tail bound, so every row equals the scalar call at its
    (u, v) exactly.
    """
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    v_arr = np.atleast_1d(np.asarray(v, dtype=float))
    if u_arr.ndim != 1 or u_arr.shape != v_arr.shape or u_arr.size == 0:
        raise ValueError("u and v must be scalars or equal-length non-empty 1-D arrays")
    if not (np.all(np.isfinite(u_arr)) and np.all(np.isfinite(v_arr)) and math.isfinite(delta)):
        raise ValueError("generalized Bessel arguments must be finite")
    delta = _reduce_angle(float(delta))
    n_lo, n_hi = int(n_lo), int(n_hi)
    if n_hi < n_lo:
        raise ValueError("empty order range")
    series = [(u_arr, np.full(u_arr.size, first), (n_hi - first) // 2 + 1, v_arr, delta)
              for first in range(n_lo, min(n_lo + 1, n_hi) + 1)]
    out = np.empty((u_arr.size, n_hi - n_lo + 1), dtype=complex)
    for first, rows in zip(range(n_lo, n_hi + 1), _series_rows(series)):
        out[:, first - n_lo::2] = rows
    return out[0] if scalar else out


def gen_bessel(n: int, u: float, v: float, delta: float) -> complex:
    """Complex generalized Bessel function J_n(u, v, delta).

    Reduces exactly to J_n(u) at v = 0 and, at u = 0, to
    exp(-i n delta) J_{n/2}(v) for even n (zero for odd n).
    """
    return complex(gen_bessel_orders(int(n), int(n), u, v, delta)[0])


# --------------------------------------------------------------------------
# generalized Bessel function: quadrature oracle

def quadrature_points(n: int, u: float, v: float) -> int:
    """Node count giving spectral accuracy for the periodic integrand."""
    m = 2 * (abs(int(n)) + math.ceil(abs(u)) + 2 * math.ceil(abs(v))) + QUAD_POINTS
    return m + (m % 2)


def gen_bessel_quadrature(n: int, u: float, v: float, delta: float) -> complex:
    """Oracle evaluation of J_n(u, v, delta) by trapezoid quadrature of

        (2 pi)^-1 integral_{-pi}^{pi} exp[i(u sin(t + delta)
                                            + v sin 2t - n(t + delta))] dt.

    The integrand is entire and 2*pi periodic, so the equispaced trapezoid
    rule converges faster than any power of the node count once the node
    count exceeds the integrand bandwidth; the node formula is
    2(|n| + ceil|u| + 2 ceil|v|) + QUAD_POINTS.
    """
    if not all(math.isfinite(x) for x in (u, v, delta)):
        raise ValueError("generalized Bessel arguments must be finite")
    n, delta = int(n), _reduce_angle(float(delta))
    m = quadrature_points(n, u, v)
    t = -np.pi + 2.0 * np.pi * np.arange(m) / m
    phase = u * np.sin(t + delta) + v * np.sin(2.0 * t) - n * (t + delta)
    return complex(np.exp(1j * phase).mean())


# --------------------------------------------------------------------------
# Airy function and the large-order Bessel approximation

# points per block of airy_ai: a block holds ~12 temporaries of its size
_AIRY_BLOCK = 8192
# series boundaries of airy_ai: P on x >= 2, Q between, M and phi on x <= -3
_AIRY_X_POS = 2.0
_AIRY_X_NEG = -3.0
# Veltkamp splitting constant 2^27 + 1 for Dekker's exact product
_SPLIT = 134217729.0


def _split(a):
    """Veltkamp's split a == hi + lo into two halves of 26 bits each, so
    that products of halves are exact."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _prod_err(a, b_hi, b_lo, p):
    """a * (b_hi + b_lo) - p exactly, for p = a * b rounded (Dekker)."""
    a_hi, a_lo = _split(a)
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _airy_zeta(x):
    """zeta = 2/3 x^(3/2) as an unevaluated double-double sum hi + lo.

    Ai(x) ~ exp(-zeta), so a rounded zeta alone would cost zeta * 2^-53
    relative accuracy (1e-13 near x = 100); carrying lo keeps it at 1e-16.
    With r = sqrt(x) and w = x r rounded, x r - w and x - r^2 come exactly
    from products of Veltkamp halves (Dekker; no FMA needed).
    """
    r = np.sqrt(x)
    r_hi, r_lo = _split(r)
    w = x * r
    w_lo = _prod_err(x, r_hi, r_lo, w)
    # x - r^2: every product of halves is exact and both differences are
    # Sterbenz, so d is rounded once
    d = x - r_hi * r_hi
    d -= 2.0 * r_hi * r_lo
    d -= r_lo * r_lo
    d /= r + r
    d *= x
    w_lo += d  # x^(3/2) = w + w_lo
    hi = (w + w) / 3.0
    # 2w - 3 hi == 2 (w - hi) - hi exactly: both differences are Sterbenz
    lo = (2.0 * (w - hi) - hi + 2.0 * w_lo) / 3.0
    return hi, lo


def _chebyshev(coef, t):
    """sum_k coef[k] T_k(t) by Clenshaw's recurrence (len(coef) >= 3), in
    place on three buffers."""
    t2 = t + t
    b1 = t2 * coef[-1]
    b1 += coef[-2]
    b2 = np.full_like(t, coef[-1])
    tmp = np.empty_like(t)
    for c in coef[-3:0:-1]:
        np.multiply(t2, b1, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    np.multiply(t, b1, out=tmp)
    tmp -= b2
    tmp += coef[0]
    return tmp


def airy_ai(x):
    """Airy function Ai(x) of real x; scalar in, scalar out (arrays pass through).

    numpy only: three Chebyshev series from ``_airy_tables`` (written by
    ``tools/make_airy_tables.py`` with mpmath), after Gil, Segura & Temme,
    ACM TOMS 28 (2002) 325.  With zeta = 2/3 |x|^(3/2) as the double-double
    of ``_airy_zeta`` and s = 1/zeta:

    - x >= 2: Ai = exp(-zeta) x^(-1/4) P(s), degree 23;
    - -3 < x < 2: Ai = Q(x), degree 27;
    - x <= -3: Ai = |x|^(-1/4) M(s) cos(phi(s) - zeta), degree 20 each,
      the phase taken as an angle sum on hi and lo of zeta.

    Within 2e-15 relative of mpmath on (0, 104] (down to the double
    underflow there; 5e-16 from x = 2 on) and 7e-16 of the envelope
    |x|^(-1/4)/sqrt(pi) on [-1e5, 0]; ~110 ns per point on the arguments
    of the benchmark's Airy-form rate meshes (2-core Xeon VM).  +-inf and
    NaN give NaN; Ai underflows to 0.0 from x ~ 107 on (1e300 included);
    x < -2e205, where zeta overflows, gives NaN.  A scalar call returns the
    bits of the same point in an array call.
    """
    xa = np.asarray(x, dtype=float)
    out = np.empty(xa.shape)
    x_flat, out_flat = xa.reshape(-1), out.reshape(-1)
    # blocks bound the temporaries (a whole mesh at once would hold ~12
    # mesh-sized arrays); inf and huge |x| run into inf - inf on purpose
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, x_flat.size, _AIRY_BLOCK):
            _airy_block(x_flat[i:i + _AIRY_BLOCK], out_flat[i:i + _AIRY_BLOCK])
    if out.ndim == 0:
        return float(out)
    return out


def _airy_block(x, out):
    """Ai of a 1-D block x into out, one series per mask."""
    pos = x >= _AIRY_X_POS
    if pos.all():
        out[:] = _airy_pos(x)
        return
    neg = x <= _AIRY_X_NEG
    mid = ~(pos | neg)
    out[pos] = _airy_pos(x[pos])
    out[mid] = _chebyshev(_tab.Q_COEF, x[mid] * _tab.Q_SCALE + _tab.Q_SHIFT)
    out[neg] = _airy_neg(x[neg])


def _airy_pos(x):
    """exp(-zeta) x^(-1/4) P(1/zeta) for x >= 2."""
    # Ai underflows to 0 well before x = 1000; clipping keeps the exact
    # products of zeta finite
    xc = np.minimum(x, 1000.0)
    hi, lo = _airy_zeta(xc)
    ai = _chebyshev(_tab.P_COEF, _tab.P_SCALE / hi + _tab.P_SHIFT)
    ai *= np.exp(-hi)
    ai *= 1.0 - lo
    ai /= np.sqrt(np.sqrt(xc))
    ai[x == math.inf] = math.nan
    return ai


def _airy_neg(x):
    """|x|^(-1/4) M(s) cos(phi(s) - zeta), s = 1/zeta, for x <= -3."""
    ax = -x
    hi, lo = _airy_zeta(ax)
    t = _tab.M_SCALE / hi + _tab.M_SHIFT
    # phi - zeta = b - hi with b = phi - lo, so cos(b - hi) as an angle sum
    # keeps the phase to roundoff of b when hi is large
    b = _chebyshev(_tab.PHI_COEF, t) - lo
    wave = np.cos(hi) * np.cos(b) + np.sin(hi) * np.sin(b)
    return _chebyshev(_tab.M_COEF, t) / np.sqrt(np.sqrt(ax)) * wave


def airy_ai_asymptotic(x):
    """Leading large-x decay branch x^(-1/4) exp(-2 x^(3/2) / 3) / (2 sqrt(pi)).

    Within 0.5% of Ai(x) for x >= 8; used for tunneling-limit checks.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("asymptotic branch defined for x > 0")
    val = x ** -0.25 * np.exp(-2.0 * x ** 1.5 / 3.0) / (2.0 * np.sqrt(np.pi))
    return float(val) if val.ndim == 0 else val


def bessel_airy_approx(n: int, x: float) -> float:
    """Large-order approximation J_N(x) ~ (2/N)^(1/3) Ai[(N/2)^(2/3) (1 - x^2/N^2)].

    Valid near and below the turning point x ~ N; accuracy is a few percent
    for N >= 50 and x/N in [0.8, 1).  A small overshoot past x = N is
    allowed since the Airy argument just goes negative there.
    """
    n = int(n)
    if n < 1:
        raise ValueError("order must be >= 1")
    if not (0.0 <= x < 1.1 * n):
        raise ValueError(f"argument {x} outside [0, 1.1*N) for N={n}")
    arg = (n / 2.0) ** (2.0 / 3.0) * (1.0 - (x / n) ** 2)
    return (2.0 / n) ** (1.0 / 3.0) * airy_ai(arg)


# --------------------------------------------------------------------------
# J_N(x) at one order per point: the kernel of tags 44 and 56

# the uniform expansion is summed from this order on, through A_3 and B_3
# (DLMF 10.20.4; its truncation is below 7e-16 relative where y >= 2 from
# here, 7e-17 from order 40)
_N_UNIFORM = 30
# below this argument J_n(x) = (x/2)^n / n! to the last bit, the next term
# of the series being x^2 / (4 (n + 1)) < 2^-56 of it
_X_TINY = 2.0**-27
# n! up to n = 170 (171! overflows); below _X_TINY, (x/2)^n / 170! underflows
# for n > 170
_FACTORIAL = np.array([float(math.factorial(k)) for k in range(171)])
# a row (n, x) is in the far region y = n^(2/3) zeta >= 2 of the expansion
# once n >= x + _TURN_WIDTH x^(1/3) (E >= 2.6 there, at n >= _N_UNIFORM)
_TURN_WIDTH = 2.0
_LOG_HI = np.array(_tab.LOG_HI)
_LOG_LO = np.array(_tab.LOG_LO)


def _jn(n, x):
    """J_n(x) at integer orders n and arguments x, broadcast against each
    other, injected fault included: the single-order calls of tags 44 and
    56, which read J_N at one order per point.

    A point with n >= 1 and 0 <= x < n takes the numpy kernel _jn_below;
    any other point reads the Miller recurrence of _jn_table, so every
    input within its box is served.  A point's bits depend on its (n, x)
    alone.

    On open channels N and theta in [0, pi] both tags keep x at least
    E_B/omega below N, so they never reach the recurrence (public calls at
    theta outside [0, pi] give x < 0 and do).  Tag 44: x = alpha <=
    xi |Pi| / (omega m*), since Pi0 - |Pi| cos theta >= m* sin theta, so
    N - x >= [(Pi0 - eps0) m* - xi |Pi|] / (omega m*) >= E_B/omega, with
    equality at Pi0 = m*^2.  Tag 56: x = sqrt(8 z X) sin theta <= X + 2z =
    N - E_B/omega by AM-GM.
    """
    n, x = np.broadcast_arrays(np.asarray(n), np.asarray(x, dtype=float))
    shape, n, x = x.shape, n.ravel(), x.ravel()
    below = (n >= 1) & (x >= 0.0) & (x < n)
    if below.all():
        return _faulted(n, x, _jn_below(n, x)).reshape(shape)
    out = np.empty(x.size)
    out[below] = _faulted(n[below], x[below], _jn_below(n[below], x[below]))
    rest = ~below
    n_rest, x_rest = n[rest], x[rest]
    table = _JTable(x_rest, int(np.max(np.abs(n_rest))))
    out[rest] = table(np.zeros(1, dtype=int), slice(None), n_rest)[0]
    return out.reshape(shape)


def _jn_below(n, x):
    """J_n(x) at 1-D integer orders n >= 1 and arguments 0 <= x < n.

    Below x = _X_TINY the leading term of the power series; elsewhere
    Olver's uniform expansion (_uniform) in its far region, at the row's
    own order where that lies in it and otherwise at the two orders from
    start = max(_N_UNIFORM, ceil(x + _TURN_WIDTH x^(1/3))) on, from which
    the row recurs down (_recur_down).  Against mpmath, for 1 <= n <= 2000
    and 0 < x < n wherever |J| >= 1e-280: see the README's tolerance table.
    """
    out = np.empty(x.size)
    tiny = x < _X_TINY
    if tiny.any():
        nt = n[tiny]
        out[tiny] = np.power(x[tiny] / 2.0, nt) / _FACTORIAL[np.minimum(nt, _FACTORIAL.size - 1)]
    rows = np.flatnonzero(~tiny)
    if rows.size:
        nu, xs = n[rows].astype(float), x[rows]
        start = np.maximum(np.ceil(xs + _TURN_WIDTH * np.cbrt(xs)), float(_N_UNIFORM))
        direct = nu >= start
        back = ~direct
        # one _uniform call: the direct rows at nu, the others at start + 1 and start
        xb, sb = xs[back], start[back]
        vals = _uniform(np.concatenate([nu[direct], sb + 1.0, sb]),
                        np.concatenate([xs[direct], xb, xb]))
        k, m = int(np.count_nonzero(direct)), xb.size
        out[rows[direct]] = vals[:k]
        if m:
            out[rows[back]] = _recur_down(nu[back], xb, sb, vals[k:k + m], vals[k + m:])
    return out


def _recur_down(n, x, start, f_up, f_start):
    """J_n(x) from f_up = J_{start+1}(x) and f_start = J_start(x) by the
    backward recurrence J_{m-1} = (2m/x) J_m - J_{m+1}, stable for m > x
    (DLMF 10.74(iv)), each coefficient a correctly rounded quotient.  One
    sweep runs over the rows sorted by their step count start - n, a row
    leaving it once its order is reached, so each row sees only its own
    arithmetic."""
    steps = (start - n).astype(np.intp)
    order = np.argsort(-steps, kind="stable")
    steps, x = steps[order], x[order]
    twice = 2.0 * start[order] + 2.0  # 2m for the order m of the current step
    ring = [f_start[order], np.empty(x.size), f_up[order]]  # f_(start - t) in ring[t % 3]
    live = np.searchsorted(-steps, -np.arange(1, int(steps[0]) + 1), side="right")
    coef = np.empty(x.size)
    for t, w in enumerate(live.tolist(), start=1):
        twice[:w] -= 2.0
        c = coef[:w]
        np.divide(twice[:w], x[:w], out=c)
        c *= ring[(t - 1) % 3][:w]
        np.subtract(c, ring[(t - 2) % 3][:w], out=ring[t % 3][:w])
    out = np.empty(x.size)
    out[order] = np.choose(steps % 3, ring)
    return out


def _uniform(nu, x):
    """J_nu(x) by Olver's uniform expansion (DLMF 10.20.4) through A_3 and
    B_3, at integer orders nu >= _N_UNIFORM and arguments _X_TINY <= x < nu
    in its far region y = nu^(2/3) zeta >= 2 (E >= 4 sqrt(2) / 3):

        J_nu(nu z) = (4 zeta / s^2)^(1/4) [Ai(y) / nu^(1/3) sum_k A_k / nu^(2k)
                     + Ai'(y) / nu^(5/3) sum_k B_k / nu^(2k)],

    s = sqrt(1 - z^2) and 2/3 zeta^(3/2) = E / nu, E from _debye_exponent.
    There Ai(y) = exp(-E) y^(-1/4) P(1/E) and Ai'(y) = -exp(-E) y^(1/4)
    PD(1/E), so J = exp(-E) sqrt(2 / (nu s)) H with

        H = P(sigma) sum_k A_k / nu^(2k) - PD(sigma) sqrt(zeta) sum_k B_k / nu^(2k+1),

    sigma = 1/E, and exp(-E) taken last, from the double-double E.  A_k and
    B_k are their sums over the Debye polynomials (DLMF 10.20.10-11): with
    Z_i = U_i(p) / nu^i, p = 1/s,

        sum_k A_k / nu^(2k) = sum over i + j even <= 6 of v_j sigma^j Z_i,
        sqrt(zeta) sum_k B_k / nu^(2k+1) = -sum over i + j odd <= 7 of u_j sigma^j Z_i,

    whose terms cancel by at most sigma^(i+j) <= 0.53^(i+j) here.
    """
    e_hi, e_lo, s = _debye_exponent(nu, x)
    sigma = 1.0 / e_hi
    p = 1.0 / s
    pp = p * p
    tau = p / nu
    # even[k] = 1 + Z_2 + .. + Z_2k and odd[k] = Z_1 + .. + Z_(2k+1), with
    # Z_i = tau^i sum_l DEBYE_U[i][l] pp^l
    even, odd = [1.0], []
    tau_i = tau.copy()
    for i, coef in enumerate(_tab.DEBYE_U[1:], start=1):
        z = _horner(coef, pp)
        z *= tau_i
        tau_i *= tau
        sums = odd if i % 2 else even
        if sums:
            z += sums[-1]
        sums.append(z)
    # the Z sums that v_j and u_j multiply, j = 0, 1, ..
    a_sum = _horner(_tab.AIRY_V[:7], sigma, (even[3] - 1.0, odd[2], even[2], odd[1],
                                             even[1], odd[0], 1.0))
    b_sum = _horner(_tab.AIRY_U, sigma, (odd[3], even[3], odd[2], even[2], odd[1],
                                        even[1], odd[0], 1.0))
    t = _tab.P_SCALE * sigma + _tab.P_SHIFT
    a_sum += 1.0
    a_sum *= _horner(_tab.P_POLY, t)
    b_sum *= _horner(_tab.PD_POLY, t)
    a_sum += b_sum
    out = np.exp(-e_hi)
    out *= 1.0 - e_lo
    out *= np.sqrt(2.0 / (nu * s))
    out *= a_sum
    return out


def _horner(coef, t, terms=None):
    """sum_k coef[k] t^k by Horner's rule, or sum_k coef[k] terms[k] t^k
    with each terms[k] an array or a scalar."""
    terms = (1.0,) * len(coef) if terms is None else terms
    acc = t * (coef[-1] * terms[-1])
    tmp = np.empty_like(acc)
    for k in range(len(coef) - 2, -1, -1):
        acc += np.multiply(terms[k], coef[k], out=tmp) if np.ndim(terms[k]) else coef[k] * terms[k]
        if k:
            acc *= t
    return acc


def _debye_exponent(nu, x):
    """(E_hi, E_lo, s): E = nu acosh(nu / x) - sqrt(nu^2 - x^2) as the
    unevaluated sum E_hi + E_lo, and s = sqrt(1 - (x / nu)^2), at integer
    orders nu and arguments 0 < x < nu.

    J_nu(x) ~ exp(-E), and E reaches 645 at |J| = 1e-280, so a rounded E
    alone would cost 7e-14 relative there.  Every step is carried in
    double-double: S^2 = nu^2 - x^2 from Dekker's exact x^2; S and
    q = (nu + S) / x each with their rounding error; ln q = k ln 2
    + ln(j / 128) + log1p(d), with hi parts on a 2^-38 grid (from
    _airy_tables), so that k LN2_HI + LOG_HI is exact and so is nu times it
    while nu ln q < 2^15 (nu < 2^11 from x = 1 on, nu < 2^10 from
    x = 2^-27 on; where it is not, E is past 745 and J underflows), and
    |d| < 1/64; and the last two sums exact (Dekker's and Knuth's
    two-sums).  What is left is the rounding of nu (lo part of ln q), below
    2e-15 at nu = 2000.
    """
    # in place where a value dies, to spare the allocations
    x_hi, x_lo = _split(x)
    xx = x * x
    # err = x^2 - xx exactly, from products of halves
    tmp = x_hi * x_lo
    tmp += tmp
    err = x_hi * x_hi
    err -= xx
    err += tmp
    err += np.multiply(x_lo, x_lo, out=tmp)
    nn = nu * nu
    h = nn - xx
    low = np.subtract(nn, h, out=nn)  # nu^2 - x^2 = h + low
    low -= xx
    low -= err
    root = np.sqrt(h)
    r_hi, r_lo = _split(root)
    # h - root^2: the products of halves are exact and the first difference
    # is Sterbenz, as in _airy_zeta
    d = np.subtract(h, r_hi * r_hi, out=h)
    tmp = np.multiply(r_hi, r_lo, out=tmp)
    tmp += tmp
    d -= tmp
    d -= np.multiply(r_lo, r_lo, out=tmp)
    d += low
    root_lo = np.divide(d, np.add(root, root, out=tmp), out=d)  # S = root + root_lo
    a = nu + root
    b = nu - a  # nu + S = a + b, nu >= root
    b += root
    b += root_lo
    q = a / x
    p = q * x
    q_lo = np.subtract(a, p, out=a)  # (nu + S) / x = q + q_lo
    q_lo -= _prod_err(q, x_hi, x_lo, p)
    q_lo += b
    q_lo /= x
    m, k = np.frexp(q)  # q >= 1, so m in [1/2, 1) and k >= 1
    j = np.ceil(m * _tab.LOG_CELLS)
    c = j / _tab.LOG_CELLS
    rest = np.subtract(m, c, out=m)  # exact, in (-1/128, 0]
    rest += np.ldexp(q_lo, -k)
    rest /= c
    cell = j.astype(np.intp) - _tab.LOG_CELLS // 2
    ln_hi = k * _tab.LN2_HI
    ln_hi += _LOG_HI[cell]
    ln_lo = k * _tab.LN2_LO
    ln_lo += _LOG_LO[cell]
    ln_lo += np.log1p(rest, out=rest)
    t = np.multiply(ln_hi, nu, out=ln_hi)
    e = t - root
    # the error of e is exact: t >= root, or the two are within Sterbenz
    e_rest = np.subtract(t, e, out=t)
    e_rest -= root
    e_rest += np.multiply(ln_lo, nu, out=ln_lo)
    e_rest -= root_lo
    e_hi = e + e_rest
    back = e_hi - e
    e_lo = np.subtract(e_hi, back, out=tmp)
    np.subtract(e, e_lo, out=e_lo)
    e_lo += np.subtract(e_rest, back, out=back)
    root += root_lo
    root /= nu
    return e_hi, e_lo, root
