"""Shared numerical core: unit conventions, 1D grids, adaptive quadrature and
format_17g, the %.17g text of every CSV cell the library writes.

Everything here is pure and immutable; natural units (hbar = c = m = 1)
are the default throughout the library.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

MAX_QUAD_DEPTH = 60  # halvings of [a, b]; a refinement round makes _SPLIT_HALVINGS of them
# Most panels a round may leave, checked before its f call: refinement is breadth-first,
# so this caps an unresolvable integrand's memory.
MAX_QUAD_PANELS = 1 << 16
_SPLIT_HALVINGS = 4
_SPLIT = 1 << _SPLIT_HALVINGS  # sub-panels of each panel a round refines


class IntegrationError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the best estimate, NaN when the
    integrand was not finite."""

    def __init__(self, message: str, best_estimate: float = math.nan):
        super().__init__(message)
        self.best_estimate = best_estimate


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants used by every formula in the library.

    Defaults to natural units. SI-flavored presets are applied only at the
    CLI layer; the library formulas never hard-code constants.
    """

    hbar: float = 1.0
    c: float = 1.0
    default_mass: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0 and self.c > 0 and self.default_mass > 0):
            raise ValueError("hbar, c, and default_mass must all be positive")


NATURAL_UNITS = UnitSystem()


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid: points x_min + i*dx for i in [0, count)."""

    x_min: float
    dx: float
    count: int

    def __post_init__(self):
        if not math.isfinite(self.x_min):
            raise ValueError(f"x_min must be finite, got x_min={self.x_min}")
        if not 0 < self.dx < math.inf:
            raise ValueError(f"dx must be positive and finite, got dx={self.dx}")
        if self.count < 2:
            raise ValueError("count must be at least 2")

    @property
    def x_max(self) -> float:
        return self.x_min + (self.count - 1) * self.dx

    def points(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.count)


@dataclass(frozen=True)
class WavePacket:
    """Complex samples on a uniform 1D grid.

    The grid coordinate may be position (a spatial slice) or time (an
    envelope at a fixed position); the operations consuming it say which.
    """

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.count,):
            raise ValueError("values length must match grid count")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def abs2(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def energy(self) -> float:
        """Discrete L2 mass: sum |psi|^2 dx."""
        return float(self.abs2().sum() * self.grid.dx)


def _require_all(ok, values, message: str, error=ValueError):
    """Raise error(message) unless ok holds everywhere, its {} filled with the first entry
    of values where ok fails; write ok as a test NaN fails (x > 0, never not x <= 0)."""
    ok = np.asarray(ok)
    if not ok.all():
        raise error(message.format(np.broadcast_to(values, ok.shape)[~ok][0]))


# QUADPACK qk15 (Piessens et al., 1983) to double precision, outermost node first: Kronrod
# nodes on [-1, 1], their weights, and the 7-point Gauss weights of every second node. As
# in qk15, a rule weights the sums f(c - h x) + f(c + h x) of mirrored nodes; the middle
# node's sum is 2 f(c), so its weights are halved.
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
    0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0])
_WGK = np.array([
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
    0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782 / 2])
_WG = np.array([0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
                0.4179591836734694 / 2])
_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_MIDDLE = _XGK.size - 1
# Offsets from a panel's centre, in its half-widths, of the K15 nodes of its _SPLIT equal
# sub-panels, one row per sub-panel; the middle node of a row is its sub-panel's centre.
_SUB_NODES = (np.arange(1 - _SPLIT, _SPLIT, 2)[:, None] + _NODES) / _SPLIT
# The same nodes of [a, b] as offsets from a (first half of the rows) or from b: a node's
# rounding error then scales with its distance from the nearer end, not from the centre.
_END_NODES = (np.r_[1:_SPLIT:2, 1 - _SPLIT:0:2][:, None] + _NODES) / _SPLIT


def _sub_panels(x, fx, half):
    """Rows (centre, half-width, K15, |K15 - G7|) of the _SPLIT sub-panels of each panel of
    half-width half (a column, or a number for one panel), from their nodes x, one row of
    _NODES per sub-panel, and fx = f(x); a sub-panel's centre is its middle node."""
    fx = fx.reshape(-1, _NODES.size)
    mirrored = fx[:, :_MIDDLE + 1] + fx[:, :_MIDDLE - 1:-1]
    rows = np.empty((4, fx.shape[0] // _SPLIT, _SPLIT))
    rows[0] = x[..., _MIDDLE]
    rows[1] = half / _SPLIT
    np.multiply(rows[1], (mirrored @ _WGK).reshape(rows[1].shape), out=rows[2])
    gauss = rows[1] * (mirrored[:, 1::2] @ _WG).reshape(rows[1].shape)
    np.abs(rows[2] - gauss, out=rows[3])
    return rows.reshape(4, -1)


def integrate(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Gauss-Kronrod (G7/K15) quadrature of f over [a, b].

    f maps an array of abscissae to an array of the same shape. Its first call holds a and
    b, which must give finite values, and the nodes of the 16 equal sub-panels of [a, b];
    each refinement round then makes one call, on the nodes of the 16 equal sub-panels of
    every panel over budget. The result I satisfies |I - integral| <= tol * max(1, |I|)
    within MAX_QUAD_DEPTH halvings of [a, b] (four per round, the first call's split
    included) and MAX_QUAD_PANELS panels, or an IntegrationError carries the best estimate.
    A call whose values are not all finite raises an IntegrationError in its own round,
    naming the first such abscissa in the call and [a, b].
    The rule is absolute below |I| = 1: callers scale f so that I is O(1).
    """
    if not a < b:
        raise ValueError(f"require a < b, got a={a}, b={b}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    half = 0.5 * (b - a)
    first = np.empty(2 + _SUB_NODES.size)
    first[:2] = a, b
    x = first[2:].reshape(_SUB_NODES.shape)
    np.multiply(half, _END_NODES, out=x)
    x[:_SPLIT // 2] += a
    x[_SPLIT // 2:] += b
    fx = f(first)
    if not np.all(np.isfinite(fx[:2])):
        raise ValueError("integrand not finite at interval endpoints")
    nonfinite = f"integrand not finite at x={{}} in [{a}, {b}]"
    _require_all(np.isfinite(fx), first, nonfinite, IntegrationError)
    panels = _sub_panels(x, fx[2:], half)
    for rounds in itertools.count(1):
        total, error = panels[2:].sum(axis=1).tolist()
        budget = tol * max(1.0, abs(total))
        if error <= budget:
            return math.fsum(panels[2].tolist())  # the panels' sum, rounded once
        # Refine every panel whose error exceeds an equal share of the budget;
        # the others keep their values and may be refined in a later round.
        split = panels[3] > budget / panels.shape[1]
        count = panels.shape[1] + (_SPLIT - 1) * int(np.count_nonzero(split))
        if (rounds + 1) * _SPLIT_HALVINGS > MAX_QUAD_DEPTH or count > MAX_QUAD_PANELS:
            raise IntegrationError(f"quadrature did not converge in {rounds} rounds", total)
        centre, half = panels[:2, split, None]
        x = centre[..., None] + half[..., None] * _SUB_NODES
        fx = f(x)
        _require_all(np.isfinite(fx), x, nonfinite, IntegrationError)
        panels = np.concatenate([_sub_panels(x, fx, half), panels[:, ~split]], axis=1)


# format_17g: tables below FORMAT_VECTOR_MIN_CELLS values go through CPython's %, whose
# cost per call is below numpy's; larger ones run in blocks of FORMAT_BLOCK_CELLS values,
# which bound the memory of the byte layouts.
FORMAT_VECTOR_MIN_CELLS = 512
FORMAT_BLOCK_CELLS = 2048
# A value's source row, in bytes: the 17 digits of D at 3..19 (five four-digit chunks, the
# first "000d"), |E| as a chunk at 20..23, the constants ".-+einfa" at 24..31, a NUL at 32
# and its separator from _SEP on. Bytes 0..2 are the "0" of a fixed-point 0.00ddd.
_DOT, _MINUS, _PLUS, _E, _I, _N, _F, _A, _NUL = range(24, 33)
_SEP = 36
_TEXT = 24  # the longest text: "-0.0001" and 17 digits, or "-d." 16 digits "e-308"
# Layout classes: fixed point at E = -4..16 (0..20), then exponents of 2 and 3 digits after
# "+" (21, 22) and after "-" (23, 24), inf and nan. Each has a layout per digit count 1..17.
_EXP_CLASS, _INF_CLASS, _NAN_CLASS, _CLASSES = 21, 25, 26, 27


def _layout(neg, cls, ndig):
    """Source-row offsets of a value's text, by its sign, class and significant digits."""
    out = [_MINUS] if neg and cls != _NAN_CLASS else []
    if cls < _EXP_CLASS:
        e = cls - 4
        if e < 0:
            out += [0, _DOT] + [0] * (-e - 1) + list(range(3, 3 + ndig))
        else:
            out += range(3, 4 + e)
            if ndig > e + 1:
                out += [_DOT, *range(4 + e, 3 + ndig)]
    elif cls < _INF_CLASS:
        out += [3] + ([_DOT, *range(4, 3 + ndig)] if ndig > 1 else [])
        out += [_E, _PLUS if cls < 23 else _MINUS]
        out += [22, 23] if cls in (21, 23) else [21, 22, 23]
    else:
        out += [_I, _N, _F] if cls == _INF_CLASS else [_N, _A, _N]
    return out + [_NUL] * (_TEXT - len(out))


@functools.cache
def _format_tables():
    """10^q = (hi + lo) 2^t, hi in [1, 2] and within 2^-106 relative, for q = 16 - E over
    every double's decimal exponent E (q = -292..340), with hi's 26-bit Veltkamp halves;
    the ASCII of every four-digit chunk and the place of its last nonzero digit; every
    layout; and each E's first layout (E = 309 stands for inf, 310 for nan)."""
    pow10, shifts = [], []
    for q in range(-292, 341):
        v = 10**q << 1200 if q >= 0 else (1 << 1200) // 10**-q  # 10^q 2^1200, 230 bits or more
        drop = v.bit_length() - 111
        r = (v + (1 << drop - 1)) >> drop  # 10^q 2^(110 - t) to the nearest integer, 111 bits
        hi = (r + (1 << 57)) >> 58
        pow10.append((math.ldexp(hi, -52), math.ldexp(float(r - (hi << 58)), -110)))
        shifts.append(drop - 1090)
    hi, lo = np.array(pow10).T
    split = hi * (2.0**27 + 1)
    hh = split - (split - hi)
    ascii = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48).copy()
    nonzero = ascii != 48
    sig = np.where(nonzero.any(1), 4 - nonzero[:, ::-1].argmax(1), 0)
    last = np.array([np.where(sig, at + sig, 0) for at in (1, 5, 9, 13)], dtype=np.int8)
    layouts = np.array([_layout(neg, cls, ndig) for neg in (0, 1)
                        for cls in range(_CLASSES) for ndig in range(1, 18)], dtype=np.intp)
    e = np.arange(-324, 311)
    cls = np.where(e < -4, 23 + (e <= -100), np.where(e > 16, 21 + (e >= 100), e + 4))
    cls[-2:] = _INF_CLASS, _NAN_CLASS
    return (np.column_stack([hi, hh, hi - hh, lo]), np.array(shifts, np.int32),
            ascii.view("<u4").ravel(), last, layouts, 17 * cls - 1)


def format_17g(values, sep) -> bytes:
    """The bytes of "%.17g" % v for each of values (flattened), each followed by its
    separator: the strings of sep, tiled over the values.

    Below FORMAT_VECTOR_MIN_CELLS values this is one % template; above, it is the
    join_cells text of format_17g_cells' rows, joined a block at a time so that a large
    table never holds all its rows at once.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size < FORMAT_VECTOR_MIN_CELLS:
        whole, part = divmod(values.size, len(sep))
        cells = ["%.17g" + s.replace("%", "%%") for s in sep]
        template = "".join(cells) * whole + "".join(cells[:part])
        return (template % tuple(values.tolist())).encode()
    return b"".join(map(join_cells, _cell_blocks(values, sep)))


def format_17g_cells(values, sep) -> np.ndarray:
    """format_17g's text of each of values (flattened) and its separator, as one row per
    value of a (values.size, 24 + separator width) uint8 array, NUL-padded, at any size.

    The digits are D = |v| 10^(16 - E) rounded half to even at E = floor(log10 |v|), from
    v's frexp mantissa times 10^(16 - E) in double-double arithmetic (error below 2^-46).
    A value within 2^-30 of a tie, whose E log10 misjudged, or whose D rounds up to 10^17
    takes D and E from "%.16e" % v, the same correctly rounded conversion. The text is
    then one gather from a byte row per value through a layout picked by sign, exponent
    class and digit count. The rows of a column that repeats bit for bit can be kept and
    joined again (propagate.snapshot_csvs).
    """
    return np.concatenate([*_cell_blocks(np.asarray(values, dtype=float).ravel(), sep)])


def _cell_blocks(values, sep):
    """format_17g_cells' rows of the flat float array values, FORMAT_BLOCK_CELLS at a time."""
    tables = _format_tables()
    # NUL-padded to the longest separator (one NUL if all are empty); the NULs are dropped.
    sep_rows = np.array([s.encode() for s in sep], dtype=bytes).view(np.uint8)
    sep_rows = sep_rows.reshape(len(sep), -1)
    width = sep_rows.shape[1]
    # Rows of whole uint32 words, so the digit chunks are written as words.
    buf = np.zeros((min(values.size, FORMAT_BLOCK_CELLS), _SEP + -(-width // 4) * 4), np.uint8)
    buf[:, _DOT:_NUL] = np.frombuffer(b".-+einfa", np.uint8)
    layouts = np.concatenate([tables[4], np.broadcast_to(
        np.arange(_SEP, _SEP + width), (tables[4].shape[0], width))], axis=1)
    for at in range(0, values.size, FORMAT_BLOCK_CELLS):
        yield _format_block(values[at:at + FORMAT_BLOCK_CELLS], at, sep_rows, buf, layouts,
                            tables)


def join_cells(*columns) -> bytes:
    """The text of format_17g_cells rows placed side by side: row i of each column in
    turn, row after row, with the NUL padding dropped."""
    rows = columns[0] if len(columns) == 1 else np.hstack(columns)
    return rows.tobytes().translate(None, b"\0")


def _digits_17(x, pow10, shifts):
    """The 17 significant digits D and the decimal exponent E of "%.16e" % |x|: D = 0 at
    E = 0 for zero, and E = 309 for inf and 310 for nan."""
    a = np.abs(x)
    ok = (a > 0) & (a < math.inf)
    a = np.where(ok, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.int32)
    m, e2 = np.frexp(a)
    row = 308 - e10  # 10^(16 - E) in pow10
    # y = a 10^(16 - E) = (m hi + m lo) 2^(e2 + t): m hi exactly (Dekker), m lo rounded.
    hi, hh, hl, lo = pow10.take(row, axis=0).T
    p = m * hi
    split = m * (2.0**27 + 1)
    mh = split - (split - m)
    ml = m - mh
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl + m * lo
    s = e2 + shifts.take(row)  # int32: ldexp with int64 exponents is slow
    y_hi, y_lo = np.ldexp(p, s), np.ldexp(err, s)
    whole = np.floor(y_hi)
    rest = (y_hi - whole) + y_lo
    up = np.floor(rest)
    frac = rest - up
    floor = whole.astype(np.int64) + up.astype(np.int64)
    digits = floor + (frac > 0.5)
    # Undecided: near a tie, E misjudged by log10, or a carry to 10^17.
    redo = ok & ((np.abs(frac - 0.5) < 2.0**-30) | (floor < 10**16) | (digits >= 10**17))
    digits[~ok] = 0
    e10[~ok] = np.where(x[~ok] == 0, 0, np.where(np.isnan(x[~ok]), 310, 309))
    for i in np.flatnonzero(redo).tolist():
        text = "%.16e" % abs(float(x[i]))
        digits[i], e10[i] = int(text[0] + text[2:18]), int(text[19:])
    return digits, e10


def _format_block(x, at, sep_rows, buf, layouts, tables):
    """format_17g_cells' rows of the values x, the first of which is value number at."""
    pow10, shifts, chunks, last, _, layout_base = tables
    digits, e10 = _digits_17(x, pow10, shifts)  # its temporaries freed before the layouts
    buf = buf[:x.size]
    top, bottom = np.divmod(digits, 10**8)
    c = [top // 10**8, top // 10**4 % 10**4, top % 10**4, bottom // 10**4, bottom % 10**4]
    words = buf.view("<u4")
    for j, chunk in enumerate(c):
        words[:, j] = chunks.take(chunk)
    words[:, 5] = chunks.take(np.abs(e10))
    ndig = np.maximum.reduce([last[j - 1].take(c[j]) for j in range(1, 5)])
    buf[:, _SEP:_SEP + sep_rows.shape[1]] = sep_rows.take(
        np.arange(at, at + x.size) % len(sep_rows), axis=0)
    lid = layout_base.take(e10 + 324) + np.maximum(ndig, 1) + np.signbit(x) * (_CLASSES * 17)
    index = layouts.take(lid, axis=0)
    index += (np.arange(x.size) * buf.shape[1])[:, None]
    return buf.ravel().take(index)
