"""Dense row-major feature matrix with column names, and its CSV writer."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SchemaError


@dataclass
class FeatureMatrix:
    values: np.ndarray            # (rows, features) float64, C-order
    names: list[str]

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise SchemaError(f"feature matrix must be 2-D, got shape {self.values.shape}")
        if self.values.shape[1] != len(self.names):
            raise SchemaError(
                f"{self.values.shape[1]} columns but {len(self.names)} names")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def values_of(x) -> np.ndarray:
    """The float64 values of a FeatureMatrix or of any array-like."""
    return x.values if isinstance(x, FeatureMatrix) else np.asarray(x, dtype=np.float64)


# --------------------------------------------------------------- CSV writer
#
# ``write_csv`` writes the text of '%.17g' % x for each cell without
# formatting the values one by one.  A finite x = m * 2**e (m < 2**53) with
# decimal exponent E has the 17 digits D = round-half-even(m * 5**k * 2**(e+k))
# for k = 16 - E.  For E in [_E_MIN, _E_MAX], 5**k < 2**64 and -(e + k) is a
# right shift of 1 to 63 bits, so D is exact from the 128-bit product of m
# and 5**k in two uint64 limbs.  Zeros, subnormals, inf, nan and the other
# exponents are formatted by Python.  Signed and unsigned arrays are kept
# apart, since numpy 1.x promotes their mix to float64.

# cells formatted per block; the scratch is under 400 bytes per cell
CSV_BLOCK_CELLS = 1 << 14

_E_MIN, _E_MAX = -11, 14
_N_E = _E_MAX - _E_MIN + 1
_POW5 = np.array([5 ** k for k in range(16 - _E_MIN + 1)], dtype=np.uint64)
_ONE, _B32, _B52, _B63, _B64 = map(np.uint64, (1, 32, 52, 63, 64))
_LOW32, _HALF = np.uint64(0xFFFFFFFF), np.uint64(1 << 63)
_WIDEST = 24                    # the longest '%.17g' text, "-2.2250738585072014e-308"

# A cell's text is picked by a mask from a row of 48 bytes that holds every
# character it may need:
#   0 '-' | 1-5 "0.000" | 6 d0 | 7 '.' | 8-39 d1 '.' d2 '.' ... d16 '.' |
#   40-43 'e' '-' and the two exponent digits | 44 ',' or '\n'
# Python-formatted text goes left-aligned into bytes 0-23 instead.
_ROW, _END = 48, 44
_PYTHON = 2 * _N_E * 17 - 1             # + the length: the masks of Python's text
_HEAD = np.frombuffer(b"-0.0000.", dtype=np.uint64)[0]    # d0 is added to byte 6
_EXPONENTS = np.frombuffer(b"".join(b"e-%02d\0\0\0\0" % max(-E, 0)
                                    for E in range(_E_MIN, _E_MAX + 1)), dtype=np.uint64)


def _columns(neg: bool, E: int, nd: int) -> list[int]:
    """The bytes of the row that spell the '%.17g' text of nd significant
    digits at decimal exponent E."""
    digit = list(range(6, 40, 2))
    cols = [0] if neg else []
    if E < -4:                                      # scientific
        return cols + digit[:1] + ([7] + digit[1:nd] if nd > 1 else []) + [40, 41, 42, 43]
    if E < 0:
        return cols + [1, 2, 3, 4, 5][:1 - E] + digit[:nd]
    return cols + digit[:E + 1] + ([digit[E] + 1] + digit[E + 1:nd] if nd > E + 1 else [])


def _quads() -> np.ndarray:
    """The eight bytes "d.d.d.d." of 0000 to 9999, each as one uint64."""
    quads = np.full((10000, 8), ord("."), dtype=np.uint8)
    quads[:, ::2] = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
    return quads.view(np.uint64).ravel()


def _masks() -> np.ndarray:
    """One mask per (sign, E, nd), then one per length of Python's text."""
    groups = [_columns(neg, E, nd) for neg in (False, True)
              for E in range(_E_MIN, _E_MAX + 1) for nd in range(1, 18)]
    groups += [list(range(n)) for n in range(1, _WIDEST + 1)]
    masks = np.zeros((len(groups), _ROW), dtype=bool)
    masks[np.repeat(np.arange(len(groups)), list(map(len, groups))),
          [c for cols in groups for c in cols]] = True
    masks[:, _END] = True
    return masks


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The digit and mask tables, built on first use: only ``transform``
    writes CSV."""
    return _quads(), _masks()


def _scaled(m: np.ndarray, e: np.ndarray, E: np.ndarray) -> np.ndarray:
    """round-half-even(m * 2**e * 10**(16 - E)) as uint64, for m < 2**53 and
    E - 16 - e in [1, 63]."""
    p = _POW5[16 - E]
    s = (E - 16 - e).astype(np.uint64)
    ml, mh, pl, ph = m & _LOW32, m >> _B32, p & _LOW32, p >> _B32
    t0, t1, t2 = ml * pl, ml * ph, mh * pl
    mid = (t0 >> _B32) + (t1 & _LOW32) + (t2 & _LOW32)
    lo = (mid << _B32) | (t0 & _LOW32)                  # m * p = hi * 2**64 + lo
    hi = mh * ph + (t1 >> _B32) + (t2 >> _B32) + (mid >> _B32)
    q = (hi << (_B64 - s)) | (lo >> s)
    r = lo << (_B64 - s)                                # the remainder, left-aligned
    return q + ((r | (q & _ONE)) > _HALF)               # a tie rounds to even


def _format_block(block: np.ndarray) -> np.ndarray:
    """The CSV text of the rows of ``block`` as a uint8 array."""
    quads, masks = _tables()
    cols = block.shape[1]
    v = block.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        fe = np.floor(np.log10(np.abs(v)))
    fast = (fe >= _E_MIN) & (fe <= _E_MAX)          # never 0, inf or nan
    if not fast.all():                              # stand-ins for the rest
        v, fe = np.where(fast, v, 1.0), np.where(fast, fe, 0.0)
    bits = v.view(np.uint64)
    E = fe.astype(np.int64)
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    e = (bits >> _B52 & np.uint64(0x7FF)).astype(np.int64) - 1075
    D = _scaled(m, e, E)
    # log10 can be one off next to a power of ten; then D has 16 or 18 digits,
    # or is 10**16 rounded up from below
    off = np.flatnonzero((D <= 10 ** 16) | (D > 10 ** 17))
    if off.size:
        E[off] += np.where(D[off] > 10 ** 17, 1, -1)
        off = off[(E[off] >= _E_MIN) & (E[off] <= _E_MAX)]
        D[off] = _scaled(m[off], e[off], E[off])
    carry = D >= 10 ** 17                           # rounded up to a power of ten
    D[carry] = 10 ** 16
    E += carry
    fast &= (E >= _E_MIN) & (E <= _E_MAX)
    E[~fast] = 0                                    # a valid index into _EXPONENTS

    hi9 = D // np.uint64(10 ** 8)
    lo8 = (D - hi9 * np.uint64(10 ** 8)).astype(np.uint32)
    hi9 = hi9.astype(np.uint32)
    d0 = hi9 // 10 ** 8
    a = hi9 - d0 * 10 ** 8
    ah, bh = a // 10 ** 4, lo8 // 10 ** 4
    bl = lo8 - bh * 10 ** 4
    text = np.empty((v.size, _ROW), dtype=np.uint8)
    words = text.view(np.uint64)
    words[:, 0] = _HEAD
    text[:, 6] += d0.astype(np.uint8)
    words[:, 1] = quads[ah]
    words[:, 2] = quads[a - ah * 10 ** 4]
    words[:, 3] = quads[bh]
    words[:, 4] = quads[bl]
    words[:, 5] = _EXPONENTS[E - _E_MIN]
    text[:, _END] = ord(",")
    text[cols - 1::cols, _END] = ord("\n")
    nd = np.full(v.size, 17)
    zero = np.flatnonzero(bl % 10 == 0)             # ends in 0: find the last other digit
    if zero.size:
        nd[zero] = 17 - np.argmax(text[zero, 38:5:-2] != ord("0"), axis=1)
    group = ((bits >> _B63).astype(np.int64) * _N_E + E - _E_MIN) * 17 + nd - 1

    slow = np.flatnonzero(~fast)
    if slow.size:
        pad = ("%-24.17g" * slow.size) % tuple(block.ravel()[slow].tolist())
        pad = np.frombuffer(pad.encode(), dtype=np.uint8).reshape(slow.size, _WIDEST)
        text[slow, :_WIDEST] = pad
        group[slow] = _PYTHON + (pad != ord(" ")).sum(axis=1)
    return np.compress(np.take(masks, group, axis=0).ravel(), text.ravel())


def write_csv(fm: FeatureMatrix, path: str | Path) -> None:
    """Write the matrix under a header of its names, byte for byte as
    ``np.savetxt(path, fm.values, fmt="%.17g", delimiter=",",
    header=",".join(fm.names), comments="", encoding="utf-8")`` does, so
    every value reads back exactly.  The rows go in blocks of about
    ``CSV_BLOCK_CELLS`` cells."""
    step = max(1, CSV_BLOCK_CELLS // fm.n_cols)
    with open(path, "wb") as f:
        f.write((",".join(fm.names) + "\n").encode("utf-8"))
        for start in range(0, fm.n_rows, step):
            f.write(_format_block(fm.values[start:start + step]))
