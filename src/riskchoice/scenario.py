"""Binary risky-choice scenarios and the synthetic data generator.

Each scenario offers a sure payoff against a risky payoff paid with some
probability, presented under a gain or loss frame. A dataset is held as
columns, one array entry per scenario (:class:`ScenarioArrays`). The
generator draws scenario attributes independently, computes a latent utility
for the risky option from the symbolic features of the scenario, and samples
the observed choice from a Bernoulli distribution on the logistic transform
of that utility.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataParseError, InputError, NumericalError
from .glm import sigmoid

# Identifier of the generator's PRNG, recorded in dataset metadata so a
# dataset can be regenerated bit-for-bit by any conforming implementation.
RNG_ALGORITHM = "numpy.random.PCG64"

# Default coefficients of the generating latent utility:
# (intercept, frame, low_prob, magnitude, dominance). The frame weight is
# negative so loss-framed scenarios carry higher risk appetite; magnitudes
# are calibrated so the symbolic refit scores ~0.75-0.85 test accuracy.
DEFAULT_TRUE_COEFFS = (-0.5, -0.8, 0.9, 1.2, 1.5)

CSV_HEADER = ("id", "safe", "risky", "p", "frame", "choice")

METADATA_SUFFIX = ".meta.json"

_COLUMN_DTYPES = {
    "id": np.int64,
    "safe": np.float64,
    "risky": np.float64,
    "p": np.float64,
    "frame": np.int64,
    "choice": np.int64,
}

_CSV_DTYPE = np.dtype([(name, _COLUMN_DTYPES[name]) for name in CSV_HEADER])

# Rows formatted per write call. At 8192 rows the float kernel's temporaries
# (64 KiB each) and the chunk's 1.4 MB row buffer stay in cache; at 65536 rows
# the same write of 1M rows took about 30% longer.
_CSV_CHUNK_ROWS = 1 << 13

_NON_ASCII = re.compile(rb"[\x80-\xff]")

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class ScenarioArrays:
    """A dataset of binary choices between a sure payoff and a risky
    prospect, one array entry per scenario.

    Attributes
    ----------
    id : int64 array
        Row identifier within the dataset.
    safe : float64 array
        Sure amount received when the safe option is taken.
    risky : float64 array
        Amount received with probability ``p`` when the risky option is
        taken (zero otherwise).
    p : float64 array
        Probability of the risky payout, strictly inside (0, 1).
    frame : int64 array
        +1 for gain framing, -1 for loss framing.
    choice : int64 array
        1 if the risky option was chosen, 0 otherwise.

    Construction checks the column types and every scenario's values, and
    raises :class:`InputError` naming the first offending row.
    """

    id: np.ndarray
    safe: np.ndarray
    risky: np.ndarray
    p: np.ndarray
    frame: np.ndarray
    choice: np.ndarray

    def __post_init__(self):
        for name, dtype in _COLUMN_DTYPES.items():
            col = getattr(self, name)
            if not isinstance(col, np.ndarray) or col.ndim != 1 or col.dtype != dtype:
                raise InputError(f"column {name} must be a 1-d {np.dtype(dtype)} array")
            if col.shape != self.id.shape:
                raise InputError(
                    f"column {name} has {col.shape[0]} rows, column id has {self.id.shape[0]}"
                )
        bad = _first_invalid_row(**vars(self))
        if bad is not None:
            row, rule = bad
            raise InputError(f"row {row} (scenario {self.id[row]}): {rule}")

    def __len__(self) -> int:
        return self.safe.shape[0]

    def take(self, rows) -> ScenarioArrays:
        """The scenarios at ``rows`` (an index array or a slice), in that order."""
        return ScenarioArrays(**{name: getattr(self, name)[rows] for name in _COLUMN_DTYPES})


def _first_invalid_row(id, safe, risky, p, frame, choice) -> tuple[int, str] | None:
    """Index of the first scenario that breaks a value rule, with the first
    rule it breaks; None when every scenario is valid."""
    rules = (
        (np.isfinite(safe) & np.isfinite(risky), "payoffs must be finite"),
        ((p > 0.0) & (p < 1.0), "win_prob must lie strictly in (0, 1)"),
        ((frame == 1) | (frame == -1), "frame must be -1 or +1"),
        ((choice == 0) | (choice == 1), "choice must be 0 or 1"),
    )
    valid = rules[0][0] & rules[1][0] & rules[2][0] & rules[3][0]
    if valid.all():
        return None
    row = int(np.argmin(valid))
    return row, next(rule for ok, rule in rules if not ok[row])


def is_number(value) -> bool:
    """True for a JSON number that converts to a float: a float, or an int
    (not a bool) no larger in magnitude than the largest float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def is_list_of(value, check) -> bool:
    return isinstance(value, (list, tuple)) and all(map(check, value))


def check_field_types(cfg) -> None:
    """Hold every field of the config dataclass ``cfg`` to the JSON type of
    its default: true or false, an integer, a number, a list (or tuple) of
    numbers, or for a section an object of the default's class.

    Raises
    ------
    ConfigError
        Naming the first ill-typed field, in declaration order.
    """
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        default = f.default if f.default is not MISSING else f.default_factory()
        if is_dataclass(default):
            ok, want = isinstance(value, type(default)), "an object"
        elif isinstance(default, bool):
            ok, want = isinstance(value, bool), "true or false"
        elif isinstance(default, int):
            ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
        elif isinstance(default, tuple):
            ok, want = is_list_of(value, is_number), "a list of numbers"
        else:
            ok, want = is_number(value), "a number"
        if not ok:
            raise ConfigError(f"{f.name} must be {want}, got {value!r}")


@dataclass(frozen=True)
class GeneratorConfig:
    """Settings for the synthetic scenario generator.

    ``true_coeffs`` are the weights of the generating latent utility, in the
    order (intercept, frame, low_prob, magnitude, dominance).
    """

    n: int = 5000
    seed: int = 42
    true_coeffs: tuple[float, ...] = DEFAULT_TRUE_COEFFS

    def __post_init__(self):
        check_field_types(self)
        # ids 0..n-1 are stored as int64
        if not 1 <= self.n <= np.iinfo(_COLUMN_DTYPES["id"]).max:
            raise ConfigError(f"n must be an integer from 1 to 2**63 - 1, got {self.n!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        coeffs = tuple(float(c) for c in self.true_coeffs)
        if len(coeffs) != 5:
            raise ConfigError(f"true_coeffs must have length 5, got {len(coeffs)}")
        if not all(math.isfinite(c) for c in coeffs):
            raise ConfigError("true_coeffs must all be finite")
        object.__setattr__(self, "true_coeffs", coeffs)


def as_arrays(data) -> ScenarioArrays:
    """Return ``data`` unchanged if it is a :class:`ScenarioArrays`.

    Raises
    ------
    InputError
        For anything else.
    """
    if not isinstance(data, ScenarioArrays):
        raise InputError(f"expected ScenarioArrays, got {type(data).__name__}")
    return data


def generate_dataset(cfg: GeneratorConfig) -> ScenarioArrays:
    """Simulate a dataset of binary risky choices, with ids 0..n-1.

    Attribute marginals: safe ~ U[0, 100], risky ~ U[0, 150], p ~ U[0.1, 0.9],
    frame a fair coin on {-1, +1}, all independent. Choices are Bernoulli on
    the logistic transform of the latent utility built from ``true_coeffs``.

    Determinism contract: the draw order is fixed (safe, risky, p, frame,
    choice uniforms), so identical configs produce bit-identical datasets.
    A NaN latent utility (``true_coeffs`` so large that it overflows to
    inf - inf) raises NumericalError; an infinite one is valid, with a
    choice probability of exactly 0 or 1.
    """
    from .features import SYMBOLIC_NAMES, design_matrix

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = cfg.n
    safe = rng.uniform(0.0, 100.0, n)
    risky = rng.uniform(0.0, 150.0, n)
    p = rng.uniform(0.1, 0.9, n)
    frame = rng.integers(0, 2, n) * 2 - 1

    unchosen = ScenarioArrays(
        id=np.arange(n, dtype=np.int64), safe=safe, risky=risky, p=p, frame=frame,
        choice=np.zeros(n, dtype=np.int64),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        utility = design_matrix(unchosen, SYMBOLIC_NAMES) @ np.asarray(cfg.true_coeffs)
    bad = int(np.count_nonzero(np.isnan(utility)))
    if bad:
        raise NumericalError(
            f"true_coeffs give an undefined (NaN) latent utility on {bad} of {n} scenarios"
        )
    choice = (rng.random(n) < sigmoid(utility)).astype(np.int64)
    return replace(unchosen, choice=choice)


# The float kernel below renders format(x, ".17g") with numpy. A float field
# is six little-endian 64-bit words of NUL-padded text, and the row's NULs are
# deleted when the chunk is written:
#   word 0     sign, the "0." to "0.000" prefix, the leading digit, a point slot
#   words 1-4  four digits each, every digit followed by a point slot
#   word 5     the "e-05" or "e-06" suffix, and the comma after the field
_WORD = np.dtype("<u8")
_FIELD_WORDS = 6


def _words(texts) -> np.ndarray:
    """Each text (at most 8 bytes) as one NUL-padded little-endian word."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), _WORD)


# The exact path covers 1e-6 <= |x| < 1e16, where the decimal exponent k lies
# in [-6, 15], so the scale 10**(16 - k) is 10**1 to 10**22, all exact floats.
_K_MIN, _K_MAX = -6, 15
_POW10 = 10.0 ** np.arange(23)
# Veltkamp halves of 10**m: hi has at most 26 significant bits, hi + lo == 10**m
_SPLITTER = 2.0**27 + 1.0
_POW10_HI = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI

_GROUP = np.arange(10_000, dtype=_WORD)
# the four digits of 0..9999, each followed by an empty point slot
_FOUR_DIGITS = sum(
    ((_GROUP // 10 ** (3 - i)) % 10 + ord("0")) << (16 * i) for i in range(4)
).astype(_WORD)
# trailing zero digits of a four-digit group: 4 for 0000
_TRAILING_ZEROS = sum((_GROUP % 10**i == 0).astype(np.intp) for i in range(1, 5))
_LEAD_DIGIT = (np.arange(10, dtype=_WORD) + ord("0")) << 48
# KEEP[w - 1][n]: the part of word w (digits 4w - 3 to 4w, counted from the
# leading digit 0) that the first n digits cover
_KEEP = np.array(
    [
        [(1 << 16 * min(max(n - (4 * w - 3), 0), 4)) - 1 for n in range(18)]
        for w in range(1, _FIELD_WORDS - 1)
    ],
    _WORD,
)

# Per exponent k, indexed by k - _K_MIN. %.17g writes k >= -4 as a fixed
# point number and k < -4 as d.ddde-0k.
_EXPONENTS = range(_K_MIN, _K_MAX + 1)
_PREFIX = _words(b"\0" + (b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b"") for k in _EXPONENTS)
_SUFFIX = _words((b"e-%02d" % -k if k < -4 else b"").ljust(7, b"\0") + b"," for k in _EXPONENTS)
# digits shown even when zero: the integer part of a fixed point number, or
# the leading digit of d.ddde-0k; the point follows them when more are shown
_MIN_DIGITS = np.array([max(k + 1, 1) for k in _EXPONENTS])


def _point_bits() -> np.ndarray:
    """BITS[w][k - _K_MIN]: the point in word w after the first MIN_DIGITS
    digits; none where the "0." prefix holds it."""
    bits = np.zeros((_FIELD_WORDS - 1, len(_EXPONENTS)), _WORD)
    for kk, k in enumerate(_EXPONENTS):
        if not -4 <= k < 0:
            j = max(k, 0)  # the digit the point follows
            w, slot = (0, 7) if j == 0 else (1 + (j - 1) // 4, 2 * ((j - 1) % 4) + 1)
            bits[w, kk] = ord(".") << 8 * slot
    return bits


_POINT_BITS = _point_bits()

# frame (-1 or +1) and choice (0 or 1) with their separators, at frame + 1 + choice
_ROW_TAIL = np.array([b"-1,0\n", b"-1,1\n", b"1,0\n", b"1,1\n"], "S8")

# ids in [0, 10**12) are rendered from three four-digit groups; any other id
# (negative, or of 13 digits or more) is rendered by astype("S20"), which its
# 24-byte field holds
_ID_WORDS = 3
_ID_DIGITS = 4 * _ID_WORDS
_ID_LIMIT = 10**_ID_DIGITS
_ID_POW10 = 10 ** np.arange(1, _ID_DIGITS, dtype=np.int64)
# ID_KEEP[w][d]: the part of group word w (0 the leading group) that an id of
# d digits covers, its last d - 4 * (_ID_WORDS - 1 - w) digits clipped to
# [0, 4]; the zeros ahead of the id's first digit become NULs
_ID_KEEP = np.array(
    [
        [
            (1 << 64) - (1 << 16 * (4 - min(max(d - 4 * (_ID_WORDS - 1 - w), 0), 4)))
            for d in range(_ID_DIGITS + 1)
        ]
        for w in range(_ID_WORDS)
    ],
    _WORD,
)

_CSV_ROW_DTYPE = np.dtype(
    [("id", _WORD, (_ID_WORDS,)), ("comma", "S4")]
    + [(name, _WORD, (_FIELD_WORDS,)) for name in ("safe", "risky", "p")]
    + [("tail", "S8")]
)


def _scaled(a, k):
    """a * 10**(16 - k) exactly, as the float product p and its rounding
    error e (Dekker's two-product; the scale is split in advance)."""
    m = 16 - k
    p = a * _POW10[m]
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    hi, lo = _POW10_HI[m], _POW10_LO[m]
    return p, ((a_hi * hi - p) + a_hi * lo + a_lo * hi) + a_lo * lo


def _render_ids(ids: np.ndarray, out: np.ndarray) -> None:
    """Write str(i) for each int64 id ``i`` into the rows of ``out``, an
    (n, 3) array of words, as NUL-padded text.

    An id in [0, 10**12) is looked up as three four-digit groups, with the
    zeros ahead of its first digit masked to NUL; any other id is rendered
    by astype("S20").
    """
    others = np.flatnonzero((ids < 0) | (ids >= _ID_LIMIT))
    v = ids.copy()
    v[others] = 0
    digits = 1 + np.searchsorted(_ID_POW10, v, side="right")
    top = v // 10**8
    v -= top * 10**8
    mid = v // 10**4
    for w, g in enumerate((top, mid, v - mid * 10**4)):
        out[:, w] = _FOUR_DIGITS[g] & _ID_KEEP[w][digits]
    if others.size:
        text = ids[others].astype("S20").astype(f"S{8 * _ID_WORDS}")
        out[others] = text.view(_WORD).reshape(-1, _ID_WORDS)


def _render_floats(x: np.ndarray, out: np.ndarray) -> None:
    """Write format(v, ".17g") + "," for each float v of ``x`` into the rows
    of ``out``, an (n, 6) array of words, as NUL-padded text.

    Each |v| in [1e-6, 1e16) takes the exact path: its 17 significant digits
    are round-half-even of |v| * 10**(16 - k), an integer D in [1e16, 1e17),
    computed exactly. Any other value (zeros, subnormals, |v| < 1e-6,
    |v| >= 1e16, inf and nan) is rendered on its own by "%.17g".
    """
    a = np.abs(x)
    # the float 1e-6 lies just below 10**-6
    others = np.flatnonzero(~((a > 1e-6) & (a < 1e16)))
    if others.size:
        a[others] = 1.0
    k = np.clip(np.floor(np.log10(a)), _K_MIN, _K_MAX).astype(np.intp)
    p, e = _scaled(a, k)
    # log10 can be one off near a power of ten; then p + e lies outside
    # [1e16, 1e17) and k moves by one
    edge = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if edge.size:
        pe, ee = p[edge], e[edge]
        high = (pe > 1e17) | ((pe == 1e17) & (ee >= 0))
        low = (pe < 1e16) | ((pe == 1e16) & (ee < 0))
        k[edge] += high.astype(np.intp) - low
        p[edge], e[edge] = _scaled(a[edge], k[edge])
    # p >= 2**53 is an even integer and |e| <= 8, so rounding e half to even
    # rounds p + e half to even. The result stays below 10**17: only the
    # float just below a power of ten could round up to it, and for each
    # power of ten in the range it lies too far below.
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)

    # the digits below the leading one, in four-digit groups
    upper = digits // 10**8
    lower = digits - upper * 10**8
    lead = upper // 10**8
    upper -= lead * 10**8
    groups = []
    for part in (upper, lower):
        top = part // 10**4
        groups += [top, part - top * 10**4]
    # trailing zero digits, a group at a time while the groups after are 0000
    trailing = _TRAILING_ZEROS[groups[3]]
    rows = np.flatnonzero(trailing == 4)
    for g in groups[2::-1]:
        more = _TRAILING_ZEROS[g[rows]]
        trailing[rows] += more
        rows = rows[more == 4]
    kk = k - _K_MIN
    kept = np.maximum(17 - trailing, _MIN_DIGITS[kk])
    point = (kept > _MIN_DIGITS[kk]).astype(_WORD)

    out[:, 0] = (
        _PREFIX[kk]
        | (x < 0).astype(_WORD) * ord("-")
        | _LEAD_DIGIT[lead]
        | _POINT_BITS[0][kk] * point
    )
    for w, g in enumerate(groups, start=1):
        out[:, w] = (_FOUR_DIGITS[g] & _KEEP[w - 1][kept]) | _POINT_BITS[w][kk] * point
    out[:, 5] = _SUFFIX[kk]
    for i in others:
        text = (b"%.17g" % x[i]).ljust(8 * _FIELD_WORDS - 1, b"\0") + b","
        out[i] = np.frombuffer(text, _WORD)


def write_dataset_csv(data: ScenarioArrays, path: str | Path) -> None:
    """Write a dataset as CSV: the header line, then one line per scenario,
    each float as format(x, ".17g") renders it, so it reads back
    bit-identically. Lines end in "\\n" on every platform.

    Floats with 1e-6 <= |x| < 1e16 take an exact numpy path that works out
    their 17 significant digits in integer arithmetic; any other value (a
    zero, a subnormal, a smaller or larger magnitude) is formatted on its
    own with "%.17g". Ids in [0, 10**12) are looked up in the same
    four-digit table; any other id is rendered by astype("S20"). Rows are
    rendered ``_CSV_CHUNK_ROWS`` at a time.
    """
    with open(path, "wb") as fh:
        fh.write(",".join(CSV_HEADER).encode("ascii") + b"\n")
        for start in range(0, len(data), _CSV_CHUNK_ROWS):
            chunk = slice(start, start + _CSV_CHUNK_ROWS)
            ids = data.id[chunk]
            rows = np.empty(ids.shape[0], _CSV_ROW_DTYPE)
            _render_ids(ids, rows["id"])
            rows["comma"] = b","
            for name in ("safe", "risky", "p"):
                _render_floats(getattr(data, name)[chunk], rows[name])
            rows["tail"] = _ROW_TAIL[data.frame[chunk] + 1 + data.choice[chunk]]
            # NUL never occurs in the text, so deleting it joins the fields
            fh.write(rows.tobytes().translate(None, b"\0"))


# The reader's kernel takes a field that is an optional "-" and then digits
# with at most one ".", as the writer emits them. It reads the window of
# 64-bit words that ends at the field's last byte (three words for a float or
# an id, one for frame and choice) and holds each byte as byte ^ "0": a
# digit's value, 0x1e for the point, and 0 for every byte ahead of the field.
# Any other field is converted on its own by float() or _int64(), as
# _parse_lines converts it.
_HEADER_LINE = (",".join(CSV_HEADER) + "\n").encode("ascii")
_HEADER_CRLF = _HEADER_LINE[:-1] + b"\r\n"
_LINE_SEPARATORS = np.frombuffer(b",,,,,\n", np.uint8)
# Bytes parsed at a time. A block's temporaries go back to the heap, which the
# caller's later work reuses; with 512 KiB blocks a read of 1M rows took 9%
# less time, but a 1M-row generate, read and fit then peaked 2 MB higher.
_READ_BLOCK_BYTES = 1 << 18
_WINDOW_WORDS = 3
_WINDOW_BYTES = 8 * _WINDOW_WORDS
_ZEROS = 0x3030303030303030
_LOW7 = 0x7F7F7F7F7F7F7F7F
_HIGH = 0x8080808080808080
_BYTE_ONES = 0x0101010101010101
_POINTS = 0x1E1E1E1E1E1E1E1E  # "." ^ "0" in every byte
_TENS = 0x7676767676767676  # adding it sets the top bit of each byte from 10 up
# FIELD_KEEP[j][n]: the part of window word j that the window's last n bytes
# cover
_FIELD_KEEP = np.array(
    [
        [
            (1 << 64) - (1 << 8 * (8 - min(max(n - 8 * (_WINDOW_WORDS - 1 - j), 0), 8)))
            for n in range(_WINDOW_BYTES + 1)
        ]
        for j in range(_WINDOW_WORDS)
    ],
    _WORD,
)
# Lemire's multiply-shift turns the eight digit values of a word, the first
# in its lowest byte, into their number
_PAIRS = 0x000000FF000000FF
_HUNDREDS = 100 + (1_000_000 << 32)
_ONES = 1 + (10_000 << 32)


def _pow5_128(e: int) -> int:
    """5**-e for e >= 0 as the 128-bit table entry of Eisel-Lemire: scaled
    to [2**127, 2**128), and for e > 0 truncated and then raised by one."""
    if e == 0:
        return 1 << 127
    d = 5**e
    return (1 << (d.bit_length() + 127)) // d + 1


# A kernel field is w * 10**-e with e the window bytes from its point to its
# end, so e lies in [0, 24]; these tables are indexed by e.
_POW5_HI = np.array([_pow5_128(e) >> 64 for e in range(_WINDOW_BYTES + 1)], _WORD)
_POW5_LO = np.array(
    [_pow5_128(e) & ((1 << 64) - 1) for e in range(_WINDOW_BYTES + 1)], _WORD
)
# floor(-e log2 10) + 63 (as fast_float approximates it), plus the exponent bias
_BIASED_POWER2 = np.array(
    [((217706 * -e) >> 16) + 63 + 1023 for e in range(_WINDOW_BYTES + 1)], _WORD
)
_MASK32 = (1 << 32) - 1
_MANTISSA = (1 << 52) - 1


class _Unparsed(Exception):
    """The file needs the line-by-line parser."""


def _mul128(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit products of uint64 arrays, as (high, low) words."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (ll >> 32) + (lh & _MASK32) + (hl & _MASK32)
    return a_hi * b_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), (mid << 32) | (ll & _MASK32)


def _decimal_to_float(w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """w * 10**-e rounded half to even to float64, for uint64 w > 0 and
    integer e in [0, 24].

    This is the Eisel-Lemire step (Lemire 2021, "Number parsing at a gigabyte
    per second", Softw. Pract. Exp. 51(8):1700), as fast_float computes it:
    the normalized w times the table's 128-bit 5**-e. For e <= 27 the product
    is exact enough to round correctly, and only e <= 4 admits a tie.
    """
    bits = np.frexp(w.astype(np.float64))[1].astype(_WORD)
    # the conversion rounds w up to 2**bits where its bit length is bits - 1
    bits -= (w >> (bits - 1)) == 0
    lz = 64 - bits
    w = w << lz
    hi, lo = _mul128(w, _POW5_HI[e])
    # below the 55 bits kept, all ones: the truncated table entry can carry
    # into them, so add the product with its lower word
    rows = np.flatnonzero((hi & 0x1FF) == 0x1FF)
    if rows.size:
        more = _mul128(w[rows], _POW5_LO[e[rows]])[0]
        low = lo[rows] + more
        hi[rows] += low < more
        lo[rows] = low
    upper = hi >> 63
    shift = upper + 9
    mantissa = hi >> shift
    # exactly halfway between two floats: round down to the even one
    tie = (lo <= 1) & (e <= 4) & ((mantissa & 3) == 1) & ((mantissa << shift) == hi)
    mantissa -= tie
    mantissa += mantissa & 1
    mantissa >>= 1
    carry = mantissa >> 53
    exponent = _BIASED_POWER2[e] + upper - lz + carry
    return ((exponent << 52) | ((mantissa >> carry) & _MANTISSA)).view(np.float64)


def _digit_window(buf, starts, ends, words):
    """For each field buf[starts:ends], whether it begins with "-", its width
    after the sign, and its window of ``words`` words as digit values: a
    (words, n) array whose last row ends at the field's last byte."""
    negative = buf[starts] == ord("-")
    width = ends - starts - negative
    size = 8 * words
    window = np.ndarray(buf.size - size + 1, (np.void, size), buf, 0, (1,))[ends - size]
    x = np.empty((words, len(ends)), _WORD)
    np.bitwise_xor(window.view(_WORD).reshape(-1, words).T, _ZEROS, out=x)
    x &= np.take(_FIELD_KEEP[_WINDOW_WORDS - words :], np.minimum(width, size), axis=1)
    return negative, width, x


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whether every byte in each column of x is a digit value, the number
    the column's digits spell (each word's first digit in its lowest byte,
    the first word the highest), and the first word's eight-digit number."""
    is_digits = (np.bitwise_or.reduce((x + _TENS) | x) & _HIGH) == 0
    x = x * 10 + (x >> 8)
    groups = (((x & _PAIRS) * _HUNDREDS) + (((x >> 16) & _PAIRS) * _ONES)) >> 32
    value = groups[0].copy()
    for group in groups[1:]:
        value *= 10**8
        value += group
    return is_digits, value, groups[0]


def _parse_ints(buf, starts, ends, words):
    """The int64 values of the fields, and where the kernel took them."""
    negative, width, x = _digit_window(buf, starts, ends, words)
    ok, value, top = _digits(x)
    ok &= (width >= 1) & (width <= 8 * words)
    if words == _WINDOW_WORDS:
        ok &= top < 922  # the value is below 922 * 10**16 < 2**63
    value = value.view(np.int64)
    return np.where(negative, -value, value), ok


def _parse_floats(buf, starts, ends):
    """The float64 values of the fields, and where the kernel took them."""
    negative, width, x = _digit_window(buf, starts, ends, _WINDOW_WORDS)
    # 0x80 in each byte that holds a point (an exact zero-byte test)
    y = x ^ _POINTS
    point = ~(((y & _LOW7) + _LOW7) | y | _LOW7)
    # the bytes at or above the point, across the window's words
    above = ~((point >> 7) - 1)
    for j in range(1, _WINDOW_WORDS):
        above[j] |= 0 - (above[j - 1] >> 63)
    # delete the point: the bytes above it move down a byte and the window's
    # last byte reads 0, so the window spells 10 * D for the field's digits D,
    # and the field is that times 10**-e, e the bytes at or above the point
    down = x >> 8
    down[:-1] |= x[1:] << 56
    x ^= (x ^ down) & above
    # e counts the bytes of ``above``: a 1 in each, summed over the words,
    # then over a word's eight bytes by one multiply
    flags = above & _HIGH
    flags >>= 7
    e = flags[0] + flags[1]
    e += flags[2]
    e *= _BYTE_ONES
    e >>= 56
    ok, w, top = _digits(x)
    # a digit besides the point, and a number below 1844 * 10**16 < 2**64
    ok &= (width > (e > 0)) & (width <= _WINDOW_BYTES) & (top < 1844)
    value = _decimal_to_float(w, e)
    value[w == 0] = 0.0
    return np.copysign(value, np.where(negative, -1.0, 1.0)), ok


def _convert_fields(buf, starts, ends, ok, values, convert) -> None:
    """Convert each field the kernel did not take with ``convert``."""
    for i in np.flatnonzero(~ok).tolist():
        try:
            values[i] = convert(buf[starts[i] : ends[i]].tobytes().decode("ascii"))
        except ValueError:  # UnicodeDecodeError included
            raise _Unparsed from None


def _read_columns(buf: np.ndarray, size: int) -> dict[str, np.ndarray]:
    """The columns of the CSV bytes buf[:size], or _Unparsed when a line
    needs _parse_lines. buf has one byte of room after them."""
    # the header may end in "\r\n", as any line may
    head = buf[: min(size, len(_HEADER_CRLF))].tobytes()
    start = next((len(h) for h in (_HEADER_LINE, _HEADER_CRLF) if head.startswith(h)), size)
    if size <= start:
        raise _Unparsed
    if buf[size - 1] != ord("\n"):
        buf[size] = ord("\n")
        size += 1
    span = _READ_BLOCK_BYTES
    # every line ends in the one "\n" it holds, so the columns are allocated
    # at their length up front, and no block's results wait to be joined
    lines = sum(
        int(np.count_nonzero(buf[at : min(at + span, size)] == ord("\n")))
        for at in range(start, size, span)
    )
    columns = {name: np.empty(lines, _COLUMN_DTYPES[name]) for name in CSV_HEADER}
    done = 0
    while start < size:
        stop = min(start + span, size)
        seps = np.flatnonzero(buf[start:stop] <= ord(",")) + start
        kinds = buf[seps]
        # a "+" (the sign of an exponent, as in 1e+300) belongs to its field,
        # and a "\r" just before a "\n" to its line end
        cr = kinds == ord("\r")
        cr[cr] = buf[seps[cr] + 1] == ord("\n")
        drop = cr | (kinds == ord("+"))
        if drop.any():
            seps, kinds = seps[~drop], kinds[~drop]
        rows = seps.size // len(CSV_HEADER)
        if stop == size and seps.size % len(CSV_HEADER):
            raise _Unparsed
        if rows == 0:
            span *= 2  # a line longer than the block
            continue
        kinds = kinds[: rows * len(CSV_HEADER)].reshape(rows, -1)
        if not (kinds == _LINE_SEPARATORS).all():
            raise _Unparsed
        ends = np.ascontiguousarray(seps[: rows * len(CSV_HEADER)].reshape(rows, -1).T)
        starts = np.empty_like(ends)
        starts[1:] = ends[:-1] + 1
        starts[0, 0] = start
        starts[0, 1:] = ends[-1, :-1] + 1
        start = int(ends[-1, -1]) + 1
        if cr.any():
            # a line's last field ends before its "\r\n"
            ends[-1] -= buf[ends[-1] - 1] == ord("\r")
        # id; the three float columns in one pass; frame and choice in one
        for cols, parse, convert in (
            (slice(0, 1), partial(_parse_ints, words=_WINDOW_WORDS), _int64),
            (slice(1, 4), _parse_floats, float),
            (slice(4, 6), partial(_parse_ints, words=1), _int64),
        ):
            first, last = starts[cols].ravel(), ends[cols].ravel()
            values, ok = parse(buf, first, last)
            _convert_fields(buf, first, last, ok, values, convert)
            for name, part in zip(CSV_HEADER[cols], values.reshape(-1, rows)):
                columns[name][done : done + rows] = part
        done += rows
    return columns


def read_dataset_csv(path: str | Path) -> ScenarioArrays:
    """Load and validate a scenario CSV written by :func:`write_dataset_csv`.

    The file is read once. When its first line is the writer's header and
    every later line holds six comma-separated fields with no byte below ","
    other than a "+" inside a field (any line may end in "\\r\\n" instead of
    "\\n"), the fields are parsed in numpy: a field that is an optional "-"
    and digits with at most one point is converted exactly (eight digits per
    word operation, then the Eisel-Lemire step rounds each float correctly),
    and any other field by float() or int() on its own. When those columns
    break a :class:`ScenarioArrays` rule, the first row that breaks one
    raises :class:`DataParseError` from them, with the line parser's message
    and line number; a valid file pays for no such check. Any other file
    (the header spelled otherwise, a space, a "\\r" that no "\\n" follows, a
    blank line, or a field neither function takes) is parsed line by line:
    blank lines are skipped, and the first bad line raises
    :class:`DataParseError` naming its line number. A non-ASCII byte is
    reported before any other fault. A missing file raises
    ``dataset file not found: {path}``, and one that cannot be read (a
    directory, say) ``dataset file unreadable: {reason}``.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            buf = np.empty(size + 1, np.uint8)
            size = fh.readinto(buf[:size])
    except FileNotFoundError:
        raise DataParseError(f"dataset file not found: {path}") from None
    except OSError as exc:
        raise DataParseError(f"dataset file unreadable: {exc}") from exc
    try:
        columns = _read_columns(buf, size)
    except _Unparsed:
        pass
    else:
        try:
            return ScenarioArrays(**columns)
        except InputError:
            # the numpy pass takes no blank line, so row r is on line r + 2
            raise _rule_error(columns, range(2, len(columns["id"]) + 2)) from None
    raw = buf[:size].tobytes()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        at = _NON_ASCII.search(raw).start()
        # the line that holds the byte, counted as str.splitlines counts lines
        line = len((raw[:at].decode("ascii") + "x").splitlines())
        raise DataParseError(f"non-ASCII byte 0x{raw[at]:02x}", line=line) from None
    # str.splitlines breaks lines at "\r\n" and "\r" as text mode's newline
    # translation does, so the untranslated text splits into the same lines
    return _parse_lines(text)


def _int64(text: str) -> int:
    value = int(text)
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ValueError(f"integer outside the int64 range: {text.strip()!r}")
    return value


def _parse_lines(text: str) -> ScenarioArrays:
    """Parse CSV text one line at a time; the first bad line raises."""
    lines = text.splitlines()
    if not lines:
        raise DataParseError("empty dataset file", line=1)
    header = tuple(col.strip() for col in lines[0].split(","))
    if header != CSV_HEADER:
        raise DataParseError(
            f"expected header {','.join(CSV_HEADER)!r}, got {lines[0]!r}", line=1
        )
    rows, line_numbers = [], []
    parse_error = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(CSV_HEADER):
            parse_error = DataParseError(
                f"expected {len(CSV_HEADER)} fields, got {len(parts)}", line=lineno
            )
            break
        try:
            rows.append(
                (
                    _int64(parts[0]),
                    float(parts[1]),
                    float(parts[2]),
                    float(parts[3]),
                    _int64(parts[4]),
                    _int64(parts[5]),
                )
            )
        except ValueError as exc:
            parse_error = DataParseError(str(exc), line=lineno)
            break
        line_numbers.append(lineno)
    table = np.array(rows, dtype=_CSV_DTYPE)
    columns = {name: np.ascontiguousarray(table[name]) for name in CSV_HEADER}
    # a scenario rule broken on an earlier line is reported before a later
    # parse error
    error = _rule_error(columns, line_numbers)
    if error is not None:
        raise error
    if parse_error is not None:
        raise parse_error
    if not rows:
        raise DataParseError("dataset has a header but no rows", line=1)
    return ScenarioArrays(**columns)


def _rule_error(columns: dict[str, np.ndarray], line_numbers) -> DataParseError | None:
    """The error for the first row of ``columns`` that breaks a scenario
    rule, at its entry of ``line_numbers``; None when every row is valid."""
    bad = _first_invalid_row(**columns)
    if bad is None:
        return None
    row, rule = bad
    return DataParseError(f"scenario {columns['id'][row]}: {rule}", line=line_numbers[row])


def metadata_path(csv_path: str | Path) -> Path:
    """Sidecar metadata path for a dataset CSV (``dataset.csv`` -> ``dataset.meta.json``)."""
    csv_path = Path(csv_path)
    return csv_path.with_name(csv_path.stem + METADATA_SUFFIX)


def write_metadata(cfg: GeneratorConfig, csv_path: str | Path) -> Path:
    """Record the generator settings next to the dataset CSV."""
    meta = {
        "n": cfg.n,
        "seed": cfg.seed,
        "true_coeffs": list(cfg.true_coeffs),
        "rng_algorithm": RNG_ALGORITHM,
    }
    out = metadata_path(csv_path)
    out.write_text(json_text(meta), encoding="ascii")
    return out


def read_metadata(csv_path: str | Path) -> dict:
    """The generator settings recorded next to the dataset CSV; a missing or
    malformed file raises :class:`DataParseError`."""
    return read_json(metadata_path(csv_path), DataParseError, "metadata file")


def json_text(doc) -> str:
    """``doc`` as every JSON file of the package holds it: indented by two
    spaces, with a final newline."""
    return json.dumps(doc, indent=2) + "\n"


def read_json(path: str | Path, error: type[Exception], what: str):
    """The JSON document in the file at ``path``.

    Raises
    ------
    error
        ``{what} not found: {path}`` when there is no such file, and
        ``{what} unreadable: {reason}`` when it cannot be read (a directory,
        say) or is not ASCII JSON.
    """
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="ascii"))
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except (OSError, ValueError) as exc:  # UnicodeDecodeError and JSONDecodeError included
        raise error(f"{what} unreadable: {exc}") from exc
