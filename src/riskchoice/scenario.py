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
import re
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
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

# str.splitlines also breaks lines at these ASCII characters and numpy's
# text reader does not, so a file holding any of them is parsed line by line.
_EXTRA_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e"

_NON_BLANK = re.compile(r"\S")

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


def read_dataset_csv(path: str | Path) -> ScenarioArrays:
    """Load and validate a scenario CSV written by :func:`write_dataset_csv`.

    Blank lines are skipped. A non-ASCII byte, a malformed line, or a line
    whose scenario breaks a :class:`ScenarioArrays` rule raises
    :class:`DataParseError` naming its line number; a non-ASCII byte is
    reported before any other fault.
    """
    path = Path(path)
    if not path.exists():
        raise DataParseError(f"dataset file not found: {path}")
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError:
        raw = path.read_bytes()
        at = _NON_ASCII.search(raw).start()
        # the line that holds the byte, counted as str.splitlines counts lines
        line = len((raw[:at].decode("ascii") + "x").splitlines())
        raise DataParseError(f"non-ASCII byte 0x{raw[at]:02x}", line=line) from None
    first_break = text.find("\n")
    if (
        first_break >= 0
        and tuple(col.strip() for col in text[:first_break].split(",")) == CSV_HEADER
        and _NON_BLANK.search(text, first_break + 1)
        and not any(ch in text for ch in _EXTRA_LINE_BREAKS)
    ):
        try:
            table = np.loadtxt(
                path, delimiter=",", skiprows=1, ndmin=1, comments=None, dtype=_CSV_DTYPE
            )
            return ScenarioArrays(
                **{name: np.ascontiguousarray(table[name]) for name in CSV_HEADER}
            )
        except (ValueError, InputError):
            pass
    # The bulk parse cannot say which line is at fault, and it refuses a few
    # spellings that int() and float() accept, such as 1_0.
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
    bad = _first_invalid_row(**columns)
    if bad is not None:
        row, rule = bad
        raise DataParseError(f"scenario {columns['id'][row]}: {rule}", line=line_numbers[row])
    if parse_error is not None:
        raise parse_error
    if not rows:
        raise DataParseError("dataset has a header but no rows", line=1)
    return ScenarioArrays(**columns)


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
    out.write_text(json.dumps(meta, indent=2) + "\n", encoding="ascii")
    return out


def read_metadata(csv_path: str | Path) -> dict:
    path = metadata_path(csv_path)
    if not path.exists():
        raise DataParseError(f"metadata file not found: {path}")
    return json.loads(path.read_text(encoding="ascii"))
