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

from .errors import ConfigError, DataParseError, InputError
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

# One CSV row. "%.17g" renders a float exactly as format(x, ".17g") does.
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%d,%d\n"

# Rows formatted per write call; bounds the memory one chunk's text takes.
_CSV_CHUNK_ROWS = 1 << 16

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
    utility = design_matrix(unchosen, SYMBOLIC_NAMES) @ np.asarray(cfg.true_coeffs)
    choice = (rng.random(n) < sigmoid(utility)).astype(np.int64)
    return replace(unchosen, choice=choice)


def write_dataset_csv(data: ScenarioArrays, path: str | Path) -> None:
    """Write a dataset as CSV with 17-significant-digit floats."""
    columns = [getattr(data, name) for name in CSV_HEADER]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for start in range(0, len(data), _CSV_CHUNK_ROWS):
            chunk = [col[start : start + _CSV_CHUNK_ROWS].tolist() for col in columns]
            values = tuple([v for row in zip(*chunk) for v in row])
            fh.write((_CSV_ROW * len(chunk[0])) % values)


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
