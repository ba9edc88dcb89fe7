import contextlib
import hashlib
import io
import json
import math
import tempfile
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from riskchoice import (
    ConfigError,
    DataParseError,
    DEFAULT_TRUE_COEFFS,
    GeneratorConfig,
    InputError,
    ScenarioArrays,
    as_arrays,
    design_matrix,
    generate_dataset,
    read_dataset_csv,
    write_dataset_csv,
)
from riskchoice.cli import main
from riskchoice.features import SYMBOLIC_NAMES
from riskchoice.glm import sigmoid
from riskchoice import scenario as scenario_module
from riskchoice.scenario import CSV_HEADER, RNG_ALGORITHM, read_metadata, write_metadata

# SHA-256 of dataset.csv from `riskchoice generate --n 5000 --seed 42`
GOLDEN_SEED42_SHA256 = "082f15fb582c58469fbb5ebffe43fe90136b7da8271e24db57e091545673481d"


def assert_same_columns(a, b):
    for name in CSV_HEADER:
        col_a, col_b = getattr(a, name), getattr(b, name)
        assert col_a.dtype == col_b.dtype, name
        assert col_a.tobytes() == col_b.tobytes(), name


def reference_csv(data):
    """The dataset as format(x, ".17g") renders each float, one line per row."""
    lines = [",".join(CSV_HEADER)] + [
        f"{i},{format(s, '.17g')},{format(r, '.17g')},{format(p, '.17g')},{f},{c}"
        for i, s, r, p, f, c in zip(*(getattr(data, name).tolist() for name in CSV_HEADER))
    ]
    return "\n".join(lines) + "\n"


def make_arrays(safe, risky, p, frame, choice=None):
    n = len(safe)
    return ScenarioArrays(
        id=np.arange(n, dtype=np.int64),
        safe=np.asarray(safe, dtype=float),
        risky=np.asarray(risky, dtype=float),
        p=np.asarray(p, dtype=float),
        frame=np.asarray(frame, dtype=np.int64),
        choice=np.zeros(n, dtype=np.int64) if choice is None else np.asarray(choice, np.int64),
    )


def latent_utility(arrays, coeffs):
    """The generator's latent utility b0 + b1*frame + b2*1[p<0.2] +
    b3*(R-S)/100 + b4*1[p*R>S], one value per scenario."""
    return design_matrix(arrays, SYMBOLIC_NAMES) @ np.asarray(coeffs, dtype=float)


def test_generator_is_deterministic():
    cfg = GeneratorConfig(n=300, seed=11)
    assert_same_columns(generate_dataset(cfg), generate_dataset(cfg))


def test_generator_marginal_ranges():
    arr = generate_dataset(GeneratorConfig(n=10_000, seed=5))
    assert len(arr) == 10_000
    assert arr.safe.min() >= 0.0 and arr.safe.max() <= 100.0
    assert arr.risky.min() >= 0.0 and arr.risky.max() <= 150.0
    assert arr.p.min() >= 0.1 and arr.p.max() <= 0.9
    assert set(np.unique(arr.frame)) == {-1, 1}
    assert set(np.unique(arr.choice)) <= {0, 1}
    assert list(arr.id) == list(range(10_000))


def test_saturating_coefficients_forces_all_safe():
    cfg = GeneratorConfig(n=500, seed=9, true_coeffs=(-1e6, 0, 0, 0, 0))
    data = generate_dataset(cfg)
    assert np.all(data.choice == 0)


def test_choice_rate_matches_latent_probabilities():
    # empirical choice frequency should track the mean model probability
    cfg = GeneratorConfig(n=50_000, seed=17)
    data = generate_dataset(cfg)
    probs = sigmoid(latent_utility(data.take(slice(0, 5000)), cfg.true_coeffs))
    observed = np.mean(data.choice)
    assert abs(observed - np.mean(probs)) < 0.02


@pytest.mark.parametrize("seed", [1, 42, 1000074])
def test_numpy_link_flips_no_generated_choice(seed):
    # replay the generator's draws and decide each choice with scipy's expit;
    # the numpy link may differ from it by a few ULP, which must move no draw
    n = 200_000
    data = generate_dataset(GeneratorConfig(n=n, seed=seed))
    rng = np.random.Generator(np.random.PCG64(seed))
    np.testing.assert_array_equal(rng.uniform(0.0, 100.0, n), data.safe)
    np.testing.assert_array_equal(rng.uniform(0.0, 150.0, n), data.risky)
    np.testing.assert_array_equal(rng.uniform(0.1, 0.9, n), data.p)
    np.testing.assert_array_equal(rng.integers(0, 2, n) * 2 - 1, data.frame)
    draws = rng.random(n)
    utility = latent_utility(data, DEFAULT_TRUE_COEFFS)
    np.testing.assert_array_equal((draws < expit(utility)).astype(np.int64), data.choice)


def test_latent_utility_values():
    arrays = make_arrays([50.0], [120.0], [0.15], [1])
    assert latent_utility(arrays, (0, 0, 0, 0, 0))[0] == 0.0
    assert latent_utility(arrays, (0, 1, 0, 0, 0))[0] == 1.0
    # -0.5 - 0.8 + 0.9 + 1.2*0.7 + 0 = 0.44
    assert latent_utility(arrays, DEFAULT_TRUE_COEFFS)[0] == pytest.approx(0.44, abs=1e-12)


def test_latent_utility_rejects_bad_coeffs():
    arrays = make_arrays([1.0], [2.0], [0.5], [1])
    with pytest.raises(ValueError):
        latent_utility(arrays, (1.0, 2.0))
    # the generator takes its coefficients through GeneratorConfig only
    with pytest.raises(ConfigError):
        GeneratorConfig(true_coeffs=(1.0, 2.0))
    with pytest.raises(ConfigError):
        GeneratorConfig(true_coeffs=(1.0, 2.0, 3.0, 4.0, float("nan")))


def test_generator_config_validation():
    with pytest.raises(ConfigError):
        GeneratorConfig(n=0)
    with pytest.raises(ConfigError):
        GeneratorConfig(n=10, seed=-1)
    with pytest.raises(ConfigError):
        GeneratorConfig(n=10, true_coeffs=(1.0, 2.0))
    with pytest.raises(ConfigError):
        GeneratorConfig(n=10, true_coeffs=(1, 2, 3, 4, float("inf")))


def test_scenario_validation():
    ok = dict(safe=[1.0] * 3, risky=[2.0] * 3, p=[0.5] * 3, frame=[1] * 3, choice=[0] * 3)
    make_arrays(**ok)
    bad_values = [
        ("frame", 0, "frame must be -1 or \\+1"),
        ("choice", 2, "choice must be 0 or 1"),
        ("p", 0.0, "win_prob"),
        ("p", 1.0, "win_prob"),
        ("p", math.nan, "win_prob"),
        ("safe", math.inf, "payoffs must be finite"),
        ("risky", -math.inf, "payoffs must be finite"),
    ]
    for column, value, message in bad_values:
        cols = {k: list(v) for k, v in ok.items()}
        cols[column][1] = value
        cols[column][2] = value
        with pytest.raises(InputError, match=f"^row 1 \\(scenario 1\\): {message}"):
            make_arrays(**cols)
    # the first rule a row breaks is the one reported
    with pytest.raises(InputError, match="row 0 .*payoffs"):
        make_arrays([math.nan], [2.0], [2.0], [0], [5])


def test_scenario_arrays_column_types():
    good = make_arrays([1.0, 2.0], [2.0, 3.0], [0.5, 0.5], [1, -1])
    fields = {name: getattr(good, name) for name in CSV_HEADER}
    with pytest.raises(InputError, match="column frame"):
        ScenarioArrays(**{**fields, "frame": fields["frame"].astype(float)})
    with pytest.raises(InputError, match="column safe"):
        ScenarioArrays(**{**fields, "safe": fields["safe"].tolist()})
    with pytest.raises(InputError, match="column p has 1 rows"):
        ScenarioArrays(**{**fields, "p": fields["p"][:1]})
    with pytest.raises(InputError, match="column id"):
        ScenarioArrays(**{**fields, "id": fields["id"].reshape(2, 1)})


def test_take_keeps_rows_together():
    data = generate_dataset(GeneratorConfig(n=20, seed=8))
    rows = np.array([5, 0, 19])
    part = data.take(rows)
    for name in CSV_HEADER:
        np.testing.assert_array_equal(getattr(part, name), getattr(data, name)[rows])


def test_take_reads_a_mask_or_a_slice_as_the_rows_they_select():
    data = generate_dataset(GeneratorConfig(n=20, seed=8))
    mask = data.choice == 1
    for rows, picked in (
        (mask, np.flatnonzero(mask)),
        (slice(3, 17, 4), np.arange(3, 17, 4)),
        (slice(None, None, -1), np.arange(19, -1, -1)),
    ):
        assert_same_columns(data.take(rows), data.take(picked))


def test_csv_round_trip_is_exact(tmp_path, monkeypatch):
    # several write chunks, the last one short
    monkeypatch.setattr(scenario_module, "_CSV_CHUNK_ROWS", 64)
    data = generate_dataset(GeneratorConfig(n=250, seed=3))
    path = tmp_path / "dataset.csv"
    write_dataset_csv(data, path)
    assert path.read_text() == reference_csv(data)
    again = read_dataset_csv(path)
    assert_same_columns(again, data)

    # serialization is stable: writing the reread data changes nothing
    path2 = tmp_path / "again.csv"
    write_dataset_csv(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_golden_seed42_dataset(tmp_path):
    assert main(["generate", "--n", "5000", "--seed", "42", "--out", str(tmp_path)]) == 0
    path = tmp_path / "dataset.csv"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SEED42_SHA256
    back = read_dataset_csv(path)
    assert_same_columns(back, generate_dataset(GeneratorConfig(n=5000, seed=42)))
    write_dataset_csv(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_csv_chunks_mix_exact_and_fallback_values(tmp_path, monkeypatch):
    # values the kernel renders exactly and values it hands to "%.17g" share
    # each 64-row chunk
    monkeypatch.setattr(scenario_module, "_CSV_CHUNK_ROWS", 64)
    rng = np.random.Generator(np.random.PCG64(12))
    n = 203
    payoff_fallbacks = [0.0, -0.0, 5e-324, -1e-7, 1e-6, 1e16, -2.5e17, 1.7976931348623157e308]
    safe = rng.uniform(-100.0, 100.0, n)
    risky = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 16.0, n)
    p = rng.uniform(1e-5, 1.0 - 1e-5, n)
    safe[::5] = np.resize(payoff_fallbacks, safe[::5].size)
    risky[2::7] = np.resize(payoff_fallbacks[::-1], risky[2::7].size)
    p[3::6] = np.resize([5e-324, 1e-7, 1e-6, 9e-7], p[3::6].size)
    data = make_arrays(safe, risky, p, rng.choice([-1, 1], n), rng.integers(0, 2, n))
    path = tmp_path / "mixed.csv"
    write_dataset_csv(data, path)
    assert path.read_bytes() == reference_csv(data).encode("ascii")
    assert_same_columns(read_dataset_csv(path), data)


def test_csv_ids_span_int64(tmp_path):
    ids = np.array([-(2**63), 0, 2**63 - 1], dtype=np.int64)
    data = replace(make_arrays([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.5] * 3, [1, -1, 1]), id=ids)
    path = tmp_path / "ids.csv"
    write_dataset_csv(data, path)
    assert path.read_bytes() == reference_csv(data).encode("ascii")
    assert path.read_text().splitlines()[1].startswith("-9223372036854775808,")
    assert_same_columns(read_dataset_csv(path), data)


@pytest.mark.parametrize("block", [None, 256, 4096])
def test_ids_of_up_to_eight_bytes_take_one_window_word(tmp_path, monkeypatch, block):
    # ids cross 10**8 inside a block and, with small blocks, between blocks;
    # a block whose id fields all fit 8 bytes (a sign included) reads them
    # from one window word, any other block from three
    def line_parser(text):
        raise AssertionError("the file went to the line parser")

    parse_ints = scenario_module._parse_ints
    words_seen = []

    def recording(buf, starts, ends, words):
        words_seen.append(words)
        return parse_ints(buf, starts, ends, words)

    monkeypatch.setattr(scenario_module, "_parse_lines", line_parser)
    monkeypatch.setattr(scenario_module, "_parse_ints", recording)
    if block:
        monkeypatch.setattr(scenario_module, "_READ_BLOCK_BYTES", block)
    n = 300
    crossing = np.arange(10**8 - n // 2, 10**8 + n // 2, dtype=np.int64)
    signed = np.resize(np.array([-9_999_999, -1, 0, 99_999_999, -10**8, -12_345_678]), n)
    rng = np.random.Generator(np.random.PCG64(5))
    base = make_arrays(
        rng.uniform(0.0, 100.0, n), rng.uniform(0.0, 150.0, n), rng.uniform(0.1, 0.9, n),
        rng.choice([-1, 1], n), rng.integers(0, 2, n),
    )
    for ids, widths in (
        (base.id, {1}),
        (base.id[::-1] * 333_667, {1}),  # up to 99_766_433, eight digits
        (crossing, {3} if block is None else {1, 3}),
        (signed, {1, 3} if block == 256 else {3}),
    ):
        data = replace(base, id=ids)
        path = tmp_path / "ids.csv"
        write_dataset_csv(data, path)
        words_seen.clear()
        assert_same_columns(read_dataset_csv(path), data)
        # each block parses its ids, then its frame and choice fields
        assert set(words_seen[::2]) == widths
        assert set(words_seen[1::2]) == {1}


def kernel_text(values):
    """Each float as the CSV writer's float kernel renders it, with its comma."""
    out = np.zeros((len(values), scenario_module._FIELD_WORDS), scenario_module._WORD)
    scenario_module._render_floats(np.array(values, dtype=np.float64), out)
    return [bytes(row).replace(b"\0", b"") for row in out]


def around(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


@settings(max_examples=300)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e17, 1e17),
        min_size=1,
        max_size=50,
    )
)
# powers of ten and their neighbours across the exact range and past both ends
@example(values=[v for k in range(-8, 18) for v in around(float(f"1e{k}"))])
@example(values=[-v for k in range(-8, 18) for v in around(float(f"1e{k}"))])
# the lower end of the exact range; exact ties in the 17th digit
@example(values=[1e-6, 9.9999999999999995e-07])
@example(values=[1234567890123456.75, 1234567890123456.25])
@example(values=[-0.0, 5e-324, 1.7976931348623157e308])
def test_float_kernel_matches_format(values):
    assert kernel_text(values) == [format(v, ".17g").encode() + b"," for v in values]


@settings(max_examples=300)
@given(
    ids=st.lists(
        st.integers(-(2**63), 2**63 - 1) | st.integers(0, 10**13), min_size=1, max_size=50
    )
)
# zero; a four-digit group filling up; each power of ten where a group starts,
# and the upper end of the exact range and past it; a negative id
@example(ids=[0, 9999, 10000])
@example(ids=[v for k in (4, 8, 12) for v in (10**k - 1, 10**k, 10**k + 1)])
@example(ids=[-1, -(2**63), 2**63 - 1])
def test_id_kernel_matches_str(ids):
    out = np.zeros((len(ids), scenario_module._ID_WORDS), scenario_module._WORD)
    scenario_module._render_ids(np.array(ids, dtype=np.int64), out)
    assert [bytes(row).replace(b"\0", b"") for row in out] == [str(i).encode() for i in ids]


def test_csv_header_and_shape(tmp_path):
    data = generate_dataset(GeneratorConfig(n=40, seed=1))
    path = tmp_path / "d.csv"
    write_dataset_csv(data, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "id,safe,risky,p,frame,choice"
    assert len(lines) == 41


def test_csv_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"

    with pytest.raises(DataParseError):
        read_dataset_csv(tmp_path / "missing.csv")

    path.write_text("")
    with pytest.raises(DataParseError):
        read_dataset_csv(path)

    path.write_text("id,foo,risky,p,frame,choice\n")
    with pytest.raises(DataParseError, match="header"):
        read_dataset_csv(path)

    path.write_text("id,safe,risky,p,frame,choice\n0,1.0,2.0,0.5,1\n")
    with pytest.raises(DataParseError, match="line 2"):
        read_dataset_csv(path)

    path.write_text("id,safe,risky,p,frame,choice\n0,1.0,2.0,1.5,1,0\n")
    with pytest.raises(DataParseError, match="line 2"):
        read_dataset_csv(path)

    path.write_text("id,safe,risky,p,frame,choice\n0,x,2.0,0.5,1,0\n")
    with pytest.raises(DataParseError, match="line 2"):
        read_dataset_csv(path)

    for body in ("", "\n\n", "  \n"):
        path.write_text("id,safe,risky,p,frame,choice\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataParseError, match="no rows"):
                read_dataset_csv(path)


def test_reader_reports_the_earliest_bad_line(tmp_path):
    path = tmp_path / "bad.csv"
    # a rule broken on line 3 comes before the unparsable line 5
    path.write_text(
        "id,safe,risky,p,frame,choice\n"
        "0,1,2,0.5,1,0\n1,1,2,0.5,0,0\n\n2,1,x,0.5,1,0\n"
    )
    with pytest.raises(DataParseError, match="^line 3: scenario 1: frame must be -1 or \\+1$"):
        read_dataset_csv(path)
    path.write_text("id,safe,risky,p,frame,choice\n0,1,2,0.5,1,0\n\n1,1,2,0.5,1.0,0\n")
    with pytest.raises(DataParseError, match="^line 4: invalid literal for int"):
        read_dataset_csv(path)
    # str.splitlines ends a line at a form feed, so this row has 3 fields
    path.write_text("id,safe,risky,p,frame,choice\n0,1,2\x0c,0.5,1,0\n")
    with pytest.raises(DataParseError, match="^line 2: expected 6 fields, got 3$"):
        read_dataset_csv(path)
    path.write_text("id,safe,risky,p,frame,choice\n99999999999999999999,1,2,0.5,1,0\n")
    with pytest.raises(DataParseError, match="^line 2: integer outside the int64 range"):
        read_dataset_csv(path)


def test_loader_accepts_what_int_and_float_accept(tmp_path):
    # underscores and splitlines' extra line breaks go through the line parser
    path = tmp_path / "odd.csv"
    path.write_text(
        "id,safe,risky,p,frame,choice\n1_0,1_0.5,2,0.5,1,0\x0c11,3,4,0.25,-1,1\r\n"
    )
    data = read_dataset_csv(path)
    np.testing.assert_array_equal(data.id, [10, 11])
    np.testing.assert_array_equal(data.safe, [10.5, 3.0])
    np.testing.assert_array_equal(data.frame, [1, -1])


def test_loader_accepts_negative_payoffs(tmp_path):
    # generated data is nonnegative, but the schema itself allows losses
    path = tmp_path / "loss.csv"
    path.write_text(
        "id,safe,risky,p,frame,choice\n0,-25,-80,0.3,-1,1\n1,10,50,0.6,1,0\n"
    )
    data = read_dataset_csv(path)
    assert data.safe[0] == -25.0
    assert data.risky[0] == -80.0


def test_metadata_sidecar(tmp_path):
    cfg = GeneratorConfig(n=12, seed=99, true_coeffs=(0.1, 0.2, 0.3, 0.4, 0.5))
    csv_path = tmp_path / "dataset.csv"
    write_dataset_csv(generate_dataset(cfg), csv_path)
    meta_path = write_metadata(cfg, csv_path)
    assert meta_path.name == "dataset.meta.json"
    meta = read_metadata(csv_path)
    assert meta == {
        "n": 12,
        "seed": 99,
        "true_coeffs": [0.1, 0.2, 0.3, 0.4, 0.5],
        "rng_algorithm": RNG_ALGORITHM,
    }
    assert json.loads(meta_path.read_text())["rng_algorithm"] == "numpy.random.PCG64"


def test_missing_or_malformed_metadata_is_a_parse_error(tmp_path):
    csv_path = tmp_path / "dataset.csv"
    with pytest.raises(DataParseError, match="^metadata file not found: "):
        read_metadata(csv_path)
    for raw in (b"{not json", b'{"n": 1,}', b"", '{"n": "\u00e9"}'.encode("utf-8")):
        scenario_module.metadata_path(csv_path).write_bytes(raw)
        with pytest.raises(DataParseError, match="^metadata file unreadable: "):
            read_metadata(csv_path)


def test_as_arrays_rejects_empty():
    with pytest.raises(InputError):
        as_arrays([])
    data = generate_dataset(GeneratorConfig(n=5, seed=1))
    assert as_arrays(data) is data


# --- property tests of the CSV reader and writer ---

payoffs = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300]),
)
probabilities = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
scenario_rows = st.tuples(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    payoffs,
    payoffs,
    probabilities,
    st.sampled_from([-1, 1]),
    st.sampled_from([0, 1]),
)


@settings(max_examples=150)
@given(rows=st.lists(scenario_rows, min_size=1, max_size=40))
def test_csv_round_trip_property(rows):
    cols = list(zip(*rows))
    data = ScenarioArrays(
        **{
            name: np.array(col, dtype=np.float64 if name in ("safe", "risky", "p") else np.int64)
            for name, col in zip(CSV_HEADER, cols)
        }
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_dataset_csv(data, path)
        assert path.read_text() == reference_csv(data)
        back = read_dataset_csv(path)
        assert_same_columns(back, data)
        write_dataset_csv(back, Path(tmp) / "again.csv")
        assert (Path(tmp) / "again.csv").read_bytes() == path.read_bytes()


def corrupt(fields, kind, pick):
    """Break one CSV row in the way named by ``kind``."""
    fields = list(fields)
    if kind == "drop_field":
        del fields[pick % len(fields)]
    elif kind == "add_field":
        fields.insert(pick % (len(fields) + 1), "0")
    elif kind == "non_numeric":
        fields[pick % len(fields)] = ("abc", "1.2.3", "", "0x1f", "--1")[pick % 5]
    elif kind == "float_in_int_column":
        fields[(0, 4, 5)[pick % 3]] = "1.0"
    elif kind == "p_outside":
        fields[3] = ("0", "1", "1.5", "-0.2", "nan", "inf")[pick % 6]
    elif kind == "frame_zero":
        fields[4] = "0"
    elif kind == "choice_two":
        fields[5] = "2"
    elif kind == "inf_payoff":
        fields[1 + pick % 2] = ("inf", "-inf", "nan")[pick % 3]
    elif kind == "non_ascii":
        i = pick % len(fields)
        # a no-break space (bytes c2 a0), which float() would strip, an
        # accented letter, or a minus sign in place of the hyphen
        fields[i] = ("\u00a0" + fields[i], fields[i] + "\u00e9", "\u2212" + fields[i])[pick % 3]
    return fields


@settings(max_examples=120)
@given(
    row=st.integers(min_value=0, max_value=24),
    kind=st.sampled_from(
        [
            "drop_field",
            "add_field",
            "non_numeric",
            "float_in_int_column",
            "p_outside",
            "frame_zero",
            "choice_two",
            "inf_payoff",
            "non_ascii",
        ]
    ),
    pick=st.integers(min_value=0, max_value=59),
    blank_before=st.booleans(),
)
def test_malformed_line_is_named(row, kind, pick, blank_before):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_dataset_csv(generate_dataset(GeneratorConfig(n=25, seed=31)), path)
        header, *body = path.read_text().splitlines()
    body[row] = ",".join(corrupt(body[row].split(","), kind, pick))
    if blank_before:
        body.insert(row, "")
    bad_line = row + (3 if blank_before else 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
        with pytest.raises(DataParseError) as info:
            read_dataset_csv(path)
        assert info.value.line == bad_line
        assert str(info.value).startswith(f"line {bad_line}: ")

        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["fit", "symbolic", str(path), "--out", tmp])
        assert code == 2
        assert f"line {bad_line}: " in stderr.getvalue()


# --- the reader's numpy kernel against the line-by-line parser ---


def reference_read(path):
    """What reading ``path`` gives by the line-by-line parser alone: its
    columns, or the message of the DataParseError it raises."""
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError:
        return "non-ASCII"
    try:
        return scenario_module._parse_lines(text)
    except DataParseError as exc:
        return str(exc)


def assert_reads_as_the_line_parser(path):
    want = reference_read(path)
    try:
        got = read_dataset_csv(path)
    except DataParseError as exc:
        assert isinstance(want, str), exc
        if want == "non-ASCII":
            assert "non-ASCII byte" in str(exc)
        else:
            assert str(exc) == want
    else:
        assert not isinstance(want, str), want
        assert_same_columns(got, want)


def decimal_spelling(digits, point, negative):
    text = digits if point is None else digits[:point] + "." + digits[point:]
    return "-" * negative + text


# fixed-notation decimals of 1 to 30 digits with or without a point, in and
# past the kernel's 24-byte window
decimals = st.builds(
    decimal_spelling,
    st.text("0123456789", min_size=1, max_size=30),
    st.none() | st.integers(0, 30),
    st.booleans(),
)
odd_floats = st.one_of(
    decimals,
    st.floats().map(lambda x: f"{x:e}"),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e-5, max_value=1e-5).map(
        lambda x: f"{x:.30f}"
    ),
    st.sampled_from(
        [
            "-0.0", "0", "-0", "0.", ".5", "-.5", ".", "-", "", "--1", "1-", "1.2.3", "1..2",
            "5e-324", "2.2250738585072014e-308", "1e16", "12345678901234567890.5",
            "1.2345678901234567890123", "9007199254740993", "1_0.5", "+1", " 1", "1 ",
            "inf", "-inf", "nan", "0x1f", "abc", "٣", "1é", "1/2",
        ]
    ),
)
odd_ints = st.one_of(
    st.integers(-(2**64), 2**64).map(str),
    st.sampled_from(
        [
            str(2**63 - 1), str(-(2**63)), str(2**63), str(-(2**63) - 1), "-0", "007",
            "1_0", "+1", " 1", "1.0", "", "-", "1e3", "99999999999999999999",
            "000000000000000000000001",
        ]
    ),
)
good_rows = st.tuples(
    st.integers(-(2**63), 2**63 - 1).map(str),
    payoffs.map(lambda x: format(x, ".17g")),
    payoffs.map(lambda x: format(x, ".17g")),
    probabilities.map(lambda x: format(x, ".17g")),
    st.sampled_from(["-1", "1"]),
    st.sampled_from(["0", "1"]),
).map(list)


# (column, value) pairs in the writer's spelling that break a scenario rule
RULE_BREAKS = [(3, "0"), (3, "1"), (3, "1.5"), (4, "0"), (5, "2")]


@st.composite
def csv_files(draw):
    """CSV bytes: writer-style rows with a few fields, line breaks or the
    header spelled otherwise, and a few values, spelled as the writer
    spells them, that break a scenario rule."""
    rows = draw(st.lists(good_rows, min_size=1, max_size=30))
    for _ in range(draw(st.integers(0, 3))):
        row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 5))
        rows[row][col] = draw(odd_floats if col in (1, 2, 3) else odd_ints)
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(0, len(rows) - 1))
        col, value = draw(st.sampled_from(RULE_BREAKS))
        rows[row][col] = value
    header = draw(
        st.sampled_from([",".join(CSV_HEADER)] * 4 + ["id, safe,risky,p,frame,choice", "ID,safe"])
    )
    lines = [header] + [",".join(row) for row in rows]
    breaks = ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 2))):
        breaks[draw(st.integers(0, len(lines) - 1))] = draw(
            st.sampled_from(["\r\n", "\n\n", "\n  \n", "\x0c", "\r", "\n\x0b\n", ",\n"])
        )
    if draw(st.booleans()) and draw(st.booleans()):
        breaks[-1] = ""
    return "".join(line + end for line, end in zip(lines, breaks)).encode("utf-8")


@settings(max_examples=300)
@given(raw=csv_files(), block=st.sampled_from([None, 64, 200]))
@example(raw=(",".join(CSV_HEADER) + "\n1,1.2.3,2,0.5,1,0\n").encode(), block=None)
@example(raw=(",".join(CSV_HEADER) + "\n1,1.5,2,0.5,1,0").encode(), block=None)
def test_reader_matches_the_line_parser(raw, block):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(raw)
        saved = scenario_module._READ_BLOCK_BYTES
        scenario_module._READ_BLOCK_BYTES = block or saved
        try:
            assert_reads_as_the_line_parser(path)
        finally:
            scenario_module._READ_BLOCK_BYTES = saved


def test_header_alone_has_no_rows_whatever_follows_the_file(tmp_path):
    header = ",".join(CSV_HEADER).encode()
    path = tmp_path / "d.csv"
    path.write_bytes(header)
    with pytest.raises(DataParseError, match="^line 1: dataset has a header but no rows$"):
        read_dataset_csv(path)
    # the spare byte after the file is not part of it, even where it reads "\n"
    buf = np.frombuffer(header + b"\n", np.uint8).copy()
    with pytest.raises(scenario_module._Unparsed):
        scenario_module._read_columns(buf, len(header))
    buf = np.frombuffer(header + b"\r\n", np.uint8).copy()
    with pytest.raises(scenario_module._Unparsed):
        scenario_module._read_columns(buf, len(header) + 1)


def test_two_points_are_a_parse_error(tmp_path):
    path = tmp_path / "d.csv"
    for field in ("1.2.3", "12.34.", ".1.", "0.5.5"):
        path.write_text(f"id,safe,risky,p,frame,choice\n0,1,2,0.5,1,0\n1,{field},2,0.5,1,0\n")
        with pytest.raises(DataParseError, match="^line 3: could not convert string to float"):
            read_dataset_csv(path)


@pytest.mark.parametrize("block", [None, 64, 1000])
def test_writer_output_takes_the_numpy_path(tmp_path, monkeypatch, block):
    def line_parser(text):
        raise AssertionError("the file went to the line parser")

    monkeypatch.setattr(scenario_module, "_parse_lines", line_parser)
    if block:
        monkeypatch.setattr(scenario_module, "_READ_BLOCK_BYTES", block)
    rng = np.random.Generator(np.random.PCG64(8))
    data = generate_dataset(GeneratorConfig(n=3000, seed=4))
    # negative ids, payoffs and values the writer spells in e-notation
    # (converted field by field)
    n = 300
    odd = make_arrays(
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-9.0, 20.0, n),
        np.resize([0.0, -0.0, 5e-324, 1e-7, -1e300, 123.0, 4.5e15], n),
        rng.uniform(1e-9, 1.0, n),
        rng.choice([-1, 1], n),
        rng.integers(0, 2, n),
    )
    odd = replace(odd, id=rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64))
    for arrays in (data, odd):
        path = tmp_path / "d.csv"
        write_dataset_csv(arrays, path)
        assert_same_columns(read_dataset_csv(path), arrays)
        # the same file with "\r\n" line ends
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert_same_columns(read_dataset_csv(path), arrays)


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_rule_breaking_row_is_named_without_the_line_parser(tmp_path, monkeypatch, end, block):
    def line_parser(text):
        raise AssertionError("the file went to the line parser")

    path = tmp_path / "d.csv"
    write_dataset_csv(generate_dataset(GeneratorConfig(n=200, seed=6)), path)
    header, *body = path.read_text().splitlines()
    rules = {
        1: "payoffs must be finite",
        2: "payoffs must be finite",
        3: "win_prob must lie strictly in (0, 1)",
        4: "frame must be -1 or +1",
        5: "choice must be 0 or 1",
    }
    for col, value in RULE_BREAKS + [(1, "inf"), (2, "nan")]:
        rows = [line.split(",") for line in body]
        # two bad rows: the first one is named
        for row in (137, 150):
            rows[row][col] = value
        path.write_bytes(end.join([header, *map(",".join, rows), ""]).encode())
        want = f"line 139: scenario 137: {rules[col]}"
        assert reference_read(path) == want
        with monkeypatch.context() as patch:
            patch.setattr(scenario_module, "_parse_lines", line_parser)
            if block:
                patch.setattr(scenario_module, "_READ_BLOCK_BYTES", block)
            with pytest.raises(DataParseError) as info:
                read_dataset_csv(path)
        assert str(info.value) == want
        assert info.value.line == 139


def decimal_to_float(digits, e):
    return scenario_module._decimal_to_float(
        np.array(digits, np.uint64), np.array(e, np.intp)
    )


def midpoint_cases(count, seed):
    """(D, e) with D * 10**-e exactly halfway between two adjacent floats,
    and its neighbours D - 1 and D + 1."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cases = []
    while len(cases) < 3 * count:
        k = int(rng.integers(-30, 12))
        m = int(rng.integers(2**52, 2**53))
        half = Fraction(2 * m + 1, 2) * Fraction(2) ** k
        for e in range(25):
            scaled = half * 10**e
            if scaled.denominator == 1 and scaled.numerator < 2**64 - 1:
                cases += [(scaled.numerator + d, e) for d in (-1, 0, 1)]
                break
    return cases


def near_midpoint_cases(count, seed):
    """(D, e) with D the integers just below and just above 10**e times a
    midpoint between two adjacent floats near 10**(18 - e): decimals this
    close to a tie are the products that need the table entry's lower word."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cases = []
    for _ in range(count):
        e = int(rng.integers(0, 25))
        m = int(rng.integers(2**52, 2**53))
        # a float with 19 significant decimal digits at exponent -e
        k = math.floor(math.log2(10**18 / 10**e)) - 52 + int(rng.integers(-2, 3))
        exact = (Fraction(2 * m + 1, 2) * Fraction(2) ** k) * 10**e
        low = exact.numerator // exact.denominator
        if 0 < low < 2**64 - 1:
            cases += [(low, e), (low + 1, e)]
    return cases


def test_decimal_rounding_matches_float():
    cases = [(9007199254740993, 0), (9007199254740995, 0), (45035996273704965, 1), (1, 0)]
    cases += [(2**64 - 1, e) for e in range(25)] + [(1, e) for e in range(25)]
    cases += midpoint_cases(2000, seed=1) + near_midpoint_cases(4000, seed=2)
    digits, e = map(list, zip(*cases))
    got = decimal_to_float(digits, e)
    want = [float(f"{d}e-{x}") for d, x in cases]
    assert got[0] == 2.0**53
    bad = [(c, g, w) for c, g, w in zip(cases, got.tolist(), want) if g != w]
    assert not bad, bad[:5]


@settings(max_examples=300)
@given(digits=st.integers(1, 2**64 - 1), e=st.integers(0, 24))
def test_decimal_rounding_property(digits, e):
    assert decimal_to_float([digits], [e])[0] == float(f"{digits}e-{e}")
