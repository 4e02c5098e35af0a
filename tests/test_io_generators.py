"""Serialization round trips, parse failures, and the seeded generators."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircover.errors import InvalidMatrix, ParseError
from faircover.io_generators import (
    gen_biased,
    gen_geometric,
    gen_sum_of_radii,
    gen_synthetic,
    load_instance,
    save_instance,
)
from faircover.model import SetSystem, validate_instance


def sample_system(weighted=False):
    return SetSystem(
        4,
        [[0, 1], [2], [2, 3], [0, 3]],
        [0, 0, 1, 1],
        weights=[1.5, 2.0, 0.25, 3.0] if weighted else None,
    )


# ----------------------------------------------------------------------- JSON


def test_json_round_trip_identity(tmp_path):
    for weighted in (False, True):
        path = tmp_path / f"inst{weighted}.json"
        original = sample_system(weighted)
        save_instance(original, path)
        assert load_instance(path) == original


def test_json_bytes_are_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    system = sample_system(weighted=True)
    save_instance(system, a)
    save_instance(load_instance(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_json_is_one_sorted_line(tmp_path):
    path = tmp_path / "a.json"
    save_instance(sample_system(weighted=True), path)
    assert path.read_text() == (
        '{"colors": [0, 0, 1, 1], "n": 4, "names": null, '
        '"sets": [[0, 1], [2], [2, 3], [0, 3]], "weights": [1.5, 2.0, 0.25, 3.0]}\n'
    )


def test_indented_json_still_loads(tmp_path):
    # Files were written with indent=1, one value per line, before the
    # one-line layout.
    for weighted in (False, True):
        system = sample_system(weighted)
        payload = {"n": system.n, "sets": system.sets, "colors": system.colors,
                   "weights": system.weights, "names": None}
        path = tmp_path / f"indented{weighted}.json"
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        assert load_instance(path) == system


@pytest.mark.parametrize(
    "data, first",
    [
        (b'{"n": 1.5, "sets": [[true]], "colors": [0.5]}', "1.5"),
        (b'{"n": 2, "sets": [[0, 1], [false, 0.5]], "colors": ["0"]}', "False"),
        (b'{"n": 2, "sets": [[0, 1], [1, 0.5]], "colors": [null]}', "0.5"),
        (b'{"n": 2, "sets": [[0, 1]], "colors": [0, "1"]}', "'1'"),
        (b'{"n": 2, "sets": ["ab"], "colors": [0]}', "'a'"),
        (b'{"n": 2, "sets": {"01": 1}, "colors": [0]}', "'0'"),
    ],
    ids=["n", "element-bool", "element-float", "color-string", "set-string", "sets-object"],
)
def test_json_names_the_first_non_integer(tmp_path, data, first):
    # The order is n, then element ids set by set, then colors; a string
    # or object where a list belongs is read as its characters or keys.
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        load_instance(path)
    assert str(err.value) == f"{first} is not an integer (n, element ids, colors)"


def test_json_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError) as err:
        load_instance(path)
    assert err.value.line == 1

    path.write_text("[1, 2]")
    with pytest.raises(ParseError, match="top level"):
        load_instance(path)

    path.write_text('{"n": 2, "sets": [[0]]}')
    with pytest.raises(ParseError, match="colors"):
        load_instance(path)

    path.write_text('{"n": 2, "sets": [[0], [1]], "colors": [0]}')
    with pytest.raises(ParseError, match="malformed"):
        load_instance(path)

    # Validation would reject either file below (an empty color, an
    # uncovered element) only after sizing a table by the color id or a
    # mask by n.
    path.write_text('{"n": 1, "sets": [[0]], "colors": [1000000000]}')
    with pytest.raises(ParseError, match="^color 1000000000 is not below the 1 sets$"):
        load_instance(path)

    path.write_text('{"n": 1000000000, "sets": [[0], [1, 0]], "colors": [0, 0]}')
    with pytest.raises(ParseError, match="^n = 1000000000 exceeds the 2 element ids"):
        load_instance(path)


def test_unwritable_path_is_an_os_error(tmp_path):
    with pytest.raises(OSError):
        save_instance(sample_system(), tmp_path / "no" / "such" / "dir.json")


# ------------------------------------------------------------------------ CSV


def test_csv_round_trip_unweighted(tmp_path):
    path = tmp_path / "inst.csv"
    original = sample_system()
    save_instance(original, path, format="csv")
    head = path.read_text().splitlines()[0]
    assert head == "group,e0,e1,e2,e3"
    assert load_instance(path, format="csv") == original


def test_csv_round_trip_weighted(tmp_path):
    path = tmp_path / "inst.csv"
    original = sample_system(weighted=True)
    save_instance(original, path, format="csv")
    assert path.read_text().splitlines()[0] == "group,weight,e0,e1,e2,e3"
    assert load_instance(path, format="csv") == original


def test_csv_weights_carry_twelve_significant_digits(tmp_path):
    path = tmp_path / "inst.csv"
    w = 0.123456789012345
    system = SetSystem(1, [[0], [0]], [0, 1], weights=[w, 7.0])
    save_instance(system, path, format="csv")
    assert "0.123456789012" in path.read_text()
    back = load_instance(path, format="csv")
    assert back.weights[0] == pytest.approx(w, rel=1e-11)


def test_csv_two_label_example(tmp_path):
    path = tmp_path / "inst.csv"
    path.write_text("group,e0,e1\nA,1,0\nB,0,1\n")
    system = load_instance(path, format="csv")
    assert system.n == 2
    assert system.num_sets == 2
    assert system.num_colors == 2
    assert system.sets == ((0,), (1,))


def test_csv_labels_intern_in_first_appearance_order(tmp_path):
    path = tmp_path / "inst.csv"
    path.write_text("group,e0\nblue,1\nred,1\nblue,0\n")
    assert load_instance(path, format="csv").colors == (0, 1, 0)


def test_csv_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("")
    with pytest.raises(ParseError) as err:
        load_instance(path, format="csv")
    assert err.value.line == 1

    path.write_text("shape,e0\ng0,1\n")
    with pytest.raises(ParseError) as err:
        load_instance(path, format="csv")
    assert (err.value.line, err.value.column) == (1, 1)

    path.write_text("group,e0,e1\ng0,1\n")
    with pytest.raises(ParseError) as err:
        load_instance(path, format="csv")
    assert err.value.line == 2

    path.write_text("group,weight,e0\ng0,cheap,1\n")
    with pytest.raises(ParseError) as err:
        load_instance(path, format="csv")
    assert (err.value.line, err.value.column) == (2, 2)


def test_csv_non_binary_cell_is_invalid_matrix(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("group,e0,e1\ng0,1,2\n")
    with pytest.raises(InvalidMatrix) as err:
        load_instance(path, format="csv")
    assert isinstance(err.value, ParseError)
    assert (err.value.line, err.value.column) == (2, 3)


def test_large_matrix_shape(tmp_path):
    system = gen_synthetic(218, 993, 2, coverage_dist=("uniform", 0.05), seed=0)
    path = tmp_path / "big.csv"
    save_instance(system, path, format="csv")
    back = load_instance(path, format="csv")
    assert back.num_sets == 1986
    assert back.n == 218
    assert back == system


@pytest.mark.parametrize(
    "fmt, data, line",
    [
        ("json", b'{"n": 1,\n "sets": [[0]],\n "colors": [\xff]}', 3),
        ("csv", b"group,e0\ng0,1\n\xfe\xff,1\n", 3),
        ("json", b"[" * 100_000, None),
        ("json", b'{"n": ' + b"9" * 5000 + b', "sets": [], "colors": []}', None),
        ("json", b'{"n": 1, "sets": [[1e400]], "colors": [0]}', None),
        ("csv", b"group,e0\ng0,1\n" + b"g" * 200_000 + b",1\n", 3),
    ],
    ids=["json-not-utf8", "csv-not-utf8", "json-deep", "json-long-int",
         "json-float-overflow", "csv-huge-cell"],
)
def test_malformed_files_raise_parse_error(tmp_path, fmt, data, line):
    path = tmp_path / f"bad.{fmt}"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        load_instance(path, format=fmt)
    assert err.value.line == line


@pytest.mark.parametrize(
    "data",
    [
        b'{"n": true, "sets": [[0]], "colors": [false]}',
        b'{"n": 2, "sets": [[0, 1.5]], "colors": [0]}',
        b'{"n": 1, "sets": [[0]], "colors": [0.5]}',
    ],
    ids=["json-bool-n-and-color", "json-fractional-element", "json-fractional-color"],
)
def test_json_non_integers_raise_parse_error(tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(ParseError, match="is not an integer"):
        load_instance(path)


def _mutate(data: bytes, edits) -> bytes:
    """Apply (position, byte, kind) edits: kind 0 overwrites, 1 inserts, 2
    deletes the byte at position modulo the current length."""
    out = bytearray(data)
    for pos, byte, kind in edits:
        if not out:
            out.append(byte)
            continue
        pos %= len(out)
        if kind == 0:
            out[pos] = byte
        elif kind == 1:
            out.insert(pos, byte)
        else:
            del out[pos]
    return bytes(out)


@pytest.fixture(scope="module")
def fuzz_seeds(tmp_path_factory):
    """A scratch directory plus a valid weighted file in each format."""
    root = tmp_path_factory.mktemp("fuzz")
    seeds = {}
    for fmt in ("json", "csv"):
        save_instance(sample_system(weighted=True), root / f"seed.{fmt}", format=fmt)
        seeds[fmt] = (root / f"seed.{fmt}").read_bytes()
    return root, seeds


_edits = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 255), st.integers(0, 2)),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(
    fmt=st.sampled_from(["json", "csv"]),
    data=st.one_of(
        st.binary(max_size=200),
        st.tuples(st.sampled_from(["json", "csv"]), _edits),
    ),
)
def test_loaders_return_or_raise_parse_error(fuzz_seeds, fmt, data):
    root, seeds = fuzz_seeds
    if isinstance(data, tuple):  # a valid file of either format, mutated
        seed_fmt, edits = data
        data = _mutate(seeds[seed_fmt], edits)
    path = root / f"fuzz.{fmt}"
    path.write_bytes(data)
    try:
        system = load_instance(path, format=fmt)
    except ParseError:
        return
    assert isinstance(system, SetSystem)


def test_unknown_format_is_refused(tmp_path):
    with pytest.raises(ValueError):
        save_instance(sample_system(), tmp_path / "x", format="xml")
    with pytest.raises(ValueError):
        load_instance(tmp_path / "x", format="xml")


# ----------------------------------------------------------------- generators


def test_synthetic_deterministic_per_seed():
    a = gen_synthetic(20, 5, 2, seed=7)
    b = gen_synthetic(20, 5, 2, seed=7)
    c = gen_synthetic(20, 5, 2, seed=8)
    assert a == b
    assert a != c


def test_synthetic_repair_keeps_instances_coverable():
    for seed in range(5):
        system = gen_synthetic(30, 3, 2, coverage_dist=("uniform", 0.02), seed=seed)
        assert validate_instance(system).ok


def test_synthetic_uniform_full_probability():
    system = gen_synthetic(6, 2, 2, coverage_dist=("uniform", 1.0), seed=0)
    assert all(s == tuple(range(6)) for s in system.sets)


def test_synthetic_zipf_front_loads_membership():
    system = gen_synthetic(30, 5, 2, coverage_dist=("zipf", 2.0), seed=3)
    # Element 0 joins with probability one; deep-tail elements are rare.
    assert all(0 in s for s in system.sets)
    first = sum(1 for s in system.sets if 0 in s)
    last = sum(1 for s in system.sets if 29 in s)
    assert first > last


def test_synthetic_weight_bounds():
    system = gen_synthetic(10, 4, 2, weight_dist=("uniform", 0.5, 2.0), seed=1)
    assert system.weights is not None
    assert all(0.5 <= w <= 2.0 for w in system.weights)
    assert gen_synthetic(10, 4, 2, seed=1).weights is None


def test_synthetic_rejects_unknown_distributions():
    with pytest.raises(ValueError):
        gen_synthetic(5, 2, 2, coverage_dist=("gauss", 0.3))
    with pytest.raises(ValueError):
        gen_synthetic(5, 2, 2, weight_dist=("pareto", 1, 2))


def test_generators_without_sets_name_m_per_color():
    with pytest.raises(ValueError, match="^m_per_color = 0 and k = 2 give no sets for 5 elements$"):
        gen_synthetic(5, 0, 2)
    with pytest.raises(ValueError, match="^m_per_color = 3 and k = 0 give no sets for 5 elements$"):
        gen_synthetic(5, 3, 0)
    with pytest.raises(ValueError, match="^m_per_color = 0 gives no sets for 5 elements$"):
        gen_biased(5, 0)
    # An empty universe needs no set.
    assert gen_synthetic(0, 0, 2, seed=1) == SetSystem(0, [], [])
    assert gen_biased(0, 0, seed=1) == SetSystem(0, [], [])
    assert gen_synthetic(0, 2, 2, seed=1) == SetSystem(0, [[]] * 4, [0, 0, 1, 1])


def test_biased_preset_shape():
    system = gen_biased(40, m_per_color=6, seed=2)
    assert system.num_sets == 12
    assert system.colors == tuple([0] * 6 + [1] * 6)
    assert validate_instance(system).ok
    assert gen_biased(40, m_per_color=6, seed=2) == system


def test_biased_preset_piles_coverage_on_color_zero():
    system = gen_biased(60, m_per_color=8, seed=5)
    mass = [0, 0]
    for i, s in enumerate(system.sets):
        mass[system.colors[i]] += len(s)
    assert mass[0] > 2 * mass[1]


def test_geometric_balls_are_closed():
    points = [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)]
    system = gen_geometric(points, [0, 1, 0], radius=1.0)
    assert system.sets == ((0, 1), (0, 1), (2,))
    assert system.colors == (0, 1, 0)
    assert system.weights is None
    with pytest.raises(ValueError):
        gen_geometric(points, [0, 1], radius=1.0)


def test_sum_of_radii_family():
    points = [(0.0, 0.0), (1.0, 0.0)]
    system = gen_sum_of_radii(points, [0, 1])
    assert system.sets == ((0,), (0, 1), (1,), (0, 1))
    assert system.colors == (0, 0, 1, 1)
    assert system.weights == pytest.approx((1e-6, 1.0, 1e-6, 1.0))


def test_sum_of_radii_single_point_gets_positive_weight():
    system = gen_sum_of_radii([(2.0, 2.0)], [0])
    assert system.sets == ((0,),)
    assert system.weights[0] > 0


def test_sum_of_radii_weights_are_distances():
    # Collinear points 5 apart: pairwise distances are 0, 5, 10.
    points = [(0.0, 0.0), (3.0, 4.0), (6.0, 8.0)]
    system = gen_sum_of_radii(points, [0, 0, 1])
    assert system.sets == (
        (0,), (0, 1), (0, 1, 2),        # centered on point 0
        (1,), (0, 1, 2),                # centered on point 1
        (2,), (1, 2), (0, 1, 2),        # centered on point 2
    )
    assert system.colors == (0, 0, 0, 0, 0, 1, 1, 1)
    w_zero = 1e-6 * 10.0
    assert system.weights == pytest.approx(
        (w_zero, 5.0, 10.0, w_zero, 5.0, w_zero, 5.0, 10.0)
    )
