import json
import random
from fractions import Fraction as F

import pytest

from fiberdist import core
from fiberdist.core import (
    FiniteMetricSpace,
    PairTable,
    ParseError,
    SpaceValidationError,
    canonical_space_obj,
    decimal_str,
    format_scalar,
    parse_scalar,
    space_document_from_obj,
    space_from_obj,
    validate_space,
)


def permuted(space, perm):
    """Relabeled copy: new position k holds old point perm[k]."""
    points = tuple(space.points[p] for p in perm)
    matrix = tuple(tuple(space.dist[pi][pj] for pj in perm) for pi in perm)
    return FiniteMetricSpace(points, matrix, space.mode)


def canonical_space_json(space, basepoint=None):
    """The space file `fiberdist validate` prints."""
    return json.dumps(canonical_space_obj(space, basepoint), indent=2) + "\n"


def transposed(table):
    return PairTable(tuple(zip(*table.values)))


def scale(table, k):
    return PairTable(tuple(tuple(v * k for v in row) for row in table.values))


def two_point(d=F(5)):
    return validate_space(["x", "y"], [[F(0), d], [d, F(0)]], "metric")


class TestScalar:
    def test_parse_forms(self):
        assert parse_scalar("5") == F(5)
        assert parse_scalar("-3") == F(-3)
        assert parse_scalar("5/2") == F(5, 2)
        assert parse_scalar(" 10/4 ") == F(5, 2)

    @pytest.mark.parametrize("bad", ["2.5", "", "x", "1/0", "1//2", "1e3", 1, None])
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_scalar(bad)

    def test_oversized_literal_is_a_parse_error(self):
        # Python refuses int() on more than sys.get_int_max_str_digits() digits.
        for text in ["1" * 5000, "1/" + "3" * 5000, "-" + "7" * 5000 + "/2"]:
            with pytest.raises(ParseError, match="too many digits"):
                parse_scalar(text)
        assert parse_scalar("9" * 4000) == 10**4000 - 1

    def test_round_trip(self):
        for text in ["0", "7", "-7", "5/2", "-9/4"]:
            assert format_scalar(parse_scalar(text)) == text

    def test_cross_multiplication_oracle(self):
        # Independent re-derivation of Fraction addition on random pairs.
        rng = random.Random(42)
        for _ in range(1000):
            a, c = rng.randint(-50, 50), rng.randint(-50, 50)
            b, d = rng.randint(1, 30), rng.randint(1, 30)
            direct = F(a, b) + F(c, d)
            cross = F(a * d + c * b, b * d)
            assert direct == cross
            assert direct.denominator > 0
            assert F(direct.numerator, direct.denominator) == direct

    def test_decimal_str(self):
        assert decimal_str(F(5, 2)) == "2.5"
        assert decimal_str(F(-5, 2)) == "-2.5"
        assert decimal_str(F(1, 3), 4) == "0.3333"
        assert decimal_str(F(7)) == "7"


class TestValidateSpace:
    def test_two_point_valid(self):
        sp = two_point()
        assert sp.points == ("x", "y")
        assert sp.d(0, 1) == F(5)

    def test_triangle_violation_names_triple(self):
        mat = [[F(0), F(1), F(3)], [F(1), F(0), F(1)], [F(3), F(1), F(0)]]
        with pytest.raises(SpaceValidationError) as err:
            validate_space(["x", "y", "z"], mat, "metric")
        assert err.value.axiom == "triangle_violation"
        assert err.value.witness == (0, 1, 2)

    def test_zero_distance_distinct_points(self):
        mat = [[F(0), F(0)], [F(0), F(0)]]
        sp = validate_space(["x", "y"], mat, "pseudometric")
        assert sp.mode == "pseudometric"
        with pytest.raises(SpaceValidationError) as err:
            validate_space(["x", "y"], mat, "metric")
        assert err.value.axiom == "zero_distance_distinct"

    @pytest.mark.parametrize(
        "points,matrix,axiom",
        [
            (["x"], [[F(0), F(1)]], "square_matrix"),
            (["x", "x"], [[F(0), F(1)], [F(1), F(0)]], "duplicate_labels"),
            (["x", "y"], [[F(0), F(-1)], [F(-1), F(0)]], "negative_entry"),
            (["x", "y"], [[F(1), F(2)], [F(2), F(0)]], "nonzero_diagonal"),
            (["x", "y"], [[F(0), F(1)], [F(2), F(0)]], "asymmetric"),
            (["x", "y"], [[0, 0.5], [0.5, 0]], "rational_entry"),
            (["x", "y"], [[F(0), "1"], ["1", F(0)]], "rational_entry"),
            (["x", "y"], [[F(0), True], [True, F(0)]], "rational_entry"),
            (["x", "y"], [[F(0), F(-1)], [F(-1), 1.0]], "rational_entry"),
        ],
    )
    def test_axiom_order(self, points, matrix, axiom):
        with pytest.raises(SpaceValidationError) as err:
            validate_space(points, matrix, "metric")
        assert err.value.axiom == axiom

    def test_rational_entry_witness(self):
        with pytest.raises(SpaceValidationError) as err:
            validate_space(["x", "y"], [[F(0), F(-1)], [F(-1), 1.0]], "metric")
        assert err.value.witness == (1, 1)

    def test_int_entries_kept(self):
        sp = validate_space(["x", "y"], [[0, 3], [3, 0]], "metric")
        assert sp.dist == ((0, 3), (3, 0))
        assert all(type(v) is int for row in sp.dist for v in row)

    def test_idempotent(self):
        sp = two_point()
        again = validate_space(sp.points, sp.dist, sp.mode)
        assert again == sp

    def test_relabeling_invariance(self):
        rng = random.Random(9)
        mat = [[F(0), F(2), F(3)], [F(2), F(0), F(4)], [F(3), F(4), F(0)]]
        sp = validate_space(["a", "b", "c"], mat, "metric")
        for _ in range(10):
            perm = list(range(3))
            rng.shuffle(perm)
            shuffled = permuted(sp, perm)
            again = validate_space(shuffled.points, shuffled.dist, shuffled.mode)
            for i in range(3):
                for j in range(3):
                    assert again.d(i, j) == sp.d(perm[i], perm[j])


class TestSpaceFile:
    def test_round_trip_canonical(self):
        sp = validate_space(
            ["x", "y"], [[F(0), F(5, 2)], [F(5, 2), F(0)]], "metric"
        )
        text = canonical_space_json(sp)
        again = space_from_obj(json.loads(text))
        assert again == sp
        assert canonical_space_json(again) == text

    def test_basepoint_survives(self):
        obj = {
            "points": ["e", "x"],
            "matrix": [["0", "1"], ["1", "0"]],
            "mode": "metric",
            "basepoint": "e",
        }
        space, basepoint = space_document_from_obj(obj)
        assert basepoint == "e"
        text = canonical_space_json(space, basepoint)
        assert json.loads(text)["basepoint"] == "e"

    def test_rejects_float_entries(self):
        obj = {"points": ["x", "y"], "matrix": [["0", "2.5"], ["2.5", "0"]], "mode": "metric"}
        with pytest.raises(ParseError):
            space_document_from_obj(obj)

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([["0", "1/0"], ["1/0", "0"]], "zero denominator: '1/0'"),
            ([["0", "x"], ["1/0", "x"]], "not a rational scalar: 'x'"),
            ([["0", "1"], [[1], "0"]], "not a rational scalar string: [1]"),
            ([["0", 1], ["1", "0"]], "not a rational scalar string: 1"),
        ],
    )
    def test_first_bad_entry_in_row_major_order(self, matrix, message):
        # Entries repeat, and each distinct text is parsed once per load.
        obj = {"points": ["x", "y"], "matrix": matrix}
        with pytest.raises(ParseError) as info:
            space_document_from_obj(obj)
        assert str(info.value) == message

    def test_repeated_entries_share_one_value(self):
        obj = {"points": ["x", "y", "z"], "matrix": [["0", "5/2", " 5/2"], ["5/2", "0", "5/2"], ["5/2", "10/4", "0"]]}
        space, _ = space_document_from_obj(obj)
        assert {space.d(i, j) for i in range(3) for j in range(3) if i != j} == {F(5, 2)}


class TestPairTable:
    def test_transpose_and_add(self):
        t = PairTable([[F(0), F(1)], [F(2), F(0)]])
        assert transposed(t)((0, 1)) == F(2)
        assert scale(t, F(3))((1, 0)) == F(6)

    def test_integer_view_is_kept_once(self, monkeypatch):
        scalings = []
        original = core.scale_to_integers
        monkeypatch.setattr(core, "scale_to_integers", lambda matrix: scalings.append(matrix) or original(matrix))
        mat = [[F(0), F(1, 2), F(2, 3)], [F(1, 2), F(0), F(1, 3)], [F(2, 3), F(1, 3), F(0)]]
        sp = validate_space(["a", "b", "c"], mat, "metric")
        want = (6, ((0, 3, 4), (3, 0, 2), (4, 2, 0)))
        assert original(sp.dist) == want
        table = sp.pair_table()
        assert table is sp.pair_table() and table == PairTable(sp.dist)
        assert table.integer_view[:2] == want and table.integer_view is table.integer_view
        assert len(scalings) == 1  # validation's own, kept
        _den, _rows, rank, nonnegative = table.integer_view
        assert [rank((i, j)) for i in range(3) for j in range(3)] == [v for row in want[1] for v in row]
        assert nonnegative
        built = PairTable(sp.dist)
        assert built.integer_view[:2] == want and built.integer_view is built.integer_view
        assert len(scalings) == 2  # on first use, once
        direct = FiniteMetricSpace(sp.points, sp.dist, sp.mode)
        assert direct.pair_table() is direct.pair_table() and direct.pair_table().integer_view[:2] == want
        assert len(scalings) == 3  # a space built directly: its table's first use
        # The view is no field: a table that has not computed it is equal,
        # with the same hash and repr, and so is a space that has not built
        # its table.
        bare = PairTable(sp.dist)
        assert built == bare and hash(built) == hash(bare) and repr(built) == repr(bare)
        bare_space = FiniteMetricSpace(sp.points, sp.dist, sp.mode)
        assert sp == direct == bare_space and hash(direct) == hash(bare_space) and repr(direct) == repr(bare_space)
        assert len(scalings) == 3
        with pytest.raises(TypeError):
            built.integer_view[1][0][1] = 5
        assert not PairTable([[F(0), F(-1, 2)], [F(1), F(0)]]).integer_view[3]
