import json
from fractions import Fraction as F

import pytest

from slopestab.cli import main
from slopestab.models import (
    IntersectionTable,
    MixedTable,
    ModelError,
    parse_model,
    parse_rational,
    serialize_model,
    validate,
)
from slopestab.slope import PositivityError, alpha_polys
from slopestab.toric import ToricModel


def table_doc(**overrides):
    doc = {
        "kind": "table",
        "label": "T1",
        "n": 2,
        "AE": [1, 0, -1],
        "KAE": [-3, -1],
        "epsilon": "1",
    }
    doc.update(overrides)
    return doc


class TestParseRational:
    @pytest.mark.parametrize(
        "raw,expected",
        [(5, F(5)), ("-3/4", F(-3, 4)), ("7", F(7)), ("0", F(0))],
    )
    def test_accepts(self, raw, expected):
        assert parse_rational(raw) == expected

    def test_parts_at_digit_limit_accepted(self):
        assert parse_rational("-" + "7" * 4300 + "/" + "3" * 4300) == F(-7, 3)

    @pytest.mark.parametrize("raw", ["1.5", "3/-4", "3/0", "a", 2.5, None, True])
    def test_rejects(self, raw):
        with pytest.raises(ModelError):
            parse_rational(raw)


class TestParseTable:
    def test_p2_document(self):
        t = parse_model(json.dumps(table_doc()))
        assert isinstance(t, IntersectionTable)
        assert t.n == 2
        assert t.ae == (F(1), F(0), F(-1))
        assert t.kae == (F(-3), F(-1))
        assert t.epsilon == 1

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ModelError, match="epsilon"):
            parse_model(json.dumps(table_doc(epsilon="0")))

    def test_f1_divisor_case(self):
        t = parse_model(
            json.dumps(table_doc(label="T3", AE=[3, 1, -1], KAE=[-5, -1]))
        )
        assert t.ae == (F(3), F(1), F(-1))

    def test_unknown_field_rejected(self):
        with pytest.raises(ModelError, match="unknown field"):
            parse_model(json.dumps(table_doc(extra=1)))

    def test_missing_field_rejected(self):
        doc = table_doc()
        del doc["KAE"]
        with pytest.raises(ModelError, match="missing"):
            parse_model(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ModelError, match="malformed JSON"):
            parse_model(b"{not json")

    def test_overlong_epsilon_string_rejected(self):
        doc = table_doc(epsilon="1/" + "1" * 5000)
        with pytest.raises(ModelError) as excinfo:
            parse_model(json.dumps(doc))
        assert str(excinfo.value) == "rational literal too long: a part of 5000 digits, limit 4300"

    def test_overlong_epsilon_number_rejected(self):
        # json.loads raises a plain ValueError here, not JSONDecodeError
        text = json.dumps(table_doc(epsilon=0)).replace('"epsilon": 0', '"epsilon": ' + "1" * 5000)
        with pytest.raises(ModelError) as excinfo:
            parse_model(text)
        assert str(excinfo.value) == "malformed JSON: a number of more than 4300 digits"

    def test_wrong_lengths_rejected(self):
        with pytest.raises(ModelError):
            parse_model(json.dumps(table_doc(AE=[1, 0])))


class TestValidate:
    def test_t1_clean(self):
        assert validate(parse_model(json.dumps(table_doc()))) == []

    def test_not_big(self):
        errors = validate(parse_model(json.dumps(table_doc(AE=[-1, 0, -1]))))
        assert errors == ["not big: top self-intersection -1 <= 0"]

    def test_epsilon_past_alpha0_root_rejected(self, tmp_path, capsys):
        # alpha0 = (1 - t^2)/2 vanishes at t = 1, inside [0, 2)
        doc = table_doc(epsilon="2")
        message = "alpha0 vanishes inside [0, 2): offending interval 1"
        with pytest.raises(PositivityError) as excinfo:
            alpha_polys(parse_model(json.dumps(doc)))
        assert str(excinfo.value) == message
        path = tmp_path / "t1_eps2.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


class TestRoundTrip:
    def test_table(self):
        t = parse_model(json.dumps(table_doc(epsilon="7/3", AE=["1/2", 0, -1])))
        assert parse_model(serialize_model(t)) == t

    def test_toric(self, load_model):
        m = load_model("f1_bignef")
        assert isinstance(m, ToricModel)
        again = parse_model(serialize_model(m))
        assert again == m

    def test_mixed(self, load_model):
        from slopestab.toric import export_table

        mx = export_table(load_model("f1_bignef"))
        again = parse_model(json.dumps(serialize_model(mx)))
        assert isinstance(again, MixedTable)
        assert again.mixed == mx.mixed and again.kmixed == mx.kmixed
        assert again == mx


class TestMixedTable:
    def test_specialize_zero_is_base(self, load_model):
        from slopestab.toric import export_table

        mx = export_table(load_model("f1_bignef"))
        base = mx.specialize(0)
        assert base.ae == mx.ae and base.kae == mx.kae

    def test_inconsistent_slice_flagged(self, load_model):
        from slopestab.toric import export_table

        mx = export_table(load_model("f1_bignef"))
        with pytest.raises(ModelError) as excinfo:
            MixedTable(
                mx.label, mx.n, (mx.ae[0] + 1,) + mx.ae[1:], mx.kae[:1] + (mx.kae[1] - 1,),
                mx.epsilon, mx.mixed, mx.kmixed,
            )
        assert str(excinfo.value) == (
            "MIX j=0 slice disagrees with AE at k=0; KMIX j=0 slice disagrees with KAE at k=1"
        )

    def test_entry_counts_enforced(self, load_model):
        from slopestab.toric import export_table

        mx = export_table(load_model("f1_bignef"))
        with pytest.raises(ModelError, match="^AE must have 3 entries, got 2$"):
            MixedTable(mx.label, mx.n, mx.ae[:2], mx.kae, mx.epsilon, mx.mixed, mx.kmixed)

    def test_index_simplex_enforced(self):
        with pytest.raises(ModelError, match="simplex"):
            MixedTable("x", 2, (F(1), F(0), F(-1)), (F(-3), F(-1)), F(1),
                       {(2, 0, 0): F(1)}, {})
