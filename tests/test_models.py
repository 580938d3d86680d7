import json
from fractions import Fraction as F

import pytest

from slopestab.cli import main
from slopestab.models import (
    IntersectionTable,
    MixedTable,
    ModelError,
    _show_number,
    format_rational,
    parse_model,
    parse_rational,
    serialize_model,
    validate,
)
from slopestab.slope import PositivityError, alpha_polys


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


class TestFormatRational:
    def test_parts_at_digit_limit_written(self):
        x = F(-(10**4300 - 1), 10**4300 - 3)
        assert parse_rational(format_rational(x)) == x

    @pytest.mark.parametrize("x", [F(10**4300), F(-(10**4300)), F(1, 10**4300)])
    def test_overlong_part_refused(self, x):
        # str() would raise Python's own digit-limit ValueError
        with pytest.raises(ModelError) as excinfo:
            format_rational(x)
        assert str(excinfo.value) == "rational too long to write: a part of more than 4300 digits"


class TestShowNumber:
    """Diagnostics name a number by str() up to the 4300 digits it writes,
    and past them by its digit count."""

    @pytest.mark.parametrize("x", [0, -7, 10**4300 - 1, -(10**4300 - 1), F(-3, 4),
                                   F(10**4300 - 1, 10**4299)],
                             ids=["0", "-7", "10^4300-1", "1-10^4300", "-3/4", "(10^4300-1)/10^4299"])
    def test_str_within_the_limit(self, x):
        assert _show_number(x) == str(x)

    @pytest.mark.parametrize("x, digits", [
        (10**4300, 4301), (-(10**4300), 4301), (2**20000, 6021), (-(10**9000) + 1, 9000),
        (10**9000 + 7, 9001), (F(1, 10**5000), 5001), (F(-(10**4400), 3), 4401),
    ], ids=["10^4300", "-10^4300", "2^20000", "1-10^9000", "10^9000+7", "1/10^5000",
            "-10^4400/3"])
    def test_digit_count_past_it(self, x, digits):
        assert _show_number(x) == f"a number of {digits} digits"


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

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises(ModelError, match="can't decode byte 0xff in position 1"):
            parse_model(b'"\xff"')

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

    def test_deeply_nested_json_rejected(self):
        # json.loads raises RecursionError, a RuntimeError, here
        with pytest.raises(ModelError) as excinfo:
            parse_model("[" * 100000 + "]" * 100000)
        assert str(excinfo.value).startswith("malformed JSON: maximum recursion depth exceeded")

    def test_overlong_mix_key_rejected(self, load_model):
        from slopestab.toric import export_table

        doc = serialize_model(export_table(load_model("f1_bignef")))
        doc["MIX"]["1" * 5000 + ",0,0"] = doc["MIX"].pop("2,0,0")
        with pytest.raises(ModelError) as excinfo:
            parse_model(json.dumps(doc))
        assert str(excinfo.value) == "MIX key too long: an index of 5000 digits, limit 4300"

    @pytest.mark.parametrize("key, message", [
        ("9" * 64, f"MIX key {'9' * 64!r} is not of the form 'i,j,k'"),
        ("9" * 65, "MIX key of 65 characters is not of the form 'i,j,k'"),
        ("1" * 5000, "MIX key of 5000 characters is not of the form 'i,j,k'"),
        ("1" * 4000 + ",0,0", "MIX key of 4004 characters outside the degree-2 simplex"),
        ("x" * 100 + ",0,0", "MIX key of 104 characters is not integral"),
    ], ids=["64-echoed", "65", "5000-no-commas", "4004-outside", "104-not-integral"])
    def test_long_mix_key_named_by_length(self, load_model, key, message):
        from slopestab.toric import export_table

        doc = serialize_model(export_table(load_model("f1_bignef")))
        doc["MIX"][key] = "1"
        with pytest.raises(ModelError) as excinfo:
            parse_model(json.dumps(doc))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("key, shown", [
        ("AE", "'AE'"), ("x" * 5000, "of 5000 characters"),
    ], ids=["AE", "5000-chars"])
    def test_repeated_json_key_rejected(self, key, shown):
        text = json.dumps(table_doc())[:-1] + f', "{key}": [1, 0, -1], "{key}": 0}}'
        with pytest.raises(ModelError) as excinfo:
            parse_model(text)
        assert str(excinfo.value) == f"repeated key {shown} in a JSON object"

    @pytest.mark.parametrize("name, key, index", [
        ("MIX", "+1,1,0", "1,1,0"),
        ("MIX", " 2, 0,0", "2,0,0"),
        ("KMIX", "0,01,0", "0,1,0"),
    ])
    def test_keys_naming_one_index_rejected(self, load_model, name, key, index):
        from slopestab.toric import export_table

        doc = serialize_model(export_table(load_model("f1_bignef")))
        doc[name][key] = "999"
        with pytest.raises(ModelError) as excinfo:
            parse_model(json.dumps(doc))
        assert str(excinfo.value) == f"{name} key {key!r} repeats the index {index}"

    def test_wrong_lengths_rejected(self):
        with pytest.raises(ModelError):
            parse_model(json.dumps(table_doc(AE=[1, 0])))


class TestSharedDecoder:
    """parse_model decodes text with one shared JSON decoder: no decoder is
    built per document, the messages are those of json.loads, and a refused
    document leaves the decoder usable."""

    REFUSED = {
        "bom-bytes": (b"\xef\xbb\xbf" + json.dumps(table_doc()).encode(),
                      "malformed JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                      "line 1 column 1 (char 0)"),
        "bom-str": ("\ufeff" + json.dumps(table_doc()),
                    "malformed JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                    "line 1 column 1 (char 0)"),
        "repeated-key": ('{"kind": "table", "MIX": {"x": 1, "x": 2}}',
                         "repeated key 'x' in a JSON object"),
        "overlong-number": ('{"n": 1' + "0" * 5000 + "}",
                            "malformed JSON: a number of more than 4300 digits"),
        "malformed": ('{"kind": ', "malformed JSON: Expecting value: line 1 column 10 (char 9)"),
        "unclosed": ("[1, 2", "malformed JSON: Expecting ',' delimiter: line 1 column 6 (char 5)"),
    }

    @pytest.mark.parametrize("name", REFUSED)
    def test_refusal_messages_unchanged(self, name):
        text, message = self.REFUSED[name]
        with pytest.raises(ModelError) as excinfo:
            parse_model(text)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("name", REFUSED)
    def test_parses_right_after_a_refusal(self, load_model, name):
        from slopestab.toric import export_table

        good = json.dumps(serialize_model(export_table(load_model("f1_bignef"))))
        with pytest.raises(ModelError):
            parse_model(self.REFUSED[name][0])
        table = parse_model(good)
        # the dict path does not touch the decoder
        assert table == parse_model(json.loads(good))
        assert table.mixed == parse_model(json.loads(good)).mixed

    def test_builds_no_decoder(self, monkeypatch, models_dir):
        built = []
        init = json.JSONDecoder.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(json.JSONDecoder, "__init__", counted)
        for path in sorted(models_dir.glob("*.json")):
            parse_model(path.read_bytes())
        assert built == []


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

    def test_mixed(self, load_model):
        from slopestab.toric import export_table

        mx = export_table(load_model("f1_bignef"))
        again = parse_model(json.dumps(serialize_model(mx)))
        assert isinstance(again, MixedTable)
        assert again.mixed == mx.mixed and again.kmixed == mx.kmixed
        assert again == mx


class TestValueSemantics:
    FIELDS = ("T", 2, (F(1), F(0), F(-1)), (F(-3), F(-1)), F(1))

    def test_tables_compare_by_value(self):
        t = IntersectionTable(*self.FIELDS)
        same = IntersectionTable(*self.FIELDS)
        assert t == same and not t != same and hash(t) == hash(same)
        label, n, ae, kae, epsilon = self.FIELDS
        for other in (
            IntersectionTable("U", n, ae, kae, epsilon),
            IntersectionTable(label, n, (F(2), F(0), F(-1)), kae, epsilon),
            IntersectionTable(label, n, ae, (F(-3), F(-2)), epsilon),
            IntersectionTable(label, n, ae, kae, F(1, 2)),
            IntersectionTable(label, 1, ae[:2], kae[:1], epsilon),
        ):
            assert t != other and not t == other

    def test_mixed_maps_do_not_affect_equality(self, load_model):
        from slopestab.toric import export_table

        mx = export_table(load_model("f1_bignef"))
        n = mx.n
        # only the j = 0 slice is tied to AE and KAE: change the rest
        mixed = {k: v + 1 if k[1] else v for k, v in mx.mixed.items()}
        kmixed = {k: v - 1 if k[1] else v for k, v in mx.kmixed.items()}
        other = MixedTable(mx.label, n, mx.ae, mx.kae, mx.epsilon, mixed, kmixed)
        assert other.mixed != mx.mixed and other.kmixed != mx.kmixed
        assert other == mx and hash(other) == hash(mx)
        plain = IntersectionTable(mx.label, n, mx.ae, mx.kae, mx.epsilon)
        assert plain != mx and mx != plain
        assert not plain == mx and not mx == plain

    def test_records_are_immutable(self, load_model):
        # the eight records: every field is read-only, and _replace copies
        from slopestab.oracle import fit_expansions, verify
        from slopestab.polynomials import IsolatingInterval
        from slopestab.slope import SignInterval, stability_scan

        pair = alpha_polys(IntersectionTable(*self.FIELDS))
        p2 = load_model("p2")
        record = verify(p2, [F(1, 2)])[0]
        iv = IsolatingInterval(F(0), F(1))
        records = [pair, stability_scan(pair), record, record.samples[0],
                   fit_expansions(p2, [F(1, 2)])[0], p2.fan.walls[0], iv,
                   SignInterval(iv, IsolatingInterval(F(1), F(1)), True)]
        assert len({type(rec) for rec in records}) == 8
        for rec in records:
            for field in rec._fields:
                with pytest.raises(AttributeError):
                    setattr(rec, field, None)
            assert rec._replace() == rec
        assert str(iv._replace(hi=F(1, 2))) == "(0, 1/2]" and str(iv) == "(0, 1]"


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
