import json
import random
from fractions import Fraction as F
from math import ceil, comb

import pytest

from reference import entries, mixed_entries, table_of
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
        [(5, (5, 1)), ("-3/4", (-3, 4)), ("7", (7, 1)), ("0", (0, 1)), ("2/4", (2, 4))],
    )
    def test_accepts(self, raw, expected):
        # the pair of the literal, not reduced
        assert parse_rational(raw) == expected

    def test_parts_at_digit_limit_accepted(self):
        num, den = parse_rational("-" + "7" * 4300 + "/" + "3" * 4300)
        assert (num, den) == (-int("7" * 4300), int("3" * 4300)) and F(num, den) == F(-7, 3)

    @pytest.mark.parametrize("raw", ["1.5", "3/-4", "3/0", "a", 2.5, None, True])
    def test_rejects(self, raw):
        with pytest.raises(ModelError):
            parse_rational(raw)


class TestFormatRational:
    def test_parts_at_digit_limit_written(self):
        x = F(-(10**4300 - 1), 10**4300 - 3)
        assert parse_rational(format_rational(x)) == (x.numerator, x.denominator)

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
        assert entries(t) == ((F(1), F(0), F(-1)), (F(-3), F(-1)))
        assert t.epsilon == 1

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ModelError, match="epsilon"):
            parse_model(json.dumps(table_doc(epsilon="0")))

    def test_f1_divisor_case(self):
        t = parse_model(
            json.dumps(table_doc(label="T3", AE=[3, 1, -1], KAE=[-5, -1]))
        )
        assert entries(t)[0] == (F(3), F(1), F(-1))

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
        assert mixed_entries(table) == mixed_entries(parse_model(json.loads(good)))

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
        assert mixed_entries(again) == mixed_entries(mx)
        assert again == mx


class TestValueSemantics:
    FIELDS = ("T", 2, (F(1), F(0), F(-1)), (F(-3), F(-1)), F(1))

    def test_tables_compare_by_value(self):
        t = table_of(*self.FIELDS)
        same = table_of(*self.FIELDS)
        # one table over another denominator: 6 (1/2, 0, -1/2) is (3, 0, -3)
        over_six = IntersectionTable("T", 2, 6, (6, 0, -6), (-18, -6), F(1))
        for equal in (same, over_six):
            assert t == equal and not t != equal and hash(t) == hash(equal)
        label, n, ae, kae, epsilon = self.FIELDS
        for other in (
            table_of("U", n, ae, kae, epsilon),
            table_of(label, n, (F(2), F(0), F(-1)), kae, epsilon),
            table_of(label, n, ae, (F(-3), F(-2)), epsilon),
            table_of(label, n, ae, kae, F(1, 2)),
            table_of(label, 1, ae[:2], kae[:1], epsilon),
            IntersectionTable(label, n, 2, (1, 0, -1), (-3, -1), epsilon),
        ):
            assert t != other and not t == other

    @pytest.mark.parametrize("den", [0, -1, -(10**4300)], ids=["0", "-1", "-10^4300"])
    def test_non_positive_denominator_refused(self, den):
        shown = "a number of 4301 digits" if den < -1 else str(den)
        with pytest.raises(ModelError, match=f"^denominator must be positive, got {shown}$"):
            IntersectionTable("T", 2, den, (1, 0, -1), (-3, -1), F(1))

    def test_mixed_maps_do_not_affect_equality(self, load_model):
        from slopestab.toric import export_table

        mx = export_table(load_model("f1_bignef"))
        n = mx.n
        # only the j = 0 slice is tied to AE and KAE: change the rest
        mixed = {k: v + 1 if k[1] else v for k, v in mx.mixed.items()}
        kmixed = {k: v - 1 if k[1] else v for k, v in mx.kmixed.items()}
        other = MixedTable(mx.label, n, mx.den, mx.ae, mx.kae, mx.epsilon, mixed, kmixed)
        assert all(map(dict.__ne__, mixed_entries(other), mixed_entries(mx)))
        assert other == mx and hash(other) == hash(mx)
        plain = IntersectionTable(mx.label, n, mx.den, mx.ae, mx.kae, mx.epsilon)
        assert plain != mx and mx != plain
        assert not plain == mx and not mx == plain

    def test_records_are_immutable(self, load_model):
        # the seven records: every field is read-only, and _replace copies
        from slopestab.oracle import fit_expansions, verify
        from slopestab.polynomials import IsolatingInterval
        from slopestab.slope import SignInterval, stability_scan

        pair = alpha_polys(table_of(*self.FIELDS))
        p2 = load_model("p2")
        record = verify(p2, [F(1, 2)])[0]
        iv = IsolatingInterval(F(0), F(1))
        records = [pair, stability_scan(pair), record, record.samples[0],
                   fit_expansions(p2, [F(1, 2)])[0], iv,
                   SignInterval(iv, IsolatingInterval(F(1), F(1)), True)]
        assert len({type(rec) for rec in records}) == 7
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
        assert entries(base) == entries(mx)

    def test_inconsistent_slice_flagged(self, load_model):
        from slopestab.toric import export_table

        mx = export_table(load_model("f1_bignef"))
        with pytest.raises(ModelError) as excinfo:
            MixedTable(
                mx.label, mx.n, mx.den, (mx.ae[0] + 1,) + mx.ae[1:],
                mx.kae[:1] + (mx.kae[1] - 1,),
                mx.epsilon, mx.mixed, mx.kmixed,
            )
        assert str(excinfo.value) == (
            "MIX j=0 slice disagrees with AE at k=0; KMIX j=0 slice disagrees with KAE at k=1"
        )

    def test_entry_counts_enforced(self, load_model):
        from slopestab.toric import export_table

        mx = export_table(load_model("f1_bignef"))
        with pytest.raises(ModelError, match="^AE must have 3 entries, got 2$"):
            MixedTable(mx.label, mx.n, mx.den, mx.ae[:2], mx.kae, mx.epsilon, mx.mixed,
                       mx.kmixed)

    def test_index_simplex_enforced(self):
        with pytest.raises(ModelError, match="simplex"):
            MixedTable("x", 2, 1, (1, 0, -1), (-3, -1), F(1), {(2, 0, 0): 1}, {})


def counted_fractions(monkeypatch, build):
    """The number of Fraction.__new__ calls while build() runs: every
    Fraction built, by a constructor or by Fraction arithmetic."""
    calls = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        calls.append(cls)
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(F, "__new__", counting)
        build()
    return len(calls)


def projective_space_with_h(n):
    """P^n with L = H = O(1), blown up at a torus-fixed point."""
    from slopestab.toric import Fan, ToricModel

    rays = tuple(tuple(int(i == j) for j in range(n)) for i in range(n)) + ((-1,) * n,)
    cones = tuple(tuple(j for j in range(n + 1) if j != i) for i in range(n + 1))
    divisor = (0,) * n + (1,)
    return ToricModel(f"P{n}", Fan(rays, cones), divisor, tuple(range(n)), divisor)


class TestFractionsPerTable:
    """Entries travel in one integer form: parsing, alpha_polys,
    specialize and export build as many Fractions at n = 24 as at n = 2,
    none per entry."""

    @staticmethod
    def doc(n, rational, mixed=False):
        # alpha0 has positive coefficients, so it is positive on [0, epsilon]
        def entry(num, den):
            return f"{num}/{den}" if rational else num

        doc = {"kind": "table", "label": "t", "n": n,
               "AE": [entry((-1) ** k, k + 1) for k in range(n + 1)],
               "KAE": [entry(k - 1, k + 2) for k in range(n)], "epsilon": "1/2"}
        if mixed:
            doc["kind"] = "mixed-table"
            for key, deg, side in (("MIX", n, doc["AE"]), ("KMIX", n - 1, doc["KAE"])):
                doc[key] = {f"{i},{j},{deg - i - j}": entry(i + 1, j + 2) if j else side[deg - i]
                            for i in range(deg + 1) for j in range(deg + 1 - i)}
        return doc

    @pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
    def test_parse_and_alpha_polys(self, monkeypatch, rational):
        counts = {n: counted_fractions(monkeypatch,
                                       lambda: alpha_polys(parse_model(self.doc(n, rational))))
                  for n in (2, 24)}
        assert counts[2] == counts[24], counts

    def test_specialize(self, monkeypatch):
        tables = {n: parse_model(self.doc(n, True, mixed=True)) for n in (2, 24)}
        counts = {n: counted_fractions(monkeypatch, lambda: mx.specialize(F(2, 3)))
                  for n, mx in tables.items()}
        assert counts[2] == counts[24], counts

    def test_export_table(self, monkeypatch):
        from slopestab.toric import export_table

        counts = {n: counted_fractions(monkeypatch,
                                       lambda: export_table(projective_space_with_h(n)))
                  for n in (2, 5)}
        assert counts[2] == counts[5], counts


def unreduced(rng, x: F) -> str:
    """x written as the literal (kp)/(kq) for a random k >= 2."""
    k = rng.randint(2, 10**rng.randint(1, 30))
    return f"{k * x.numerator}/{k * x.denominator}"


class TestUnreducedLiterals:
    """A document whose every rational p/q, integers and epsilon included, is
    written (kp)/(kq) for a random k >= 2 is the same model: an equal table,
    the same serialization, and byte-identical analyze, scan and limit
    output.  The reduction sits in the equality key and the printer."""

    @staticmethod
    def random_doc(rng, mixed):
        """A table of n = 1..4 with entries of up to two digits over up to
        12, AE[0] > 0, and epsilon below every root of alpha0 by Cauchy's
        bound; with mixed, the MIX/KMIX maps whose j = 0 slice it is."""
        n = rng.randint(1, 4)
        maps = [{(i, j, deg - i - j): F(rng.randint(-99, 99), rng.randint(1, 12))
                 for i in range(deg + 1) for j in range(deg + 1 - i)} for deg in (n, n - 1)]
        maps[0][(n, 0, 0)] = abs(maps[0][(n, 0, 0)]) or F(1)
        ae = [maps[0][(n - k, 0, k)] for k in range(n + 1)]
        kae = [maps[1][(n - 1 - k, 0, k)] for k in range(n)]
        bound = max(comb(n, k) * abs(a) for k, a in enumerate(ae)) / ae[0]
        doc = {"kind": "table", "label": "t", "n": n, "AE": ae, "KAE": kae,
               "epsilon": F(1, 1 + ceil(bound))}
        if mixed:
            doc["kind"], doc["MIX"], doc["KMIX"] = "mixed-table", *(
                {",".join(map(str, key)): v for key, v in m.items()} for m in maps)
        return doc

    @staticmethod
    def written(doc, literal):
        """doc with each rational written by literal(x)."""
        out = dict(doc)
        out["AE"], out["KAE"] = ([literal(x) for x in doc[key]] for key in ("AE", "KAE"))
        for key in ("MIX", "KMIX"):
            if key in doc:
                out[key] = {k: literal(x) for k, x in doc[key].items()}
        out["epsilon"] = literal(doc["epsilon"])
        return out

    def test_same_model(self, capsys, tmp_path):
        rng = random.Random(31)
        for case in range(60):
            doc = self.random_doc(rng, mixed=case % 2 == 1)
            plain = self.written(doc, format_rational)
            scaled = self.written(doc, lambda x: unreduced(rng, x))
            table, again = parse_model(plain), parse_model(scaled)
            assert again == table and hash(again) == hash(table)
            assert entries(again) == entries(table)
            assert serialize_model(again) == serialize_model(table) == plain
            c = format_rational(doc["epsilon"] * F(rng.randint(1, 9), 10))
            command_lines = [["analyze", "--c", c], ["scan", "--steps", "6"]]
            if case % 2:
                assert mixed_entries(again) == mixed_entries(table)
                command_lines.append(["limit", "--c", c, "--eps", "1/10000000,1/10000000000"])
            outputs = []
            for name, document in (("plain", plain), ("scaled", scaled)):
                path = tmp_path / f"{name}.json"
                path.write_text(json.dumps(document))
                outputs.append([(main([argv[0], str(path), *argv[1:]]), *capsys.readouterr())
                                for argv in command_lines])
            assert outputs[0] == outputs[1]
            assert all(code == 0 for code, _, _ in outputs[0]), outputs[0]
