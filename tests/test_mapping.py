import random
import string

import pytest

from conftest import DATA_DIR
from heritage_catalog.mapping import (
    Constant,
    DuplicateMapping,
    InvalidExpandedIri,
    IriTemplate,
    MissingTable,
    SKIP,
    Table,
    TableError,
    UnknownPrefix,
    execute_mapping,
    expand_template,
    load_mapping,
    load_table,
    parse_mapping,
    parse_template,
    percent_encode,
    read_table,
    resolve_curie,
)
from heritage_catalog.rdf import Iri, Literal, ParseError, Quad, serialize_nquads

RDF_TYPE = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

MINIMAL_DOC = """\
prefixes:
  ex: http://ex.org/
mappings:
  things:
    sources: [items]
    s: ex:obj/$(ID)
    po:
      - [ex:name, $(Name)]
"""


class TestParseMapping:
    def test_minimal_document(self):
        doc = parse_mapping(MINIMAL_DOC)
        assert doc.prefixes == {"ex": "http://ex.org/"}
        (tm,) = doc.triple_maps
        assert tm.name == "things"
        assert tm.source == "items"
        assert tm.subject.segments == ("http://ex.org/obj/", type(tm.subject.segments[1])("ID"))
        assert len(tm.subject.segments) == 2

    def test_unknown_prefix(self):
        doc = MINIMAL_DOC.replace("ex:name", "zz:thing")
        with pytest.raises(UnknownPrefix) as err:
            parse_mapping(doc)
        assert err.value.label == "zz"

    def test_duplicate_mapping_name(self):
        doc = MINIMAL_DOC + "  things:\n    sources: [items]\n    s: ex:obj/$(ID)\n    po:\n      - [ex:name, $(Name)]\n"
        with pytest.raises(DuplicateMapping):
            parse_mapping(doc)

    def test_builtin_prefixes_resolve(self):
        doc = MINIMAL_DOC.replace("- [ex:name, $(Name)]", "- [ex:name, $(Name), xsd:integer]")
        parsed = parse_mapping(doc)
        (tm,) = parsed.triple_maps
        _, spec = tm.pairs[0]
        assert spec.datatype == Iri("http://www.w3.org/2001/XMLSchema#integer")

    def test_language_tag(self):
        doc = MINIMAL_DOC.replace("- [ex:name, $(Name)]", "- [ex:name, $(Name), @it]")
        (tm,) = parse_mapping(doc).triple_maps
        _, spec = tm.pairs[0]
        assert spec.language == "it"

    def test_graph_field(self):
        doc = MINIMAL_DOC.replace("    s: ex:obj/$(ID)", "    g: ex:record\n    s: ex:obj/$(ID)")
        (tm,) = parse_mapping(doc).triple_maps
        assert tm.graph == Iri("http://ex.org/record")

    def test_missing_subject_reported(self):
        doc = MINIMAL_DOC.replace("    s: ex:obj/$(ID)\n", "")
        with pytest.raises(ParseError):
            parse_mapping(doc)

    def test_error_carries_line(self):
        doc = MINIMAL_DOC.replace("      - [ex:name, $(Name)]", "      broken")
        with pytest.raises(ParseError) as err:
            parse_mapping(doc)
        assert err.value.line == 8

    def test_constant_bracketed_iri_object(self):
        doc = MINIMAL_DOC.replace("- [ex:name, $(Name)]", "- [ex:licence, <https://creativecommons.org/publicdomain/zero/1.0/>]")
        (tm,) = parse_mapping(doc).triple_maps
        _, spec = tm.pairs[0]
        assert isinstance(spec, Constant)
        assert spec.term == Iri("https://creativecommons.org/publicdomain/zero/1.0/")


    @pytest.mark.parametrize("replacement, message", [
        ("- [<not an iri>, $(Name)]", "relative reference (no scheme) in 'not an iri'"),
        ("- [ex:name, <bad obj>]", "relative reference (no scheme) in 'bad obj'"),
        ("- [ex:name, $(Name), <bad dt>]", "relative reference (no scheme) in 'bad dt'"),
        ("- [ex:name, http://a b~iri]", "space not allowed in IRI 'http://a b'"),
        ("- [name, $(Name)]", "'name' is not a CURIE (no colon)"),
        ("- [ex:name, $(Name), @1bad]", "invalid language tag '1bad'"),
        ("- [ex:name, Roma, @1bad]", "invalid language tag '1bad'"),
        ("- [ex:name, $(Name), @]", "invalid language tag ''"),
        ("- [ex:name, $(Name), rdf:langString]", "language-string datatype requires a language tag"),
    ], ids=["predicate", "object", "datatype", "iri-constant", "no-colon", "template-tag", "constant-tag", "empty-tag", "lang-string"])
    def test_malformed_term_is_reported_at_its_line(self, replacement, message):
        doc = MINIMAL_DOC.replace("- [ex:name, $(Name)]", replacement)
        with pytest.raises(ParseError) as err:
            parse_mapping(doc)
        assert (err.value.line, err.value.message) == (8, message)

    def test_malformed_graph_is_reported_at_its_line(self):
        doc = MINIMAL_DOC.replace("    s: ex:obj/$(ID)", "    g: <bad graph>\n    s: ex:obj/$(ID)")
        with pytest.raises(ParseError) as err:
            parse_mapping(doc)
        assert (err.value.line, err.value.message) == (6, "relative reference (no scheme) in 'bad graph'")


class TestResolveCurie:
    def test_type_alias(self):
        assert resolve_curie("a", {}) == RDF_TYPE

    def test_declared_prefix(self):
        assert resolve_curie("ex:title", {"ex": "http://ex.org/"}) == Iri("http://ex.org/title")

    def test_no_colon_is_syntax_error(self):
        with pytest.raises(ParseError):
            resolve_curie("ex title", {"ex": "http://ex.org/"})

    def test_unknown_prefix(self):
        with pytest.raises(UnknownPrefix):
            resolve_curie("zz:thing", {})


class TestExpandTemplate:
    def test_direct_substitution(self):
        template = parse_template("http://ex.org/obj/$(ID)")
        assert expand_template(template, {"ID": "25"}, iri_position=True) == "http://ex.org/obj/25"

    def test_empty_cell_skips(self):
        template = parse_template("$(A)-$(B)")
        assert expand_template(template, {"A": "x", "B": ""}) is SKIP

    def test_absent_column_skips(self):
        template = parse_template("$(A)")
        assert expand_template(template, {"B": "x"}) is SKIP

    def test_iri_position_percent_encodes(self):
        template = parse_template("$(T)")
        assert expand_template(template, {"T": "vaso a due anse"}, iri_position=True) == "vaso%20a%20due%20anse"

    def test_percent_encoding_matches_independent_oracle(self):
        # RFC 3986 byte rule: unreserved ASCII stays, every other UTF-8 byte is %XX.
        unreserved = set((string.ascii_letters + string.digits + "-._~").encode("ascii"))
        rng = random.Random(4)
        alphabet = string.printable + "àèéìòù☕ðß"
        for _ in range(200):
            text = "".join(rng.choices(alphabet, k=rng.randrange(0, 25)))
            expected = "".join(chr(byte) if byte in unreserved else f"%{byte:02X}" for byte in text.encode("utf-8"))
            assert percent_encode(text) == expected

    def test_literal_position_keeps_raw_text(self):
        template = parse_template("$(T)")
        assert expand_template(template, {"T": "vaso a due anse"}) == "vaso a due anse"

    def test_transforms(self):
        assert expand_template(parse_template("fn(trim, $(X))"), {"X": "  padded  "}) == "padded"
        assert expand_template(parse_template("fn(lowercase, $(X))"), {"X": "MiXeD"}) == "mixed"
        assert expand_template(parse_template("fn(isodate, $(X))"), {"X": "15/01/2023"}) == "2023-01-15"
        assert expand_template(parse_template("fn(isodate, $(X))"), {"X": "2023-01-15"}) == "2023-01-15"

    def test_unknown_transform_rejected_at_parse(self):
        with pytest.raises(ParseError):
            parse_template("fn(shout, $(X))")


def _table(rows, header=("id", "title", "type", "creator"), name="golden_source"):
    return Table(name=name, header=tuple(header), rows=tuple(tuple(r) for r in rows))


class TestExecuteMapping:
    def test_row_pair_counting(self):
        doc = parse_mapping(
            "prefixes:\n"
            "  ex: http://ex.org/\n"
            "mappings:\n"
            "  m:\n"
            "    sources: [t]\n"
            "    s: ex:obj/$(id)\n"
            "    po:\n"
            "      - [ex:a, $(x)]\n"
            "      - [ex:b, $(y)]\n"
        )
        table = Table(name="t", header=("id", "x", "y"), rows=(("1", "a", "b"), ("2", "c", "d"), ("3", "e", "f")))
        assert len(execute_mapping(doc, [table])) == 6

    def test_empty_cell_skips_only_affected_pair(self):
        doc = parse_mapping(
            "prefixes:\n"
            "  ex: http://ex.org/\n"
            "mappings:\n"
            "  m:\n"
            "    sources: [t]\n"
            "    s: ex:obj/$(id)\n"
            "    po:\n"
            "      - [ex:title, $(Title)]\n"
            "      - [ex:kind, $(Kind)]\n"
        )
        table = Table(name="t", header=("id", "Title", "Kind"), rows=(("1", "", "vase"),))
        quads = execute_mapping(doc, [table])
        assert quads == {Quad(Iri("http://ex.org/obj/1"), Iri("http://ex.org/kind"), Literal("vase"))}

    def test_missing_table(self):
        doc = parse_mapping(MINIMAL_DOC)
        with pytest.raises(MissingTable):
            execute_mapping(doc, [])

    def test_invalid_expanded_iri(self):
        doc = parse_mapping(
            "prefixes:\n"
            "  ex: http://ex.org/\n"
            "mappings:\n"
            "  m:\n"
            "    sources: [t]\n"
            "    s: $(id)\n"
            "    po:\n"
            "      - [ex:a, $(x)]\n"
        )
        table = Table(name="t", header=("id", "x"), rows=(("notaniri", "v"),))
        with pytest.raises(InvalidExpandedIri) as err:
            execute_mapping(doc, [table])
        assert err.value.map_name == "m"
        assert err.value.row_index == 0

    def test_golden_file_byte_exact(self):
        doc = load_mapping(DATA_DIR / "golden_mapping.yml")
        table = load_table(DATA_DIR / "golden_source.csv")
        output = serialize_nquads(execute_mapping(doc, [table]))
        assert output == (DATA_DIR / "golden.nt").read_text(encoding="utf-8")

    def test_two_runs_byte_identical(self):
        doc = load_mapping(DATA_DIR / "golden_mapping.yml")
        table = load_table(DATA_DIR / "golden_source.csv")
        first = serialize_nquads(execute_mapping(doc, [table]))
        second = serialize_nquads(execute_mapping(doc, [table]))
        assert first == second

    def test_monotonic_in_rows(self):
        doc = load_mapping(DATA_DIR / "golden_mapping.yml")
        table = load_table(DATA_DIR / "golden_source.csv")
        small = Table(name=table.name, header=table.header, rows=table.rows[:2])
        assert execute_mapping(doc, [small]) <= execute_mapping(doc, [table])

    def test_row_union_property(self):
        doc = load_mapping(DATA_DIR / "golden_mapping.yml")
        rng = random.Random(6)
        header = ("id", "title", "type", "creator")
        for _ in range(25):
            rows = [
                (str(i), rng.choice(["Vaso", "Urna etrusca", ""]), rng.choice(["vessel", ""]), rng.choice(["Anon", ""]))
                for i in range(8)
            ]
            split = rng.randrange(0, len(rows) + 1)
            full = _table(rows, header)
            left = _table(rows[:split], header)
            right = _table(rows[split:], header)
            union = execute_mapping(doc, [left]) | execute_mapping(doc, [right])
            assert union == execute_mapping(doc, [full])

    def test_empty_cell_law(self):
        doc = load_mapping(DATA_DIR / "golden_mapping.yml")
        table = load_table(DATA_DIR / "golden_source.csv")
        quads = execute_mapping(doc, [table])
        # row 1 has every cell filled: exactly one quad per pair
        subject = Iri("http://example.org/cho/25")
        assert len({q for q in quads if q.subject == subject}) == 6


class TestTables:
    def test_read_table_with_quoting(self):
        table = read_table('id,title\n1,"comma, inside"\n2,"doubled "" quote"\n', "t")
        assert table.rows == (("1", "comma, inside"), ("2", 'doubled " quote'))

    def test_ragged_row_rejected(self):
        with pytest.raises(TableError):
            read_table("a,b\n1\n", "t")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(TableError):
            read_table("a,a\n1,2\n", "t")

    def test_header_only_table(self):
        table = read_table("a,b\n", "t")
        assert table.rows == ()
