import random
import re
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    divergences,
    fuzz_lines,
    in_update,
    mutations,
    outcomes_on_both_paths,
    parse_outcome,
    quad_strategy,
    rand_dataset,
    scanner_only,
)
from heritage_catalog import rdf
from heritage_catalog.rdf import (
    BlankNode,
    InvalidIri,
    InvalidTerm,
    Iri,
    Literal,
    ParseError,
    Quad,
    RDF_LANG_STRING,
    XSD_STRING,
    KeptText,
    canonical_rows,
    parse_nquads,
    serialize_nquads,
    serialize_term,
)
from heritage_catalog import store as store_module
from heritage_catalog.store import Delta, parse_update, serialize_update, splice_nquads


def _reference_iri_fault(value: str):
    """Iri's acceptance as three separate checks, or None when it accepts."""
    if value.startswith(":"):
        return f"empty scheme in {value!r}"
    if not re.match(r"[A-Za-z][A-Za-z0-9+.\-]*:", value):
        return f"relative reference (no scheme) in {value!r}"
    forbidden = re.search(r'[\x00-\x20<>"{}|^`\\\x7f]', value)
    if forbidden:
        what = "space" if forbidden.group() == " " else f"character {forbidden.group()!r}"
        return f"{what} not allowed in IRI {value!r}"
    return None


class TestMakeIri:
    def test_accepts_absolute(self):
        assert Iri("https://w3id.org/x").value == "https://w3id.org/x"

    def test_rejects_relative(self):
        with pytest.raises(InvalidIri):
            Iri("obj/42")

    def test_rejects_space(self):
        with pytest.raises(InvalidIri):
            Iri("http://ex.org/a b")

    def test_rejects_empty_scheme(self):
        with pytest.raises(InvalidIri):
            Iri(":foo")

    def test_rejects_control_characters(self):
        with pytest.raises(InvalidIri):
            Iri("http://ex.org/a\x01b")

    def test_urn_scheme_ok(self):
        assert Iri("urn:uuid:1234").value == "urn:uuid:1234"

    _CHARS = st.sampled_from(list("aZ1+.-:/#_é <>\"{}|^`\\\x00\x1f\x7f"))

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.text(_CHARS, max_size=10),
        st.builds("{}:{}".format, st.sampled_from(["http", "a", "urn", "x+1.-"]), st.text(_CHARS, max_size=8)),
    ))
    def test_accepts_and_rejects_as_the_separate_checks(self, value):
        fault = _reference_iri_fault(value)
        if fault is None:
            assert Iri(value).value == value
        else:
            with pytest.raises(InvalidIri) as err:
                Iri(value)
            assert str(err.value) == fault


class TestTerms:
    def test_plain_literal_defaults_to_string(self):
        assert Literal("v").datatype == XSD_STRING

    def test_language_literal_gets_lang_datatype(self):
        lit = Literal("ciao", language="it")
        assert lit.datatype == RDF_LANG_STRING

    def test_language_plus_other_datatype_rejected(self):
        with pytest.raises(InvalidTerm):
            Literal("x", datatype=Iri("http://ex.org/dt"), language="en")

    def test_lang_datatype_without_tag_rejected(self):
        with pytest.raises(InvalidTerm):
            Literal("x", datatype=RDF_LANG_STRING)

    def test_bad_language_tag(self):
        with pytest.raises(InvalidTerm):
            Literal("x", language="en us")

    def test_blank_node_label_validation(self):
        BlankNode("b1")
        BlankNode("b.x-1")
        with pytest.raises(InvalidTerm):
            BlankNode("")
        with pytest.raises(InvalidTerm):
            BlankNode("has space")

    def test_final_line_break_rejected(self):
        # Either would put a line break inside a serialized statement.
        with pytest.raises(InvalidTerm):
            BlankNode("a\n")
        with pytest.raises(InvalidTerm):
            Literal("x", language="en\n")

    def test_literal_subject_rejected(self):
        with pytest.raises(InvalidTerm):
            Quad(Literal("x"), Iri("http://ex.org/p"), Literal("y"))

    def test_bnode_predicate_rejected(self):
        with pytest.raises(InvalidTerm):
            Quad(Iri("http://ex.org/s"), BlankNode("b"), Literal("y"))


class TestParse:
    def test_minimal_triple(self):
        quads = parse_nquads('<http://ex.org/s> <http://ex.org/p> "v" .')
        assert quads == {Quad(Iri("http://ex.org/s"), Iri("http://ex.org/p"), Literal("v"))}
        (q,) = quads
        assert q.graph is None
        assert q.object.datatype == XSD_STRING

    def test_named_graph(self):
        quads = parse_nquads('<http://ex.org/s> <http://ex.org/p> "v" <http://ex.org/g> .')
        (q,) = quads
        assert q.graph == Iri("http://ex.org/g")

    def test_relative_predicate_is_syntax_error(self):
        with pytest.raises(ParseError) as err:
            parse_nquads('<http://ex.org/s> <p> "v" .')
        assert err.value.line == 1
        assert err.value.column is not None

    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_nquads('<http://ex.org/s> <http://ex.org/p> "v"')

    def test_bad_escape(self):
        with pytest.raises(ParseError):
            parse_nquads('<http://ex.org/s> <http://ex.org/p> "v\\q" .')

    def test_literal_graph_rejected(self):
        with pytest.raises(ParseError):
            parse_nquads('<http://ex.org/s> <http://ex.org/p> "v" "g" .')

    def test_error_carries_line_number(self):
        text = "\n".join(['<http://ex.org/s> <http://ex.org/p> "v" .'] * 6 + ["garbage"])
        with pytest.raises(ParseError) as err:
            parse_nquads(text)
        assert err.value.line == 7

    def test_blank_lines_comments_crlf(self):
        text = '# comment\r\n\r\n<http://ex.org/s> <http://ex.org/p> _:b1 .\r\n'
        quads = parse_nquads(text)
        assert quads == {Quad(Iri("http://ex.org/s"), Iri("http://ex.org/p"), BlankNode("b1"))}

    def test_bnode_label_keeps_inner_dot_drops_statement_dot(self):
        quads = parse_nquads("<http://ex.org/s> <http://ex.org/p> _:a.b .")
        (q,) = quads
        assert q.object == BlankNode("a.b")

    def test_escapes_decode(self):
        quads = parse_nquads('<http://ex.org/s> <http://ex.org/p> "a\\tb\\nc\\"d\\\\e\\u00E8" .')
        (q,) = quads
        assert q.object.lexical == 'a\tb\nc"d\\eè'

    def test_datatype_and_language(self):
        quads = parse_nquads(
            '<http://ex.org/s> <http://ex.org/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
            '<http://ex.org/s> <http://ex.org/q> "ciao"@it .'
        )
        objects = {q.object for q in quads}
        assert Literal("5", datatype=Iri("http://www.w3.org/2001/XMLSchema#integer")) in objects
        assert Literal("ciao", language="it") in objects


S, P = "<http://ex.org/s>", "<http://ex.org/p>"

# The (line, column) each malformed statement reports: the column of the
# offending term's first character, or of the cursor for a missing or
# unexpected token.  Columns count code points from 1.
NQUADS_ERRORS = [
    pytest.param(f'{S} <p> "v" .', 1, 19, id="relative-predicate"),
    pytest.param(f'{S} {P} "v"', 1, 40, id="missing-dot"),
    pytest.param(f'{S} {P} "v\\q" .', 1, 37, id="bad-literal-escape"),
    pytest.param(f'{S} {P} "v" "g" .', 1, 41, id="literal-graph"),
    pytest.param("\n".join([f'{S} {P} "v" .'] * 6 + ["garbage"]), 7, 1, id="garbage-line-7"),
    pytest.param("<http://ex.org/s", 1, 1, id="unterminated-iri"),
    pytest.param(f'<http://ex.org/a b> {P} "v" .', 1, 1, id="space-in-iri"),
    pytest.param(f"<http://ex.org/a<b> {P} \"v\" .", 1, 1, id="bracket-in-iri"),
    pytest.param(f'{S} {P} "v" . extra', 1, 43, id="content-after-statement"),
    pytest.param(f'"s" {P} "v" .', 1, 1, id="literal-subject"),
    pytest.param(f'{S} _:b "v" .', 1, 19, id="bnode-predicate"),
    pytest.param(f'_x {P} "v" .', 1, 1, id="underscore-without-colon"),
    pytest.param(f'{S} {P} "unterminated', 1, 37, id="unterminated-literal"),
    pytest.param(f'{S} {P} "v\\', 1, 37, id="backslash-at-end"),
    pytest.param(f'<http://ex.org/a\\u0020b> {P} "v" .', 1, 1, id="iri-escape-decodes-to-space"),
    pytest.param(f'<http://ex.org/a\\U00110000> {P} "v" .', 1, 1, id="iri-escape-out-of-range"),
    pytest.param(f'<http://ex.org/a\\qb> {P} "v" .', 1, 1, id="iri-bad-escape"),
    pytest.param(f'<http://ex.org/a\\u12G4> {P} "v" .', 1, 1, id="iri-bad-u-digits"),
    pytest.param(f"{S} {P} <http://ex.org/\\u003E> .", 1, 37, id="iri-escape-decodes-to-bracket"),
    pytest.param(f'{S} {P} "v\\u12" .', 1, 37, id="literal-short-u-escape"),
    pytest.param(f'{S} {P} "v\\U00110000" .', 1, 37, id="literal-escape-out-of-range"),
    pytest.param(f'{S} {P} "v"@ .', 1, 37, id="empty-language-tag"),
    pytest.param(f'{S} {P} "v"@en_US .', 1, 43, id="language-tag-stops-at-underscore"),
    pytest.param(f'{S} {P} "v"^^foo .', 1, 42, id="datatype-not-iri"),
    pytest.param(f'{S} {P} "v"^^<{RDF_LANG_STRING.value}> .', 1, 37, id="lang-string-datatype"),
    pytest.param(f'{S} {P} "v" .\r\n{S} {P} "v"\r\n', 2, 40, id="crlf-missing-dot"),
    pytest.param(f'{S} {P} "a\rb" .', 1, 37, id="carriage-return-in-literal"),
    pytest.param(f"{S} {P} _:. .", 1, 37, id="empty-bnode-label"),
    pytest.param(f'\t  {S} <p> "v" .', 1, 22, id="indented-relative-predicate"),
    pytest.param(S, 1, 18, id="subject-only"),
    pytest.param(f'{S} {P} "v" _:g .', 1, 41, id="bnode-graph"),
    pytest.param(f'{S} {P} "è" x .', 1, 41, id="columns-count-code-points"),
    pytest.param(f"{S} {P} _:a.b. .", 1, 44, id="bnode-dot-then-second-dot"),
    pytest.param(f'{S} {P} "a\\uD800" .', 1, 37, id="literal-surrogate-u-escape"),
    pytest.param(f'{S} {P} "a\\U0000DFFF" .', 1, 37, id="literal-surrogate-U-escape"),
    pytest.param(f'<http://ex.org/a\\udc00> {P} "v" .', 1, 1, id="iri-surrogate-u-escape"),
    pytest.param(f'{S} {P} <http://ex.org/a\\U0000D800> .', 1, 37, id="iri-surrogate-U-escape"),
]


class TestErrorPositions:
    @pytest.mark.parametrize("text, line, column", NQUADS_ERRORS)
    def test_error_position(self, text, line, column):
        with pytest.raises(ParseError) as err:
            parse_nquads(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_iri_escape_decodes(self):
        (q,) = parse_nquads(f'<http://ex.org/a\\u00E9\\U0001F600> {P} "v" .')
        assert q.subject == Iri("http://ex.org/aé😀")

    def test_escape_out_of_range_message(self):
        with pytest.raises(ParseError, match="escape out of unicode range"):
            parse_nquads(f'<http://ex.org/a\\U00110000> {P} "v" .')

    @pytest.mark.parametrize("escape", ["\\uD800", "\\uDFFF", "\\U0000DBFF", "\\U0000DC00"])
    def test_surrogate_escape_message_on_both_paths(self, escape):
        texts = [f'{S} {P} "a{escape}" .', f"<http://ex.org/{escape}> {P} {S} ."]
        statements, scanner = outcomes_on_both_paths(parse_nquads, texts)
        assert statements == scanner
        assert [outcome[3] for outcome in statements] == [
            "line 1, column 37: escape of a surrogate code point",
            "line 1, column 1: escape of a surrogate code point",
        ]

    @pytest.mark.parametrize("escape", ["\\uD7FF", "\\uE000", "\\U0000FFFD"])
    def test_escapes_beside_the_surrogates_decode(self, escape):
        (q,) = parse_nquads(f'{S} {P} "{escape}" .')
        assert q.object == Literal(chr(int(escape[2:], 16)))


class TestStatementPattern:
    """A statement read with one pattern match gives what the scanner alone
    gives: the same quads, or the same error type, line, column and message."""

    @settings(max_examples=100, deadline=None)
    @given(st.sets(quad_strategy, max_size=8))
    def test_canonical_quads_read_alike(self, quads):
        text = serialize_nquads(quads)
        texts = [text, *text.splitlines()]
        statements, scanner = outcomes_on_both_paths(parse_nquads, texts)
        assert statements == scanner
        assert statements[0] == ("parsed", quads)

    def test_fuzzed_lines_read_alike(self):
        lines = list(fuzz_lines(seed=20_241, count=50_000))
        statements, scanner = outcomes_on_both_paths(parse_nquads, lines)
        assert not divergences(lines, statements, scanner)
        parsed = sum(outcome[0] == "parsed" for outcome in statements)
        assert 0.1 * len(lines) < parsed < 0.9 * len(lines)  # the fuzz reaches both outcomes

    @pytest.mark.parametrize("line", [
        pytest.param(f'{S} {P} "' + '\\"\\\\' * 50_000, id="unterminated-200k-literal"),
        pytest.param(f'{S} {P} "' + '\\"\\\\' * 50_000 + '" .', id="200k-literal"),
        pytest.param(f"_:{'a.' * 50_000} {P} {S} .", id="100k-label-subject"),
        pytest.param(f"{S} {P} _:{'a.' * 50_000} .", id="100k-label-object"),
        pytest.param(f"{S} {P} _:{'a.' * 50_000}", id="100k-label-then-end"),
        pytest.param(f"{S} {P} _:{'a.' * 50_000}_:c .", id="100k-label-into-label"),
        pytest.param(f"{S}{' ' * 100_000}{P}{' ' * 100_000}{S} .", id="100k-spaces"),
        pytest.param(f"{S}{' ' * 100_000}{P}{' ' * 100_000}{S}{' ' * 100_000}x", id="100k-spaces-then-junk"),
    ])
    def test_pathological_lines_read_alike(self, line):
        # Each is read in time linear in its length: catastrophic
        # backtracking in a statement pattern would hang here.
        for parse, text in ((parse_nquads, line), (parse_update, in_update(line))):
            statements, scanner = outcomes_on_both_paths(parse, [text])
            assert statements == scanner

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.sampled_from(["\\", "n", "t", '"', "'", "u", "U", "0", "1", "e", "9", "q", "é", "\n"]), max_size=16))
    def test_literal_escapes_decode_as_the_escape_callback_does(self, body):
        def reference(text):
            return rdf._unescape(rdf._UCHAR_OR_ECHAR, text)

        assert parse_outcome(rdf._unescape_literal, body) == parse_outcome(reference, body)


class TestSerialize:
    def test_empty_dataset(self):
        assert serialize_nquads(set()) == ""

    def test_insertion_order_irrelevant(self):
        a = Quad(Iri("http://ex.org/s"), Iri("http://ex.org/p"), Literal("1"))
        b = Quad(Iri("http://ex.org/s"), Iri("http://ex.org/p"), Literal("2"))
        assert serialize_nquads({a, b}) == serialize_nquads({b, a})
        assert serialize_nquads([b, a]) == serialize_nquads([a, b])

    def test_sorted_by_graph_subject_predicate_object(self):
        q1 = Quad(Iri("http://ex.org/s"), Iri("http://ex.org/p"), Literal("v"))
        q2 = Quad(Iri("http://ex.org/a"), Iri("http://ex.org/p"), Literal("v"), Iri("http://ex.org/g"))
        text = serialize_nquads({q1, q2})
        lines = text.splitlines()
        # default graph sorts before any named graph
        assert lines[0].endswith('"v" .')
        assert lines[1].endswith("<http://ex.org/g> .")

    def test_plain_string_has_no_datatype_suffix(self):
        assert serialize_term(Literal("v")) == '"v"'

    def test_escaping(self):
        assert serialize_term(Literal('a"b')) == '"a\\"b"'
        assert serialize_term(Literal("a\\b")) == '"a\\\\b"'
        assert serialize_term(Literal("a\nb")) == '"a\\nb"'
        assert serialize_term(Literal("a\rb")) == '"a\\rb"'
        assert serialize_term(Literal("a\tb")) == '"a\tb"'  # raw tab is grammatical

    def test_trailing_newline(self):
        q = Quad(Iri("http://ex.org/s"), Iri("http://ex.org/p"), Literal("v"))
        assert serialize_nquads({q}).endswith(".\n")


def _graph_key(graph) -> str:
    return "" if graph is None else serialize_term(graph)


def _kept(text: str) -> tuple[KeptText, set[Quad]]:
    """``text`` with the spans a parse of it records, and its quads."""
    kept = KeptText(text)
    return kept, parse_nquads(text, kept=kept)


def _spanned(kept: KeptText) -> dict:
    """The lines of each graph that ``kept`` holds a span of."""
    return {graph: kept.text[start:end].split("\n") for graph, (start, end) in kept.spans.items()}


def _by_graph(quads) -> dict:
    groups: dict = {}
    for q in quads:
        groups.setdefault(q.graph, set()).add(q)
    return groups


_LINE_G = '<http://ex.org/a> <http://ex.org/p> "a" <http://ex.org/g> .\n'
_G = Iri("http://ex.org/g")


class TestCanonicalGraphs:
    """A save copies the lines of each graph that are exactly what
    ``serialize_nquads`` writes for that graph, and serializes the others."""

    @settings(max_examples=200, deadline=None)
    @given(st.sets(quad_strategy, max_size=12))
    def test_serialized_text_is_kept_whole(self, quads):
        text = serialize_nquads(quads)
        kept = _kept(text)[0]
        groups = _spanned(kept)
        assert set(groups) == {q.graph for q in quads}
        assert "".join(line + "\n" for graph in sorted(groups, key=_graph_key) for line in groups[graph]) == text
        # A save that serializes every graph returns the spans a read records.
        graphs = _by_graph(quads)
        written = splice_nquads(KeptText(), graphs, graphs.__getitem__, set())
        assert (written.text, written.spans) == (text, kept.spans)

    @settings(max_examples=200, deadline=None)
    @given(st.sets(quad_strategy, max_size=12))
    def test_line_order_within_a_graph_is_row_order(self, quads):
        # Within one graph, comparing lines compares (subject, predicate,
        # object) rows; see the KeptText docstring.
        graph = Iri("http://ex.org/g")
        rows = canonical_rows(Quad(q.subject, q.predicate, q.object, graph) for q in quads)
        lines = [f"{s} {p} {o} {g} ." for g, s, p, o in rows]
        assert sorted(lines) == lines

    @pytest.mark.parametrize("shorter, longer", [
        ('"a"', '"a"@en'),
        ('"a"', '"a"^^<http://ex.org/dt>'),
        ('"a"@en', '"a"@en-GB'),
        ('"a"@e', '"a"@en'),
        ("_:a", "_:a.b"),
        ("_:a", "_:a-"),
        ("_:a", "_:a_"),
    ])
    def test_a_term_that_is_a_prefix_sorts_first(self, shorter, longer):
        lines = [f"<http://ex.org/s> <http://ex.org/p> {term} ." for term in (shorter, longer)]
        assert sorted(lines) == lines
        assert _spanned(_kept("".join(line + "\n" for line in lines))[0]) == {None: lines}

    def test_kept_lines_write_back_to_themselves(self):
        rng = random.Random(20_246)
        texts = list(fuzz_lines(seed=20_247, count=20_000))
        texts = [line + "\n" for line in texts]
        for seed in range(200):
            texts += mutations(serialize_nquads(rand_dataset(rng, rng.randrange(1, 8))), seed, count=40)
        kept = rewritten = 0
        for text in texts:
            try:
                lines, quads = _kept(text)
            except ParseError:
                continue
            groups = _spanned(lines)
            for graph, graph_lines in groups.items():
                block = "".join(line + "\n" for line in graph_lines)
                block_quads = parse_nquads(block)
                assert {q.graph for q in block_quads} == {graph}
                assert serialize_nquads(block_quads) == block
            graphs = _by_graph(quads)
            written = splice_nquads(lines, graphs, graphs.__getitem__, set())
            assert written.text == serialize_nquads(quads)
            assert written.spans == _kept(written.text)[0].spans
            kept += len(groups)
            rewritten += len(graphs) - len(groups)
        # The fuzz reaches both outcomes.
        assert 0.01 * len(texts) < kept < 0.9 * len(texts)
        assert 0.01 * len(texts) < rewritten < 0.9 * len(texts)

    @pytest.mark.parametrize("text, rewritten", [
        pytest.param('<http://ex.org/s> <http://ex.org/p> "a"\n', ParseError, id="no-dot"),
        pytest.param('<http://ex.org/s>  <http://ex.org/p> "a" .\n', {None}, id="double-space"),
        pytest.param('<http://ex.org/s> <http://ex.org/p> "a" . \n', {None}, id="trailing-space"),
        pytest.param('<http://ex.org/s> <http://ex.org/p> "a" .\r\n', {None}, id="crlf"),
        pytest.param('# comment\n<http://ex.org/s> <http://ex.org/p> "a" .\n', set(), id="comment"),
        pytest.param('\n<http://ex.org/s> <http://ex.org/p> "a" .\n', set(), id="blank-line"),
        pytest.param('<http://ex.org/s> <http://ex.org/p> "a" .', set(), id="no-final-newline"),
        pytest.param('<http://ex.org/\\u0073> <http://ex.org/p> "a" .\n', {None}, id="iri-escape"),
        pytest.param('<http://ex.org/s> <http://ex.org/p> "\\u0041" .\n', {None}, id="literal-escape"),
        pytest.param(f'<http://ex.org/s> <http://ex.org/p> "a"^^<{XSD_STRING.value}> .\n', {None}, id="xsd-string"),
        pytest.param('<http://ex.org/s> <http://ex.org/p> "a"@en- .\n', ParseError, id="bad-tag"),
        pytest.param('<http://ex.org/s> <http://ex.org/p> "a" .\n<http://ex.org/s> <http://ex.org/p> "a" <http://ex.org/\\u0067> .\n', {_G},
                     id="escaped-graph-label"),
    ])
    def test_text_with_a_non_canonical_line_keeps_nothing(self, monkeypatch, text, rewritten):
        """The graph that holds a line not in canonical spelling keeps none
        of its lines: a save serializes that graph again, copies every
        other graph, and writes what ``serialize_nquads`` writes.  A blank
        or comment line belongs to no graph, and a last line without its
        newline is still canonical.  A line that does not parse fails the
        parse, so nothing is kept."""
        # Graph g also holds a canonical line; a text without its final
        # newline goes last.
        text = text + _LINE_G if text.endswith("\n") else _LINE_G + text
        if rewritten is ParseError:
            with pytest.raises(ParseError) as error:
                _kept(text)
            assert error.value.line == 1
            return
        kept, quads = _kept(text)
        graphs = _by_graph(quads)
        serialized = []
        original = store_module.serialize_nquads
        monkeypatch.setattr(store_module, "serialize_nquads", lambda quads: serialized.append({q.graph for q in quads}) or original(quads))
        written = splice_nquads(kept, graphs, graphs.__getitem__, set())
        assert len(serialized) == len(rewritten) and set().union(*serialized) == rewritten
        assert written.text == serialize_nquads(quads)

    def test_unsorted_or_repeated_graph_lines_are_left_out(self):
        a = '<http://ex.org/s> <http://ex.org/p> "a" <http://ex.org/g> .'
        b = '<http://ex.org/s> <http://ex.org/p> "b" <http://ex.org/g> .'
        c = '<http://ex.org/s> <http://ex.org/p> "c" .'
        assert _spanned(_kept(f"{b}\n{a}\n{c}\n")[0]) == {None: [c]}
        assert _spanned(_kept(f"{a}\n{a}\n{c}\n")[0]) == {None: [c]}
        # Runs of one graph apart from each other leave it to be serialized.
        assert _spanned(_kept(f"{a}\n{c}\n{b}\n")[0]) == {None: [c]}


class TestRoundTrip:
    def test_thousand_quad_round_trip(self):
        rng = random.Random(42)
        dataset = rand_dataset(rng, 1000)
        text = serialize_nquads(dataset)
        assert parse_nquads(text) == dataset
        assert serialize_nquads(parse_nquads(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40), st.sampled_from(["plain", "lang", "typed"]))
    def test_escaping_closure(self, lexical, flavour):
        if flavour == "lang":
            literal = Literal(lexical, language="en")
        elif flavour == "typed":
            literal = Literal(lexical, datatype=Iri("http://ex.org/dt"))
        else:
            literal = Literal(lexical)
        quad = Quad(Iri("http://ex.org/s"), Iri("http://ex.org/p"), literal)
        parsed = parse_nquads(serialize_nquads({quad}))
        assert parsed == {quad}


# The serializer as it was before terms were serialized once per row:
# literals escaped through a translation table, quads sorted by a key of
# four term serializations and then serialized again for the line.
_REFERENCE_ESCAPES = str.maketrans({'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r"})


def _reference_term(term) -> str:
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    body = f'"{term.lexical.translate(_REFERENCE_ESCAPES)}"'
    if term.language is not None:
        return f"{body}@{term.language}"
    if term.datatype != XSD_STRING:
        return f"{body}^^<{term.datatype.value}>"
    return body


def _reference_key(q: Quad) -> tuple:
    graph = "" if q.graph is None else _reference_term(q.graph)
    return (graph, _reference_term(q.subject), _reference_term(q.predicate), _reference_term(q.object))


def _reference_nquads(quads) -> str:
    lines = []
    for q in sorted(quads, key=_reference_key):
        parts = [_reference_term(q.subject), _reference_term(q.predicate), _reference_term(q.object)]
        if q.graph is not None:
            parts.append(_reference_term(q.graph))
        lines.append(" ".join(parts) + " .\n")
    return "".join(lines)


def _reference_update(delta: Delta) -> str:
    blocks = []
    for op, quads in (("DELETE", delta.deletes), ("INSERT", delta.inserts)):
        groups: dict = {}
        for q in quads:
            groups.setdefault(q.graph, set()).add(q)
        for graph in sorted(groups, key=lambda g: "" if g is None else g.value):
            lines = "".join(
                f"  {_reference_term(q.subject)} {_reference_term(q.predicate)} {_reference_term(q.object)} .\n"
                for q in sorted(groups[graph], key=_reference_key)
            )
            if graph is None:
                blocks.append(f"{op} DATA {{\n{lines}}}")
            else:
                blocks.append(f"{op} DATA {{ GRAPH {_reference_term(graph)} {{\n{lines}}} }}")
    return "\n;\n".join(blocks) + "\n" if blocks else ""


class TestSerializerEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(st.sets(quad_strategy, max_size=10))
    def test_nquads_match_reference(self, quads):
        assert serialize_nquads(quads) == _reference_nquads(quads)

    @settings(max_examples=150, deadline=None)
    @given(st.sets(quad_strategy, max_size=6), st.sets(quad_strategy, max_size=6))
    def test_update_matches_reference(self, deletes, inserts):
        delta = Delta(deletes=deletes, inserts=inserts - deletes)
        assert serialize_update(delta) == _reference_update(delta)

    def test_escapes_backslash_before_the_rest(self):
        literal = Literal('\\"\n\r\\n')
        assert serialize_term(literal) == _reference_term(literal) == '"\\\\\\"\\n\\r\\\\n"'


class TestHashContract:
    @settings(max_examples=100, deadline=None)
    @given(quad_strategy)
    def test_rebuilt_quads_are_equal_and_hash_equal(self, quad):
        def rebuilt(term):
            if isinstance(term, Iri):
                return Iri(str(term.value))
            if isinstance(term, BlankNode):
                return BlankNode(term.label)
            return Literal(term.lexical, rebuilt(term.datatype) if term.language is None else None, term.language)

        graph = None if quad.graph is None else rebuilt(quad.graph)
        twin = Quad(rebuilt(quad.subject), rebuilt(quad.predicate), rebuilt(quad.object), graph)
        assert twin == quad and hash(twin) == hash(quad)
        for mine, theirs in zip((twin.subject, twin.predicate, twin.object), (quad.subject, quad.predicate, quad.object)):
            assert mine == theirs and hash(mine) == hash(theirs)

    def test_implicit_and_explicit_string_datatype(self):
        assert Literal("a") == Literal("a", XSD_STRING)
        assert hash(Literal("a")) == hash(Literal("a", XSD_STRING))
        s, p = Iri("http://ex.org/s"), Iri("http://ex.org/p")
        assert hash(Quad(s, p, Literal("a"))) == hash(Quad(s, p, Literal("a", XSD_STRING)))

    def test_different_quads_differ(self):
        s, p = Iri("http://ex.org/s"), Iri("http://ex.org/p")
        assert Quad(s, p, Literal("a")) != Quad(s, p, Literal("a"), Iri("http://ex.org/g"))
        assert Quad(s, p, Literal("a")) != Quad(s, p, Literal("a", language="en"))
        assert Iri("http://ex.org/s") != "http://ex.org/s"


_S_IRI, _P_IRI = Iri("http://ex.org/s"), Iri("http://ex.org/p")
# Each term with the plain str or tuple that holds the same content.
_PLAIN_TWINS = [
    (_S_IRI, "http://ex.org/s"),
    (BlankNode("b1"), "b1"),
    (Literal("a"), ("a", XSD_STRING, None)),
    (Literal("ciao", language="it"), ("ciao", RDF_LANG_STRING, "it")),
    (Quad(_S_IRI, _P_IRI, Literal("a")), (_S_IRI, _P_IRI, Literal("a"), None)),
]
_TWIN_IDS = ["iri", "blank-node", "literal", "language-literal", "quad"]


class TestValueSemantics:
    """Terms are str and tuple values, but a term equals only a term of its own type."""

    @pytest.mark.parametrize("term, plain", _PLAIN_TWINS, ids=_TWIN_IDS)
    def test_never_equal_to_a_plain_twin(self, term, plain):
        assert type(plain) in (str, tuple)
        assert (str.__str__(term) if isinstance(term, str) else tuple(term)) == plain
        assert not term == plain and not plain == term
        assert term != plain and plain != term

    @pytest.mark.parametrize("term, plain", _PLAIN_TWINS, ids=_TWIN_IDS)
    def test_a_set_keeps_a_term_and_its_plain_twin(self, term, plain):
        both = {term, plain}
        assert len(both) == 2
        assert plain not in {term} and term not in {plain}

    @pytest.mark.parametrize("term, plain", _PLAIN_TWINS, ids=_TWIN_IDS)
    def test_equal_terms_are_not_unequal(self, term, plain):
        twin = type(term)(*(plain if isinstance(plain, tuple) else (plain,)))
        assert twin is not term
        assert twin == term and not twin != term and hash(twin) == hash(term)

    def test_replacing_a_field_runs_the_checks(self):
        quad = Quad(_S_IRI, _P_IRI, Literal("a"))
        assert quad._replace(graph=_S_IRI) == Quad(_S_IRI, _P_IRI, Literal("a"), _S_IRI)
        with pytest.raises(InvalidTerm):
            quad._replace(graph="http://ex.org/g")
        with pytest.raises(InvalidTerm):
            Literal("a")._replace(language="en us")

    def test_fields_are_plain_str(self):
        assert type(Iri("http://ex.org/s").value) is str
        assert type(BlankNode("b1").label) is str

    @pytest.mark.parametrize("term, plain", _PLAIN_TWINS, ids=_TWIN_IDS)
    def test_hashed_by_the_builtin_type_and_no_instance_dict(self, term, plain):
        assert type(term).__hash__ is type(plain).__hash__
        assert not hasattr(term, "__dict__")


class TestIriMemo:
    TEXT = "\n".join([
        f'{S} {P} "1" <http://ex.org/g> .',
        f'{S} {P} "2"^^<http://ex.org/dt> <http://ex.org/g> .',
        f"{S} <http://ex.org/q> {S} .",
        f'<http://ex.org/t> {P} "3"^^<http://ex.org/dt> .',
    ])
    # The same IRIs in an update.  Each block header reads the graph IRI;
    # a statement reads it again.
    UPDATE = "\n".join([
        "DELETE DATA { GRAPH <http://ex.org/g> {",
        f'  {S} {P} "1" .',
        "} }",
        ";",
        "INSERT DATA { GRAPH <http://ex.org/g> {",
        f'  {S} {P} "2"^^<http://ex.org/dt> .',
        f"  <http://ex.org/g> <http://ex.org/q> {S} .",
        f'  <http://ex.org/t> {P} "3"^^<http://ex.org/dt> .',
        "} }",
    ])
    DISTINCT = ["http://ex.org/dt", "http://ex.org/g", "http://ex.org/p", "http://ex.org/q", "http://ex.org/s", "http://ex.org/t"]

    @staticmethod
    def _iri_ids(quads) -> set:
        return {id(term) for q in quads for term in (q.subject, q.predicate, q.object, q.graph) if isinstance(term, Iri)}

    def test_repeated_iri_is_one_object_within_a_parse(self):
        subjects = {id(q.subject) for q in parse_nquads(self.TEXT) if q.subject == Iri("http://ex.org/s")}
        assert len(subjects) == 1
        delta = parse_update(self.UPDATE)
        graph = Iri("http://ex.org/g")
        assert len({id(q.graph) for q in delta.deletes | delta.inserts} | {id(q.subject) for q in delta.inserts if q.subject == graph}) == 1

    def test_parses_share_no_iri(self):
        first, second = parse_nquads(self.TEXT), parse_nquads(self.TEXT)
        assert first == second
        assert not self._iri_ids(first) & self._iri_ids(second)
        first, second = parse_update(self.UPDATE), parse_update(self.UPDATE)
        assert first == second
        assert not self._iri_ids(first.deletes | first.inserts) & self._iri_ids(second.deletes | second.inserts)

    def _assert_each_distinct_iri_is_validated_once_per_parse(self, monkeypatch):
        built = []
        build = Iri.__new__

        def counting(cls, value):
            built.append(value)
            return build(cls, value)

        monkeypatch.setattr(Iri, "__new__", counting)
        for parse, text in ((parse_nquads, self.TEXT), (parse_update, self.UPDATE)):
            built.clear()
            parse(text)
            assert sorted(built) == self.DISTINCT
            parse(text)
            assert sorted(built) == sorted(self.DISTINCT * 2)

    def test_each_distinct_iri_is_validated_once_per_parse(self, monkeypatch):
        self._assert_each_distinct_iri_is_validated_once_per_parse(monkeypatch)

    @pytest.mark.parametrize("path", ["scanner", "mixed"])
    def test_the_memo_serves_both_paths(self, monkeypatch, path):
        if path == "scanner":
            scanner_only(monkeypatch)
            self._assert_each_distinct_iri_is_validated_once_per_parse(monkeypatch)
            return
        # Statements whose subject is <http://ex.org/s> take the pattern, the
        # others the scanner; an update statement's pattern starts at its indent.
        taken = {"_NQUADS_STATEMENT": [], "_UPDATE_STATEMENT": []}
        for name, lines in taken.items():
            pattern = re.compile(r"(?=[ ]*<http://ex\.org/s>)" + getattr(rdf, name).pattern)

            def match(*args, pattern=pattern, lines=lines):
                found = pattern.match(*args)
                if found:
                    lines.append(found.group())
                return found

            monkeypatch.setattr(rdf, name, types.SimpleNamespace(match=match))
        self._assert_each_distinct_iri_is_validated_once_per_parse(monkeypatch)
        # Each text is parsed twice: three of the four N-Quads lines and two
        # of the four update statements have subject <http://ex.org/s>.
        assert len(taken["_NQUADS_STATEMENT"]) == 6
        assert len(taken["_UPDATE_STATEMENT"]) == 4
        assert all(line.startswith(f"  {S} ") for line in taken["_UPDATE_STATEMENT"])

    def test_repeated_invalid_iri_reports_its_first_line(self):
        bad = "<http://ex.org/a b>"
        lines = [f'{S} {P} "v" .', f"{S} {P} {bad} .", f'{S} {P} "w" .', f"{S} {P} {S} .", f"{bad} {P} {S} ."]
        with pytest.raises(ParseError) as err:
            parse_nquads("\n".join(lines))
        assert (err.value.line, err.value.column) == (2, 37)
        assert err.value.message == "space not allowed in IRI 'http://ex.org/a b'"
        with pytest.raises(ParseError) as err:
            parse_update(in_update("\n  ".join(lines)))
        assert (err.value.line, err.value.column) == (3, 39)
        assert err.value.message == "space not allowed in IRI 'http://ex.org/a b'"
