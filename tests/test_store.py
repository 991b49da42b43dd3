import os
import random
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_bgp,
    brute_force_match,
    divergences,
    forward_replay,
    fuzz_lines,
    in_update,
    mutations,
    outcomes_on_both_paths,
    quad_strategy,
    rand_dataset,
    rand_iri,
    rand_pattern,
    rand_quad,
    rand_strict_delta,
    rand_term,
    term_strategy,
)
from heritage_catalog.cli import parse_bgp_text
from heritage_catalog.rdf import (
    RDF_LANG_STRING,
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    ParseError,
    Quad,
    Term,
    is_canonical_update,
    serialize_term,
)
from heritage_catalog.store import (
    ANY,
    Delta,
    OverlapError,
    PreconditionViolation,
    QuadPattern,
    Store,
    Variable,
    _term_key,
    ordered_terms,
    parse_update,
    serialize_update,
)


def q(s, p, o, g=None):
    obj = Literal(o) if isinstance(o, str) and not o.startswith("http") else Iri(o) if isinstance(o, str) else o
    return Quad(Iri(s), Iri(p), obj, Iri(g) if g else None)


class TestInsertDelete:
    def test_duplicate_insert_returns_zero(self):
        store = Store()
        quad = q("http://ex.org/s", "http://ex.org/p", "v")
        assert store.insert_quads({quad}) == 1
        assert store.insert_quads({quad}) == 0
        assert len(store) == 1

    def test_empty_insert(self):
        store = Store()
        assert store.insert_quads(set()) == 0
        assert len(store) == 0

    def test_three_fresh(self):
        store = Store()
        quads = {q("http://ex.org/s", "http://ex.org/p", str(i)) for i in range(3)}
        assert store.insert_quads(quads) == 3

    def test_delete_absent_returns_zero(self):
        store = Store()
        assert store.delete_quads({q("http://ex.org/s", "http://ex.org/p", "v")}) == 0

    def test_delete_then_reinsert(self):
        store = Store()
        quad = q("http://ex.org/s", "http://ex.org/p", "v")
        store.insert_quads({quad})
        assert store.delete_quads({quad}) == 1
        store.insert_quads({quad})
        assert quad in store

    def test_named_graph_vanishes_when_emptied(self):
        store = Store()
        quad = q("http://ex.org/s", "http://ex.org/p", "v", "http://ex.org/g")
        store.insert_quads({quad})
        assert store.named_graphs() == [Iri("http://ex.org/g")]
        store.delete_quads({quad})
        assert store.named_graphs() == []

    def test_indexes_match_full_rebuild_after_random_ops(self):
        rng = random.Random(7)
        store = Store()
        pool = list(rand_dataset(rng, 60))
        for _ in range(300):
            if rng.random() < 0.6:
                store.insert_quads({rng.choice(pool)})
            else:
                store.delete_quads({rng.choice(pool)})
        rebuilt = Store(store.quads())
        assert store._by_graph == rebuilt._by_graph
        # Equal nested dicts: no emptied predicate set or subject dict is left.
        assert store._by_subject == rebuilt._by_subject
        assert store._by_po == rebuilt._by_po

    def test_accessors_match_brute_force_after_random_ops(self):
        rng = random.Random(17)
        # Few distinct terms, so lookups hit buckets holding several quads.
        subjects = [rand_iri(rng) for _ in range(3)] + [BlankNode("b1")]
        predicates = [rand_iri(rng, "http://example.org/p/") for _ in range(3)]
        objects = [rand_term(rng) for _ in range(5)] + [subjects[0]]
        graphs = [None, rand_iri(rng, "http://example.org/g/")]
        pool = [Quad(rng.choice(subjects), rng.choice(predicates), rng.choice(objects), rng.choice(graphs)) for _ in range(60)]
        store = Store()
        for step in range(400):
            if rng.random() < 0.6:
                store.insert_quads({rng.choice(pool)})
            else:
                store.delete_quads({rng.choice(pool)})
            if step % 20:
                continue
            quads = store.quads()
            replayed = Store(sorted(quads, key=repr, reverse=True))
            for s in subjects:
                assert store.subject_quads(s) == {q for q in quads if q.subject == s}
                for graph in (ANY, Variable("g"), graphs[1]):
                    pattern = QuadPattern(s, Variable("p"), Variable("o"), graph)
                    assert sorted(map(repr, store.match(pattern))) == sorted(map(repr, brute_force_match(quads, pattern)))
                for p in predicates:
                    bucket = {q for q in quads if q.subject == s and q.predicate == p}
                    assert store.subject_quads(s, p) == bucket
                    for graph in (ANY, Variable("g"), graphs[1]):
                        pattern = QuadPattern(s, p, Variable("o"), graph)
                        assert sorted(map(repr, store.match(pattern))) == sorted(map(repr, brute_force_match(quads, pattern)))
                    got = store.objects(s, p)
                    assert set(got) == {q.object for q in bucket}
                    assert len(got) == len(set(got))
                    assert got == replayed.objects(s, p)
                    assert [o.value for o in got if isinstance(o, Iri)] == sorted(o.value for o in got if isinstance(o, Iri))
                    assert [o.lexical for o in got if isinstance(o, Literal)] == sorted(o.lexical for o in got if isinstance(o, Literal))
                    assert store.objects(s, p, Literal) == [o for o in got if isinstance(o, Literal)]
            for p in predicates:
                for o in objects:
                    got = store.subjects(p, o)
                    assert set(got) == {q.subject for q in quads if q.predicate == p and q.object == o}
                    assert len(got) == len(set(got))
                    assert got == replayed.subjects(p, o)
                    for graph in (ANY, Variable("g"), graphs[1]):
                        pattern = QuadPattern(Variable("s"), p, o, graph)
                        assert sorted(map(repr, store.match(pattern))) == sorted(map(repr, brute_force_match(quads, pattern)))


@given(term_strategy, st.sampled_from([Term, Iri, BlankNode, Literal, (Iri, BlankNode)]))
def test_one_term_list_follows_the_general_rule(term, kind):
    assert ordered_terms([term], kind) == sorted({t for t in [term] if isinstance(t, kind)}, key=_term_key)


class TestMatch:
    def test_all_wildcards(self):
        rng = random.Random(1)
        store = Store(rand_dataset(rng, 5))
        assert len(store.match(QuadPattern())) == 5

    def test_single_binding(self):
        store = Store()
        store.insert_quads({q("http://ex.org/s", "http://ex.org/p", "v"), q("http://ex.org/s2", "http://ex.org/p", "w")})
        bindings = store.match(QuadPattern(Variable("s"), Iri("http://ex.org/p"), Literal("v")))
        assert bindings == [{"s": Iri("http://ex.org/s")}]

    def test_matches_equal_brute_force(self):
        rng = random.Random(99)
        for _ in range(50):
            quads = rand_dataset(rng, 20)
            store = Store(quads)
            pattern = rand_pattern(rng, list(quads))
            got = store.match(pattern)
            want = brute_force_match(quads, pattern)
            assert sorted(map(repr, got)) == sorted(map(repr, want))

    def test_variable_does_not_bind_default_graph(self):
        store = Store({q("http://ex.org/s", "http://ex.org/p", "v")})
        assert store.match(QuadPattern(graph=Variable("g"))) == []
        assert len(store.match(QuadPattern(graph=ANY))) == 1


class TestBgp:
    def test_single_pattern_equals_match(self):
        rng = random.Random(3)
        quads = rand_dataset(rng, 15)
        store = Store(quads)
        pattern = QuadPattern(Variable("s"), Variable("p"), Variable("o"), ANY)
        solutions = store.bgp_query([pattern])
        assert sorted(map(repr, solutions)) == sorted(map(repr, store.match(pattern)))
        assert solutions == sorted(solutions, key=lambda s: [serialize_term(s[k]) for k in sorted(s)])

    def test_disjoint_variables_cross_product(self):
        store = Store()
        for i in range(2):
            store.insert_quads({q(f"http://ex.org/a{i}", "http://ex.org/p", "x")})
        for i in range(3):
            store.insert_quads({q(f"http://ex.org/b{i}", "http://ex.org/q", "y")})
        solutions = store.bgp_query(
            [
                QuadPattern(Variable("s"), Iri("http://ex.org/p"), ANY),
                QuadPattern(Variable("t"), Iri("http://ex.org/q"), ANY),
            ]
        )
        assert len(solutions) == 6

    def test_join_equals_nested_loop_oracle(self):
        rng = random.Random(17)
        for _ in range(40):
            quads = rand_dataset(rng, 15)
            store = Store(quads)
            patterns = [rand_pattern(rng, list(quads)) for _ in range(2)]
            got = store.bgp_query(patterns)
            want = brute_force_bgp(quads, patterns)
            assert sorted(map(repr, got)) == sorted(map(repr, want))

    def test_empty_pattern_list_rejected(self):
        with pytest.raises(ValueError):
            Store().bgp_query([])


class TestParseUpdate:
    def test_insert_data(self):
        delta = parse_update('INSERT DATA { <http://ex.org/s> <http://ex.org/p> "v" . }')
        assert delta.deletes == frozenset()
        assert delta.inserts == {q("http://ex.org/s", "http://ex.org/p", "v")}

    def test_delete_and_insert_in_graph(self):
        text = (
            'DELETE DATA { GRAPH <http://ex.org/g> { <http://ex.org/s> <http://ex.org/p> "v" . } };'
            ' INSERT DATA { GRAPH <http://ex.org/g> { <http://ex.org/s> <http://ex.org/p> "w" . } }'
        )
        delta = parse_update(text)
        assert delta.deletes == {q("http://ex.org/s", "http://ex.org/p", "v", "http://ex.org/g")}
        assert delta.inserts == {q("http://ex.org/s", "http://ex.org/p", "w", "http://ex.org/g")}

    def test_variables_rejected(self):
        with pytest.raises(ParseError):
            parse_update("INSERT DATA { ?x <http://ex.org/p> \"v\" . }")

    def test_overlap_rejected(self):
        text = (
            'DELETE DATA { <http://ex.org/s> <http://ex.org/p> "v" . };'
            ' INSERT DATA { <http://ex.org/s> <http://ex.org/p> "v" . }'
        )
        with pytest.raises(OverlapError):
            parse_update(text)

    def test_empty_text(self):
        assert parse_update("") == Delta()

    def test_prefixed_names_rejected(self):
        with pytest.raises(ParseError):
            parse_update('INSERT DATA { ex:s <http://ex.org/p> "v" . }')


S, P = "<http://ex.org/s>", "<http://ex.org/p>"

# The (line, column) each malformed update reports.  Positions run across
# the whole multi-line text; keyword errors point at the operation keyword.
UPDATE_ERRORS = [
    pytest.param(f'INSERT DATA {{ ?x {P} "v" . }}', 1, 15, id="variable"),
    pytest.param(f'INSERT DATA {{ ex:s {P} "v" . }}', 1, 17, id="prefixed-name"),
    pytest.param("UPSERT DATA { }", 1, 1, id="unknown-operation"),
    pytest.param("INSERT DATUM { }", 1, 1, id="missing-data-keyword"),
    pytest.param(f"INSERT DATA {S}", 1, 13, id="missing-brace"),
    pytest.param(f'INSERT DATA {{\n  {S} {P} "v" .\n  {S} <rel> "v" .\n}}', 3, 21, id="relative-iri-line-3"),
    pytest.param(f'INSERT DATA {{\n  {S} {P} "a\\nb" .\n  {S} {P} "v" x\n}}', 3, 43, id="missing-dot-line-3"),
    pytest.param(f'INSERT DATA {{\n  {S} {P} "a\nb" .\n}}', 2, 39, id="raw-newline-in-literal"),
    pytest.param(f'INSERT DATA {{\n  {S} {P} "\\u00e9 caffè" .\n  {S} {P} "è" x }}', 3, 43, id="unicode-before-error"),
    pytest.param(f'INSERT DATA {{ {S} {P} "v" .', 1, 56, id="unterminated-block"),
    pytest.param(f'INSERT DATA {{ {S} {P} "v" . }} x', 1, 59, id="junk-after-block"),
    pytest.param(f'INSERT DATA {{ {S} {P} "v" . }} ;', 1, 60, id="trailing-semicolon"),
    pytest.param(f'INSERT DATA {{ {S} {P} "v" . }} ;\n', 2, 1, id="trailing-semicolon-newline"),
    pytest.param(f'INSERT DATA {{ {S} {P} "v" . }} ; INSERT', 1, 61, id="second-op-without-data"),
    pytest.param("INSERT\nDATA\n{ }\n;\nDELETE", 5, 1, id="keyword-on-line-5"),
    pytest.param('INSERT DATA { GRAPH "g" { } }', 1, 21, id="literal-graph-label"),
    pytest.param(f"INSERT DATA {{ GRAPH {S} {S} }}", 1, 39, id="graph-without-brace"),
    pytest.param(f'INSERT DATA {{ GRAPH {S} {{ {S} {P} "v" . }}', 1, 84, id="graph-without-closing-brace"),
    pytest.param(f"INSERT DATA {{ {S} {P} _:b1. {S} <rel> _:b2.}}", 1, 75, id="bnode-statement-dot"),
    pytest.param(f'INSERT DATA {{\r\n  {S} <rel> "v" .\r\n}}', 2, 21, id="crlf"),
    pytest.param(f'INSERT DATA {{ {S} {P} "v" }}', 1, 55, id="missing-dot"),
    pytest.param(f'INSERT DATA {{ "s" {P} "v" . }}', 1, 15, id="literal-subject"),
    pytest.param(f'INSERT DATA {{ {S} _:p "v" . }}', 1, 33, id="bnode-predicate"),
    pytest.param(f'INSERT DATA {{ <http://ex.org/a\nb> {P} "v" . }}', 1, 15, id="newline-in-iri"),
    pytest.param(f'INSERT DATA {{ {S} {P} <http://ex.org/o "v" . }}', 1, 51, id="unclosed-iri"),
    pytest.param(f'DELETE DATA {{\n}}\n;\nINSERT DATA {{\n  <http://ex.org/a\\U00110000> {P} "v" .\n}}', 5, 3,
                 id="iri-escape-out-of-range-line-5"),
    pytest.param(f'DELETE DATA {{\n}}\n;\nINSERT DATA {{\n  <http://ex.org/a\\u0020> {P} "v" .\n}}', 5, 3,
                 id="iri-escape-to-space-line-5"),
    pytest.param(f'INSERT DATA {{\n  {S} {P} "a\\uD800" .\n}}', 2, 39, id="literal-surrogate-u-escape"),
    pytest.param(f'INSERT DATA {{\n  {S} {P} "a\\U0000DFFF" .\n}}', 2, 39, id="literal-surrogate-U-escape"),
    pytest.param(f'INSERT DATA {{\n  <http://ex.org/a\\udc00> {P} "v" .\n}}', 2, 3, id="iri-surrogate-u-escape"),
    pytest.param(f'INSERT DATA {{ GRAPH <http://ex.org/\\U0000D800> {{\n  {S} {P} "v" .\n}} }}', 1, 21, id="graph-iri-surrogate-U-escape"),
]

# The (line, column) each malformed query pattern reports; ``None`` where
# the error concerns a whole line or the whole text.
PATTERN_ERRORS = [
    pytest.param("?s ?p", 1, None, id="too-few-positions"),
    pytest.param("?s <rel> ?o", 1, 4, id="relative-iri"),
    pytest.param("? <http://ex.org/p> ?o", 1, 2, id="empty-variable"),
    pytest.param("?s ?p ?o ?g ?x", 1, 15, id="five-positions"),
    pytest.param("?s ?p ?o . x", 1, 12, id="content-after-dot"),
    pytest.param("# comment\n\n?s ?p ?o\n?s <rel> ?o", 4, 4, id="line-4-after-comment"),
    pytest.param('?s <http://ex.org/p> "v', 1, 22, id="unterminated-literal"),
    pytest.param("?s ?p ?o\r\n?s <rel> ?o\r\n", 2, 4, id="crlf"),
    pytest.param("?s ?p _:b. x", 1, 12, id="bnode-dot-then-content"),
    pytest.param("   \n  # only comments", None, None, id="empty-query"),
]


class TestErrorPositions:
    @pytest.mark.parametrize("text, line, column", UPDATE_ERRORS)
    def test_update_error_position(self, text, line, column):
        with pytest.raises(ParseError) as err:
            parse_update(text)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("text, line, column", PATTERN_ERRORS)
    def test_pattern_error_position(self, text, line, column):
        with pytest.raises(ParseError) as err:
            parse_bgp_text(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_bnode_label_stops_before_statement_dot(self):
        delta = parse_update(f"INSERT DATA {{ {S} {P} _:b1. {S} {P} _:b2.}}")
        assert {quad.object for quad in delta.inserts} == {BlankNode("b1"), BlankNode("b2")}

    def test_escaped_iri_in_later_block(self):
        delta = parse_update(f'DELETE DATA {{\n}}\n;\nINSERT DATA {{\n  <http://ex.org/a\\u00E9> {P} "v" .\n}}')
        assert {quad.subject for quad in delta.inserts} == {Iri("http://ex.org/aé")}

    def test_pattern_line_strips_any_whitespace(self):
        patterns, variables = parse_bgp_text("\xa0?s ?p _:b.\u2003")
        assert variables == ["s", "p"]
        assert patterns == [QuadPattern(Variable("s"), Variable("p"), BlankNode("b"), ANY)]


class TestUpdateStatementPattern:
    """Data-block statements read with one pattern match give what the
    scanner alone gives: the same delta, or the same error."""

    @settings(max_examples=100, deadline=None)
    @given(st.sets(quad_strategy, max_size=6), st.sets(quad_strategy, max_size=6))
    def test_canonical_updates_read_alike(self, deletes, inserts):
        delta = Delta(deletes=deletes, inserts=inserts - deletes)
        statements, scanner = outcomes_on_both_paths(parse_update, [serialize_update(delta)])
        assert statements == scanner == [("parsed", delta)]

    def test_fuzzed_lines_read_alike(self):
        texts = [in_update(line) for line in fuzz_lines(seed=20_242, count=50_000)]
        statements, scanner = outcomes_on_both_paths(parse_update, texts)
        assert not divergences(texts, statements, scanner)
        parsed = sum(outcome[0] == "parsed" for outcome in statements)
        assert 0.05 * len(texts) < parsed < 0.9 * len(texts)  # the fuzz reaches both outcomes

    def test_surrogate_escapes_read_alike(self):
        texts = [in_update(f'{S} {P} "a\\uD800" .'), in_update(f"<http://ex.org/\\U0000DFFF> {P} {S} .")]
        statements, scanner = outcomes_on_both_paths(parse_update, texts)
        assert statements == scanner == [
            ("ParseError", 2, 39, "line 2, column 39: escape of a surrogate code point"),
            ("ParseError", 2, 3, "line 2, column 3: escape of a surrogate code point"),
        ]

    def test_label_running_into_a_label_is_not_split(self):
        # The label is 'a._' as far as the scanner reads it; a statement
        # pattern that shortened it to 'a' would find two statements here.
        text = in_update(f"{S} {P} _:a._:c {P} {S} .")
        statements, scanner = outcomes_on_both_paths(parse_update, [text])
        assert statements == scanner == [("ParseError", 2, 44, "line 2, column 44: expected '.', found ':'")]


# Tokens of a block header and what may follow it: keywords in every case
# and run into each other or into a letter, a digit or '_'; braces; good,
# escaped and invalid graph labels; and every kind of whitespace.
_HEADER_TOKENS = [
    "INSERT", "DELETE", "insert", "Delete", "INSERTDATA", "INSERTé", "DATA", "data", "DATAX", "DATA1",
    "GRAPH", "graph", "GRAPHX", "GRAPH_", "{", "}", ";", "oops", "x", "é", "1", "_", "_x", "_:b",
    "<http://ex.org/g>", "<http://ex.org/\\u0067>", "<a b>", "<http://ex.org/\\u0020>", "<http://ex.org/\\U00110000>",
    "<http://ex.org/g", '"g"', " ", "  ", "\t", "\n", "\r\n",
]
_STATEMENT = f'{S} {P} "v" .'


def fuzz_updates(seed: int, count: int):
    """Seeded update texts: half are runs of header tokens, half are
    well-formed one- or two-block updates with some tokens swapped for
    random ones and random whitespace between them; some blocks hold a
    ``fuzz_lines`` statement."""
    rng = random.Random(seed)
    bodies = fuzz_lines(seed, 2 * count)  # at most two blocks a text

    def pick(usual: str) -> str:
        return rng.choice(_HEADER_TOKENS) if rng.random() < 0.15 else usual

    def ws() -> str:
        return rng.choice(["", " ", " ", "\t", "\n", "\r\n", "  "])

    def block() -> str:
        graph = rng.random() < 0.5
        parts = [pick(rng.choice(["INSERT", "DELETE"])), ws() or " ", pick("DATA"), ws(), pick("{"), ws()]
        if graph:
            parts += [pick("GRAPH"), ws() or " ", pick("<http://ex.org/g>"), ws(), pick("{"), ws()]
        body = rng.choice([pick(_STATEMENT), pick(_STATEMENT), next(bodies), ""])
        parts += [body, ws(), pick("}")]
        if graph:
            parts += [ws(), pick("}")]
        return "".join(parts)

    for _ in range(count):
        if rng.random() < 0.5:
            yield "".join(rng.choice(_HEADER_TOKENS + [_STATEMENT]) for _ in range(rng.randint(1, 12)))
        else:
            yield block() + (ws() + ";" + ws() + block() if rng.random() < 0.3 else "") + ws()


class TestUpdateHeaderPattern:
    """Block headers read with one pattern match give what the scanner alone
    gives: the same delta, or the same error type, line, column and message.
    ``TestUpdateStatementPattern`` compares canonical updates the same way."""

    @pytest.mark.parametrize("text", [
        pytest.param("INSERT DATA { oops }", id="word-after-brace"),
        pytest.param("INSERT DATA {\t\r\n oops }", id="word-after-whitespace"),
        pytest.param(f"INSERT DATA {{ _:b {P} {S} . }}", id="label-after-brace"),
        pytest.param("INSERT DATA { 1 }", id="digit-after-brace"),
        pytest.param("INSERT DATA { _x }", id="underscore-after-brace"),
        pytest.param("INSERTDATA { }", id="keywords-run-together"),
        pytest.param("INSERT DATAX { }", id="data-runs-on"),
        pytest.param("INSERT DATA { GRAPHX <http://ex.org/g> { } }", id="graph-runs-on"),
        pytest.param("insert data { graph <http://ex.org/g> { } }", id="lower-case"),
        pytest.param("INSERT DATA { GRAPH <a b> { } }", id="invalid-graph-iri"),
        pytest.param("INSERT DATA { GRAPH <http://ex.org/\\u0020> { } }", id="graph-escape-to-space"),
        pytest.param("INSERT DATA { GRAPH <http://ex.org/g> { oops } }", id="word-in-graph-block"),
        pytest.param(f"DELETE DATA {{ }} ;\r\nINSERT\tDATA\r\n{{\r\nGRAPH\t<http://ex.org/g>{{{S} {P} {S} .}}}}", id="crlf-and-tabs"),
    ])
    def test_header_cases_read_alike(self, text):
        statements, scanner = outcomes_on_both_paths(parse_update, [text])
        assert statements == scanner

    def test_fuzzed_updates_read_alike(self):
        texts = list(fuzz_updates(seed=20_243, count=30_000))
        statements, scanner = outcomes_on_both_paths(parse_update, texts)
        assert not divergences(texts, statements, scanner)
        parsed = sum(outcome[0] == "parsed" for outcome in statements)
        assert 0.05 * len(texts) < parsed < 0.9 * len(texts)  # the fuzz reaches both outcomes


class TestSerializeUpdate:
    def test_empty_delta(self):
        assert serialize_update(Delta()) == ""

    def test_single_insert_block(self):
        delta = Delta(inserts={q("http://ex.org/s", "http://ex.org/p", "v")})
        text = serialize_update(delta)
        assert text.count("INSERT DATA") == 1
        assert "DELETE DATA" not in text

    def test_round_trip_random_deltas(self):
        rng = random.Random(5)
        for _ in range(50):
            delta = Delta(deletes=rand_dataset(rng, 5), inserts=rand_dataset(rng, 5) - rand_dataset(rng, 0))
            # regenerate inserts disjoint from deletes
            delta = Delta(deletes=delta.deletes, inserts=frozenset(rand_dataset(rng, 5)) - delta.deletes)
            assert parse_update(serialize_update(delta)) == delta

    def test_multi_graph_delta_round_trips(self):
        delta = Delta(
            inserts={
                q("http://ex.org/s", "http://ex.org/p", "a"),
                q("http://ex.org/s", "http://ex.org/p", "b", "http://ex.org/g1"),
                q("http://ex.org/s", "http://ex.org/p", "c", "http://ex.org/g2"),
            }
        )
        assert parse_update(serialize_update(delta)) == delta


_A = '<http://ex.org/s> <http://ex.org/p> "a" .'
_B = '<http://ex.org/s> <http://ex.org/p> "b" .'


def _block(op: str, *lines: str, graph: str | None = None) -> str:
    body = "".join(f"  {line}\n" for line in lines)
    return f"{op} DATA {{\n{body}}}" if graph is None else f"{op} DATA {{ GRAPH <{graph}> {{\n{body}}} }}"


def _update(*blocks: str) -> str:
    return "\n;\n".join(blocks) + "\n"


class TestCanonicalUpdate:
    """``is_canonical_update`` accepts what ``serialize_update`` writes, and
    only texts that parse and write back to themselves."""

    @settings(max_examples=200, deadline=None)
    @given(st.sets(quad_strategy, max_size=8), st.sets(quad_strategy, max_size=8))
    def test_accepts_every_serialized_delta(self, deletes, inserts):
        assert is_canonical_update(serialize_update(Delta(deletes=deletes, inserts=inserts - deletes)))

    def test_accepted_texts_write_back_to_themselves(self):
        rng = random.Random(20_244)
        texts = []
        for seed in range(200):
            quads = rand_dataset(rng, rng.randrange(1, 6))
            texts += mutations(serialize_update(rand_strict_delta(rng, quads)), seed, count=40)
        for line in fuzz_lines(seed=20_245, count=20_000):
            texts += [_update(_block("INSERT", line)), _update(_block("DELETE", line, graph="http://ex.org/g"))]
        accepted = [text for text in texts if is_canonical_update(text)]
        assert 0.01 * len(texts) < len(accepted) < 0.9 * len(texts)  # the fuzz reaches both outcomes
        for text in accepted:
            assert serialize_update(parse_update(text)) == text

    def test_blocks_go_in_order_of_graph_value(self):
        # By value, .../a sorts before .../a/b; serialized, <.../a/b> sorts before <.../a>.
        text = _update(_block("INSERT", _A, graph="http://ex.org/a"), _block("INSERT", _A, graph="http://ex.org/a/b"))
        assert serialize_update(parse_update(text)) == text
        assert is_canonical_update(text)

    @pytest.mark.parametrize("text", [
        pytest.param(_update(_block("DELETE", _A), _block("INSERT", _A)), id="overlap"),
        pytest.param(_update(_block("INSERT")), id="empty-block"),
        pytest.param(_update(_block("INSERT", _A, _A)), id="duplicate-line"),
        pytest.param(_update(_block("INSERT", _B, _A)), id="unsorted-lines"),
        pytest.param(_update(_block("INSERT", _A), _block("DELETE", _B)), id="insert-before-delete"),
        pytest.param(_update(_block("INSERT", _A), _block("INSERT", _B)), id="two-blocks-one-graph"),
        pytest.param(_update(_block("INSERT", _A, graph="http://ex.org/a/b"), _block("INSERT", _A, graph="http://ex.org/a")), id="graph-order"),
        pytest.param(_update(_block("INSERT", f'<http://ex.org/s> <http://ex.org/p> "a"^^<{XSD_STRING.value}> .')), id="xsd-string"),
        pytest.param(_update(_block("INSERT", f'<http://ex.org/s> <http://ex.org/p> "a"^^<{RDF_LANG_STRING.value}> .')), id="untagged-lang-string"),
        pytest.param(_update(_block("INSERT", '<http://ex.org/\\u0073> <http://ex.org/p> "a" .')), id="iri-escape"),
        pytest.param(_update(_block("INSERT", '<http://ex.org/s> <http://ex.org/p> "a\\tb" .')), id="tab-escape"),
        pytest.param(_update(_block("INSERT", _A))[:-1], id="no-final-newline"),
        pytest.param(_update(_block("INSERT", _A)) + ";\n", id="trailing-separator"),
        pytest.param(_update(_block("INSERT", _A)).replace("  <", " <"), id="indent"),
        pytest.param("\n", id="bare-newline"),
    ])
    def test_rejects_what_serialize_update_does_not_write(self, text):
        assert not is_canonical_update(text)
        try:
            written = serialize_update(parse_update(text))
        except ValueError:
            return
        assert written != text


class TestDeltaAlgebra:
    def test_apply_then_inverse_restores(self):
        rng = random.Random(11)
        quads = rand_dataset(rng, 20)
        store = Store(quads)
        delta = rand_strict_delta(rng, quads)
        store.apply_delta(delta)
        store.apply_delta(delta.invert())
        assert store.quads() == quads

    def test_strict_missing_delete_rejected(self):
        store = Store()
        delta = Delta(deletes={q("http://ex.org/s", "http://ex.org/p", "v")})
        with pytest.raises(PreconditionViolation):
            store.apply_delta(delta)

    def test_strict_present_insert_rejected(self):
        quad = q("http://ex.org/s", "http://ex.org/p", "v")
        store = Store({quad})
        with pytest.raises(PreconditionViolation):
            store.apply_delta(Delta(inserts={quad}))

    def test_lax_apply_is_idempotent(self):
        quad = q("http://ex.org/s", "http://ex.org/p", "v")
        store = Store({quad})
        store.apply_delta(Delta(inserts={quad}), strict=False)
        assert store.quads() == {quad}

    def test_five_random_deltas_equal_set_algebra_fold(self):
        rng = random.Random(23)
        store = Store()
        deltas = []
        for _ in range(5):
            delta = rand_strict_delta(rng, store.quads())
            deltas.append(delta)
            store.apply_delta(delta)
        assert store.quads() == forward_replay(deltas)

    def test_invert_is_involution(self):
        rng = random.Random(31)
        for _ in range(20):
            delta = rand_strict_delta(rng, rand_dataset(rng, 10))
            assert delta.invert().invert() == delta

    def test_invert_swaps_sides(self):
        a = q("http://ex.org/s", "http://ex.org/p", "a")
        b = q("http://ex.org/s", "http://ex.org/p", "b")
        assert Delta(deletes={b}, inserts={a}).invert() == Delta(deletes={a}, inserts={b})

    def test_invert_empty(self):
        assert Delta().invert() == Delta()

    def test_overlapping_delta_rejected_at_construction(self):
        quad = q("http://ex.org/s", "http://ex.org/p", "v")
        with pytest.raises(OverlapError):
            Delta(deletes={quad}, inserts={quad})


class TestPersistence:
    def test_save_load_thousand_quads(self, tmp_path):
        rng = random.Random(77)
        store = Store(rand_dataset(rng, 1000))
        path = tmp_path / "store.nq"
        store.save(path)
        assert Store.load(path).quads() == store.quads()

    def test_load_empty_file(self, tmp_path):
        path = tmp_path / "empty.nq"
        path.write_text("")
        assert len(Store.load(path)) == 0

    def test_load_reports_bad_line_number(self, tmp_path):
        lines = ['<http://ex.org/s> <http://ex.org/p> "v%d" .' % i for i in range(6)]
        lines.append("malformed line")
        path = tmp_path / "bad.nq"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            Store.load(path)
        assert err.value.line == 7

    @pytest.mark.parametrize("mode", [0o644, 0o640])
    def test_replaced_file_keeps_its_mode(self, tmp_path, mode):
        path = tmp_path / "store.nq"
        path.write_text("")
        path.chmod(mode)
        Store({q("http://ex.org/s", "http://ex.org/p", "v")}).save(path)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert len(Store.load(path)) == 1

    def test_new_file_gets_the_mode_the_umask_leaves(self, tmp_path):
        umask = os.umask(0o027)
        try:
            Store().save(tmp_path / "new.nq")
            assert os.umask(0o027) == 0o027  # left as it was
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "new.nq").stat().st_mode) == 0o640

    def test_save_is_canonical(self, tmp_path):
        rng = random.Random(13)
        quads = rand_dataset(rng, 50)
        a, b = tmp_path / "a.nq", tmp_path / "b.nq"
        Store(quads).save(a)
        shuffled = list(quads)
        rng.shuffle(shuffled)
        Store(shuffled).save(b)
        assert a.read_bytes() == b.read_bytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_apply_invert_identity(seed):
    rng = random.Random(seed)
    quads = rand_dataset(rng, rng.randrange(0, 15))
    store = Store(quads)
    delta = rand_strict_delta(rng, quads)
    store.apply_delta(delta)
    store.apply_delta(delta.invert())
    assert store.quads() == quads
