"""Shared fixtures: randomized term generators, oracles, the gold catalog."""

import random
import re
import string
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import strategies as st

from heritage_catalog import rdf
from heritage_catalog.catalog import Catalog, record_graph
from heritage_catalog.mapping import load_table
from heritage_catalog.provenance import DELETION, ProvenanceTracker
from heritage_catalog.rdf import XSD_STRING, BlankNode, Iri, Literal, Quad
from heritage_catalog.store import ANY, Delta, QuadPattern, Variable

DATA_DIR = Path(__file__).parent / "data"

# Lexical pool exercising every escape class plus unicode.
NASTY_LEXICALS = [
    "plain",
    'quote " inside',
    "back\\slash",
    "new\nline",
    "carriage\rreturn",
    "tab\there",
    'all "of\\the\nabove\r\t',
    "unicode caffè ☕",
    "",
    "trailing space ",
]


def rand_iri(rng: random.Random, prefix: str = "http://example.org/") -> Iri:
    return Iri(prefix + "".join(rng.choices(string.ascii_lowercase + string.digits, k=8)))


def rand_literal(rng: random.Random) -> Literal:
    roll = rng.random()
    lexical = rng.choice(NASTY_LEXICALS)
    if roll < 0.5:
        return Literal(lexical)
    if roll < 0.75:
        return Literal(lexical, language=rng.choice(["en", "it", "de-CH"]))
    return Literal(lexical, datatype=rand_iri(rng, "http://example.org/dt/"))


def rand_term(rng: random.Random):
    roll = rng.random()
    if roll < 0.45:
        return rand_iri(rng)
    if roll < 0.55:
        return BlankNode("b" + "".join(rng.choices(string.ascii_lowercase + string.digits, k=5)))
    return rand_literal(rng)


def rand_quad(rng: random.Random, graphs=None) -> Quad:
    subject = rand_iri(rng) if rng.random() < 0.85 else BlankNode("s" + str(rng.randrange(1000)))
    graph = None
    if graphs is None:
        if rng.random() < 0.4:
            graph = rand_iri(rng, "http://example.org/g/")
    else:
        graph = rng.choice(graphs)
    return Quad(subject, rand_iri(rng, "http://example.org/p/"), rand_term(rng), graph)


def rand_dataset(rng: random.Random, size: int, graphs=None) -> set:
    quads = set()
    while len(quads) < size:
        quads.add(rand_quad(rng, graphs))
    return quads


_st_iris = st.text(
    st.characters(min_codepoint=0x21, blacklist_characters='<>"{}|^`\\\x7f'), max_size=4
).map(lambda tail: Iri("http://ex.org/" + tail))
_st_bnodes = st.from_regex(r"\A[A-Za-z0-9_]{1,3}\Z").map(BlankNode)
_st_lexicals = st.text(st.one_of(st.sampled_from(["\\", '"', "\n", "\r", "a", "\U0001F600"]), st.characters()), max_size=10)


@st.composite
def _st_literals(draw):
    lexical = draw(_st_lexicals)
    language = draw(st.sampled_from([None, "en", "de-CH"]))
    if language is not None:
        return Literal(lexical, language=language)
    return Literal(lexical, draw(st.sampled_from([None, XSD_STRING, Iri("http://ex.org/dt")])))


# Hypothesis strategies: terms of every kind, and quads, with short IRIs,
# labels and escape-heavy literals.
term_strategy = st.one_of(_st_iris, _st_bnodes, _st_literals())
quad_strategy = st.builds(
    Quad,
    st.one_of(_st_iris, _st_bnodes),
    _st_iris,
    term_strategy,
    st.one_of(st.none(), _st_iris),
)


def rand_strict_delta(rng: random.Random, store_quads: set) -> Delta:
    """A delta strictly applicable to the given quad set."""
    present = list(store_quads)
    deletes = set(rng.sample(present, k=rng.randrange(0, min(len(present), 5) + 1))) if present else set()
    inserts = set()
    while len(inserts) < rng.randrange(0, 5):
        q = rand_quad(rng)
        if q not in store_quads:
            inserts.add(q)
    return Delta(deletes=deletes, inserts=inserts - deletes)


def rand_pattern(rng: random.Random, quads: list) -> QuadPattern:
    """A pattern biased towards matching something in the store."""
    template = rng.choice(quads) if quads and rng.random() < 0.8 else rand_quad(rng)
    positions = []
    for index, value in enumerate((template.subject, template.predicate, template.object, template.graph)):
        roll = rng.random()
        if roll < 0.35:
            positions.append(ANY)
        elif roll < 0.65:
            positions.append(Variable(rng.choice("xyzvw")))
        else:
            positions.append(value if value is not None else ANY)
    return QuadPattern(*positions)


def brute_force_match(quads, pattern: QuadPattern):
    """Independent oracle: filter every quad, no indexes involved."""
    out = []
    for q in quads:
        binding = {}
        ok = True
        for pat, val in ((pattern.subject, q.subject), (pattern.predicate, q.predicate), (pattern.object, q.object), (pattern.graph, q.graph)):
            if pat is ANY:
                continue
            if isinstance(pat, Variable):
                if val is None or (pat.name in binding and binding[pat.name] != val):
                    ok = False
                    break
                binding[pat.name] = val
            elif pat != val:
                ok = False
                break
        if ok:
            out.append(binding)
    return out


def brute_force_bgp(quads, patterns):
    """Nested-loop join oracle over the raw quad list."""
    solutions = [{}]
    for pattern in patterns:
        grown = []
        for sol in solutions:
            for q in quads:
                binding = dict(sol)
                ok = True
                for pat, val in ((pattern.subject, q.subject), (pattern.predicate, q.predicate), (pattern.object, q.object), (pattern.graph, q.graph)):
                    if pat is ANY:
                        continue
                    if isinstance(pat, Variable):
                        if val is None or (pat.name in binding and binding[pat.name] != val):
                            ok = False
                            break
                        binding[pat.name] = val
                    elif pat != val:
                        ok = False
                        break
                if ok:
                    grown.append(binding)
        solutions = grown
    return solutions


def forward_replay(deltas) -> set:
    """Set-algebra oracle: fold deltas over the empty state."""
    state = set()
    for delta in deltas:
        state = (state - set(delta.deletes)) | set(delta.inserts)
    return state


def is_live(tracker: ProvenanceTracker, entity: Iri) -> bool:
    """Whether the entity has a chain, and one that does not end in a deletion."""
    return tracker.has_chain(entity) and tracker.chain(entity)[-1].kind != DELETION


def ts(seconds: int) -> datetime:
    return datetime.fromtimestamp(1_700_000_000 + seconds, tz=timezone.utc)


def build_gold_catalog(root: Path) -> Catalog:
    """The fully FAIR-compliant fixture catalog, built through ingest."""
    catalog = Catalog.create(root)
    bib = load_table(DATA_DIR / "gold_bibliographic.csv")
    proc = load_table(DATA_DIR / "gold_process.csv")
    catalog.ingest_bibliographic(bib, Iri("file:///gold_bibliographic.csv"))
    catalog.ingest_process(proc, Iri("file:///gold_process.csv"))
    catalog.save()
    return catalog


@pytest.fixture
def gold_catalog(tmp_path) -> Catalog:
    return build_gold_catalog(tmp_path / "gold")


def add_twin_asset(catalog: Catalog, dcho: Iri) -> Iri:
    """Record a copy of the object's first asset under a full IRI on another
    host whose last segment is the same, so both name one placeholder."""
    asset = sorted(catalog.assets_for(dcho), key=lambda a: a.id.value)[0].id
    twin = Iri("http://elsewhere.example/y/" + asset.value.rsplit("/", 1)[-1])
    quads = {Quad(twin, q.predicate, q.object, record_graph(twin)) for q in catalog.store.subject_quads(asset)}
    catalog.tracker.record_creation(twin, quads, catalog.config.agent_iri())
    return twin


# -- statement patterns against the scanner ----------------------------------

_S, _P, _O, _G = "<http://ex.org/s>", "<http://ex.org/p>", "<http://ex.org/o>", "<http://ex.org/g>"
# Tokens a statement pattern might split differently from the scanner:
# labels running into dots or other labels, bare and broken datatype and
# language suffixes, bad and good escapes, invalid IRIs, stray punctuation
# and every kind of whitespace.
FUZZ_TOKENS = [
    _S, _P, _O, _G, "<http://ex.org/\\u0041>", "<a b>", "<", ">",
    "_:a", "_:a.", "_:a.b", "_:a._:c", "_:", "_",
    '"v"', '"\\q"', '"a\\"b"', '"\\u00e9\\n"', '"', "^^", "^^x", "^^<http://ex.org/dt>", "@", "@en", "@en-GB",
    "#c", " ", "\t", "\r", "{", "}", ".", "-", ";", "x",
]
_FUZZ_SLOTS = (
    [_S, "_:a", "_:a.b"],
    [_P],
    [_O, "_:a", "_:a.b", '"v"', '"v"@en', '"v"^^<http://ex.org/dt>', '"a\\"b"'],
    ["", _G],
)
_FUZZ_SEPARATORS = ["", " ", " ", "\t", "\r", "  "]


def fuzz_lines(seed: int, count: int):
    """Seeded statement-like lines: half are runs of random tokens, half are
    well-formed statements with random separators and some slots swapped
    for random tokens."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.5:
            yield "".join(rng.choice(FUZZ_TOKENS) for _ in range(rng.randint(1, 9)))
            continue
        parts = [rng.choice(FUZZ_TOKENS if rng.random() < 0.15 else slot) for slot in _FUZZ_SLOTS]
        parts.append(rng.choice(FUZZ_TOKENS) if rng.random() < 0.1 else ".")
        yield rng.choice(_FUZZ_SEPARATORS).join(parts) + rng.choice(["", "", " ", " #c", "\r", rng.choice(FUZZ_TOKENS)])


# What a single-character mutation of canonical text inserts or puts in
# place of a character: separators, escapes and the punctuation of every
# token.
_MUTATION_CHARS = ' \t\r\n\\"<>._:@^{};#-Aaz09ué'


def mutations(text: str, seed: int, count: int):
    """Seeded single-character mutations of ``text``: one character
    deleted, inserted or replaced."""
    rng = random.Random(seed)
    for _ in range(count):
        pos = rng.randrange(len(text) + 1)
        roll = rng.randrange(3)
        end = pos + 1 if roll == 0 or (roll == 2 and pos < len(text)) else pos
        yield text[:pos] + ("" if roll == 0 else rng.choice(_MUTATION_CHARS)) + text[end:]


# -- the update recognizer that open's escaped-update grammar replaced ----------

# One block of ``store.serialize_update`` output, matched in the text
# itself; group 1 is the operation, group 2 the graph IRI's value, group 3
# the statement lines.
_REFERENCE_UPDATE_BLOCK = re.compile(
    f"(DELETE|INSERT) DATA \\{{(?: GRAPH <({rdf._CANONICAL_IRI_BODY})> \\{{)?\n"
    f"((?:  {rdf._triple(f'<{rdf._CANONICAL_IRI_BODY}>', '(?:')} \\.\n)+)\\}}(?(2) \\}})"
)


def reference_is_canonical_update(text: str) -> bool:
    """Whether ``text`` is an update query exactly as ``serialize_update``
    writes one, checked block by block in the text itself, with the order
    rules checked on its lines as they stand."""
    if not text:
        return True
    pos, last, deleted = 0, None, {}
    while found := _REFERENCE_UPDATE_BLOCK.match(text, pos):
        op, graph, body = found.groups()
        key = (op == "INSERT", graph or "")
        lines = body.split("\n")[:-1]
        if (last is not None and key <= last) or not all(map(str.__lt__, lines, lines[1:])):
            return False
        if op == "DELETE":
            deleted[key[1]] = lines
        elif not set(deleted.get(key[1], ())).isdisjoint(lines):
            return False
        last, pos = key, found.end()
        if not text.startswith("\n;\n", pos):
            return text[pos:] == "\n"
        pos += 3
    return False


def reference_body_is_canonical(body: str) -> bool:
    """Whether the block reader took a snapshot with this update-query
    literal body before the escaped-update grammar: a canonical literal
    body whose unescaped text the reference recognizer accepts."""
    return re.fullmatch(rdf._CANONICAL_BODY, body) is not None and reference_is_canonical_update(rdf._unescape_literal(body))


def swapped_lines(text: str, seed: int) -> str:
    """``text`` with two of its lines swapped, chosen by ``seed``: a
    reordering of blocks or statements when the lines are an update's."""
    lines = text.split("\n")
    rng = random.Random(seed)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


def in_update(line: str) -> str:
    """The text of an update whose only data block holds ``line``."""
    return "INSERT DATA {\n  " + line + "\n}"


def parse_outcome(parse, text: str) -> tuple:
    """What ``parse(text)`` gives: the result, or the error's type, line,
    column and message."""
    try:
        return ("parsed", parse(text))
    except ValueError as exc:
        return (type(exc).__name__, getattr(exc, "line", None), getattr(exc, "column", None), str(exc))


_NEVER = re.compile(r"(?!)")


def scanner_only(patch: pytest.MonkeyPatch):
    """Replace both statement patterns and the update block-header pattern
    with one that never matches, which leaves every statement and header
    to the scanner."""
    patch.setattr(rdf, "_NQUADS_STATEMENT", _NEVER)
    patch.setattr(rdf, "_UPDATE_STATEMENT", _NEVER)
    patch.setattr(rdf, "_UPDATE_HEADER", _NEVER)


def outcomes_on_both_paths(parse, texts) -> tuple[list, list]:
    """``parse_outcome`` of each text as parsed, and as the scanner alone parses it."""
    texts = list(texts)
    statements = [parse_outcome(parse, text) for text in texts]
    with pytest.MonkeyPatch.context() as patch:
        scanner_only(patch)
        scanner = [parse_outcome(parse, text) for text in texts]
    return statements, scanner


def divergences(texts, statements: list, scanner: list) -> list:
    """The texts, shortened, whose two outcomes differ, with both outcomes."""
    return [(text[:80], mine, theirs) for text, mine, theirs in zip(texts, statements, scanner) if mine != theirs]
