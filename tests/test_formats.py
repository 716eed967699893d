import random
import tracemalloc
from collections import Counter

import pytest

from hypergroups import (
    InvalidHypergroupError,
    ParseError,
    cayley_to_hypergroup,
    detect_format,
    load_any,
    members,
    parse_document,
    scheme_to_hypergroup,
    serialize_hypergroup,
    validate,
    valency,
)
from hypergroups import fixtures as fx
from hypergroups.cli import main

from instance_checks import is_thin, isomorphic
from oracles import (
    naive_associativity_witness,
    naive_cayley_read,
    naive_parse_document,
    naive_scheme_supports,
)

K2_DOC = """hypergroup k2
rank 2
star 0 1
0 0 : 0
0 1 : 1
1 0 : 1
1 1 : 0 1
"""

# order 5 loop with identity 0: a Latin square that is not associative
LOOP5 = """group loop5
order 5
0 1 2 3 4
1 0 3 4 2
2 4 0 1 3
3 2 4 0 1
4 3 1 2 0
"""


def test_parse_k2_document():
    h = parse_document(K2_DOC)
    assert h.rank == 2
    assert h.name == "k2"
    assert h.table == ((1, 2), (2, 3))


def test_round_trip_on_corpus(corpus):
    for h in corpus.values():
        text = serialize_hypergroup(h)
        back = parse_document(text)
        assert back.table == h.table
        assert back.star == h.star
        assert serialize_hypergroup(back) == text


def test_rank_one_document():
    h = parse_document("hypergroup dot\nrank 1\nstar 0\n0 0 : 0\n")
    assert h.rank == 1


def test_comments_and_blank_lines():
    doc = "# a comment\nhypergroup k2 # trailing\n\nrank 2\nstar 0 1\n" \
          "0 0 : 0\n0 1 : 1\n1 0 : 1\n1 1 : 0 1\n"
    assert parse_document(doc).table == ((1, 2), (2, 3))


def test_identity_relabeling():
    # same structure as c2 but with identity declared at index 1
    doc = ("hypergroup swapped\nrank 2\nidentity 1\nstar 0 1\n"
           "0 0 : 1\n0 1 : 0\n1 0 : 0\n1 1 : 1\n")
    h = parse_document(doc)
    assert h.table == ((1, 2), (2, 1 << 0)) or h.table == ((1, 2), (2, 1))
    assert h.table[0][0] == 1


def _swapped_document(name, table, star, i):
    """Native document of (table, star) with elements 0 and i swapped and an
    'identity i' line, which the reader undoes."""
    n = len(table)
    perm = list(range(n))
    perm[0], perm[i] = i, 0
    lines = [f"hypergroup {name}", f"rank {n}", f"identity {i}",
             "star " + " ".join(str(perm[star[perm[p]]]) for p in range(n))]
    lines += [f"{p} {q} : " + " ".join(
                  str(perm[x]) for x in members(table[perm[p]][perm[q]]))
              for p in range(n) for q in range(n)]
    return "\n".join(lines) + "\n"


def _validate_file(tmp_path, capsys, text):
    path = tmp_path / "doc.hg"
    path.write_text(text)
    code = main(["validate", str(path)])
    return code, capsys.readouterr().out


def test_identity_line_on_every_corpus_member(corpus, tmp_path, capsys):
    # Every member with every index as its declared identity: 91 documents.
    assert sum(h.rank for h in corpus.values()) == 91
    for name, h in corpus.items():
        for i in range(h.rank):
            text = _swapped_document(name, h.table, h.star, i)
            got = parse_document(text)
            assert (got.table, got.star) == (h.table, h.star), (name, i)
            assert _validate_file(tmp_path, capsys, text) == (0, "valid: yes\n")


def test_identity_line_reports_violations_in_the_original_labels(
        corpus, tmp_path, capsys):
    # A corrupted entry, last element times the identity, gains the
    # identity; validate reports what the axiom check finds on the corrupted
    # table in the member's own labels, whichever index the document
    # declares as its identity.
    for name, h in corpus.items():
        if h.rank < 2:
            continue
        table = [list(row) for row in h.table]
        table[h.rank - 1][0] |= 1
        report = validate(table, h.star)
        assert not report.valid
        want = "valid: no\n" + "".join(
            f"violation: {v.axiom} witness {v.witness}\n" for v in report.violations)
        for i in range(h.rank):
            text = _swapped_document(name, table, h.star, i)
            assert _validate_file(tmp_path, capsys, text) == (1, want), (name, i)


def test_missing_entry_of_a_large_rank_is_found_in_small_memory():
    # A 4 KB document of rank 1000 with one entry: the first missing entry
    # is reported without listing the other 999 999.
    rank = 1000
    text = (f"hypergroup big\nrank {rank}\n"
            f"star {' '.join(map(str, range(rank)))}\n0 0 : 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_document(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "missing table entry (0, 1) (line 4)"
    assert err.value.line == 4
    assert peak < 5 * 2**20


def test_declared_rank_sizes_no_memory():
    # A 37-byte document declaring rank ten million: the reader holds what
    # the document holds, and stops at the missing star line.
    text = "hypergroup big\nrank 10000000\n0 0 : 0\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_document(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "missing star line (line 3)"
    assert peak < 5 * 2**20


def test_large_relation_index_sizes_no_memory():
    # A scheme naming relation 10**6: the reader's check of the relation
    # indices holds what the matrix holds, not a set up to the largest.
    text = "scheme s\npoints 2\n0 1000000\n1 0\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            scheme_to_hypergroup(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == \
        "relation indices must be exactly 0..1000000, got [0, 1, 1000000] (line 3)"
    assert peak < 5 * 2**20


def test_line_numbers_count_only_line_breaks():
    # The same bad document under each line break, with the separators
    # that str.splitlines also breaks at placed inside lines.
    body = ["hypergroup x", "rank 2\x0b", "star 0 1\x1c", "0 0 : 0\x1d",
            "0 1 : 1\x1e", "1 0 : 1\x85", "1 1 : 0\u2028 1\u2029", "2 0 : 1"]
    for br in ("\n", "\r\n", "\r"):
        with pytest.raises(ParseError) as err:
            parse_document(br.join(body) + br)
        assert str(err.value) == "entry indices (2,0) out of range (line 8)"
        cayley = br.join(["group g", "order 2", "e a\x0c", "a x\x85"]) + br
        want = ("unknown symbol 'x' (line 4)", 4)
        assert _read_or_error(cayley_to_hypergroup, cayley) == want
        assert _read_or_error(naive_cayley_read, cayley) == want


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_document("hypergroup x\nrank 2\nstar 0 1\n0 0 : 0\n0 1 :\n"
                       "1 0 : 1\n1 1 : 0 1\n")
    assert err.value.line == 5
    with pytest.raises(ParseError):
        parse_document("rank 2\nstar 0 1\n")
    with pytest.raises(ParseError) as err:
        parse_document("hypergroup x\nrank 2\nstar 0 1\n0 0 : 0\n")
    assert "missing table entry" in str(err.value)
    with pytest.raises(ParseError):
        parse_document("hypergroup x\nrank 2\nstar 0\n")
    with pytest.raises(ParseError) as err:
        parse_document("hypergroup x\nrank 2\nidentity 1\nstar 0 5\n"
                         "0 0 : 0\n0 1 : 1\n1 0 : 1\n1 1 : 0\n")
    assert err.value.line == 4 and "star index out of range" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_document("hypergroup x\nrank 2\nidentity 2\nstar 0 1\n"
                         "0 0 : 0\n0 1 : 1\n1 0 : 1\n1 1 : 0\n")
    assert err.value.line == 3 and "identity index out of range" in str(err.value)


def test_validation_failure_forwarded():
    bad = K2_DOC.replace("1 1 : 0 1", "1 1 : 1")
    with pytest.raises(InvalidHypergroupError):
        parse_document(bad)


def test_cayley_ingestion_examples(corpus):
    z2 = cayley_to_hypergroup("group z2\norder 2\ne a\na e\n")
    assert z2.table == corpus["c2"].table
    s3_text = fx.cayley_text(fx.int_table(fx.sym3()), "s3")
    s3 = cayley_to_hypergroup(s3_text)
    assert is_thin(s3)
    assert valency(s3) == 6
    assert s3.table == corpus["s3"].table


def test_cayley_thin_valency_group_order(groups):
    for name, h in groups.items():
        text = fx.cayley_text(fx.int_table(h), name)
        got = cayley_to_hypergroup(text)
        assert is_thin(got)
        assert valency(got) == h.rank


def test_cayley_rejects_non_latin():
    with pytest.raises(ParseError) as err:
        cayley_to_hypergroup("group bad\norder 2\ne a\ne a\n")
    assert "Latin" in str(err.value) or "identity" in str(err.value)


def test_cayley_rejects_missing_identity():
    # Latin square whose first column does not match the first row, so the
    # first symbol is not a right identity.
    with pytest.raises(ParseError) as err:
        cayley_to_hypergroup("group bad\norder 3\ne a b\nb e a\na b e\n")
    assert "identity" in str(err.value)


def test_cayley_rejects_non_associative_loop():
    with pytest.raises(ParseError) as err:
        cayley_to_hypergroup(LOOP5)
    assert "associative" in str(err.value)


def _reduced_latin_square(n, rng):
    """Random n x n Latin square with first row and column 0..n-1, filled
    cell by cell in row order with backtracking."""
    t = [[r if c == 0 else c if r == 0 else None for c in range(n)]
         for r in range(n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(i):
        if i == len(cells):
            return True
        r, c = cells[i]
        used = set(t[r]) | {t[k][c] for k in range(n)}
        values = [v for v in range(n) if v not in used]
        rng.shuffle(values)
        for v in values:
            t[r][c] = v
            if fill(i + 1):
                return True
        t[r][c] = None
        return False

    assert fill(0)
    return t


def test_cayley_reader_matches_associativity_oracle():
    rng = random.Random(5)
    rejected = 0
    for k in range(1000):
        n = 2 + k % 8
        t = _reduced_latin_square(n, rng)
        symbols = [f"s{i}" for i in range(n)]
        text = f"group g{k}\norder {n}\n" + "".join(
            " ".join(symbols[x] for x in row) + "\n" for row in t)
        masks = tuple(tuple(1 << x for x in row) for row in t)
        witness = naive_associativity_witness(masks, n)
        if witness is None:
            h = cayley_to_hypergroup(text)
            assert h.table == masks
            assert h.star == tuple(row.index(0) for row in t)
            continue
        a, b, c = witness
        with pytest.raises(ParseError) as err:
            cayley_to_hypergroup(text)
        assert str(err.value) == (f"not associative at (s{a},s{b},s{c}) "
                                  f"(line {a + 3})")
        assert err.value.line == a + 3
        rejected += 1
    assert 300 < rejected < 900


CAYLEY_ERRORS = (
    "expected", "first row must list", "unknown symbol",
    "first symbol is not an identity", "not a Latin square: repeated symbol in row",
    "not a Latin square: repeated symbol in column", "not associative")


def _read_or_error(read, text):
    """(table, star) of what read returns, or the ParseError's message and
    line."""
    try:
        got = read(text)
    except ParseError as err:
        return str(err), err.line
    return (got.table, got.star) if hasattr(got, "table") else got


def test_cayley_reader_checks_in_the_oracles_order():
    # Reduced Latin squares with one or two cells changed, to another
    # symbol, to an unknown one or to nothing, so that a document breaks
    # several checks at once: the reader must report the same first defect,
    # message and line, as the check-by-check oracle, or the same table.
    rng = random.Random(2409)
    kinds = Counter()
    for k in range(400):
        n = 2 + k % 7
        symbols = [f"s{i}" for i in range(n)]
        grid = [[symbols[x] for x in row]
                for row in _reduced_latin_square(n, rng)]
        for _ in range(1 + k % 2):
            r, c = rng.randrange(n), rng.randrange(n)
            change = rng.randrange(6)
            if change == 0:
                grid[r][c] = f"u{rng.randrange(3)}"
            elif change == 1 and k % 10 == 0:
                del grid[r][c]
            else:
                grid[r][c] = rng.choice(symbols)
        text = f"group g{k}\norder {n}\n" + "".join(
            " ".join(row) + "\n" for row in grid)
        want = _read_or_error(naive_cayley_read, text)
        assert _read_or_error(cayley_to_hypergroup, text) == want
        kinds[next((p for p in CAYLEY_ERRORS if str(want[0]).startswith(p)),
                   "read")] += 1
    assert set(kinds) == {*CAYLEY_ERRORS, "read"}, kinds


def test_scheme_complete_graph_is_k2(corpus):
    h = scheme_to_hypergroup("scheme k3\npoints 3\n0 1 1\n1 0 1\n1 1 0\n")
    assert h.table == corpus["k2"].table
    assert h.star == (0, 1)


def test_scheme_of_group_color_graph_is_thin():
    rows = ["scheme z3", "points 3"]
    for i in range(3):
        rows.append(" ".join(str((j - i) % 3) for j in range(3)))
    h = scheme_to_hypergroup("\n".join(rows) + "\n")
    assert is_thin(h)
    phi = isomorphic(h, fx.cyclic(3))
    assert phi is not None
    # directed relations pair by transpose, not identically
    assert h.star == (0, 2, 1)


def test_scheme_color_graph_matches_cayley_route():
    # regular action of s3 on itself: relation of (x, y) is x^-1 y
    s3 = fx.sym3()
    t = fx.int_table(s3)
    inv = [row.index(0) for row in t]
    rows = ["scheme s3reg", "points 6"]
    for x in range(6):
        rows.append(" ".join(str(t[inv[x]][y]) for y in range(6)))
    h = scheme_to_hypergroup("\n".join(rows) + "\n")
    assert is_thin(h)
    assert isomorphic(h, s3) is not None


def test_scheme_errors():
    with pytest.raises(ParseError) as err:
        scheme_to_hypergroup("scheme bad\npoints 2\n1 1\n1 0\n")
    assert "diagonal" in str(err.value)
    with pytest.raises(ParseError) as err:
        scheme_to_hypergroup("scheme bad\npoints 2\n0 2\n2 0\n")
    assert "relation indices" in str(err.value)
    with pytest.raises(ParseError):
        scheme_to_hypergroup("scheme bad\npoints 2\n0 0\n1 0\n")


def _random_partition(m, rng):
    """Relation matrix on m points: diagonal 0, off-diagonal pairs in 1..k,
    drawn freely, symmetric, or as a fusion of the differences mod m."""
    k = rng.randint(1, 3)
    kind = rng.randrange(3)
    if kind == 2:
        fuse = [0] + [rng.randint(1, k) for _ in range(m - 1)]
        return [[fuse[(j - i) % m] for j in range(m)] for i in range(m)]
    mat = [[0 if i == j else rng.randint(1, k) for j in range(m)] for i in range(m)]
    if kind == 1:
        for i in range(m):
            for j in range(i):
                mat[i][j] = mat[j][i]
    return mat


def test_scheme_reader_accepts_only_schemes():
    # Every relation partition either loads, with the supports of all
    # triples of points, or is refused with a line: a partition that passes
    # the reader's checks is an association scheme, whose support table
    # always satisfies the axioms.
    rng = random.Random(11)
    outcomes = Counter()
    for k in range(2000):
        m = rng.randint(2, 5)
        mat = _random_partition(m, rng)
        text = f"scheme r{k}\npoints {m}\n" + "".join(
            " ".join(map(str, row)) + "\n" for row in mat)
        try:
            h = scheme_to_hypergroup(text)
            assert h.table == naive_scheme_supports(mat)
            outcomes["loaded"] += 1
        except ParseError as exc:
            assert 3 <= exc.line < 3 + m
            outcomes[str(exc).split(" ", 1)[0]] += 1
    assert outcomes["loaded"] > 500 and outcomes["intersection"] > 100, outcomes


def test_detect_format():
    assert detect_format(K2_DOC) == "hypergroup"
    assert detect_format("group z2\norder 2\ne a\na e\n") == "cayley"
    assert detect_format("scheme x\npoints 1\n0\n") == "scheme"
    with pytest.raises(ParseError) as err:
        detect_format("# c\n\nwidget w")
    assert str(err.value) == "unrecognized document header 'widget' (line 3)"
    with pytest.raises(ParseError):
        detect_format("   \n# nothing\n")


def test_load_any(corpus):
    assert load_any(K2_DOC).table == corpus["k2"].table
    assert load_any("group z2\norder 2\ne a\na e\n").rank == 2


def test_shipped_fixture_files_match_programmatic(fixtures_dir):
    pairs = {
        "trivial.hg": fx.trivial(),
        "k2.hg": fx.k2(),
        "c2.hg": fx.cyclic(2),
        "s3.hg": fx.sym3(),
        "d4_mod_refl.hg": fx.d4_mod_reflection(),
    }
    for name, h in pairs.items():
        assert (fixtures_dir / name).read_text() == serialize_hypergroup(h)
    cayleys = {
        "z2.cayley": (fx.cyclic(2), "z2"),
        "s3.cayley": (fx.sym3(), "s3"),
        "d4.cayley": (fx.dihedral4(), "d4"),
        "q8.cayley": (fx.quaternion8(), "q8"),
        "a4.cayley": (fx.alt4(), "a4"),
        "s4.cayley": (fx.sym4(), "s4"),
        "a5.cayley": (fx.alt5(), "a5"),
    }
    for name, (h, label) in cayleys.items():
        want = fx.cayley_text(fx.int_table(h), label)
        assert (fixtures_dir / name).read_text() == want


# (command, document, the exact error): one malformed document per error
# branch of the readers, each read through the CLI.
MALFORMED = [
    ("validate", "# only a comment\n", "empty document (line 1)"),
    ("convert --from cayley", "", "empty document (line 1)"),
    ("convert --from cayley", "hypergroup x\nrank 1\n",
     "expected 'group <name>' header, got 'hypergroup' (line 1)"),
    ("validate", "hypergroup x\nrank two\n", "expected rank, got 'two' (line 2)"),
    ("validate", "hypergroup x\nrank 2 3\n", "rank line needs one integer (line 2)"),
    ("validate", "hypergroup x\nrank 0\n", "rank must be positive (line 2)"),
    ("validate", "hypergroup x\nrank 1\nidentity\n",
     "identity line needs one index (line 3)"),
    ("validate", "hypergroup x\nstar 0\n", "star line before rank (line 2)"),
    ("validate", "hypergroup x\nrank 2\nstar 0\n", "star line needs 2 indices (line 3)"),
    ("validate", "hypergroup x\nrank 2\nstar 0 2\n", "star index out of range (line 3)"),
    ("validate", "hypergroup x\n0 0 : 0\n", "table entry before rank (line 2)"),
    ("validate", "hypergroup x\nrank 1\nstar 0\n0 0 0\n",
     "table entry needs 'p q : members' (line 4)"),
    ("validate", "hypergroup x\nrank 1\nstar 0\n0 : 0\n",
     "table entry needs exactly two indices before ':' (line 4)"),
    ("validate", "hypergroup x\nrank 1\nstar 0\n² 0 : 0\n",
     "expected row index, got '²' (line 4)"),
    ("validate", "hypergroup x\nrank 1\nstar 0\n0 x : 0\n",
     "expected column index, got 'x' (line 4)"),
    ("validate", "hypergroup x\nrank 1\nstar 0\n0 1 : 0\n",
     "entry indices (0,1) out of range (line 4)"),
    ("validate", "hypergroup x\nrank 1\nstar 0\n0 0 : a\n",
     "expected member index, got 'a' (line 4)"),
    ("validate", "hypergroup x\nrank 1\nstar 0\n0 0 :\n",
     "empty product set at (0,0) (line 4)"),
    ("validate", "hypergroup x\nrank 1\nstar 0\n0 0 : 1\n",
     "product member out of range at (0,0) (line 4)"),
    ("validate", "hypergroup x\nrank 1\nstar 0\n0 0 : 0\n0 0 : 0\n",
     "duplicate table entry (0,0) (line 5)"),
    ("validate", "hypergroup x\nrank 1\nfoo 1\n", "unrecognized line 'foo' (line 3)"),
    ("validate", "hypergroup x\n", "missing rank line (line 1)"),
    ("validate", "hypergroup x\nrank 1\n0 0 : 0\n", "missing star line (line 3)"),
    ("validate", "hypergroup x\nrank 1\nidentity 1\nstar 0\n0 0 : 0\n",
     "identity index out of range (line 3)"),
    ("validate", "hypergroup x\nrank 1\nstar 0\n", "missing table entry (0, 0) (line 3)"),
    # Only \n, \r\n and \r break lines; a form feed, \x85 or \u2028 is
    # whitespace inside its line and moves no later line number.
    ("analyze", "hypergroup x\nrank 2\nstar 0 1\n0 0 : 0\x0c\n0 1 : 1\n1 0 : 1\n"
     "1 1 : 0 7\n", "product member out of range at (1,1) (line 7)"),
    # A repeated header line is an error at its own line, whichever comes
    # first: the last one used to win, dropping a table read under another.
    ("analyze", "hypergroup x\nrank 2\n0 0 : 0\n0 1 : 1\n1 0 : 1\n1 1 : 0\n"
     "rank 1\nstar 0\n", "duplicate rank line (line 7)"),
    ("analyze", "hypergroup x\nrank 1\nstar 0\nrank 2\n0 0 : 0\n0 1 : 1\n"
     "1 0 : 1\n1 1 : 0\n", "duplicate rank line (line 4)"),
    ("analyze", "hypergroup x\nrank 1\nstar 0\nstar 0\n0 0 : 0\n",
     "duplicate star line (line 4)"),
    ("analyze", "hypergroup x\nrank 1\nidentity 0\nidentity 0\nstar 0\n0 0 : 0\n",
     "duplicate identity line (line 4)"),
    ("validate", "group g\n", "expected 'order <n>' line (line 2)"),
    ("validate", "group g\norder\n", "order line needs one integer (line 2)"),
    ("validate", "group g\norder x\n", "expected order, got 'x' (line 2)"),
    ("validate", "group g\norder 0\n", "order must be positive (line 2)"),
    ("validate", "group g\norder 2\n", "expected 2 table rows, got 0 (line 2)"),
    ("validate", "group g\norder 2\ne a\n", "expected 2 table rows, got 1 (line 3)"),
    ("validate", "group g\norder 2\ne a\na\n", "expected 2 symbols in row, got 1 (line 4)"),
    ("validate", "group g\norder 2\ne e\ne e\n",
     "first row must list n distinct symbols (line 3)"),
    ("validate", "group g\norder 2\ne a\na b\n", "unknown symbol 'b' (line 4)"),
    ("validate", "group g\norder 2\ne a\x0c\na c\n", "unknown symbol 'c' (line 4)"),
    ("validate", "group g\norder 3\ne a b\nb e a\na b e\n",
     "first symbol is not an identity: row/column mismatch at position 1 (line 3)"),
    ("validate", "group g\norder 3\ne a b\na a e\nb e a\n",
     "not a Latin square: repeated symbol in row 1 (line 4)"),
    ("validate", "group g\norder 3\ne a b\na b e\nb a e\n",
     "not a Latin square: repeated symbol in column 1 (line 3)"),
    ("validate", LOOP5, "not associative at (1,1,2) (line 4)"),
    ("validate", "scheme s\n", "expected 'points <m>' line (line 2)"),
    ("validate", "scheme s\npoints\n", "points line needs one integer (line 2)"),
    ("validate", "scheme s\npoints x\n", "expected point count, got 'x' (line 2)"),
    ("validate", "scheme s\npoints 0\n", "points must be positive (line 2)"),
    ("validate", "scheme s\npoints 2\n0 1\n", "expected 2 matrix rows, got 1 (line 3)"),
    ("validate", "scheme s\npoints 2\n0 a\n1 0\n",
     "expected relation index, got 'a' (line 3)"),
    ("validate", "scheme s\npoints 2\n0 1\n1\n", "expected 2 entries in row, got 1 (line 4)"),
    ("validate", "scheme s\npoints 2\n0 1\x85\u2028\n1 x\n",
     "expected relation index, got 'x' (line 4)"),
    ("validate", "scheme s\npoints 2\n1 1\n1 0\n",
     "diagonal entry (0,0) must be relation 0 (line 3)"),
    ("validate", "scheme s\npoints 2\n0 2\n2 0\n",
     "relation indices must be exactly 0..2, got [0, 2] (line 3)"),
    ("validate", "scheme s\npoints 2\n0 0\n1 0\n",
     "relation 0 must be exactly the diagonal, seen at (0,1) (line 3)"),
    ("validate", "scheme s\npoints 3\n0 1 1\n2 0 1\n1 1 0\n",
     "transpose pairing ill-defined for relation 1 (line 3)"),
    # Not a scheme: the pairs (0,0) and (1,1) of relation 0 see different
    # intersection numbers, and relation 1 times relation 1 is empty.
    ("validate", "scheme x\npoints 2\n0 2\n1 0\n",
     "intersection numbers of relation 0 differ between (0,0) and (1,1) (line 4)"),
]


@pytest.mark.parametrize("command,text,message", MALFORMED,
                         ids=[m for _, _, m in MALFORMED])
def test_malformed_document_is_an_input_error(capsys, tmp_path, command, text,
                                              message):
    f = tmp_path / "doc.txt"
    f.write_text(text, encoding="utf-8")
    code = main(command.split() + [str(f)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


# The message of every ParseError the native reader raises, by its fixed
# start; longer starts first where one begins another.
NATIVE_ERRORS = (
    "empty document", "expected 'hypergroup <name>' header",
    "duplicate table entry", "duplicate", "rank line needs one integer",
    "expected rank,", "rank must be positive", "identity line needs one index",
    "expected identity index", "star line before rank", "star line needs",
    "expected star index", "star index out of range", "table entry before rank",
    "table entry needs 'p q : members'", "table entry needs exactly two",
    "expected row index", "expected column index", "entry indices",
    "expected member index", "empty product set", "product member out of range",
    "unrecognized line", "missing rank line", "missing star line",
    "identity index out of range", "missing table entry")

# Tokens put in place of an index or a member: the reader's conversion must
# take or refuse each exactly as the per-token checks do.
ODD_TOKENS = ("-1", "-0", "+1", "1_0", "01", "١", "²", "x", "1.5",
              "99", ":")


def _outcome(read, text):
    """(name, rank, star, table) of what read returns, or the exception's
    type, message and line, with the violations of a table that fails the
    axioms."""
    try:
        h = read(text)
    except InvalidHypergroupError as err:
        return "invalid", err.report.violations
    except Exception as err:  # any exception, so that any difference shows
        return type(err).__name__, str(err), getattr(err, "line", None)
    return h.name, h.rank, h.star, h.table


def _mutate(text, rng):
    """text with one to three seeded edits of its lines or tokens."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        entries = [i for i, line in enumerate(lines) if " : " in line]
        i = rng.choice(entries) if entries else len(lines) - 1
        toks = lines[i].split(" ")
        kind = rng.randrange(12)
        if kind == 0:  # shuffle the entries
            moved = [lines[j] for j in entries]
            rng.shuffle(moved)
            for j, line in zip(entries, moved):
                lines[j] = line
        elif kind == 1:
            del lines[i]
        elif kind == 2:  # the same entry again
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif kind == 3:  # the same cell with other members
            lines.insert(rng.randrange(len(lines) + 1),
                         " ".join(toks[:3] + [str(rng.randrange(3))]))
        elif kind == 4:
            lines[i] = " ".join(toks[:3] + [str(rng.randrange(3))])
        elif kind == 5:  # in an entry, or in any line
            i = rng.choice((i, rng.randrange(len(lines))))
            toks = lines[i].split(" ")
            toks[rng.randrange(len(toks))] = rng.choice(ODD_TOKENS)
            lines[i] = " ".join(toks)
        elif kind == 6:
            lines[i] = rng.choice(("\t", "  ", " \t ")).join(toks) + \
                rng.choice(("", "  # note", "\t#"))
        elif kind == 7:
            lines.insert(rng.randrange(1, len(lines) + 1),
                         rng.choice(("# comment", "", "   ", "\t# c : 1")))
        elif kind == 8:  # a second ':', or none after the indices
            lines[i] = " ".join(toks + rng.choice(([":", "0"], [":"])))
        elif kind == 9:
            lines[i] = " ".join(toks[:3])
        elif kind == 10:
            lines.insert(rng.randrange(1, len(lines) + 1),
                         f"identity {rng.choice(('0', '1', '2', '-1', 'x'))}")
        else:  # a header line moved
            j = rng.randrange(1, min(3, len(lines)))
            lines.insert(rng.randrange(1, len(lines) + 1), lines.pop(j))
    return "\n".join(lines) + "\n"


# Each integer position of a native document: the line of the rank-2 table
# below, its template, and the refusal of a token that is not an integer.
C2_DOC = """hypergroup c2
rank 2
identity 0
star 0 1
0 0 : 0
0 1 : 1
1 0 : 1
1 1 : 0
"""
INT_POSITIONS = {
    "row": ("1 0 : 1", "{} 0 : 1", "expected row index, got {!r}"),
    "column": ("0 1 : 1", "0 {} : 1", "expected column index, got {!r}"),
    "member": ("1 1 : 0", "1 1 : 0 {}", "expected member index, got {!r}"),
    "rank": ("rank 2", "rank {}", "expected rank, got {!r}"),
    "star": ("star 0 1", "star {} 1", "expected star index, got {!r}"),
    "identity": ("identity 0", "identity {}", "expected identity index, got {!r}"),
}


def test_native_integers_have_one_grammar():
    # An integer is ASCII digits with an optional leading '-' in every
    # position: such a token reads as its value written plainly would, and
    # any other is refused at its line. A row token that is no digit
    # string, of any script, after its '-' makes the line unrecognized.
    for position, (line, template, refusal) in INT_POSITIONS.items():
        lineno = C2_DOC.splitlines().index(line) + 1
        for tok in ODD_TOKENS:
            got = _outcome(parse_document, C2_DOC.replace(line, template.format(tok)))
            if tok.lstrip("-").isascii() and tok.lstrip("-").isdigit():
                plain = template.format(int(tok))
                assert got == _outcome(parse_document, C2_DOC.replace(line, plain)), \
                    (position, tok)
                continue
            message = refusal.format(tok)
            if position == "row" and not tok.isdigit():
                message = f"unrecognized line {tok!r}"
            elif position == "column" and tok == ":":
                message = "table entry needs exactly two indices before ':'"
            assert got == ("ParseError", f"{message} (line {lineno})", lineno), \
                (position, tok)


def test_native_reader_matches_the_per_token_oracle(corpus, group_quotients):
    # The reader against the one that checks every line token by token, on
    # the error documents, the serialized corpus and group quotients, and
    # seeded edits of them: the same table, or the same error and line, or
    # the same violations. Every error message of the reader is reached.
    docs = [serialize_hypergroup(h)
            for h in (*corpus.values(), *group_quotients.values())]
    texts = [text for _, text, _ in MALFORMED] + docs
    rng = random.Random(7778)
    small = [d for d in docs if len(d) < 600]
    texts += [_mutate(rng.choice(small), rng) for _ in range(2500)]
    texts += [_mutate(d, rng) for d in docs]
    kinds = Counter()
    for text in texts:
        want = _outcome(naive_parse_document, text)
        assert _outcome(parse_document, text) == want, text
        kinds[next((p for p in NATIVE_ERRORS if str(want[1]).startswith(p)),
                   want[0] if want[0] == "invalid" else "read")] += 1
    assert set(kinds) == {*NATIVE_ERRORS, "invalid", "read"}, kinds
