import random

import pytest

from hypergroups import (
    InvalidHypergroupError,
    ParseError,
    cayley_to_hypergroup,
    detect_format,
    is_thin,
    isomorphic,
    load_any,
    parse_document,
    parse_hypergroup,
    scheme_to_hypergroup,
    serialize_hypergroup,
    valency,
)
from hypergroups import fixtures as fx

from oracles import naive_associativity_witness

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
    h = parse_hypergroup(K2_DOC)
    assert h.rank == 2
    assert h.name == "k2"
    assert h.table == ((1, 2), (2, 3))


def test_round_trip_on_corpus(corpus):
    for h in corpus.values():
        text = serialize_hypergroup(h)
        back = parse_hypergroup(text)
        assert back.table == h.table
        assert back.star == h.star
        assert serialize_hypergroup(back) == text


def test_rank_one_document():
    h = parse_hypergroup("hypergroup dot\nrank 1\nstar 0\n0 0 : 0\n")
    assert h.rank == 1


def test_comments_and_blank_lines():
    doc = "# a comment\nhypergroup k2 # trailing\n\nrank 2\nstar 0 1\n" \
          "0 0 : 0\n0 1 : 1\n1 0 : 1\n1 1 : 0 1\n"
    assert parse_hypergroup(doc).table == ((1, 2), (2, 3))


def test_identity_relabeling():
    # same structure as c2 but with identity declared at index 1
    doc = ("hypergroup swapped\nrank 2\nidentity 1\nstar 0 1\n"
           "0 0 : 1\n0 1 : 0\n1 0 : 0\n1 1 : 1\n")
    h = parse_hypergroup(doc)
    assert h.table == ((1, 2), (2, 1 << 0)) or h.table == ((1, 2), (2, 1))
    assert h.table[0][0] == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_hypergroup("hypergroup x\nrank 2\nstar 0 1\n0 0 : 0\n0 1 :\n"
                         "1 0 : 1\n1 1 : 0 1\n")
    assert err.value.line == 5
    with pytest.raises(ParseError):
        parse_hypergroup("rank 2\nstar 0 1\n")
    with pytest.raises(ParseError) as err:
        parse_hypergroup("hypergroup x\nrank 2\nstar 0 1\n0 0 : 0\n")
    assert "missing table entry" in str(err.value)
    with pytest.raises(ParseError):
        parse_hypergroup("hypergroup x\nrank 2\nstar 0\n")
    with pytest.raises(ParseError) as err:
        parse_hypergroup("hypergroup x\nrank 2\nidentity 1\nstar 0 5\n"
                         "0 0 : 0\n0 1 : 1\n1 0 : 1\n1 1 : 0\n")
    assert err.value.line == 4 and "star index out of range" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_hypergroup("hypergroup x\nrank 2\nidentity 2\nstar 0 1\n"
                         "0 0 : 0\n0 1 : 1\n1 0 : 1\n1 1 : 0\n")
    assert err.value.line == 3 and "identity index out of range" in str(err.value)


def test_validation_failure_forwarded():
    bad = K2_DOC.replace("1 1 : 0 1", "1 1 : 1")
    with pytest.raises(InvalidHypergroupError):
        parse_hypergroup(bad)
    # structural parse still works
    doc = parse_document(bad)
    assert doc.rank == 2


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
