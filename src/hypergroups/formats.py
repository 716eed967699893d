"""Text formats: native hypergroup documents, Cayley tables, scheme matrices.

Native format, line by line, UTF-8 with LF endings and '#' comments:

    hypergroup <name>
    rank <n>
    star <n space-separated indices>
    <p> <q> : <sorted member list>     (one line per table entry, n*n lines)

An optional "identity <i>" line after the rank relabels element i to 0 on
parse; the serializer never emits it, since identity is always element 0.
Every integer, in every format here and in every command-line argument,
is ASCII digits after an optional '-' (integer).

Every reader returns the validated FiniteHypergroup; a table that breaks an
axiom raises InvalidHypergroupError, which carries the validation report.

Cayley format: "group <name>", "order <n>", then n rows of n symbols. The
first row fixes the symbol order, and the first row and column must both
match it, making the first symbol the identity.

Scheme format: "scheme <name>", "points <m>", then an m x m integer matrix
entry (i, j) = index of the relation containing the pair; relation 0 must
be exactly the diagonal, the transpose of a relation must be a relation, and
the intersection numbers must be constant on each relation, so that the
matrix is an association scheme. Only the support of relation composition
is kept.
"""

from __future__ import annotations

from operator import add

from .bitset import bits, mask_of, members
from .core import FiniteHypergroup
from .errors import InvalidHypergroupError, ParseError


def _newlines(text: str) -> str:
    """text with each \\r\\n and \\r made \\n: the line breaks open() reads."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(_newlines(text).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _header(lines, keyword: str, default_name: str) -> str:
    """Name from the '<keyword> <name>' first meaningful line of a document."""
    if not lines:
        raise ParseError("empty document", 1)
    lineno, head = lines[0]
    parts = head.split(None, 1)
    if parts[0] != keyword:
        raise ParseError(f"expected '{keyword} <name>' header, got {parts[0]!r}",
                         lineno)
    return parts[1].strip() if len(parts) > 1 else default_name


def integer(tok: str) -> int:
    """tok, spaces around it allowed, as an integer of the one grammar
    above; anything else, or more digits than int() converts, is ValueError."""
    tok = tok.strip()
    if tok.isascii() and tok.removeprefix("-").isdecimal():
        return int(tok)
    raise ValueError(f"not an integer: {tok!r}")


def _int(tok: str, lineno: int, what: str) -> int:
    """tok as an integer of the one grammar above, else ParseError."""
    try:
        return integer(tok)
    except ValueError:
        raise ParseError(f"expected {what}, got {tok!r}", lineno) from None


def _square(lines, count_line: str, count_what: str, row_what: str,
            cell_what: str, convert=None):
    """The rows, as (lineno, line), and the grid of n rows of n tokens after
    the 'order <n>' or 'points <m>' line, each token through convert(tok,
    lineno), if given, before its row's length is checked; the nouns name
    the count, rows and cells in messages."""
    keyword = count_line.split()[0]
    if len(lines) < 2 or lines[1][1].split()[0] != keyword:
        raise ParseError(f"expected '{count_line}' line", lines[0][0] + 1)
    lineno, line = lines[1]
    toks = line.split()
    if len(toks) != 2:
        raise ParseError(f"{keyword} line needs one integer", lineno)
    n = _int(toks[1], lineno, count_what)
    if n < 1:
        raise ParseError(f"{keyword} must be positive", lineno)
    rows = lines[2:]
    if len(rows) != n:
        raise ParseError(f"expected {n} {row_what} rows, got {len(rows)}",
                         rows[-1][0] if rows else lineno)
    grid = []
    for lineno, line in rows:
        cells = line.split()
        if convert is not None:
            cells = [convert(tok, lineno) for tok in cells]
        if len(cells) != n:
            raise ParseError(f"expected {n} {cell_what} in row, got {len(cells)}",
                             lineno)
        grid.append(cells)
    return rows, grid


def parse_document(text: str) -> FiniteHypergroup:
    """The validated hypergroup of a native document, identity relabeled to 0.

    An entry line 'p q : members' takes its checks in one place, in order:
    rank first, the ':' shape, the two indices through the one grammar,
    their range, the members, converted and checked once per distinct
    member text, and the duplicate entry."""
    lines = list(_meaningful_lines(text))
    name = _header(lines, "hypergroup", "H")
    rank = star = None
    identity = 0
    identity_line = lines[0][0]
    cells: dict[int, int] = {}  # p * rank + q -> mask of entry (p, q)
    masks: dict[str, int] = {}  # member text -> its mask, once checked
    headers = set()
    for lineno, line in lines[1:]:
        parts = line.split(None, 3)
        key = parts[0]
        if key.lstrip("-").isdigit():
            if rank is None:
                raise ParseError("table entry before rank", lineno)
            if len(parts) < 3 or parts[2] != ":" or parts[1] == ":":
                raise ParseError("table entry needs exactly two indices before ':'"
                                 if ":" in line.split() else
                                 "table entry needs 'p q : members'", lineno)
            p = _int(parts[0], lineno, "row index")
            q = _int(parts[1], lineno, "column index")
            if not (0 <= p < rank and 0 <= q < rank):
                raise ParseError(f"entry indices ({p},{q}) out of range", lineno)
            listed = parts[3] if len(parts) == 4 else ""
            mask = masks.get(listed)
            if mask is None:
                mem = [_int(tok, lineno, "member index") for tok in listed.split()]
                if not mem:
                    raise ParseError(f"empty product set at ({p},{q})", lineno)
                if min(mem) < 0 or max(mem) >= rank:
                    raise ParseError(f"product member out of range at ({p},{q})",
                                     lineno)
                mask = masks[listed] = mask_of(mem)
            if p * rank + q in cells:
                raise ParseError(f"duplicate table entry ({p},{q})", lineno)
            cells[p * rank + q] = mask
            continue
        toks = line.split()
        if key in headers:
            raise ParseError(f"duplicate {key} line", lineno)
        if key in ("rank", "identity", "star"):
            headers.add(key)
        if key == "rank":
            if len(toks) != 2:
                raise ParseError("rank line needs one integer", lineno)
            rank = _int(toks[1], lineno, "rank")
            if rank < 1:
                raise ParseError("rank must be positive", lineno)
        elif key == "identity":
            if len(toks) != 2:
                raise ParseError("identity line needs one index", lineno)
            identity = _int(toks[1], lineno, "identity index")
            identity_line = lineno
        elif key == "star":
            if rank is None:
                raise ParseError("star line before rank", lineno)
            if len(toks) != rank + 1:
                raise ParseError(f"star line needs {rank} indices", lineno)
            star = tuple(_int(t, lineno, "star index") for t in toks[1:])
            if any(not 0 <= x < rank for x in star):
                raise ParseError("star index out of range", lineno)
        else:
            raise ParseError(f"unrecognized line {key!r}", lineno)
    if rank is None:
        raise ParseError("missing rank line", lines[-1][0])
    if star is None:
        raise ParseError("missing star line", lines[-1][0])
    if not (0 <= identity < rank):
        raise ParseError("identity index out of range", identity_line)
    if len(cells) < rank * rank:
        missing = next(divmod(k, rank) for k in range(rank * rank)
                       if k not in cells)
        raise ParseError(f"missing table entry {missing}", lines[-1][0])
    flat = map(cells.__getitem__, range(rank * rank))
    table = tuple(zip(*[flat] * rank))
    if identity:  # swap 0 and the declared identity, a swap its own inverse
        perm = [identity, *range(1, identity), 0, *range(identity + 1, rank)]
        star = tuple(perm[star[x]] for x in perm)
        table = tuple(tuple(mask_of(perm[x] for x in bits(table[p][q]))
                            for q in perm) for p in perm)
    return FiniteHypergroup(table, star, name=name)


def serialize_hypergroup(H: FiniteHypergroup) -> str:
    """Canonical native document; parse of the output reproduces the table."""
    name = " ".join(H.name.split()) or "H"
    out = [f"hypergroup {name}", f"rank {H.rank}",
           "star " + " ".join(map(str, H.star))]
    for p in range(H.rank):
        for q in range(H.rank):
            mem = " ".join(map(str, members(H.table[p][q])))
            out.append(f"{p} {q} : {mem}")
    return "\n".join(out) + "\n"


def cayley_to_hypergroup(text: str) -> FiniteHypergroup:
    """Read a group's Cayley table as a thin hypergroup.

    Every product becomes the singleton set containing it; the star map is
    the inverse read off the table. Latin-square shape and the identity
    row and column are checked here, each with its own error. Associativity
    is left to the axiom check that every FiniteHypergroup runs on
    construction: a Latin square with an identity that is associative is a
    group, so H1 is the only axiom such a table can break, and its witness,
    the first (a, b, c) in scan order, is reported at the line of row a.
    """
    lines = list(_meaningful_lines(text))
    name = _header(lines, "group", "G")
    rows, grid = _square(lines, "order <n>", "order", "table", "symbols")
    n = len(grid)
    symbols = grid[0]
    if len(set(symbols)) != n:
        raise ParseError("first row must list n distinct symbols", rows[0][0])
    pos = {s: i for i, s in enumerate(symbols)}
    table = []
    for (lineno, _), syms in zip(rows, grid):
        row = tuple(map(pos.get, syms))
        if None in row:
            raise ParseError(f"unknown symbol {syms[row.index(None)]!r}", lineno)
        table.append(row)
    # Row 0 lists the symbols in order, so only column 0 can mismatch.
    ident = tuple(range(n))
    cols = tuple(zip(*table))
    if cols[0] != ident:
        i = next(i for i in ident if cols[0][i] != i)
        raise ParseError(
            "first symbol is not an identity: row/column mismatch at "
            f"position {i}", rows[0][0])
    # Every entry is one of the n symbols, so n distinct ones are all of them.
    for i in ident:
        if len(set(table[i])) != n:
            raise ParseError(f"not a Latin square: repeated symbol in row {i}",
                             rows[i][0])
        if len(set(cols[i])) != n:
            raise ParseError(f"not a Latin square: repeated symbol in column {i}",
                             rows[0][0])
    try:
        return thin_from_table(table, name)
    except InvalidHypergroupError as exc:
        a, b, c = next(v.witness for v in exc.report.violations if v.axiom == "H1")
        raise ParseError(
            f"not associative at ({symbols[a]},{symbols[b]},{symbols[c]})",
            rows[a][0]) from None


def thin_from_table(table, name: str) -> FiniteHypergroup:
    """Thin hypergroup of a group's integer Cayley table (identity index 0):
    each product the singleton of its entry, the star the inverse."""
    bit = [1 << i for i in range(len(table))]
    masks = tuple(tuple(map(bit.__getitem__, row)) for row in table)
    return FiniteHypergroup(masks, tuple(row.index(0) for row in table), name=name)


def scheme_to_hypergroup(text: str) -> FiniteHypergroup:
    """Support hypergroup of a relation partition matrix.

    Relation r lies in the product p q iff some triple of points realizes p,
    q and r along its sides. Star pairs each relation with its transpose.
    Structure constants are discarded; only supports are kept.
    """
    lines = list(_meaningful_lines(text))
    name = _header(lines, "scheme", "S")
    rows, mat = _square(lines, "points <m>", "point count", "matrix", "entries",
                        lambda tok, lineno: _int(tok, lineno, "relation index"))
    m = len(mat)
    for i in range(m):
        if mat[i][i] != 0:
            raise ParseError(f"diagonal entry ({i},{i}) must be relation 0",
                             rows[i][0])
    used = {v for row in mat for v in row}
    r = max(used) + 1
    if min(used) < 0 or len(used) != r:
        raise ParseError(
            f"relation indices must be exactly 0..{r - 1}, got {sorted(used)}",
            rows[0][0])
    for i in range(m):
        for j in range(m):
            if i != j and mat[i][j] == 0:
                raise ParseError(
                    f"relation 0 must be exactly the diagonal, seen at ({i},{j})",
                    rows[i][0])
    star = [None] * r
    for i in range(m):
        for j in range(m):
            p, pt = mat[i][j], mat[j][i]
            if star[p] is None:
                star[p] = pt
            elif star[p] != pt:
                raise ParseError(
                    f"transpose pairing ill-defined for relation {p}", rows[i][0])
    # A scheme: for (x, z) in relation k, the multiset of relation pairs
    # (x y, y z) over the points y, coded p * r + q, depends on k alone.
    # So one pair of each relation gives the supports: k lies in p q iff
    # (p, q) is in the multiset of k.
    cols = tuple(zip(*mat))
    table = [[0] * r for _ in range(r)]
    first = {}
    for x in range(m):
        coded = [p * r for p in mat[x]]
        for z, k in enumerate(mat[x]):
            numbers = sorted(map(add, coded, cols[z]))
            pair, want = first.setdefault(k, ((x, z), numbers))
            if numbers != want:
                raise ParseError(
                    f"intersection numbers of relation {k} differ between "
                    f"({pair[0]},{pair[1]}) and ({x},{z})", rows[x][0])
            if pair == (x, z):
                for pq in numbers:
                    table[pq // r][pq % r] |= 1 << k
    return FiniteHypergroup(tuple(tuple(row) for row in table), tuple(star),
                            name=name)


# Header keyword -> format name. Each format's reader is looked up when a
# document is read, so a rebinding of a reader in this module takes effect.
_FORMATS = {"hypergroup": "hypergroup", "group": "cayley", "scheme": "scheme"}


def detect_format(text: str) -> str:
    """Format named by the first meaningful keyword: hypergroup, cayley or scheme."""
    for lineno, line in _meaningful_lines(text):
        key = line.split(None, 1)[0]
        if key not in _FORMATS:
            raise ParseError(f"unrecognized document header {key!r}", lineno)
        return _FORMATS[key]
    raise ParseError("empty document", 1)


def load_as(text: str, fmt: str) -> FiniteHypergroup:
    """Read text as the named format (hypergroup, cayley or scheme), validated."""
    reader = {"hypergroup": parse_document, "cayley": cayley_to_hypergroup,
              "scheme": scheme_to_hypergroup}[fmt]
    return reader(text)


def load_any(text: str) -> FiniteHypergroup:
    """Parse any of the three formats, converting to a hypergroup."""
    return load_as(text, detect_format(text))
