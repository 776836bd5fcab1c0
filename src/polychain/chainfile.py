"""Exact textual file formats.

Chain files are JSON documents with rationals serialized as "p/q" strings,
never floats, so a round trip is bit-exact:

    {
      "ambient_dim": 2,
      "dim": 1,
      "group": "real",                  # real | integer | mod:p | circle
      "complex": {"type": "kuhn", "n": 2},   # optional, unit box
      "simplices": [
        {"vertices": [["0", "0"], ["1/2", "0"]], "coeff": "3/4"},
        ...
      ]
    }

Slice files (`decompose-levels --out`) are JSON documents
{"slices": [{"t_low": "p/q", "t_high": "p/q", "chain": <chain document>}, ...]}.
Both JSON layouts are rendered directly by string joins (`emit_chain`,
`emit_slices`), reproducing `json.dumps(doc, indent=2, sort_keys=True)`
plus a final newline byte for byte; tests pin this against that call on
`chain_to_document`, which stays the schema's reference.  Reading a chain
parses each distinct coordinate or coefficient string once.  A chain with
a `complex` block maps each distinct coordinate string to its lattice
integer q*n, sorts each term's integer points (`geometry.canonical`),
looks the cell up by its lattice tuple (`GridComplex.cell_ids`) and builds
the chain from cell ids (`GridComplex.chain_from_ids`), with no `Simplex`
made per term; a term off the lattice or off the complex is handed to
`PolyChain.build`, so its error names the simplex as `build` names it.

Grid-function files are plain text: a header line "d n" followed by n^d
rationals in row-major order (the function is zero outside the unit box).

ChainFileError marks structural problems (malformed document, bad rational,
unknown field); InputLimitError marks well-formed input past a named size
limit (MAX_RATIONAL_DIGITS, MAX_FREE_TERMS, MAX_EXACT_LP_ROWS,
MAX_FLOAT_LP_ENTRIES, and grid.MAX_GRID_SIMPLICES, which `grid.check_grid`
enforces for every grid a file or command names); semantic violations raised while building the
chain (wrong coefficient for the group, simplex off the grid) propagate
from the core modules unchanged so callers can tell them apart.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .chains import PolyChain
from .coarea import GridFunction
from .geometry import canonical
# the grid limit and its error live in grid; both stay importable from here
from .grid import MAX_GRID_SIMPLICES, InputLimitError, check_grid, grid_complex
from .groups import GroupError
from .groups import group_from_tag as _group_from_tag


class ChainFileError(ValueError):
    pass


# Largest numerator or denominator of a rational read from text, in decimal
# digits.  Exponent notation is checked before Fraction expands 10**exp, so
# a short string such as "1e200000" cannot request a huge integer.
MAX_RATIONAL_DIGITS = 1000

# Most simplices a free chain file (one without a `complex`) may list.
# Grid chains are bounded by their grid; a free chain's mass sums one
# radicand per term, and folding each into the sum scans those already
# there, so the time grows with the square of the terms.  Measured on
# seeded free chains with coordinates in 1/97 (2 cores, Python 3.11.7),
# `mass` and `validate` took 0.2 and 0.2 s, 0.7 and 0.9 s, and 5.4 and
# 5.6 s for 10^3, 3*10^3 and 10^4 segments in R^2, and 0.3 and 0.4 s,
# 1.9 and 2.0 s, and 19.2 and 19.3 s for as many triangles in R^3; past
# 10^4 such a file would take minutes.
MAX_FREE_TERMS = 10000

# Largest flat-norm program the exact route (flat_norm_oracle, `flatnorm
# --exact`) may solve, in rows: the k-simplices of the chain's grid.
# Bland's rule over Fractions grows fast with the grid: d=2 n=8 k=1
# (208 rows) takes about 1 s, d=3 n=3 k=1 (279 rows) about 6 s.
MAX_EXACT_LP_ROWS = 256

# Largest flat-norm program the float route (flat_norm, `flatnorm`) may
# solve, in entries of its dense matrix: rows x (2 rows + 2 (k+1)-cells),
# 8 bytes each, so 1 GiB here.  It admits a 1-chain on grids up to d=2
# n=45 (d=2 n=40: 78.9M entries) and a 1- or 2-chain up to d=3 n=8 (125M
# for the 2-chain), and refuses d=2 n=60 (396M, 3.2 GB), which
# MAX_GRID_SIMPLICES would otherwise allow.
MAX_FLOAT_LP_ENTRIES = 2 ** 27


# -- rationals ------------------------------------------------------------


def _exceeds_digit_limit(n: int) -> bool:
    # 10**D has more than 3*D bits, so the power is only built for huge n.
    return n.bit_length() > 3 * MAX_RATIONAL_DIGITS and abs(n) >= 10 ** MAX_RATIONAL_DIGITS


def _exponent_exceeds_limit(text: str) -> bool:
    # Past 20 digits the exponent is over any limit, and int() would refuse
    # a long enough string.
    digits = text.lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
    return digits.isdigit() and (len(digits) > 20 or int(digits) > MAX_RATIONAL_DIGITS)


def parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ChainFileError("%s: rationals must be 'p/q' strings or integers, got %r"
                             % (where, value))
    if isinstance(value, int):
        q = Fraction(value)
    elif isinstance(value, str):
        text = value.strip()
        if _exponent_exceeds_limit(text):
            raise InputLimitError("%s: exponent of %r exceeds MAX_RATIONAL_DIGITS = %d"
                                  % (where, text[:40], MAX_RATIONAL_DIGITS))
        try:
            q = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ChainFileError("%s: not a rational: %r" % (where, value)) from None
    else:
        raise ChainFileError("%s: expected rational string, got %s"
                             % (where, type(value).__name__))
    if _exceeds_digit_limit(q.numerator) or _exceeds_digit_limit(q.denominator):
        raise InputLimitError("%s: rational exceeds MAX_RATIONAL_DIGITS = %d"
                              % (where, MAX_RATIONAL_DIGITS))
    return q


# -- groups ---------------------------------------------------------------


def group_from_tag(tag):
    if not isinstance(tag, str):
        raise ChainFileError("group tag must be a string")
    try:
        return _group_from_tag(tag)
    except GroupError as exc:
        raise ChainFileError(str(exc)) from None


# -- chain documents --------------------------------------------------------


def chain_to_document(chain: PolyChain) -> dict:
    doc = {
        "ambient_dim": chain.ambient_dim,
        "dim": chain.dim,
        "group": chain.group.tag,
        "simplices": [],
    }
    if chain.complex is not None:
        doc["complex"] = {"type": "kuhn", "n": chain.complex.resolution}
    integral = chain.group.tag != "real" and chain.group.tag != "circle"
    for simplex, coeff in chain.items_sorted():
        doc["simplices"].append({
            "vertices": [[str(x) for x in v] for v in simplex.vertices],
            "coeff": int(coeff) if integral else str(coeff),
        })
    return doc


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise ChainFileError("%s: missing field %r" % (where, key))
    value = doc[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        names = "/".join(k.__name__ for k in kind) if isinstance(kind, tuple) \
            else kind.__name__
        raise ChainFileError("%s: field %r must be %s" % (where, key, names))
    return value


def document_to_chain(doc) -> PolyChain:
    if not isinstance(doc, dict):
        raise ChainFileError("chain document must be a JSON object")
    ambient = _require(doc, "ambient_dim", int, "chain")
    dim = _require(doc, "dim", int, "chain")
    group = group_from_tag(_require(doc, "group", str, "chain"))
    complex = None
    if "complex" in doc and doc["complex"] is not None:
        cx = _require(doc, "complex", dict, "chain")
        if cx.get("type") != "kuhn":
            raise ChainFileError("complex: only type 'kuhn' is supported")
        n = _require(cx, "n", int, "complex")
        check_grid(ambient, n, "complex")
        complex = grid_complex(ambient, n)
    raw = _require(doc, "simplices", list, "chain")
    if complex is None and len(raw) > MAX_FREE_TERMS:
        raise InputLimitError("chain: %d simplices in a free chain exceed MAX_FREE_TERMS = %d"
                              % (len(raw), MAX_FREE_TERMS))
    # Each distinct string is parsed once, at its first occurrence, so a
    # bad one is reported there.  Only str values are kept: True == 1 and
    # both hash alike, so a cached 1 would let a JSON true through.
    known: dict[str, Fraction] = {}

    def rational(x, where, *args):
        q = known.get(x) if type(x) is str else None
        if q is None:
            q = parse_rational(x, where % args)
            if type(x) is str:
                known[x] = q
        return q

    # A chain on a complex reads each coordinate string as its lattice
    # integer q*n once (None when q*n is not an integer), so its terms are
    # looked up by integer cells with no Simplex or Fraction vertex made; a
    # free chain reads it as its Fraction.
    grid = complex is not None and 0 <= dim <= ambient
    n = complex.resolution if grid else 0
    coords: dict = {}  # coordinate string -> its lattice integer or Fraction

    def coordinate(x, where, j):
        q = rational(x, "%s vertex %d", where, j)
        if grid:
            q = q.numerator * (n // q.denominator) if n % q.denominator == 0 else None
        if type(x) is str:
            coords[x] = q
        return q

    items = []
    for i, entry in enumerate(raw):
        where = "simplices[%d]" % i
        if not isinstance(entry, dict):
            raise ChainFileError("%s: must be an object" % where)
        verts = _require(entry, "vertices", list, where)
        if len(verts) != dim + 1:
            raise ChainFileError("%s: a %d-simplex needs %d vertices, got %d"
                                 % (where, dim, dim + 1, len(verts)))
        vertices = []
        for j, v in enumerate(verts):
            if not isinstance(v, list) or len(v) != ambient:
                raise ChainFileError("%s: vertex %d must list %d coordinates"
                                     % (where, j, ambient))
            try:
                vertices.append(tuple([coords[x] for x in v]))
            except (KeyError, TypeError):  # a string not seen yet, or no string
                vertices.append(tuple([coordinate(x, where, j) for x in v]))
        coeff = rational(_require(entry, "coeff", (int, str), where), "%s coeff", where)
        items.append((tuple(vertices), coeff))
    if not grid:
        return PolyChain.build(group, ambient, dim, items, complex=complex)

    cells = complex.cell_ids(dim)
    pairs = []
    for i, (points, coeff) in enumerate(items):
        if not any(None in p for p in points):
            cell, sign = canonical(points)
            if sign == 0:
                continue
            g = group.normalize(coeff)
            cell_id = cells.get(cell)
            if cell_id is not None:
                pairs.append((cell_id, g if sign > 0 else -g))
                continue
        # a term off the lattice or off the complex: `PolyChain.build` raises
        # the error naming its simplex (or drops a degenerate term)
        vertices = tuple(tuple(rational(x, "simplices[%d] vertex %d", i, j) for x in v)
                         for j, v in enumerate(raw[i]["vertices"]))
        term = PolyChain.build(group, ambient, dim, [(vertices, coeff)], complex=complex)
        pairs += [(complex.index_of(dim, s), c) for s, c in term.terms.items()]
    return complex.chain_from_ids(group, dim, pairs)


def _chain_text(chain: PolyChain, pad: str, blocks=None) -> str:
    """chain_to_document(chain) laid out as json.dumps(indent=2,
    sort_keys=True) lays it out when the object opens at indent `pad`.

    Every string in the document is a group tag or a str() of a Fraction,
    which JSON quotes without escapes; a coordinate's text is made from the
    simplex's integer points over its denominator.  `blocks` maps a simplex
    to its rendered vertex list at this `pad`; a caller writing several
    chains at one pad passes one dict, so a simplex they share is rendered
    once."""
    if blocks is None:
        blocks = {}
    p1, p2, p3, p4, p5 = (pad + "  " * i for i in range(1, 6))
    lines = ["{", '%s"ambient_dim": %d,' % (p1, chain.ambient_dim)]
    if chain.complex is not None:
        lines.append('%s"complex": {\n%s"n": %d,\n%s"type": "kuhn"\n%s},'
                     % (p1, p2, chain.complex.resolution, p2, p1))
    lines.append('%s"dim": %d,' % (p1, chain.dim))
    lines.append('%s"group": "%s",' % (p1, chain.group.tag))
    integral = chain.group.tag != "real" and chain.group.tag != "circle"
    coord_sep = '",\n' + p5 + '"'
    vertex_open = "%s[\n%s\"" % (p4, p5)
    vertex_close = '"\n%s]' % p4
    texts: dict[tuple, str] = {}

    def coord_text(c, den):
        # a grid's few coordinates recur in every cell: each value's text is
        # made once, from the simplex's integers, with no Fraction vertex
        text = texts.get((c, den))
        if text is None:
            text = texts[c, den] = str(Fraction(c, den))
        return text

    simplices = []
    for simplex, coeff in chain.items_sorted():
        coeff_text = str(int(coeff)) if integral else '"%s"' % coeff
        vertices = blocks.get(simplex)
        if vertices is None:
            den = simplex.den
            vertices = blocks[simplex] = ",\n".join(
                vertex_open + coord_sep.join([coord_text(c, den) for c in p]) + vertex_close
                for p in simplex.num)
        simplices.append('%s{\n%s"coeff": %s,\n%s"vertices": [\n%s\n%s]\n%s}'
                         % (p2, p3, coeff_text, p3, vertices, p3, p2))
    if simplices:
        lines.append('%s"simplices": [\n%s\n%s]' % (p1, ",\n".join(simplices), p1))
    else:
        lines.append('%s"simplices": []' % p1)
    lines.append(pad + "}")
    return "\n".join(lines)


def emit_chain(chain: PolyChain) -> str:
    return _chain_text(chain, "") + "\n"


def parse_chain(text: str) -> PolyChain:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChainFileError("line %d column %d: %s"
                             % (exc.lineno, exc.colno, exc.msg)) from None
    except ValueError:
        # json refuses integer literals longer than Python's int conversion limit
        raise InputLimitError("chain: integer literal exceeds MAX_RATIONAL_DIGITS = %d"
                              % MAX_RATIONAL_DIGITS) from None
    return document_to_chain(doc)


def save_chain(chain: PolyChain, path: str):
    with open(path, "w") as fp:
        fp.write(emit_chain(chain))


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fp:
        try:
            return fp.read()
        except UnicodeDecodeError as exc:
            raise ChainFileError("%s: not UTF-8 text (byte %d)" % (path, exc.start)) from None


def load_chain(path: str) -> PolyChain:
    return parse_chain(_read_text(path))


def emit_slices(slices) -> str:
    """Coarea level slices (t_low, t_high, chain) as a slice document.  A
    face on several level boundaries has its vertices rendered once."""
    blocks: dict = {}
    entries = ['    {\n      "chain": %s,\n      "t_high": "%s",\n      "t_low": "%s"\n    }'
               % (_chain_text(sl.chain, "      ", blocks), sl.t_high, sl.t_low)
               for sl in slices]
    if not entries:
        return '{\n  "slices": []\n}\n'
    return '{\n  "slices": [\n%s\n  ]\n}\n' % ",\n".join(entries)


def save_slices(slices, path: str):
    """Write coarea level slices (t_low, t_high, chain) as a slice file."""
    with open(path, "w") as fp:
        fp.write(emit_slices(slices))


# -- grid-function files -----------------------------------------------------


def emit_grid_function(u: GridFunction) -> str:
    lines = ["%d %d" % (u.ambient_dim, u.resolution)]
    n = u.resolution
    row = n if u.ambient_dim > 1 else len(u.values)
    for start in range(0, len(u.values), row):
        lines.append(" ".join(map(str, u.values[start:start + row])))
    return "\n".join(lines) + "\n"


def parse_grid_function(text: str) -> GridFunction:
    tokens = text.split()
    if len(tokens) < 2:
        raise ChainFileError("grid function file needs a 'd n' header")
    try:
        d, n = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ChainFileError("grid function header must be two integers, got %r %r"
                             % (tokens[0], tokens[1])) from None
    if d < 1 or n < 1:
        raise ChainFileError("grid function header out of range: d=%d n=%d" % (d, n))
    check_grid(d, n, "grid function")  # before n ** d, which a large d makes unbounded
    # each distinct token is parsed once, at its first index, so a bad one
    # is reported there
    known: dict[str, Fraction] = {}
    values = []
    for i, t in enumerate(tokens[2:]):
        q = known.get(t)
        if q is None:
            q = known[t] = parse_rational(t, "grid value %d" % i)
        values.append(q)
    if len(values) != n ** d:
        raise ChainFileError("expected %d grid values, got %d" % (n ** d, len(values)))
    return GridFunction.build(d, n, values)


def save_grid_function(u: GridFunction, path: str):
    with open(path, "w") as fp:
        fp.write(emit_grid_function(u))


def load_grid_function(path: str) -> GridFunction:
    return parse_grid_function(_read_text(path))
