"""Chain and grid-function files: round trips and parse diagnostics."""

import json
from fractions import Fraction
from math import factorial

import pytest

from polychain.chainfile import (MAX_GRID_SIMPLICES, MAX_RATIONAL_DIGITS, ChainFileError,
                                 InputLimitError, chain_to_document, emit_chain,
                                 emit_grid_function, emit_slices, load_chain, parse_chain,
                                 parse_grid_function, parse_rational, save_chain,
                                 save_grid_function, save_slices, load_grid_function)
from polychain.chains import PolyChain
from polychain.coarea import GridFunction, level_slices
from polychain.gen import (random_chain, random_circle_chain, random_circle_top,
                           random_grid_function, random_integral_boundary_chain)
from polychain.grid import grid_complex
from polychain.groups import CIRCLE, INTEGER, REAL, modp

F = Fraction


def test_round_trip_preserves_chain_exactly():
    for seed in range(4):
        ch = random_chain(seed, 2, 2, 1, terms=5)
        assert parse_chain(emit_chain(ch)) == ch


def test_round_trip_is_byte_stable():
    ch = random_chain(9, 3, 1, 2, terms=4)
    text = emit_chain(ch)
    assert emit_chain(parse_chain(text)) == text
    assert text.endswith("\n")


def test_round_trip_over_each_group():
    cx = grid_complex(2, 1)
    loop = cx.full_chain(INTEGER).boundary()
    assert parse_chain(emit_chain(loop)) == loop
    circ = random_circle_chain(0, 2, 2, 1)
    assert parse_chain(emit_chain(circ)) == circ
    mod5 = PolyChain.build(modp(5), 2, 1,
                           [(((F(0), F(0)), (F(1), F(0))), 3)], complex=cx)
    back = parse_chain(emit_chain(mod5))
    assert back == mod5
    assert back.group.tag == "mod:5"


def test_integral_groups_emit_integer_coefficients():
    cx = grid_complex(2, 1)
    text = emit_chain(cx.full_chain(INTEGER))
    assert '"coeff": 1' in text or '"coeff": -1' in text
    assert '"coeff": "1"' not in text


def test_complex_free_chains_round_trip():
    ch = PolyChain.build(REAL, 2, 1,
                         [(((F(0), F(0)), (F(1, 3), F(2))), F(-5, 7))])
    back = parse_chain(emit_chain(ch))
    assert back == ch
    assert back.complex is None


def test_malformed_json_reports_location():
    with pytest.raises(ChainFileError) as err:
        parse_chain('{"ambient_dim": 2,\n  "dim": }')
    assert "line 2" in str(err.value)
    assert "column" in str(err.value)


def test_structural_errors_name_the_offending_entry():
    good = emit_chain(random_chain(0, 2, 1, 1, terms=2))
    doc = good.replace('"dim": 1', '"dim": true')
    with pytest.raises(ChainFileError) as err:
        parse_chain(doc)
    assert "dim" in str(err.value)

    with pytest.raises(ChainFileError) as err:
        parse_chain('{"ambient_dim": 2, "dim": 1, "group": "real", '
                    '"simplices": [{"vertices": [["0", "0"]], "coeff": 1}]}')
    assert "simplices[0]" in str(err.value)

    with pytest.raises(ChainFileError) as err:
        parse_chain('{"ambient_dim": 2, "dim": 1, "group": "real", '
                    '"simplices": [{"vertices": [["0", "0"], ["1", "0"]], '
                    '"coeff": 0.5}]}')
    assert "coeff" in str(err.value)


def test_unknown_group_tag_is_a_file_error():
    with pytest.raises(ChainFileError):
        parse_chain('{"ambient_dim": 2, "dim": 1, "group": "octonion", '
                    '"simplices": []}')


def test_parse_rational_rejects_floats_and_bools():
    assert parse_rational("-3/4", "here") == F(-3, 4)
    assert parse_rational(7, "here") == 7
    for bad in (0.5, True, [1], "1/0", "abc"):
        with pytest.raises(ChainFileError):
            parse_rational(bad, "here")


def test_parse_rational_refuses_oversized_input():
    assert parse_rational("-2.5e+2", "here") == -250
    assert parse_rational("9" * MAX_RATIONAL_DIGITS, "here") == 10 ** MAX_RATIONAL_DIGITS - 1
    for big in ("1e200000", "1e-200000", "1e" + "9" * 5000, "1e1_000_000",
                "1e%d" % MAX_RATIONAL_DIGITS, "1/" + "3" * (MAX_RATIONAL_DIGITS + 1),
                10 ** MAX_RATIONAL_DIGITS):
        with pytest.raises(InputLimitError):
            parse_rational(big, "here")
    with pytest.raises(InputLimitError):
        parse_grid_function("1 1\n1e200000\n")
    doc = '{"ambient_dim": 1, "dim": 0, "group": "real", "simplices": ' \
          '[{"vertices": [["0"]], "coeff": %s}]}'
    for digits in (MAX_RATIONAL_DIGITS + 1, 5000):
        with pytest.raises(InputLimitError):
            parse_chain(doc % ("9" * digits))
    assert parse_chain(doc % "7").mass_exact().as_rational() == 7


def test_oversized_grid_is_refused_before_it_is_built(monkeypatch):
    from polychain import chainfile

    doc = '{"ambient_dim": %d, "dim": 0, "group": "real", "complex": ' \
          '{"type": "kuhn", "n": %d}, "simplices": []}'
    built = []

    def small_stand_in(d, n):
        built.append((d, n))
        return grid_complex(d, 1)

    monkeypatch.setattr(chainfile, "grid_complex", small_stand_in)
    for d in (1, 2, 3):
        largest = max(n for n in range(1, 30000) if n ** d * factorial(d) <= MAX_GRID_SIMPLICES)
        parse_chain(doc % (d, largest))
        assert built[-1] == (d, largest)
        for n in (largest + 1, 10 ** 6):
            with pytest.raises(InputLimitError, match="MAX_GRID_SIMPLICES"):
                parse_chain(doc % (d, n))
    assert len(built) == 3


def test_save_and_load_files(tmp_path):
    ch = random_chain(3, 2, 2, 1, terms=4)
    path = str(tmp_path / "chain.json")
    save_chain(ch, path)
    assert load_chain(path) == ch

    u = random_grid_function(1, 2, 3)
    upath = str(tmp_path / "u.grid")
    save_grid_function(u, upath)
    assert load_grid_function(upath) == u


def test_grid_function_text_format():
    u = GridFunction.build(2, 2, (F(1, 2), 0, -1, F(7, 4)))
    text = emit_grid_function(u)
    lines = text.splitlines()
    assert lines[0] == "2 2"
    assert lines[1].split() == ["1/2", "0"]
    assert lines[2].split() == ["-1", "7/4"]
    assert parse_grid_function(text) == u


def test_grid_function_parse_errors():
    with pytest.raises(ChainFileError):
        parse_grid_function("2\n")  # header too short
    with pytest.raises(ChainFileError):
        parse_grid_function("a b\n1 2 3 4\n")
    with pytest.raises(ChainFileError):
        parse_grid_function("2 2\n1 2 3\n")  # wrong count
    with pytest.raises(ChainFileError):
        parse_grid_function("0 2\n\n")
    with pytest.raises(ChainFileError):
        parse_grid_function("1 2\nx 1\n")
    # decimal tokens parse exactly, they are not binary floats
    u = parse_grid_function("1 2\n0.5 1\n")
    assert u.values == (F(1, 2), 1)


def reference_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def slices_document(slices) -> dict:
    return {"slices": [{"t_low": str(sl.t_low), "t_high": str(sl.t_high),
                        "chain": chain_to_document(sl.chain)} for sl in slices]}


def test_chain_writer_matches_the_indented_json_encoder():
    cx = grid_complex(2, 3)
    free = PolyChain.build(REAL, 3, 2, [(((F(0), F(0), F(0)), (F(-1, 3), F(2), F(0)),
                                          (F(5), F(0), F(7, 9))), F(-5, 7))])
    chains = [free, free.scale(-3), PolyChain.zero(REAL, 2, 1),
              PolyChain.zero(CIRCLE, 2, 2, cx), cx.full_chain(INTEGER).boundary(),
              -cx.full_chain(INTEGER), cx.full_chain(modp(5), 3).boundary(),
              PolyChain.build(modp(5), 2, 1, [(((F(0), F(0)), (F(1, 3), F(0))), -1)],
                              complex=cx)]
    for seed in range(6):
        chains += [random_chain(seed, 2, 3, 1), random_chain(seed, 3, 1, 2, terms=4),
                   random_circle_chain(seed, 2, 2, 1), random_circle_top(seed, 2, 5),
                   random_integral_boundary_chain(seed, 3, 2, 2),
                   random_integral_boundary_chain(seed, 2, 3, 1),
                   PolyChain.build(REAL, 2, 1, [(s.vertices, c) for s, c in
                                                random_chain(seed, 2, 2, 1).terms.items()])]
    groups = set()
    for ch in chains:
        groups.add((ch.group.tag, ch.complex is not None))
        assert emit_chain(ch) == reference_text(chain_to_document(ch)), ch
    assert {"real", "integer", "mod:5", "circle"} <= {tag for tag, _ in groups}
    assert {(False, "real"), (True, "real")} <= {(grid, tag) for tag, grid in groups}


def test_slice_writer_matches_the_indented_json_encoder(tmp_path):
    functions = [GridFunction.build(2, 3, [0] * 9), GridFunction.build(1, 2, (F(-1, 2), 3))]
    functions += [random_grid_function(seed, d, n) for seed in range(4)
                  for d, n in ((1, 5), (2, 4), (3, 2))]
    for u in functions:
        slices = level_slices(u)
        assert emit_slices(slices) == reference_text(slices_document(slices))
    assert emit_slices([]) == reference_text({"slices": []})
    path = str(tmp_path / "slices.json")
    save_slices(level_slices(functions[-1]), path)
    with open(path) as fp:
        assert fp.read() == emit_slices(level_slices(functions[-1]))


def test_repeated_strings_are_parsed_once_and_bad_ones_reported_first(monkeypatch):
    from polychain import chainfile

    ch = random_circle_top(3, 2, 3)
    doc = chain_to_document(ch)
    parsed = []

    def counted(value, where):
        parsed.append(value)
        return parse_rational(value, where)
    monkeypatch.setattr(chainfile, "parse_rational", counted)
    assert parse_chain(json.dumps(doc)) == ch
    coords = [x for entry in doc["simplices"] for v in entry["vertices"] for x in v]
    coeffs = [entry["coeff"] for entry in doc["simplices"]]
    assert sorted(parsed) == sorted(set(coords + coeffs))
    assert len(parsed) < len(coords)

    doc["simplices"][1]["vertices"][2][0] = "1/0"
    doc["simplices"][4]["vertices"][0][1] = "1/0"
    with pytest.raises(ChainFileError, match=r"simplices\[1\] vertex 2: not a rational"):
        parse_chain(json.dumps(doc))


def test_grid_values_are_parsed_once_per_token_and_bad_ones_reported_first(monkeypatch):
    from polychain import chainfile

    u = random_grid_function(4, 2, 6)
    text = emit_grid_function(u)
    parsed = []

    def counted(value, where):
        parsed.append(value)
        return parse_rational(value, where)
    monkeypatch.setattr(chainfile, "parse_rational", counted)
    loaded = parse_grid_function(text)
    assert loaded == u and all(type(v) is F for v in loaded.values)
    tokens = text.split()[2:]
    assert sorted(parsed) == sorted(set(tokens)) and len(parsed) < len(tokens)
    # the first bad token is named with its own index, repeated or not
    for bad, message in (("2 2 1 x 1 x", "grid value 1: not a rational: 'x'"),
                         ("2 2 1 1 1 1/0", "grid value 3: not a rational: '1/0'")):
        with pytest.raises(ChainFileError) as info:
            parse_grid_function(bad)
        assert str(info.value) == message


def test_a_true_coordinate_is_refused_after_a_one(tmp_path, capsys):
    from polychain.cli import main

    # True == 1 and both hash alike, so a parse cache keyed on ints would
    # hand the second simplex the first one's 1
    doc = {"ambient_dim": 1, "dim": 1, "group": "real",
           "simplices": [{"vertices": [[1], ["1/2"]], "coeff": 1},
                         {"vertices": [["1"], [True]], "coeff": "1"}]}
    with pytest.raises(ChainFileError, match=r"simplices\[1\] vertex 1"):
        parse_chain(json.dumps(doc))
    path = tmp_path / "true.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "simplices[1] vertex 1" in capsys.readouterr().err
    doc["simplices"][1]["vertices"][1] = ["2"]
    doc["simplices"][1]["coeff"] = True
    with pytest.raises(ChainFileError, match=r"simplices\[1\] coeff"):
        parse_chain(json.dumps(doc))


def read_and_build(group, d, n, dim, terms):
    """The grid chain file of (vertex strings, coeff string) terms, read
    by the file reader and built by `PolyChain.build` from Fractions: each
    gives (terms in order, None) or (None, (error type, text))."""
    doc = {"ambient_dim": d, "dim": dim, "group": group.tag,
           "complex": {"type": "kuhn", "n": n},
           "simplices": [{"vertices": [list(v) for v in verts], "coeff": coeff}
                         for verts, coeff in terms]}
    items = [(tuple(tuple(F(x) for x in v) for v in verts), F(coeff)) for verts, coeff in terms]
    results = []
    for make in (lambda: parse_chain(json.dumps(doc)),
                 lambda: PolyChain.build(group, d, dim, items, complex=grid_complex(d, n))):
        try:
            ch = make()
        except ValueError as exc:
            results.append((None, (type(exc), str(exc))))
        else:
            assert ch.complex is grid_complex(d, n)
            results.append((list(ch.terms.items()), None))
    return results


def test_grid_reader_matches_build_on_terms_and_errors():
    edge, upright = (("0", "0"), ("1/2", "0")), (("0", "0"), ("0", "1/2"))
    cases = {
        "off-lattice": (REAL, 2, 2, 1, [(edge, "1"), ((("0", "0"), ("1/3", "0")), "2")]),
        "not Kuhn": (REAL, 2, 2, 1, [(edge, "1"), ((("1/2", "0"), ("0", "1/2")), "2")]),
        "outside the box": (REAL, 2, 2, 1, [(edge, "1"), ((("1", "0"), ("3/2", "0")), "2")]),
        "below the box": (REAL, 1, 2, 1, [((("-1/2",), ("0",)), "1")]),
        "repeated vertex": (CIRCLE, 2, 2, 1, [((("1/3", "0"), ("1/3", "0")), "1/2"),
                                              ((("0", "0"), ("0", "0")), "1/2"), (edge, "1/3")]),
        "reversed": (REAL, 2, 2, 1, [((("1/2", "0"), ("0", "0")), "3/4"), (edge, "1/4")]),
        "reversed top": (CIRCLE, 2, 2, 2, [((("1/2", "1/2"), ("0", "0"), ("1/2", "0")), "1/3")]),
        # the edge cancels, the upright edge follows, and the edge comes back
        "cancel mod 3": (modp(3), 2, 2, 1, [(edge, "1"), ((("1/2", "0"), ("0", "0")), "1"),
                                             (upright, "1"), (edge, "2")]),
        "cancel circle": (CIRCLE, 2, 2, 1, [(edge, "1/3"), ((("1/2", "0"), ("0", "0")), "1/3"),
                                             (upright, "1/5"), (edge, "2/5")]),
        "bad coefficient first": (INTEGER, 2, 2, 1, [(edge, "1/2"), ((("0", "0"), ("1/3", "0")), "1")]),
        "degenerate off-lattice": (INTEGER, 2, 2, 1, [((("1/3", "0"), ("1/3", "0")), "1/2"),
                                                      (edge, "2")]),
    }
    seen = set()
    for name, (group, d, n, dim, terms) in cases.items():
        read, built = read_and_build(group, d, n, dim, terms)
        assert read == built, name
        seen.add("error" if read[1] else "chain")
        if name in ("off-lattice", "not Kuhn", "outside the box", "below the box"):
            assert read[1][1].startswith("simplex not on this complex: Simplex((("), name
        if name.startswith("cancel"):
            assert [s.vertices[1] for s, _ in read[0]] == [(0, F(1, 2)), (F(1, 2), 0)], name
    assert read_and_build(REAL, 2, 2, 1, [(edge, "1")])[0][1] is None
    assert seen == {"error", "chain"}
