"""End-to-end command-line runs, in process, against temp files."""

import argparse
import json
import os
import re
import sys
from fractions import Fraction

import pytest

from polychain import chainfile, cli, coarea, flatnorm
from polychain.chainfile import (chain_to_document, load_chain, save_chain,
                                 save_grid_function)
from polychain.chains import PolyChain
from polychain.cli import main
from polychain.gen import (random_chain, random_circle_top, random_grid_function,
                           random_integral_boundary_chain)
from polychain.grid import GridComplex, GridError, grid_complex
from polychain.groups import REAL

F = Fraction

HALF_SEGMENT = """{
  "ambient_dim": 2,
  "dim": 1,
  "group": "real",
  "simplices": [
    {"vertices": [["0", "0"], ["1", "0"]], "coeff": "1/2"}
  ]
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mass_prints_exact_and_decimal(tmp_path, capsys):
    path = tmp_path / "seg.json"
    path.write_text(HALF_SEGMENT)
    code, out, err = run(capsys, "mass", str(path))
    assert code == 0
    assert "mass_exact = 1/2" in out
    assert "mass = 0.5" in out
    assert out.rstrip().endswith("VERDICT = PASS")
    assert err == ""


def test_boundary_writes_a_loadable_chain(tmp_path, capsys):
    src = tmp_path / "square.json"
    save_chain(grid_complex(2, 1).full_chain(REAL), str(src))
    dst = tmp_path / "loop.json"
    code, out, _ = run(capsys, "boundary", str(src), "--out", str(dst))
    assert code == 0
    assert "boundary_of_boundary_zero = PASS" in out
    loop = load_chain(str(dst))
    assert loop.mass_exact().as_rational() == 4


def test_flatnorm_exact_route_and_witness_files(tmp_path, capsys):
    src = tmp_path / "loop.json"
    save_chain(grid_complex(2, 1).full_chain(REAL).boundary(), str(src))
    prefix = str(tmp_path / "w")
    code, out, _ = run(capsys, "flatnorm", str(src), "--exact",
                       "--out", prefix)
    assert code == 0
    assert "value_exact = 1" in out
    assert "routes_agree = PASS" in out
    residual = load_chain(prefix + ".residual.json")
    filling = load_chain(prefix + ".filling.json")
    assert residual.is_zero()
    assert filling.mass_exact().as_rational() == 1


def test_flatnorm_exact_refuses_a_program_past_the_row_limit(tmp_path, capsys, monkeypatch):
    # d=2 n=9 k=1: 261 edges, past MAX_EXACT_LP_ROWS = 256
    src = tmp_path / "chain.json"
    run(capsys, "gen", "chain", "--grid", "2,9", "--dim", "1",
        "--seed", "1", "--out", str(src))
    assembled = []
    flat_program = flatnorm._flat_program
    monkeypatch.setattr(flatnorm, "_flat_program",
                        lambda chain: assembled.append(chain) or flat_program(chain))
    code, out, err = run(capsys, "flatnorm", str(src), "--exact")
    assert code == 2
    assert out == ""
    assert err.startswith("error [chainfile]:") and "MAX_EXACT_LP_ROWS" in err
    assert "261" in err
    assert assembled == []
    # the float route's own limit admits this program
    code, out, _ = run(capsys, "flatnorm", str(src))
    assert code == 0 and "witness_replay_exact = PASS" in out


def test_flatnorm_refuses_a_float_program_past_the_entry_limit(tmp_path, capsys, monkeypatch):
    # d=2 n=60 k=1: 10920 edges x (2*10920 + 2*7200 triangles) columns,
    # 395740800 entries, past MAX_FLOAT_LP_ENTRIES = 2**27
    src = tmp_path / "chain.json"
    run(capsys, "gen", "chain", "--grid", "2,60", "--dim", "1",
        "--seed", "1", "--out", str(src))
    assembled = []
    flat_program = flatnorm._flat_program
    monkeypatch.setattr(flatnorm, "_flat_program",
                        lambda chain: assembled.append(chain) or flat_program(chain))
    code, out, err = run(capsys, "flatnorm", str(src))
    assert code == 2
    assert out == ""
    assert err.startswith("error [chainfile]:") and "MAX_FLOAT_LP_ENTRIES" in err
    assert "395740800" in err
    assert assembled == []


def test_a_free_chain_file_past_the_term_limit_is_refused(tmp_path, capsys):
    # distinct points in R^1: a 0-chain whose mass is cheap at any size
    def points(count, first="0"):
        return [{"vertices": [[first if i == 0 else str(i)]], "coeff": "1"}
                for i in range(count)]
    limit = chainfile.MAX_FREE_TERMS
    src = tmp_path / "chain.json"
    doc = {"ambient_dim": 1, "dim": 0, "group": "real"}
    src.write_text(json.dumps(dict(doc, simplices=points(limit))))
    code, out, _ = run(capsys, "mass", str(src))
    assert code == 0 and "terms = %d" % limit in out
    # refused before any simplex is read: the bad first coordinate is not reached
    src.write_text(json.dumps(dict(doc, simplices=points(limit + 1, first="x"))))
    code, out, err = run(capsys, "mass", str(src))
    assert code == 2
    assert out == ""
    assert err.startswith("error [chainfile]:") and "MAX_FREE_TERMS = %d" % limit in err
    assert "%d simplices" % (limit + 1) in err
    # a grid chain is bounded by its grid, not by this limit
    doc = dict(doc, complex={"type": "kuhn", "n": 1},
               simplices=[{"vertices": [["0"]], "coeff": "1"}] * (limit + 1))
    src.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "mass", str(src))
    assert code == 0 and "terms = 1" in out


def test_project_then_lift_round_trip(tmp_path, capsys):
    top = tmp_path / "top.json"
    code, out, _ = run(capsys, "gen", "top", "--grid", "2,2",
                       "--seed", "5", "--out", str(top))
    assert code == 0
    lifted = tmp_path / "lifted.json"
    code, out, _ = run(capsys, "lift", str(top), "--k", "2",
                       "--out", str(lifted))
    assert code == 0
    assert "mass_ratio_le_3 = PASS" in out
    assert "boundary_ratio_le_5 = PASS" in out
    assert "profile_integral_le_5_2 = PASS" in out
    assert "projection_recovers_input = PASS" in out
    assert load_chain(str(lifted)).group is REAL


def test_lift_with_fixed_threshold(tmp_path, capsys):
    top = tmp_path / "top.json"
    run(capsys, "gen", "top", "--grid", "2,2", "--seed", "3",
        "--out", str(top))
    code, out, _ = run(capsys, "lift", str(top), "--theta", "2/5")
    assert code == 0
    assert "theta = 2/5" in out
    assert "boundary_ratio_le_5" not in out  # only the scan guarantees it
    # a threshold equal to some coefficient must be refused, not rounded
    code, _, err = run(capsys, "lift", str(top), "--theta", "1/2")
    assert code == 2
    assert "collides" in err


def test_lift_of_a_curve_uses_the_loop_route(tmp_path, capsys):
    src = tmp_path / "curve.json"
    run(capsys, "gen", "chain", "--grid", "2,2", "--group", "circle",
        "--dim", "1", "--seed", "2", "--out", str(src))
    code, out, _ = run(capsys, "lift", str(src), "--k", "1",
                       "--epsilon", "1/10")
    assert code == 0
    assert "route = loop" in out
    assert "mass_within_ratio = PASS" in out
    assert "projection_recovers_input = PASS" in out


def test_lift_dimension_assertion_fails_cleanly(tmp_path, capsys):
    src = tmp_path / "curve.json"
    run(capsys, "gen", "chain", "--grid", "2,2", "--group", "circle",
        "--dim", "1", "--seed", "2", "--out", str(src))
    code, _, err = run(capsys, "lift", str(src), "--k", "2")
    assert code == 2
    assert err.startswith("error [lifting]:")


def test_lift_rejects_real_coefficients(tmp_path, capsys):
    path = tmp_path / "seg.json"
    path.write_text(HALF_SEGMENT)
    code, _, err = run(capsys, "lift", str(path))
    assert code == 2
    assert "circle" in err


def test_validate_reports_parse_location(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"ambient_dim": 2,\n  "dim": oops}')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert err.startswith("error [cli]:")
    assert "line 2" in err


def test_validate_accepts_round_trippable_files(tmp_path, capsys):
    path = tmp_path / "seg.json"
    path.write_text(HALF_SEGMENT)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "round_trip_exact = PASS" in out


def test_missing_file_is_an_io_error(tmp_path, capsys):
    code, _, err = run(capsys, "mass", str(tmp_path / "absent.json"))
    assert code == 1
    assert err.startswith("error [cli]:")


@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_an_unwritable_report_path_is_an_io_error(where, tmp_path, capsys):
    path = tmp_path / "seg.json"
    path.write_text(HALF_SEGMENT)
    report = tmp_path if where == "a directory" else tmp_path / "absent" / "r.txt"
    code, out, err = run(capsys, "mass", str(path), "--report", str(report))
    assert (code, out) == (1, "")
    assert err.startswith("error [cli]:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, name", [("mass", "c.json"),
                                           ("decompose-levels", "u.grid")])
def test_input_that_is_not_utf8_is_a_parse_error(command, name, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(b"2 1\n\xff\n")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == "error [cli]: %s: not UTF-8 text (byte 4)\n" % path


def test_oversized_rational_is_refused_with_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(HALF_SEGMENT.replace('"1/2"', '"1e200000"'))
    code, out, err = run(capsys, "mass", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error [chainfile]:") and "MAX_RATIONAL_DIGITS" in err
    code, _, err = run(capsys, "cycle-extend", str(path), "--epsilon", "1e-200000")
    assert code == 2 and "MAX_RATIONAL_DIGITS" in err


def test_oversized_grid_is_refused_with_exit_2(tmp_path, capsys):
    # just past the limit, so that a missing check costs seconds, not the memory
    path = tmp_path / "big-grid.json"
    path.write_text('{"ambient_dim": 3, "dim": 0, "group": "real", '
                    '"complex": {"type": "kuhn", "n": 15}, "simplices": []}')
    code, out, err = run(capsys, "mass", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error [chainfile]:") and "MAX_GRID_SIMPLICES" in err


def test_gen_refuses_an_oversized_grid_before_building_it(tmp_path, capsys, monkeypatch):
    built = []
    init = GridComplex.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(GridComplex, "__init__", counted)
    out_file = tmp_path / "c.json"
    code, out, err = run(capsys, "gen", "chain", "--grid", "3,15", "--dim", "1",
                         "--seed", "1", "--out", str(out_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error [chainfile]:") and "MAX_GRID_SIMPLICES" in err
    assert not out_file.exists()
    assert built == []


def test_arithmetic_and_memory_errors_exit_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "seg.json"
    path.write_text(HALF_SEGMENT)
    for exc, shown in ((ArithmeticError("sign undecided"), "sign undecided"),
                       (MemoryError(), "MemoryError")):
        def fail(*args, exc=exc):
            raise exc
        monkeypatch.setattr(PolyChain, "mass_exact", fail)
        code, out, err = run(capsys, "mass", str(path))
        assert code == 2
        assert out == ""
        assert err == "error [core]: %s\n" % shown


def test_chain_summary_computes_each_mass_once(tmp_path, capsys, monkeypatch):
    src = tmp_path / "square.json"
    save_chain(grid_complex(2, 1).full_chain(REAL), str(src))
    calls = []
    measure = PolyChain._measure

    def counted(self):
        calls.append(self)
        return measure(self)
    monkeypatch.setattr(PolyChain, "_measure", counted)
    code, out, _ = run(capsys, "boundary", str(src))
    assert code == 0
    assert "input_mass = 1.0" in out and "boundary_mass = 4.0" in out
    assert len(calls) == 2


def test_cli_does_not_recompute_bounds_the_library_checked(tmp_path, capsys, monkeypatch):
    # lift_top_threshold, lift_top_optimal, loop_cancel and br_correct check
    # every bound these commands report, measuring the input and the output
    # on the way, and each chain keeps its mass and boundary, so cli.py
    # computes only what no library routine did: `lift` summarises its input
    # before lifting (the 3x check then reuses that mass), and the --theta
    # route reports the lift's boundary mass.  Counted are the computations,
    # by the frame that called mass_exact or boundary.
    calls = []
    for name, public in (("_measure", "mass_exact"), ("_build_boundary", "boundary")):
        def counted(self, _original=getattr(PolyChain, name), _name=public):
            caller = sys._getframe(2).f_code
            if os.path.basename(caller.co_filename) == "cli.py":
                calls.append((_name, caller.co_name))
            return _original(self)
        monkeypatch.setattr(PolyChain, name, counted)
    top, codim, loop = (str(tmp_path / name) for name in ("top.json", "codim.json", "loop.json"))
    save_chain(random_circle_top(5, 2, 5), top)
    save_chain(random_integral_boundary_chain(5, 3, 2, 2), codim)
    save_chain(random_integral_boundary_chain(5, 2, 3, 1), loop)
    lift_input = [("mass_exact", "_chain_summary")]
    theta_route = lift_input + [("boundary", "_cmd_lift"), ("mass_exact", "_cmd_lift")]
    for argv, expected in ((["lift", top], lift_input),
                           (["lift", top, "--theta", "37/91"], theta_route),
                           (["cancel-loops", loop], []),
                           (["br-correct", codim, "--route", "fill"], [])):
        calls.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert len(re.findall(r"^\w+_terms = \d+$", out, re.M)) == 2
        assert sorted(calls) == sorted(expected), argv


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "gen", "chain", "--grid", "2,2")[0] == 2  # missing --out
    assert run(capsys, "--help")[0] == 0


def test_gen_refuses_a_chain_dimension_outside_the_grid(tmp_path, capsys):
    for dim in ("5", "-1"):
        code, out, err = run(capsys, "gen", "chain", "--grid", "2,3", "--dim", dim,
                             "--out", str(tmp_path / "a.json"))
        assert code == 2
        assert out == ""
        assert err == "error [gen]: chains need 0 <= k <= d\n"
    assert not (tmp_path / "a.json").exists()


def test_gen_names_the_limits_on_grid_and_terms(tmp_path, capsys):
    out_file = tmp_path / "a.out"
    for argv, shown in ((["function", "--grid", "2,0"], "error [grid]: resolution must be >= 1\n"),
                        (["chain", "--grid", "2,0"], "error [grid]: resolution must be >= 1\n"),
                        (["chain", "--grid", "2,3", "--terms", "-1"],
                         "error [gen]: chains need terms >= 0\n"),
                        (["loop-defect", "--grid", "2,3", "--terms", "-1"],
                         "error [gen]: chains need terms >= 0\n")):
        code, out, err = run(capsys, "gen", *argv, "--out", str(out_file))
        assert (code, out, err) == (2, "", shown), argv
    assert not out_file.exists()


def test_a_non_positive_epsilon_is_refused_before_any_stage(tmp_path, capsys, monkeypatch):
    from polychain import approx
    src = tmp_path / "curve.json"
    save_chain(random_chain(3, 2, 2, 1), str(src))
    stages = []
    monkeypatch.setattr(approx, "singular_translate",
                        lambda *args: stages.append(args))
    for command in ("disjoint-rep", "cycle-extend"):
        for flag in (["--epsilon", "0"], ["--epsilon=-1/2"]):
            code, out, err = run(capsys, command, str(src), *flag)
            assert code == 2 and out == "", (command, flag)
            assert err.startswith("error [approx]: epsilon must be positive"), err
    assert stages == []


def test_gen_is_deterministic_per_seed(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    run(capsys, "gen", "cycle", "--grid", "2,3", "--dim", "1",
        "--seed", "11", "--out", str(a))
    run(capsys, "gen", "cycle", "--grid", "2,3", "--dim", "1",
        "--seed", "11", "--out", str(b))
    run(capsys, "gen", "cycle", "--grid", "2,3", "--dim", "1",
        "--seed", "12", "--out", str(c))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_reports_are_deterministic_per_seed(tmp_path, capsys):
    src = tmp_path / "chain.json"
    run(capsys, "gen", "chain", "--grid", "2,2", "--dim", "1",
        "--seed", "7", "--out", str(src))
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    code1, out1, _ = run(capsys, "cycle-extend", str(src),
                         "--report", str(r1))
    code2, out2, _ = run(capsys, "cycle-extend", str(src),
                         "--report", str(r2))
    assert code1 == code2 == 0
    assert out1 == out2
    assert r1.read_bytes() == r2.read_bytes()
    assert "VERDICT = PASS" in out1


def test_cancel_loops_command(tmp_path, capsys):
    src = tmp_path / "defect.json"
    run(capsys, "gen", "loop-defect", "--grid", "2,2", "--seed", "4",
        "--out", str(src))
    code, out, _ = run(capsys, "cancel-loops", str(src))
    assert code == 0
    assert "all_integral = PASS" in out
    assert "boundary_unchanged = PASS" in out
    assert "mass_nonincreasing = PASS" in out


def test_br_correct_fill_route_command(tmp_path, capsys):
    src = tmp_path / "defect.json"
    run(capsys, "gen", "codim-defect", "--grid", "3,1", "--seed", "6",
        "--out", str(src))
    code, out, _ = run(capsys, "br-correct", str(src), "--route", "fill")
    assert code == 0
    assert "d_used = 6" in out
    assert "projection_zero = PASS" in out
    assert "mass_ratio_le_d = PASS" in out


def test_disjoint_rep_command(tmp_path, capsys):
    src = tmp_path / "chain.json"
    run(capsys, "gen", "chain", "--grid", "2,2", "--dim", "1",
        "--terms", "4", "--seed", "8", "--out", str(src))
    out_file = tmp_path / "rep.json"
    code, out, _ = run(capsys, "disjoint-rep", str(src),
                       "--out", str(out_file))
    assert code == 0
    assert "mass_within_bound = PASS" in out
    assert "boundary_preserved = PASS" in out
    rep = load_chain(str(out_file))
    src_chain = load_chain(str(src))
    assert rep.boundary() == src_chain.boundary()


def test_decompose_levels_command(tmp_path, capsys):
    u_path = tmp_path / "u.grid"
    run(capsys, "gen", "function", "--grid", "2,3", "--seed", "9",
        "--out", str(u_path))
    slices_path = tmp_path / "slices.json"
    code, out, _ = run(capsys, "decompose-levels", str(u_path),
                       "--out", str(slices_path))
    assert code == 0
    assert "gap_zero = PASS" in out
    assert "chain_identity = PASS" in out
    doc = json.loads(slices_path.read_text())
    assert isinstance(doc["slices"], list) and doc["slices"]
    first = doc["slices"][0]
    assert set(first) == {"t_low", "t_high", "chain"}


def test_decompose_levels_writes_the_slices_it_verified(tmp_path, capsys, monkeypatch):
    u = random_grid_function(5, 2, 4)
    u_path = tmp_path / "u.grid"
    save_grid_function(u, str(u_path))
    calls = []
    level_slices = coarea.level_slices

    def counted(v):
        calls.append(v)
        return level_slices(v)
    monkeypatch.setattr(coarea, "level_slices", counted)
    out_path = tmp_path / "slices.json"
    code, out, _ = run(capsys, "decompose-levels", str(u_path), "--out", str(out_path))
    assert code == 0 and "chain_identity = PASS" in out
    assert len(calls) == 1
    slices = level_slices(u)
    assert len(slices) > 1
    doc = {"slices": [{"t_low": str(sl.t_low), "t_high": str(sl.t_high),
                       "chain": chain_to_document(sl.chain)} for sl in slices]}
    assert out_path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def test_lift_coarea_outputs_match_the_indented_json_encoder(tmp_path, capsys):
    # the four commands of the lift-coarea benchmark job, seeds 1-3; each
    # --out file is the json.dumps(indent=2, sort_keys=True) rendering of
    # the chain documents it reloads as
    def reference(doc):
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    for seed in (1, 2, 3):
        paths = {name: str(tmp_path / ("%d-%s" % (seed, name)))
                 for name in ("top.json", "levels.grid", "codim.json", "loop.json")}
        save_chain(random_circle_top(seed, 2, 5), paths["top.json"])
        save_grid_function(random_grid_function(seed, 2, 6), paths["levels.grid"])
        save_chain(random_integral_boundary_chain(seed, 3, 2, 2), paths["codim.json"])
        save_chain(random_integral_boundary_chain(seed, 2, 3, 1), paths["loop.json"])
        for argv in (["lift", paths["top.json"]],
                     ["decompose-levels", paths["levels.grid"]],
                     ["br-correct", paths["codim.json"], "--route", "fill"],
                     ["cancel-loops", paths["loop.json"]]):
            out = argv[1] + ".out.json"
            code, report, err = run(capsys, *argv, "--out", out)
            assert (code, err) == (0, ""), argv
            with open(out) as fp:
                text = fp.read()
            if argv[0] == "decompose-levels":
                doc = json.loads(text)
                assert len(doc["slices"]) > 1
                for entry in doc["slices"]:
                    entry["chain"] = chain_to_document(
                        chainfile.document_to_chain(entry["chain"]))
                assert text == reference(doc)
            else:
                assert text == reference(chain_to_document(load_chain(out)))


def test_oversized_grid_function_is_refused_before_its_values_are_read(tmp_path, capsys,
                                                                        monkeypatch):
    path = tmp_path / "big.grid"
    path.write_text("3 15\n" + " ".join(["1"] * 15 ** 3) + "\n")
    parsed, built = [], []
    parse = chainfile.parse_rational

    def counted_parse(*args):
        parsed.append(args)
        return parse(*args)

    def refuse_build(self, *args, **kwargs):
        built.append(args)
        raise GridError("grid built")
    monkeypatch.setattr(chainfile, "parse_rational", counted_parse)
    monkeypatch.setattr(GridComplex, "__init__", refuse_build)
    code, out, err = run(capsys, "decompose-levels", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error [chainfile]:") and "MAX_GRID_SIMPLICES" in err
    assert parsed == [] and built == []


@pytest.mark.parametrize("header", ["3000000 7", "4 2"])
def test_grid_function_dimension_is_refused_before_the_cell_count(header, tmp_path, capsys):
    # n ** d for the first header has about 2.5 million digits; the
    # dimension check comes before it, and before the value count
    path = tmp_path / "wide.grid"
    path.write_text(header + "\n1 2 3\n")
    code, out, err = run(capsys, "decompose-levels", str(path))
    assert (code, out, err) == (2, "", "error [grid]: ambient dimension must be 1, 2 or 3\n")


def test_gen_function_refuses_the_dimension_before_the_cell_count(tmp_path, capsys):
    code, out, err = run(capsys, "gen", "function", "--grid", "30000000,7",
                         "--out", str(tmp_path / "f.grid"))
    assert (code, out, err) == (2, "", "error [grid]: ambient dimension must be 1, 2 or 3\n")
    assert not (tmp_path / "f.grid").exists()


def test_main_runs_the_handler_the_module_holds_at_dispatch(tmp_path, capsys, monkeypatch):
    path = tmp_path / "seg.json"
    path.write_text(HALF_SEGMENT)
    assert run(capsys, "mass", str(path))[0] == 0   # the parser exists before the patch
    seen = []

    def stub(args, chain, rep):
        seen.append((args.command, len(chain)))
        rep.add("stub", "ran")
    monkeypatch.setattr(cli, "_cmd_mass", stub)
    code, out, err = run(capsys, "mass", str(path))
    assert (code, out, err) == (0, "stub = ran\nVERDICT = PASS\n", "")
    assert seen == [("mass", 1)]


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "seg.json"
    path.write_text(HALF_SEGMENT)
    cli.build_parser.cache_clear()
    progs = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(3):
        assert run(capsys, "mass", str(path))[0] == 0
    assert progs.count("polychain") == 1


# (command line before the input file, input chain or None for gen)
SINGLE_CHAIN_OUT = {
    "boundary": (["boundary"], lambda: random_chain(3, 2, 2, 1)),
    "project": (["project"], lambda: random_chain(3, 2, 2, 1)),
    "lift": (["lift"], lambda: random_circle_top(5, 2, 3)),
    "cancel-loops": (["cancel-loops"], lambda: random_integral_boundary_chain(4, 2, 2, 1)),
    "br-correct": (["br-correct", "--route", "fill"],
                   lambda: random_integral_boundary_chain(6, 3, 1, 2)),
    "cycle-extend": (["cycle-extend"], lambda: random_chain(3, 2, 2, 1)),
    "disjoint-rep": (["disjoint-rep"], lambda: random_chain(8, 2, 2, 1, terms=4)),
    "gen": (["gen", "cycle", "--grid", "2,3", "--seed", "3"], None),
}


@pytest.mark.parametrize("command", sorted(SINGLE_CHAIN_OUT))
def test_single_chain_out_is_written_once_by_main(command, tmp_path, capsys):
    argv, make_input = SINGLE_CHAIN_OUT[command]
    argv = list(argv)
    if make_input is not None:
        src = str(tmp_path / "in.json")
        save_chain(make_input(), src)
        argv.append(src)
    dst = str(tmp_path / "out.json")
    code, out, err = run(capsys, *argv, "--out", dst)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-2:] == ["out = " + dst, "VERDICT = PASS"]
    # the file holds the chain the report summarized last
    reported_terms = re.findall(r"^\w+_terms = (\d+)$", out, re.M)
    assert len(load_chain(dst)) == int(reported_terms[-1])
