"""Byte identity of the command line on a fixed seeded set of commands.

Every subcommand except `flatnorm` (whose `value` is HiGHS's float) runs
in process, in order, in a temp directory with relative paths; each
command's exit code, stdout, stderr and every `--out`/`--report` file it
names are hashed together and compared with `cli_golden.json`.  A
refactor that must keep reports and files byte-identical keeps this test
passing unchanged.  `python tests/test_cli_golden.py` rewrites the
fixture from the current code; do that only for a change meant to alter
output, and say so.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from polychain.cli import main

FIXTURE = Path(__file__).with_name("cli_golden.json")


def _commands():
    """The fixed command list, gen first so later commands read its files."""
    cmds = []
    for seed in (1, 2, 3):
        s = str(seed)

        def gen(kind, grid, name, *extra):
            cmds.append(["gen", kind, "--grid", grid, "--seed", s,
                         "--out", name + s + ".json", *extra])

        gen("top", "2,3", "top")
        gen("top", "3,2", "cube")
        gen("codim-defect", "3,2", "codim")
        gen("loop-defect", "2,3", "loop")
        gen("chain", "2,2", "real", "--terms", "4")
        gen("chain", "2,3", "int", "--group", "integer")
        gen("chain", "2,3", "mod", "--group", "mod:5", "--dim", "2")
        gen("chain", "2,2", "circ", "--group", "circle", "--terms", "4")
        gen("cycle", "2,2", "ccyc", "--group", "circle")
        gen("function", "2,4", "fn")
        gen("function", "3,2", "fn3")

        def run(command, name, out=None, *extra):
            argv = [command, name + s + ".json", *extra]
            if out:
                argv += ["--out", "%s-%s%s.json" % (command, out, s)]
            argv += ["--report", "%s-%s%s.txt" % (command, out or name, s)]
            cmds.append(argv)

        for name in ("top", "cube", "codim", "loop", "real", "int", "mod", "circ", "ccyc"):
            run("mass", name)
            run("validate", name)
            run("boundary", name, name)
        for name in ("real", "int", "loop", "codim"):
            run("project", name, name)
        run("lift", "top", "top")
        run("lift", "top", "topt", "--theta", "37/91")
        run("lift", "cube", "cube", "--k", "3")
        run("lift", "cube", "cubet", "--theta", "1/2")
        run("lift", "circ", "circ")
        run("lift", "ccyc", "ccyc", "--k", "1")
        run("lift", "project-real", "pr")  # reads the projected real chain
        run("cancel-loops", "loop", "loop")
        run("br-correct", "codim", "codim", "--route", "fill")
        run("br-correct", "loop", "loop")
        run("cycle-extend", "real", "real")
        run("disjoint-rep", "real", "real", "--epsilon", "1/5")
        for name in ("fn", "fn3"):
            cmds.append(["decompose-levels", name + s + ".json",
                         "--out", "slices-%s%s.json" % (name, s),
                         "--report", "levels-%s%s.txt" % (name, s)])
    # refusals: a missing file, a real chain where circle is required,
    # a threshold outside the window
    cmds.append(["mass", "missing.json"])
    cmds.append(["lift", "real1.json"])
    cmds.append(["lift", "top1.json", "--theta", "4/5"])
    return cmds


def _digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    h = hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode())
    for flag in ("--out", "--report"):
        if flag in argv:
            path = argv[argv.index(flag) + 1]
            h.update(b"\0" + path.encode() + b"\0")
            h.update(Path(path).read_bytes() if os.path.exists(path) else b"<missing>")
    return h.hexdigest()


def digests() -> dict:
    """{command line: sha256} for the fixed set, run in the current directory."""
    return {" ".join(argv): _digest(argv) for argv in _commands()}


def test_cli_output_matches_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(FIXTURE.read_text())
    got = digests()
    assert list(got) == list(expected)
    changed = [cmd for cmd in got if got[cmd] != expected[cmd]]
    assert not changed, changed


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        recorded = digests()
    FIXTURE.write_text(json.dumps(recorded, indent=1) + "\n")
    print("wrote %d digests to %s" % (len(recorded), FIXTURE), file=sys.stderr)
