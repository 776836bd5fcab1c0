"""Byte identity of the exact flat-norm route on a fixed seeded set.

`tests/test_cli_golden.py` leaves `flatnorm` out because its `value` is
HiGHS's float.  This test covers the exact route alone: for seeded chains
it runs `flatnorm --exact --out` in process and hashes the input chain
file, the oracle's residual and filling files, and the report's
`value_exact` line, and compares with `flatnorm_exact_golden.json`.
`python tests/test_flatnorm_exact_golden.py` rewrites the fixture from the
current code; do that only for a change meant to alter the exact route's
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

FIXTURE = Path(__file__).with_name("flatnorm_exact_golden.json")

# (ambient dimension, resolution, chain dimension)
SHAPES = ((2, 2, 1), (3, 1, 1), (3, 1, 2))
SEEDS = (1, 2, 3)


def _quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def _digest(d, n, k, seed) -> str:
    name = "c%d%d%d-%d" % (d, n, k, seed)
    assert _quiet(["gen", "chain", "--grid", "%d,%d" % (d, n), "--dim", str(k),
                   "--seed", str(seed), "--out", name + ".json"]) == 0
    _quiet(["flatnorm", name + ".json", "--exact", "--out", name,
            "--report", name + ".txt"])
    h = hashlib.sha256()
    for path in (name + ".json", name + ".residual.json", name + ".filling.json"):
        h.update(b"\0" + path.encode() + b"\0")
        h.update(Path(path).read_bytes() if os.path.exists(path) else b"<missing>")
    lines = Path(name + ".txt").read_text().splitlines()
    h.update("\n".join(x for x in lines if x.startswith("value_exact =")).encode())
    return h.hexdigest()


def digests() -> dict:
    """{"d,n,k seed": sha256} for the fixed set, run in the current directory."""
    return {"%d,%d,%d seed %d" % (d, n, k, seed): _digest(d, n, k, seed)
            for d, n, k in SHAPES for seed in SEEDS}


def test_exact_flatnorm_matches_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(FIXTURE.read_text())
    got = digests()
    assert list(got) == list(expected)
    changed = [key for key in got if got[key] != expected[key]]
    assert not changed, changed


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        recorded = digests()
    FIXTURE.write_text(json.dumps(recorded, indent=1) + "\n")
    print("wrote %d digests to %s" % (len(recorded), FIXTURE), file=sys.stderr)
