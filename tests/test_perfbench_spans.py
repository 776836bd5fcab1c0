"""The benchmark's traced run (`perfbench/run.py --trace 1`) still attaches:
every call `perfbench/spans.layer_targets` names exists, and the column
probes read the LP matrices the two flat-norm routes pass."""

import importlib.util
import os

from polychain import flatnorm
from polychain.gen import random_chain

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_every_layer_target_and_restores_it():
    spans = load_spans()
    targets = spans.layer_targets()
    before = [vars(owner)[attr] for _, owner, attr, _, _ in targets]
    chain = random_chain(1, 2, 2, 1)
    tracer = spans.Tracer()
    tracer.install()  # a KeyError here names a layer target that is gone
    try:
        flatnorm.flat_norm(chain)
        flatnorm.flat_norm_oracle(chain)
    finally:
        tracer.uninstall()
    assert [vars(owner)[attr] for _, owner, attr, _, _ in targets] == before
    for layer in ("flatnorm.flat_norm", "flatnorm.flat_norm_oracle",
                  "simplex_lp.solve_float", "simplex_lp.solve_exact"):
        assert tracer.totals[layer][0] == 1
    # columns r+, r-, q+, q- of the program on the (2, 2) grid's edges and triangles
    cols = 2 * (16 + 8)
    assert tracer.counters["simplex_lp.float_cols"] == cols
    assert tracer.counters["simplex_lp.exact_cols"] == cols
