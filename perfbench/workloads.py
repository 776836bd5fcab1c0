"""The benchmark's workloads: seeded inputs and the timed calls into polychain.

Each workload runs jobs in whole rounds.  A job is one fixed recipe applied
to the inputs of one job seed, derived from the run seed and the job's
index, so the same run seed gives the same inputs.  `run` is the only part
of a job that is timed; inputs are made before it and checked after it.
"""

from __future__ import annotations

import contextlib
import io
import os
from fractions import Fraction
from random import Random

# Called through their modules, so the traced run's wrappers are seen.
from polychain import approx, chainfile, cli, flatnorm, gen, grid, lifting
from polychain.chains import PolyChain
from polychain.groups import REAL

EPSILON = Fraction(1, 10)
SHRINK_RATIO = Fraction(1, 2)
# Above flatnorm.flat_norm's snap_denominator of 10**6.
FINE_PRIME = 1000003


def job_seed(run_seed: int, index: int) -> int:
    return (run_seed << 24) + index


class Workload:
    name = ""
    round_size = 1
    grids = ()  # (d, n) of every grid complex the jobs use

    def __init__(self, workdir: str):
        self.workdir = workdir

    def warm(self):
        """Build every grid the jobs use and fill its lazy tables."""
        for d, n in self.grids:
            cx = grid.grid_complex(d, n)
            for k in range(d + 1):
                for s in cx.simplices(k):
                    s.volume()
                if k:
                    cx.incidence(k)
                if k < d:
                    cx.coboundary(k)

    def make_round(self, run_seed: int, r: int) -> list:
        return [self.inputs(run_seed, i)
                for i in range(r * self.round_size, (r + 1) * self.round_size)]

    def expected_failures(self, inp) -> frozenset:
        return frozenset()


class LiftCoarea(Workload):
    """Four CLI commands on one seed, each writing its result with --out."""
    name = "lift-coarea"
    grids = ((2, 5), (2, 6), (3, 2), (2, 3))

    def inputs(self, run_seed, index):
        s = job_seed(run_seed, index)
        prefix = os.path.join(self.workdir, "job%d-" % (index % self.round_size))

        def path(name):
            return prefix + name

        chainfile.save_chain(gen.random_circle_top(s, 2, 5), path("top.json"))
        chainfile.save_grid_function(gen.random_grid_function(s, 2, 6), path("levels.grid"))
        chainfile.save_chain(gen.random_integral_boundary_chain(s, 3, 2, 2), path("codim.json"))
        chainfile.save_chain(gen.random_integral_boundary_chain(s, 2, 3, 1), path("loop.json"))
        commands = {
            "lift": ["lift", path("top.json"), "--out", path("top.out.json")],
            "levels": ["decompose-levels", path("levels.grid"), "--out", path("levels.out.json")],
            "fill": ["br-correct", path("codim.json"), "--route", "fill",
                     "--out", path("codim.out.json")],
            "loops": ["cancel-loops", path("loop.json"), "--out", path("loop.out.json")],
        }
        return {"index": index, "commands": commands}

    def run(self, inp):
        out = {}
        for key, argv in inp["commands"].items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            out[key] = (code, buf.getvalue())
        return out


# (d, n, k) of the small flat-norm programs, used in turn.
SMALL_SHAPES = ((2, 2, 1), (3, 1, 1), (3, 1, 2))
# Generator seeds whose chains, with every other coefficient divided by
# FINE_PRIME, make flat_norm's snapped witness heavier than its value.
FAULT_SEEDS = {(2, 2, 1): 14, (3, 1, 1): 13, (3, 1, 2): 17}


def fine_denominator_chain(d, n, k):
    """Fixed chain, independent of the run seed, that flat_norm gets wrong."""
    ch = gen.random_chain(FAULT_SEEDS[d, n, k], d, n, k, terms=6)
    items = [(s.vertices, c / FINE_PRIME if i % 2 == 0 else c)
             for i, (s, c) in enumerate(ch.items_sorted())]
    return PolyChain.build(REAL, d, k, items, complex=ch.complex)


class FlatLP(Workload):
    """flat_norm on a d=2 n=10 1-chain, then both routes on a small chain.

    Every fifth job's small chain is a fixed fine-denominator chain, so a
    round of 15 jobs holds each shape five times and three such jobs."""
    name = "flat-lp"
    round_size = 15
    grids = ((2, 10), (2, 2), (3, 1))

    def inputs(self, run_seed, index):
        s = job_seed(run_seed, index)
        shape = SMALL_SHAPES[index % len(SMALL_SHAPES)]
        fault = index % 5 == 4
        small = fine_denominator_chain(*shape) if fault else gen.random_chain(s, *shape, terms=5)
        return {"index": index, "big": gen.random_chain(s, 2, 10, 1), "big_grid": (2, 10),
                "small": small, "small_grid": shape[:2], "fault": fault}

    def run(self, inp):
        return (flatnorm.flat_norm(inp["big"]), flatnorm.flat_norm(inp["small"]),
                flatnorm.flat_norm_oracle(inp["small"]))

    def expected_failures(self, inp):
        return frozenset({"small.float.mass_within_value"} if inp["fault"] else ())


class Approx(Workload):
    """cycle_extension, lift_flat and measured_shrink_distance on one seed."""
    name = "approx"
    round_size = 3
    # measured_shrink_distance measures on the 2*q*n refinement of n = 2.
    grids = ((2, 2), (2, 8))

    def inputs(self, run_seed, index):
        rng = Random(job_seed(run_seed, index))
        return {"index": index,
                "chain": gen.random_chain(rng, 2, 2, 1, terms=4 + index % 3),
                "circle": gen.random_circle_chain(rng, 2, 2, 1, terms=4),
                "shrink": gen.random_chain(rng, 2, 2, 1, terms=4)}

    def run(self, inp):
        return (approx.cycle_extension(inp["chain"], EPSILON),
                lifting.lift_flat(inp["circle"], EPSILON),
                approx.measured_shrink_distance(inp["shrink"], SHRINK_RATIO))


WORKLOADS = {w.name: w for w in (LiftCoarea, FlatLP, Approx)}
