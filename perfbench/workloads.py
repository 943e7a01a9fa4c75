"""The benchmark's workloads: seeded inputs, solitonlab commands and checks.

Importing this module imports ``solitonlab.cli`` (with numpy and scipy) from
``src/`` of the checkout that holds the benchmark, never an installed copy.
The seed changes only what the method is invariant to: the rotation and the
cyclic start of a curve's grid, the axial shift of a rotation surface, and
the identity suite's ``--seed``.

A workload's round is one ``solitonlab`` command.  The flows are cut at a
short flow time, so that a run repeats its round many times.  Each flow also
names its full criterion flow, run to its stop rule once per traced run and
checked against the closed forms of its end state.
"""

import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import solitonlab  # noqa: E402
from solitonlab import cli, hypersurface  # noqa: E402,F401  (cli: set-up imports it)

if Path(solitonlab.__file__).resolve().parent != SRC / "solitonlab":
    raise ImportError(f"solitonlab was imported from {solitonlab.__file__}, not from {SRC}")

GRID = 256
OUT = Path("perfbench") / "out"          # relative to the checkout root
TRACE_CSV = "flow_trace.csv"
SNAPSHOT = "flow_final.json"
SUITE_CSV = "identity_suite.csv"


def _curve(make, seed, grid):
    """A curve rotated about the origin, its grid started at a seeded sample."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    start = int(rng.uniform(0.0, 1.0) * grid)
    pts = np.roll(make(grid).points, -start, axis=0)
    c, s = math.cos(theta), math.sin(theta)
    return hypersurface.PlaneCurve(pts @ np.array([[c, s], [-s, c]]))


def ellipse_input(seed, grid=GRID):
    return _curve(lambda m: hypersurface.ellipse(*checks.ELLIPSE_AXES, m), seed, grid)


def circle_input(seed, grid=GRID):
    return _curve(lambda m: hypersurface.circle(1.0, m), seed, grid)


def spheroid_input(seed, grid=GRID):
    """The 1:1.3 spheroid's meridian shifted along the axis; the origin stays inside."""
    shift = np.random.default_rng(seed).uniform(-0.3, 0.3)
    prof = hypersurface.spheroid_profile(*checks.SPHEROID_AXES, grid).profile.copy()
    prof[:, 0] += shift
    return hypersurface.RevolutionProfile(prof)


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: object       # seed -> surface, or None for the identity suite
    command: tuple           # solitonlab command and its flags: one timed round
    check: object            # (trace, snapshot) -> problems, for flows
    full_command: tuple = ()  # the criterion flow run to its stop rule, if any
    full_check: object = None
    sweep: bool = False      # traced runs also time single calls at several M

    @property
    def workdir(self):
        return OUT / self.name

    @property
    def is_flow(self):
        return self.make_input is not None

    def prepare(self, seed, full=False):
        """Write the seeded inputs; return the ``cli.main`` argument list.

        ``full`` gives the criterion flow instead of the timed round.
        """
        self.workdir.mkdir(parents=True, exist_ok=True)
        command = list(self.full_command if full else self.command)
        if self.is_flow:
            path = self.workdir / "input.json"
            hypersurface.save_surface(self.make_input(seed), path)
            command[1:1] = ["--surface", f"profile {path}"]
        return ["--seed", str(seed), "--out", str(self.workdir)] + command

    def outputs(self):
        names = (TRACE_CSV, SNAPSHOT) if self.is_flow else (SUITE_CSV,)
        return [self.workdir / name for name in names]

    def operations(self, full=False):
        """One problem list per operation, read from the written outputs."""
        if not self.is_flow:
            return checks.check_identity_rows(self.outputs()[0].read_text())
        trace_path, snapshot_path = self.outputs()
        trace = checks.read_trace(trace_path.read_text())
        snapshot = json.loads(snapshot_path.read_text())
        return [(self.full_check if full else self.check)(trace, snapshot)]


FIXED_SCALE_H = ("flow", "--f", "H", "--rescale", "fixed-scale")

WORKLOADS = {w.name: w for w in (
    Workload("ellipse_round", ellipse_input,
             FIXED_SCALE_H + ("--t-max", str(checks.ELLIPSE_T_END)),
             checks.check_ellipse_start,
             full_command=FIXED_SCALE_H + ("--r-tol", "0.02", "--t-max", "50"),
             full_check=checks.check_ellipse_round, sweep=True),
    Workload("spheroid_round", spheroid_input,
             FIXED_SCALE_H + ("--t-max", str(checks.SPHEROID_T_END)),
             checks.check_spheroid_start,
             full_command=FIXED_SCALE_H + ("--r-tol", "0.22", "--t-max", "10"),
             full_check=checks.check_spheroid_round, sweep=True),
    Workload("circle_shrink", circle_input,
             ("flow", "--f", "H", "--t-max", str(checks.CIRCLE_T_END)),
             checks.check_circle_shrink,
             full_command=("flow", "--f", "H", "--t-max", str(checks.CIRCLE_FULL_T_END)),
             full_check=functools.partial(checks.check_circle_shrink,
                                          t_end=checks.CIRCLE_FULL_T_END)),
    Workload("identity_suite", None,
             ("identity-suite", "--samples", str(checks.SUITE_SAMPLES)), None),
)}
