"""Command-line front end.

Commands: ``test`` runs selected tests on a dataset file, ``simulate``
generates and saves a scenario dataset, ``power`` sweeps a parameter grid and
reports rejection rates, and ``demo-correlation`` contrasts the centered and
non-centered correlation on five illustrative bivariate shapes.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
degeneracy.  All randomness flows from ``--seed``; rerunning a command with
the same arguments produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import List, Optional

import numpy as np

from .dataset import _fmt, load_msd, save_msd
from .errors import DataError, DegenerateDataError
from .estimators import frechet_correlation
from .inference import TEST_NAMES, check_test_names, run_tests
from .rng import derive_rng, spawn_seed
from .samples import GroupedMultiSample, distance_profile
from .simulation import (
    estimate_rejection_rates,
    scenario_generator,
    study_entry,
    study_grid,
)
from .spaces import euclidean_space


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's default 2
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="metricmanova", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="run tests on a .msd dataset")
    test.add_argument("--input", required=True, help="dataset file (.msd)")
    test.add_argument("--tests", default=",".join(TEST_NAMES),
                      help="comma list of tests (default: all seven)")
    test.add_argument("--alpha", type=float, default=0.05)
    test.add_argument("--B", type=int, default=500, help="permutation count")
    test.add_argument("--seed", type=int, required=True)
    test.add_argument("--ridge", action="store_true",
                      help="ridge-repair near-singular matrices in R statistics")
    test.add_argument("--out", default=None, help="output path (default: stdout)")
    test.add_argument("--format", choices=("json", "csv"), default="json")

    # the options simulate and power share: which study, its sizes and seed
    study = _Parser(add_help=False)
    study.add_argument("--scenario", type=int, choices=(1, 2), required=True)
    study.add_argument("--study", type=int, required=True)
    study.add_argument("--n1", type=int, default=100)
    study.add_argument("--n2", type=int, default=100)
    study.add_argument("--nodes", type=int, default=10, help="scenario-2 node count")
    study.add_argument("--seed", type=int, required=True)

    sim = sub.add_parser("simulate", parents=[study],
                         help="generate and save a scenario dataset")
    sim.add_argument("--effect", type=float, default=None,
                     help="study parameter value (default: the null value)")
    sim.add_argument("--out", required=True, help="output dataset path")

    power = sub.add_parser("power", parents=[study],
                           help="rejection-rate sweep over a study grid")
    power.add_argument("--grid", type=int, default=9, help="number of grid points")
    power.add_argument("--nsims", type=int, required=True)
    power.add_argument("--B", type=int, default=500)
    power.add_argument("--alpha", type=float, default=0.05)
    power.add_argument("--tests", default=",".join(TEST_NAMES))
    power.add_argument("--out", default=None)
    power.add_argument("--format", choices=("json", "csv"), default="csv")

    demo = sub.add_parser("demo-correlation",
                          help="centered vs non-centered correlation demo")
    demo.add_argument("--n", type=int, default=200)
    demo.add_argument("--seed", type=int, required=True)
    demo.add_argument("--out", default=None)
    demo.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _parse_tests(arg: str) -> List[str]:
    names = [t.strip() for t in arg.split(",") if t.strip()]
    if not names:
        raise _UsageError("no tests selected")
    try:
        check_test_names(names)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return names


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_payload(config: dict, key: str, rows) -> str:
    # NaN is not JSON: a non-finite value raises rather than writing it
    return json.dumps({"config": config, key: rows}, indent=2, sort_keys=True, allow_nan=False)


def _write(args, config: dict, key: str, records: list, header: List[str], table) -> int:
    """``records`` as JSON under ``key``, or else the CSV rows ``table``."""
    if args.format == "json":
        text = _json_payload(config, key, records)
    else:
        lines = [f"# {k}={config[k]}" for k in sorted(config)]
        lines.append(",".join(header))
        lines.extend(",".join(row) for row in table)
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_test(args) -> int:
    names = _parse_tests(args.tests)
    ms = load_msd(args.input)
    reports = run_tests(names, ms, alpha=args.alpha, B=args.B, seed=args.seed,
                        ridge=args.ridge)
    config = {
        "command": "test", "input": args.input, "tests": ",".join(names),
        "alpha": args.alpha, "B": args.B, "seed": args.seed,
        "ridge": args.ridge, "format": args.format,
    }
    table = (
        [r.test_name, c.name, _fmt(c.statistic),
         "" if c.p_value is None else _fmt(c.p_value),
         "" if c.threshold is None else _fmt(c.threshold),
         _fmt(c.level), str(c.reject), str(r.global_reject)]
        for r in reports for c in r.components
    )
    header = ["test", "component", "statistic", "p_value", "threshold",
              "level", "component_reject", "global_reject"]
    return _write(args, config, "reports", [asdict(r) for r in reports], header, table)


def _checked_study(args) -> tuple:
    """The study's table entry; an unknown study is a usage error."""
    try:
        return study_entry(args.scenario, args.study)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_simulate(args) -> int:
    null = _checked_study(args)[3]
    effect = null if args.effect is None else args.effect
    ms = scenario_generator(
        args.scenario, args.study, effect, n1=args.n1, n2=args.n2, nodes=args.nodes
    )(args.seed)
    save_msd(args.out, ms)
    return 0


def _cmd_power(args) -> int:
    names = _parse_tests(args.tests)
    _checked_study(args)
    grid = study_grid(args.scenario, args.study, args.grid)
    estimates = []
    for gi, value in enumerate(grid):
        gen = scenario_generator(
            args.scenario, args.study, float(value),
            n1=args.n1, n2=args.n2, nodes=args.nodes,
        )
        estimates.extend(
            estimate_rejection_rates(
                names, gen, args.nsims, alpha=args.alpha, B=args.B,
                seed=spawn_seed(args.seed, gi), parameter=float(value),
            )
        )
    config = {
        "command": "power", "scenario": args.scenario, "study": args.study,
        "grid": args.grid, "nsims": args.nsims, "B": args.B,
        "alpha": args.alpha, "tests": ",".join(names),
        "n1": args.n1, "n2": args.n2, "nodes": args.nodes,
        "seed": args.seed, "format": args.format,
    }
    table = ([e.test_name, _fmt(e.parameter), _fmt(e.rate), _fmt(e.mc_se), str(e.nsims)]
             for e in estimates)
    header = ["test", "parameter", "rate", "mc_se", "nsims"]
    return _write(args, config, "estimates", [asdict(e) for e in estimates], header, table)


def demo_correlation_table(seed: int, n: int = 200) -> List[dict]:
    """Centered vs non-centered correlation on five bivariate shapes.

    X1 is uniform on (0, 1); X2 is a noisy linear, negative-linear, V-shaped,
    or inverted-V function of X1, or independent uniform.  Both variables live
    in one-dimensional Euclidean space under the L1 metric.  Illustrative
    only.
    """
    shapes = {
        1: "linear",
        2: "negative-linear",
        3: "v-shaped",
        4: "inverted-v",
        5: "independent",
    }
    out = []
    for k, shape in shapes.items():
        rng = derive_rng(seed, k)
        x1 = rng.uniform(0.0, 1.0, n)
        noise = rng.uniform(-0.05, 0.05, n)
        if k == 1:
            x2 = x1 + noise
        elif k == 2:
            x2 = 1.0 - x1 + noise
        elif k == 3:
            x2 = 2.0 * np.abs(x1 - 0.5) + noise
        elif k == 4:
            x2 = 1.0 - 2.0 * np.abs(x1 - 0.5) + noise
        else:
            x2 = rng.uniform(0.0, 1.0, n)
        ms = GroupedMultiSample(
            [
                euclidean_space("X1", x1[:, None], norm="L1"),
                euclidean_space("X2", x2[:, None], norm="L1"),
            ],
            np.zeros(n, dtype=int),
        )
        prof = distance_profile(ms, "per-group").values
        out.append(
            {
                "scenario": k,
                "shape": shape,
                "noncentered": frechet_correlation(prof[:, 0], prof[:, 1], "noncentered"),
                "centered": frechet_correlation(prof[:, 0], prof[:, 1], "centered"),
            }
        )
    return out


def _cmd_demo(args) -> int:
    rows = demo_correlation_table(args.seed, args.n)
    config = {"command": "demo-correlation", "n": args.n, "seed": args.seed,
              "format": args.format}
    table = ([str(r["scenario"]), r["shape"], _fmt(r["noncentered"]), _fmt(r["centered"])]
             for r in rows)
    header = ["scenario", "shape", "noncentered", "centered"]
    return _write(args, config, "correlations", rows, header, table)


_COMMANDS = {
    "test": _cmd_test,
    "simulate": _cmd_simulate,
    "power": _cmd_power,
    "demo-correlation": _cmd_demo,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except DegenerateDataError as exc:
        sys.stderr.write(f"numerical degeneracy: {exc}\n")
        return 3
    except (DataError, ValueError) as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"file error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
