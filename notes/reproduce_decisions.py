"""Reproduce the numbers quoted in notes/decisions.md.

Run from the repository root, one section at a time:

    PYTHONPATH=src:tests python notes/reproduce_decisions.py components --seed 20260808 --nsims 1000
    PYTHONPATH=src:tests python notes/reproduce_decisions.py components --seed 20260808 --nsims 2000
    PYTHONPATH=src:tests python notes/reproduce_decisions.py components --seed 777 --nsims 6000
    PYTHONPATH=src:tests python notes/reproduce_decisions.py components --seed 777 --nsims 6000 --alpha 0.075
    PYTHONPATH=src:tests python notes/reproduce_decisions.py quantiles --seed 20260808 --nsims 2000
    PYTHONPATH=src:tests python notes/reproduce_decisions.py seed-spread
    PYTHONPATH=src:tests python notes/reproduce_decisions.py power-curve --nsims 200 --r 0.125 0.484375 1.5 2.640625 3.0
    PYTHONPATH=src:tests python notes/reproduce_decisions.py power-curve --nsims 500 --r 1.5 3.0
    PYTHONPATH=src:tests python notes/reproduce_decisions.py euc-signal
    PYTHONPATH=src:tests python notes/reproduce_decisions.py kernel-accuracy
    PYTHONPATH=src:tests python notes/reproduce_decisions.py kernel-accuracy --dim 3

``components`` runs the chi-square-calibrated ANOVA test (T_FA) on the
scenario-1, study-1 null (delta=0, n1=n2=100) with replicate k's data drawn
from ``spawn_seed(seed, DATA_STREAM, k)``, through the same
``tfa_null_rejections`` loop as the calibration test in
``tests/test_simulation.py``, and prints each component's rejection rate next
to its Bonferroni level alpha / (number of components) = 2*alpha/(S(S+1)),
their sum with its standard error, and the rate of their union.  T_FA uses
no permutations, so at alpha=0.05 these rejections are the ones criterion 1
counts; alpha=0.075 puts each component at level 0.025.

``quantiles`` runs the same replicates and prints the empirical quantiles of
each component's statistic (numpy's default linear interpolation) at 0.5,
0.9, 0.95, 0.99 and 1 - level, beside the chi-square(J-1 = 1) quantile that
T_FA refers each component to.

``seed-spread`` gives the exact binomial probability that a 1000-replicate
estimate of a true rate 0.048 reaches criterion 1's lower band edge 0.054,
and counts how many T_FA rates at data seeds 1, ..., 20 do so.

``power-curve`` prints the study-2 (scale change) rejection rates of the
three Riemannian tests at each requested ratio r, with B=200 and seed 32 as
in criterion 4.

``euc-signal`` prints, for each r of the power curve, the expected shift
that the scale change puts into the difference of the two groups' Fréchet
covariance matrices, its Frobenius norm (what the Euclidean covariance
component measures), and that norm in units of the sampling SD of the
space-1 variance difference, the largest noise term.
"""

from __future__ import annotations

import argparse
import math

import numpy as np

import metricmanova as mm
from metricmanova.distributions import chi2_upper_quantile
from metricmanova.spd import _airm_sq_lapack, _matrix_log_lapack
from test_simulation import tfa_null_reports, tfa_null_rejections
from test_spd import (
    B_KINDS,
    GRID_ITEMS,
    KAPPAS,
    airm3_cell_errors,
    airm_cell_errors,
    grid_cell,
    grid_cell3,
    log3_cell_errors,
    log_cell_errors,
)

ALPHA = 0.05
NSIMS = 1000  # criterion 1's replicate count
BAND_EDGE = 0.054  # criterion 1: |rate - 0.074| <= 0.02
TRUE_RATE = 0.048  # T_FA's null size measured at 6000 replicates
SEEDS = 20  # data seeds 1..SEEDS scanned by seed-spread
N_GROUP = 100  # objects per group in scenario 1
SD_A, SD_B = 0.5, 0.2  # group 1's SDs of the means in spaces 1 and 2
POWER_CURVE_R = (0.125, 0.484375, 1.5, 2.640625, 3.0)  # the study-2 points quoted
QUANTILES = (0.5, 0.9, 0.95, 0.99)  # plus 1 - level, added per run


def binom_upper_tail(n: int, p: float, k: int) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k, n + 1))


def cmd_components(args) -> None:
    names, hits = tfa_null_rejections(args.seed, args.nsims, args.alpha)
    level = args.alpha / len(names)  # 2*alpha/(S(S+1)) with S=2
    se = math.sqrt(level * (1.0 - level) / args.nsims)
    per_rep = hits.sum(axis=1)
    se_sum = per_rep.std(ddof=1) / math.sqrt(args.nsims)
    print(f"seed={args.seed} nsims={args.nsims} level={level:.4f} (3 se = {3 * se:.4f})")
    for name, rate in zip(names, hits.mean(axis=0)):
        print(f"  {name}: {rate:.4f}")
    print(f"  sum of components: {per_rep.mean():.4f} (3 se = {3 * se_sum:.4f})")
    print(f"  union (T_FA rate): {(per_rep > 0).mean():.4f}")


def cmd_quantiles(args) -> None:
    reports = tfa_null_reports(args.seed, args.nsims, args.alpha)
    names = [c.name for c in reports[0].components]
    stats = np.array([[c.statistic for c in report.components] for report in reports])
    level = reports[0].components[0].level
    print(f"seed={args.seed} nsims={args.nsims} level={level:.4f}")
    print("  quantile " + "".join(f"{name:>9}" for name in names) + "   chi2_1")
    for q in sorted(QUANTILES + (1.0 - level,)):
        row = "".join(f"{x:9.3f}" for x in np.quantile(stats, q, axis=0))
        print(f"  {q:8.4f} {row} {chi2_upper_quantile(1, 1.0 - q):8.3f}")


def cmd_seed_spread(args) -> None:
    hits_needed = math.ceil(BAND_EDGE * NSIMS - 1e-9)
    prob = binom_upper_tail(NSIMS, TRUE_RATE, hits_needed)
    print(f"P(Binomial({NSIMS}, {TRUE_RATE}) >= {hits_needed}) = {prob:.3f}")
    unions = [(tfa_null_rejections(s, NSIMS)[1].sum(axis=1) > 0).mean() for s in range(1, SEEDS + 1)]
    reached = sum(u >= BAND_EDGE - 1e-12 for u in unions)
    print(
        f"seeds 1..{SEEDS}: T_FA rates "
        + ", ".join(f"{u:.3f}" for u in unions)
        + f"; {reached} of {SEEDS} reach {BAND_EDGE}"
    )


def cmd_power_curve(args) -> None:
    tests = ["R_Euc", "R_AIRM", "R_LERM"]
    print(f"study 2, nsims={args.nsims}, B=200, seed=32")
    for r in args.r:
        gen = mm.scenario_generator(1, 2, r)
        ests = mm.estimate_rejection_rates(
            tests, gen, nsims=args.nsims, alpha=ALPHA, B=200, seed=32
        )
        print(f"  r={r:g}: " + ", ".join(f"{e.test_name}={e.rate:.3f}" for e in ests))


def cmd_euc_signal(args) -> None:
    # In a Wasserstein-2 space of N(m, 1) the distance is |m - m'|, so a
    # group whose means have SD s has d^2 mean s^2 and E|d| = s*sqrt(2/pi).
    # Group 2's second-space SD is SD_B*r; the first space is unchanged.
    noise = SD_A**2 * math.sqrt(2.0 * 2.0 / N_GROUP)  # SD of the V_1 difference
    print(f"SD of the space-1 variance difference: {noise:.3f}")
    for r in POWER_CURVE_R:
        d_v2 = SD_B**2 * (r * r - 1.0)
        d_c12 = (2.0 / math.pi) * SD_A * SD_B * (r - 1.0)
        frob = math.sqrt(d_v2**2 + 2.0 * d_c12**2)
        print(
            f"  r={r:g}: V_2 shift {d_v2:+.4f}, C_12 shift {d_c12:+.4f}, "
            f"Frobenius {frob:.3f} = {frob / noise:.2f} SD"
        )


def cmd_kernel_accuracy(args) -> None:
    if args.dim == 3:
        # the Cholesky-inverse column is the LAPACK kernel of five or more
        # spaces, with its A-side floor test from eigh, as three spaces ran it
        print("| kappa(A) | B | Jacobi | Cholesky inverse | solve-based | items | masks differing |")
        print("|---|---|---|---|---|---|---|")
        for kappa in KAPPAS:
            for b_kind in B_KINDS:
                A, B = grid_cell3(kappa, b_kind, args.items)
                errs = airm3_cell_errors(A, B)
                chol = airm3_cell_errors(A, B, _matrix_log_lapack, _airm_sq_lapack)[0]
                print(f"| {kappa} | {b_kind} | {errs[0]:.1e} | {chol:.1e} | {errs[1]:.1e} | {errs[2]} | {errs[3]} |")
        print()
        print("| kappa(A) | B | Jacobi log | eigh log | items | masks differing |")
        print("|---|---|---|---|---|---|")
        for kappa in KAPPAS:
            for b_kind in B_KINDS:
                errs = log3_cell_errors(np.concatenate(grid_cell3(kappa, b_kind, args.items)))
                print(f"| {kappa} | {b_kind} | {errs[0]:.1e} | {errs[1]:.1e} | {errs[2]} | {errs[3]} |")
        return
    print("| kappa(A) | B | closed form | LAPACK | items | masks differing |")
    print("|---|---|---|---|---|---|")
    for kappa in KAPPAS:
        for b_kind in B_KINDS:
            A, B = grid_cell(kappa, b_kind, args.items)
            errs = airm_cell_errors(A, B)
            print(f"| {kappa} | AIRM, {b_kind} | {errs[0]:.1e} | {errs[1]:.1e} | {errs[2]} | {errs[3]} |")
        errs = log_cell_errors(grid_cell(kappa, "random", args.items)[0])
        print(f"| {kappa} | log | {errs[0]:.1e} | {errs[1]:.1e} | {errs[2]} | {errs[3]} |")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    comp = sub.add_parser("components", help="T_FA component sizes at the scenario-1 null")
    comp.add_argument("--seed", type=int, default=20260808)
    comp.add_argument("--nsims", type=int, default=NSIMS)
    comp.add_argument("--alpha", type=float, default=ALPHA)
    comp.set_defaults(func=cmd_components)
    quant = sub.add_parser("quantiles", help="T_FA component quantiles against chi2_1")
    quant.add_argument("--seed", type=int, default=20260808)
    quant.add_argument("--nsims", type=int, default=2000)
    quant.add_argument("--alpha", type=float, default=ALPHA)
    quant.set_defaults(func=cmd_quantiles)
    spread = sub.add_parser("seed-spread", help="chance of reaching the band edge")
    spread.set_defaults(func=cmd_seed_spread)
    curve = sub.add_parser("power-curve", help="study-2 power of the R tests")
    curve.add_argument("--r", type=float, nargs="+", required=True)
    curve.add_argument("--nsims", type=int, default=200)
    curve.set_defaults(func=cmd_power_curve)
    signal = sub.add_parser("euc-signal", help="Euclidean covariance shift per r")
    signal.set_defaults(func=cmd_euc_signal)
    kernels = sub.add_parser("kernel-accuracy", help="SPD kernels against the decimal oracle")
    kernels.add_argument("--items", type=int, default=GRID_ITEMS)
    kernels.add_argument("--dim", type=int, choices=(2, 3), default=2)
    kernels.set_defaults(func=cmd_kernel_accuracy)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
