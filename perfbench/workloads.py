"""The benchmark's workloads: input generation, one op, and output checks.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned.  Inputs are generated here from the workload seed,
with the benchmark's own code, so the package under test only ever receives
the generated files or parameters.  Op ``i`` runs with a seed derived from
``(workload seed, i)``, so no op can reuse another op's result.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

B_CLI = 500  # permutations per `metricmanova test` op
B_MC = 200  # permutations per Monte Carlo replicate
MC_NSIMS = 3  # replicates per mc_s2 op
STAT_RTOL = 1.0e-9


def _fmt(x: float) -> str:
    return repr(float(x))


def _msd_header(n: int, n_spaces: int, labels) -> list:
    return ["msd 1", f"observations {n}", f"spaces {n_spaces}",
            "labels " + " ".join(str(l) for l in labels)]


def _rows(arr: np.ndarray) -> list:
    return [" ".join(_fmt(x) for x in row) for row in arr]


def _distance_rows(mat: np.ndarray) -> list:
    return [" ".join(_fmt(x) for x in mat[i, :i]) for i in range(1, mat.shape[0])]


def scenario1_msd(rng: np.random.Generator) -> str:
    """Scenario 1, study 2: n=200, two Gaussian-W2 spaces (k=2), J=2.

    Group 2's second location has its spread scaled by 1.3, so p-values sit
    between the extremes rather than all at 1/(B+1).
    """
    n1 = n2 = 100
    a = rng.normal(0.0, 0.5, n1 + n2)
    b = np.concatenate([rng.normal(0.0, 0.2, n1), rng.normal(0.0, 0.26, n2)])
    ones = np.ones(n1 + n2)
    lines = _msd_header(n1 + n2, 2, [1] * n1 + [2] * n2)
    lines.append("space X1 gaussian")
    lines += _rows(np.column_stack([a, ones]))
    lines.append("space X2 gaussian")
    lines += _rows(np.column_stack([b, ones]))
    return "\n".join(lines) + "\n"


def _tree_laplacian(gamma: float, nodes: int, rng: np.random.Generator):
    """Random tree by degree-powered preferential attachment."""
    degrees = np.zeros(nodes)
    degrees[:2] = 1.0
    lap = np.zeros((nodes, nodes))
    lap[0, 1] = lap[1, 0] = -1.0
    for t in range(2, nodes):
        cum = np.cumsum(degrees[:t] ** gamma)
        target = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        lap[target, t] = lap[t, target] = -1.0
        degrees[target] += 1.0
        degrees[t] = 1.0
    lap[np.arange(nodes), np.arange(nodes)] = degrees
    return lap, degrees


def scenario2_msd(rng: np.random.Generator) -> str:
    """Scenario 2: n=200, a 10-node Laplacian space (k=100) plus a 10-dim
    covariate space; attachment exponents 2.0 and 2.5, unit covariate variance."""
    nodes, n1, n2 = 10, 100, 100
    laps, covs = [], []
    for gamma, size in ((2.0, n1), (2.5, n2)):
        for _ in range(size):
            lap, deg = _tree_laplacian(gamma, nodes, rng)
            laps.append(lap.reshape(-1))
            covs.append(rng.gamma(deg * deg, 1.0 / deg))
    lines = _msd_header(n1 + n2, 2, [1] * n1 + [2] * n2)
    lines.append(f"space topology laplacian nodes {nodes}")
    lines += _rows(np.array(laps))
    lines.append(f"space covariates euclidean-l2 dim {nodes}")
    lines += _rows(np.array(covs))
    return "\n".join(lines) + "\n"


def medoid_msd(rng: np.random.Generator) -> str:
    """n=300, J=3: an L1 and a Chebyshev distance block between random
    vectors (medoid means) plus one 1-D euclidean-l1 block."""
    n_per, J = 100, 3
    n = n_per * J
    shift = np.repeat(np.arange(J) * 0.15, n_per)
    u = rng.normal(size=(n, 5)) + shift[:, None]
    v = rng.normal(size=(n, 4)) * (1.0 + shift[:, None])
    d_l1 = np.abs(u[:, None, :] - u[None, :, :]).sum(axis=2)
    d_cheb = np.abs(v[:, None, :] - v[None, :, :]).max(axis=2)
    w = rng.normal(size=(n, 1)) + shift[:, None]
    lines = _msd_header(n, 3, np.repeat(["a", "b", "c"], n_per))
    lines.append("space L1 distances")
    lines += _distance_rows(d_l1)
    lines.append("space Cheb distances")
    lines += _distance_rows(d_cheb)
    lines.append("space W euclidean-l1 dim 1")
    lines += _rows(w)
    return "\n".join(lines) + "\n"


def _fa_names(S: int) -> list:
    return [f"T_{s + 1}" for s in range(S)] + [
        f"T_{s + 1}_{t + 1}" for s in range(S) for t in range(s + 1, S)
    ]


def expected_components(test_names, S: int) -> dict:
    """Component names each test must report for S spaces."""
    out = {}
    for name in test_names:
        if name.startswith("R_"):
            kind = name[2:]
            out[name] = [f"R_mu_{kind}", f"R_cov_{kind}", f"R_cor_{kind}"]
        elif name in ("T_FA", "T_FA_perm"):
            out[name] = _fa_names(S)
        else:
            out[name] = ["pillai" if name == "Pillai" else "pillai_d"]
    return out


class CliWorkload:
    """`metricmanova test` run in-process through ``cli.main``."""

    kind = "cli"

    def __init__(self, name: str, make_msd, n_spaces: int):
        self.name = name
        self.make_msd = make_msd
        self.n_spaces = n_spaces

    def setup(self, pkg, rng: np.random.Generator, workdir: str) -> dict:
        path = os.path.join(workdir, f"{self.name}.msd")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.make_msd(rng))
        return {"input": path, "out": os.path.join(workdir, f"{self.name}.json")}

    def op(self, pkg, state: dict, op_seed: int):
        argv = ["test", "--input", state["input"], "--B", str(B_CLI),
                "--seed", str(op_seed), "--out", state["out"]]
        return pkg.cli.main(argv)

    def collect(self, state: dict, returned) -> dict:
        """Read what the op produced."""
        if returned != 0:
            return {"error": f"exit code {returned}"}
        with open(state["out"], encoding="utf-8") as fh:
            text = fh.read()
        os.remove(state["out"])
        return {"text": text}

    def records(self, output: dict) -> list:
        """[test, component, statistic, p_value, reject, global_reject] rows."""
        rows = []
        for rep in json.loads(output["text"])["reports"]:
            for c in rep["components"]:
                rows.append([rep["test_name"], c["name"], c["statistic"],
                             c["p_value"], c["reject"], rep["global_reject"]])
        return rows

    def check(self, pkg, rows: list) -> list:
        """Problems that hold for any seed."""
        problems = []
        want = expected_components(pkg.TEST_NAMES, self.n_spaces)
        got = {}
        for test, comp, stat, p, reject, global_reject in rows:
            got.setdefault(test, []).append(comp)
            if not math.isfinite(stat):
                problems.append(f"{test}/{comp}: statistic {stat!r}")
            if p is None or not (0.0 < p <= 1.0):
                problems.append(f"{test}/{comp}: p-value {p!r} outside (0, 1]")
        if got != want:
            problems.append(f"components {got} != expected {want}")
        by_test = {}
        for test, _, _, _, reject, global_reject in rows:
            by_test.setdefault(test, [global_reject, False])[1] |= reject
        for test, (global_reject, any_reject) in by_test.items():
            if global_reject != any_reject:
                problems.append(f"{test}: global_reject != any component reject")
        return problems

    @staticmethod
    def compare(rows: list, ref: list) -> list:
        """p-values and reject flags exactly, statistics within STAT_RTOL."""
        if len(rows) != len(ref):
            return [f"{len(rows)} components vs {len(ref)} in reference"]
        problems = []
        for got, want in zip(rows, ref):
            label = f"{want[0]}/{want[1]}"
            if got[:2] != want[:2] or got[3:] != want[3:]:
                problems.append(f"{label}: {got} != reference {want}")
            elif not math.isclose(got[2], want[2], rel_tol=STAT_RTOL, abs_tol=1e-300):
                problems.append(f"{label}: statistic {got[2]!r} vs {want[2]!r}")
        return problems

    @staticmethod
    def replicates(rows: list) -> tuple:
        """(used, requested) Monte Carlo replicates: none here."""
        return 0, 0


class McWorkload:
    """One power-grid point of scenario 2 through ``estimate_rejection_rates``."""

    kind = "mc"
    name = "mc_s2"

    def setup(self, pkg, rng: np.random.Generator, workdir: str) -> dict:
        return {"generator": pkg.simulation.scenario_generator(2, 1, 2.5, n1=50, n2=50)}

    def op(self, pkg, state: dict, op_seed: int):
        return pkg.simulation.estimate_rejection_rates(
            pkg.TEST_NAMES, state["generator"], nsims=MC_NSIMS, B=B_MC, seed=op_seed
        )

    def collect(self, state: dict, returned) -> dict:
        return {"estimates": [[e.test_name, e.rate, e.mc_se, e.nsims] for e in returned]}

    def records(self, output: dict) -> list:
        """[test, rate, mc_se, nsims] rows."""
        return output["estimates"]

    def check(self, pkg, rows: list) -> list:
        problems = []
        if [r[0] for r in rows] != list(pkg.TEST_NAMES):
            problems.append(f"tests {[r[0] for r in rows]} != {list(pkg.TEST_NAMES)}")
        for test, rate, mc_se, nsims in rows:
            if not (0.0 <= rate <= 1.0) or not math.isfinite(mc_se):
                problems.append(f"{test}: rate {rate!r}, mc_se {mc_se!r}")
            if nsims < 1 or nsims > MC_NSIMS:
                problems.append(f"{test}: nsims {nsims} of {MC_NSIMS}")
        return problems

    @staticmethod
    def compare(rows: list, ref: list) -> list:
        return [] if rows == ref else [f"{rows} != reference {ref}"]

    @staticmethod
    def replicates(rows: list) -> tuple:
        """(used, requested) replicates: RejectionEstimate.nsims and nsims."""
        return rows[0][3], MC_NSIMS


WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload("cli_s1", scenario1_msd, 2),
        CliWorkload("cli_s2", scenario2_msd, 2),
        CliWorkload("cli_medoid", medoid_msd, 3),
        McWorkload(),
    )
}
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}


def input_rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[name]])


def op_seed(name: str, seed: int, op_index: int) -> int:
    """Seed of op ``op_index``: distinct per op, a function of the workload seed."""
    ss = np.random.SeedSequence([seed, WORKLOAD_IDS[name], op_index])
    return int(ss.generate_state(1, np.uint64)[0])

