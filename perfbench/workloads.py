"""The benchmark's workloads: the config each one writes from a seed, the
exit status it expects, and the ``report.csv`` table a correct run produces.

Every workload is one ``picardkit --config <file>`` invocation. The seed
only enters the config's ``seed`` line, so the sample sizes, and with them
the expected table, are the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Sample counts of the verify-mode axiom checks. They are fixed by the CLI,
# not by the config: 1 origin + 40x40 mesh + 100 random pairs for zeta,
# 41x6 mesh + 100 random pairs for G, 41 mesh + 50 random points + 3 probes
# for beta, and the 3 default limsup probes.
AXIOM_SAMPLES = {
    "simulation-pointwise": 1701,
    "simulation-limits": 3,
    "cclass": 346,
    "geraghty": 94,
}
INTERVAL_TRIPLES = 200

# Expected row of report.csv: (check, status, samples); samples is "" for
# the solve-bvp summary rows.
Row = tuple[str, str, str]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    expected_exit: int
    sizes: dict
    render: Callable[[int, dict], str]
    table: Callable[[dict], list[Row]]


def _verify_interval_config(seed: int, sizes: dict) -> str:
    return (
        "mode = verify\n"
        f"seed = {seed}\n"
        "\n[carrier]\nkind = interval\nlow = 0.0\nhigh = 3.0\n"
        "\n[bundle]\nname = example31\n"
        f"\n[verify]\npair_grid = {sizes['pair_grid']}\n"
        f"random_pairs = {sizes['random_pairs']}\n"
        "\n[order]\nname = natural\n")


def _verify_interval_table(sizes: dict) -> list[Row]:
    pairs = str(sizes["pair_grid"] ** 2 + sizes["random_pairs"])
    return [
        ("simulation-pointwise", "pass", str(AXIOM_SAMPLES["simulation-pointwise"])),
        ("simulation-limits", "pass", str(AXIOM_SAMPLES["simulation-limits"])),
        ("cclass", "pass", str(AXIOM_SAMPLES["cclass"])),
        # beta(0) = 1 is a declared caveat of the example31 bundle
        ("geraghty", "caveat", str(AXIOM_SAMPLES["geraghty"])),
        ("alpha-admissible", "pass", pairs),
        ("alpha-triangular", "pass", str(INTERVAL_TRIPLES)),
        ("contraction", "fail", pairs),
    ]


def _verify_grid_config(seed: int, sizes: dict) -> str:
    return (
        "mode = verify\n"
        f"seed = {seed}\n"
        "\n[carrier]\nkind = grid\nlow = 0.0\nhigh = 1.0\n"
        "\n[bundle]\nname = bvp\n"
        f"\n[verify]\nrandom_pairs = {sizes['random_pairs']}\n"
        f"\n[bvp]\nrhs = sin_plus_one\nn = {sizes['n']}\n")


def _verify_grid_table(sizes: dict) -> list[Row]:
    pairs = max(sizes["random_pairs"], 10)
    # the CLI chains the 2 * pairs grid functions into triples
    triples = str(2 * pairs // 3)
    return [
        ("simulation-pointwise", "pass", str(AXIOM_SAMPLES["simulation-pointwise"])),
        ("simulation-limits", "pass", str(AXIOM_SAMPLES["simulation-limits"])),
        ("cclass", "pass", str(AXIOM_SAMPLES["cclass"])),
        ("geraghty", "pass", str(AXIOM_SAMPLES["geraghty"])),
        ("alpha-admissible", "pass", str(pairs)),
        ("alpha-triangular", "pass", triples),
        ("contraction", "pass", str(pairs)),
        ("operator-contraction", "pass", str(pairs)),
    ]


# Manufactured nonlinear problem whose exact solution is sin(pi t).
SOLVE_RHS = "expr:pi**2*sin(pi*t) + sin(x) - sin(sin(pi*t))"


def _solve_bvp_config(seed: int, sizes: dict) -> str:
    return (
        "mode = solve-bvp\n"
        f"seed = {seed}\n"
        f"\n[bvp]\nrhs = {SOLVE_RHS}\nn = {sizes['n']}\n"
        f"tolerance = {sizes['tolerance']!r}\n"
        f"\n[picard]\ntolerance = {sizes['tolerance']!r}\n")


def _solve_bvp_table(sizes: dict) -> list[Row]:
    return [("picard", "pass", ""), ("second-difference-residual", "pass", "")]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="verify-interval",
            why="order-reduction verify on [0, 3]: 251k scalar pairs, ~99k "
                "witnesses; loads the per-pair verifier loops, the order alpha "
                "and report sorting, never bvp or picard",
            expected_exit=1,
            sizes={"pair_grid": 500, "random_pairs": 1000},
            render=_verify_interval_config,
            table=_verify_interval_table),
        Workload(
            name="verify-grid",
            why="grid-carrier verify of the bvp bundle at n = 1000: 1200 dense "
                "operator applies and the per-node gate loop pass every check; "
                "no witnesses, so the report layer idles",
            expected_exit=0,
            sizes={"random_pairs": 200, "n": 1000},
            render=_verify_grid_config,
            table=_verify_grid_table),
        Workload(
            name="solve-bvp",
            why="nonlinear BVP solve at n = 4000 to 1e-10: dominated by the "
                "128 MB dense kernel build and Picard matvecs; the verifiers "
                "and report layer never run",
            expected_exit=0,
            sizes={"n": 4000, "tolerance": 1e-10},
            render=_solve_bvp_config,
            table=_solve_bvp_table),
    )
}


def config_text(workload: Workload, seed: int) -> str:
    """The config file for ``workload`` at ``seed``; the same seed gives the
    same bytes."""
    return workload.render(seed % 2 ** 64, workload.sizes)
