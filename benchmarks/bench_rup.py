"""Extension: RUP (DRUP) proof checking vs resolution-trace checking.

Resolution traces replay exact resolutions; RUP re-derives each clause by
unit propagation and is typically slower per clause but needs no resolve
sources in the proof — the trade-off that shaped later proof formats.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_suite
from repro.checker import RupChecker
from repro.proofs import TextProofWriter
from repro.solver import Solver, SolverConfig

# RUP checking is O(propagation) per learned clause: keep to lighter instances.
NAMES = [instance.name for instance in bench_suite()][:6]


@pytest.fixture(scope="module")
def drup_proofs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("drup")
    proofs = {}
    for instance in bench_suite():
        if instance.name not in NAMES:
            continue
        formula = instance.build()
        path = directory / f"{instance.name}.drup"
        result = Solver(formula, SolverConfig(), drup_writer=TextProofWriter(path)).solve()
        assert result.is_unsat
        proofs[instance.name] = (formula, path)
    return proofs


@pytest.mark.parametrize("name", NAMES)
def test_rup_check(benchmark, drup_proofs, name):
    formula, path = drup_proofs[name]

    def run():
        report = RupChecker(formula, path).check()
        assert report.verified, report.summary()
        return report

    benchmark.group = f"rup:{name}"
    benchmark(run)
