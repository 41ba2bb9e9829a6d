"""Seeded fixture populations with answers known by construction.

Every input the benchmark checks is made by this module:

* **positives** are formulas UNSAT by theory — scrambled pigeonhole
  php(n, n-1) and Tseitin formulas of random 3-regular graphs with odd
  total charge — refuted by :mod:`repro.solver`, which emits the binary
  resolution trace or binary DRUP proof the checker later receives;
* **trace negatives** come from
  :class:`~repro.solver.buggy.CorruptingTraceWriter`: ``OMIT_FINAL_CONFLICT``
  (no refutation can exist without a final conflict) and
  ``FORWARD_SOURCE`` (a learned clause resolves from a later one, a cycle;
  written as an ASCII trace, since binary deltas cannot encode it);
* **DRUP negatives** are the format-level corruptions ``bogus-tag`` and
  ``truncate-varint`` of ``tools/gen_drat.py`` applied to a positive proof.

The known answer is therefore never computed by the code under test.

Each family keeps only candidates whose lemma count (learned clauses for
traces, add steps for DRUP proofs) falls inside its band. Solver proof
sizes are heavy-tailed across instances; the band keeps the work of one
input comparable to the next. Candidates above the band are cut off early
through the solver's conflict budget.

Rejection sampling at these sizes costs seconds of solving per kept
instance, more than a run measures. Each population is therefore solved
once per checkout into a **pool** (:func:`ensure_pool`), and ``--seed``
orders a run's inputs from it (:func:`select`). Within a band the check
cost of one input still differs from the next by up to a factor of two,
so every seed checks the whole pool: a run of a few inputs drawn freely
moved the medians by more than 10% from one seed to the next, and even
leaving out three of eighteen moved the median latency by 6%. The pool is keyed
by its parameters and by the source of everything that writes it
(``src/repro``, ``tools/gen_drat.py``, this file), so a change to the
solver or the writers builds a fresh pool.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import shutil
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from repro.cnf import CnfFormula, write_dimacs_file
from repro.cnf.transforms import scramble
from repro.generators import pigeonhole, tseitin_random_regular
from repro.proofs import open_proof_writer
from repro.solver import Solver, SolverConfig
from repro.solver.buggy import BugKind, CorruptingTraceWriter
from repro.trace import AsciiTraceWriter, BinaryTraceWriter, sha256_file

REPO_ROOT = Path(__file__).resolve().parents[2]
GEN_DRAT = REPO_ROOT / "tools" / "gen_drat.py"

TRACE_NEGATIVES = {
    "omit-final-conflict": BugKind.OMIT_FINAL_CONFLICT,
    "forward-source": BugKind.FORWARD_SOURCE,
}
DRUP_NEGATIVES = ("bogus-tag", "truncate-varint")


@dataclass(frozen=True)
class Family:
    """One formula family: ``pigeonhole`` (sizes = pigeons) or ``tseitin``
    (sizes = vertex counts), kept when the lemma count is within ``band``.
    The pool holds ``pool`` instances."""

    name: str
    sizes: tuple[int, ...]
    band: tuple[int, int]
    pool: int


@dataclass(frozen=True)
class Population:
    """The inputs of one workload: the families' positives plus one
    negative per entry of ``negatives``, the same for every seed."""

    proof: str  # "trace" | "drup"
    families: tuple[Family, ...]
    negatives: tuple[str, ...]


# Sizes follow the solver-trace probes the workloads were chosen from: BF
# checks of 1k-10k learned clauses take ~0.1 s, and DRUP proofs of a few
# hundred to 2000 adds ~0.3 s backward. Within that range the bands are
# narrow, for the reason given above. A pool holds about as many inputs
# as one pass of the slowest workload on them can check in a round (5 s).
POPULATIONS = {
    # Shared by trace-bf and trace-stream.
    "trace": Population(
        proof="trace",
        families=(
            Family("tseitin", (36, 40, 44), (2500, 3200), pool=15),
            Family("pigeonhole", (8,), (3100, 3800), pool=3),
        ),
        negatives=("omit-final-conflict", "forward-source"),
    ),
    # php(7,6) proofs check ~2.5x slower per add than Tseitin proofs
    # backward, so fewer inputs are pigeonhole.
    "drup": Population(
        proof="drup",
        families=(
            Family("tseitin", (28, 32, 36), (800, 1000), pool=9),
            Family("pigeonhole", (7,), (700, 800), pool=2),
        ),
        negatives=DRUP_NEGATIVES,
    ),
    # Many distinct small traces: every cold service job needs its own key.
    "service": Population(
        proof="trace",
        families=(Family("tseitin", (24, 28, 32), (500, 1500), pool=130),),
        negatives=("omit-final-conflict", "forward-source") * 2,
    ),
}

#: Tiny populations for ``--smoke`` (the self-test).
SMOKE_POPULATIONS = {
    "trace": Population(
        proof="trace",
        families=(
            Family("pigeonhole", (6,), (100, 250), pool=2),
            Family("tseitin", (20, 22), (100, 400), pool=2),
        ),
        negatives=("omit-final-conflict", "forward-source"),
    ),
    "drup": Population(
        proof="drup",
        families=(
            Family("pigeonhole", (5,), (10, 100), pool=2),
            Family("tseitin", (16, 18), (20, 200), pool=2),
        ),
        negatives=DRUP_NEGATIVES,
    ),
    "service": Population(
        proof="trace",
        families=(
            Family("pigeonhole", (5,), (10, 100), pool=4),
            Family("tseitin", (16, 18), (20, 200), pool=4),
        ),
        negatives=("omit-final-conflict", "forward-source"),
    ),
}

#: Candidates tried per kept positive before generation gives up.
MAX_CANDIDATES_PER_FIXTURE = 200


@dataclass(frozen=True)
class Fixture:
    """One checkable input and its known answer (``kind == "positive"``)."""

    name: str
    kind: str  # "positive" or the name of the corruption
    family: str
    size: int
    instance_seed: int
    lemmas: int
    formula: str
    proof: str

    @property
    def expect(self) -> bool:
        return self.kind == "positive"


def _formula(family: str, size: int, instance_seed: int) -> CnfFormula:
    if family == "pigeonhole":
        return scramble(pigeonhole(size, size - 1), seed=instance_seed)
    return tseitin_random_regular(size, 3, seed=instance_seed)


def _solve(formula: CnfFormula, proof: str, path: Path, config: SolverConfig):
    """Solve once, writing the binary trace or binary DRUP proof to ``path``."""
    if proof == "drup":
        return Solver(formula, config, drup_writer=open_proof_writer(path, "binary")).solve()
    return Solver(formula, config, trace_writer=BinaryTraceWriter(path)).solve()


def _load_gen_drat():
    spec = importlib.util.spec_from_file_location("gen_drat", GEN_DRAT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve through sys.modules
    spec.loader.exec_module(module)
    return module


def generate(name: str, population: Population, directory: Path) -> list[Fixture]:
    """Write the population's whole pool into ``directory``; every call
    writes the same bytes. The first fixture is the warm-up input."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"e2e-pool:{name}")
    suffix = ".drup" if population.proof == "drup" else ".rtb"
    positives: list[Fixture] = []
    formulas: dict[str, tuple[CnfFormula, SolverConfig]] = {}
    for family in population.families:
        config = SolverConfig(max_conflicts=family.band[1] + 1)
        kept = candidates = 0
        while kept < family.pool:
            candidates += 1
            if candidates > MAX_CANDIDATES_PER_FIXTURE * family.pool:
                raise RuntimeError(f"{name}: too few {family.name} instances in {family.band}")
            size = rng.choice(family.sizes)
            instance_seed = rng.randrange(1 << 31)
            formula = _formula(family.name, size, instance_seed)
            stem = directory / f"{name}-{len(positives):02d}-{family.name}{size}"
            proof_path = stem.with_suffix(suffix)
            result = _solve(formula, population.proof, proof_path, config)
            lemmas = result.stats.learned_clauses
            if not (result.is_unsat and family.band[0] <= lemmas <= family.band[1]):
                if result.status == "SAT":
                    raise RuntimeError(f"solver claims SAT for UNSAT-by-construction {stem.name}")
                os.unlink(proof_path)
                continue
            write_dimacs_file(formula, stem.with_suffix(".cnf"))
            fixture = Fixture(
                name=stem.name,
                kind="positive",
                family=family.name,
                size=size,
                instance_seed=instance_seed,
                lemmas=lemmas,
                formula=str(stem.with_suffix(".cnf")),
                proof=str(proof_path),
            )
            positives.append(fixture)
            formulas[fixture.name] = (formula, config)
            kept += 1
    negatives = [
        _negative(name, index, kind, rng.choice(positives), formulas, rng, directory)
        for index, kind in enumerate(population.negatives)
    ]
    return positives + negatives


def _negative(
    name: str,
    index: int,
    kind: str,
    base: Fixture,
    formulas: dict[str, tuple[CnfFormula, SolverConfig]],
    rng: random.Random,
    directory: Path,
) -> Fixture:
    suffix = ".trace" if kind == "forward-source" else Path(base.proof).suffix
    path = directory / f"{name}-neg{index}-{kind}{suffix}"
    if kind in DRUP_NEGATIVES:
        corrupt = _load_gen_drat().CORRUPTIONS[kind]
        path.write_bytes(corrupt(Path(base.proof).read_bytes(), "binary"))
    else:
        # The solve is deterministic, so re-solving the base formula through
        # the corrupting writer reproduces the base trace with one fault.
        formula, config = formulas[base.name]
        for _ in range(MAX_CANDIDATES_PER_FIXTURE):
            inner = AsciiTraceWriter(path) if suffix == ".trace" else BinaryTraceWriter(path)
            writer = CorruptingTraceWriter(inner, TRACE_NEGATIVES[kind], seed=rng.randrange(1 << 31))
            Solver(formula, config, trace_writer=writer).solve()
            if writer.corrupted:
                break
        else:
            raise RuntimeError(f"{name}: {kind} never fired on {base.name}")
    return replace(base, name=path.stem, kind=kind, proof=str(path))


# -- the pool ------------------------------------------------------------------


def pool_key(name: str, population: Population) -> str:
    """Digest of the population's parameters and of every source file that
    shapes the bytes its pool holds."""
    digest = hashlib.sha256(json.dumps([name, asdict(population)], sort_keys=True).encode())
    sources = sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
    for path in sources + [GEN_DRAT, Path(__file__).resolve()]:
        digest.update(path.relative_to(REPO_ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_pool(name: str, population: Population, root: Path) -> list[Fixture]:
    """The population's pool under ``root``, generated first if missing;
    a pool of the same population with another key is removed."""
    directory = root / f"{name}-{pool_key(name, population)}"
    index = directory / "pool.json"
    if not index.exists():
        staging = root / f"{directory.name}.tmp-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        fixtures = generate(name, population, staging)
        entries = [
            asdict(replace(f, formula=Path(f.formula).name, proof=Path(f.proof).name))
            for f in fixtures
        ]
        (staging / "pool.json").write_text(json.dumps(entries, indent=1) + "\n")
        for stale in root.glob(f"{name}-*"):
            if stale != staging:
                shutil.rmtree(stale, ignore_errors=True)
        os.rename(staging, directory)
    entries = json.loads(index.read_text())
    return [
        Fixture(**{**entry, "formula": str(directory / entry["formula"]),
                   "proof": str(directory / entry["proof"])})
        for entry in entries
    ]


def select(name: str, population: Population, pool: list[Fixture], seed: int) -> list[Fixture]:
    """The run's inputs: the pool's warm-up input, then the positives of
    every family in an order drawn by ``seed``, then the population's
    negatives."""
    rng = random.Random(f"e2e:{name}:{seed}")
    warmup, *rest = pool
    chosen: list[Fixture] = [warmup]
    for family in population.families:
        members = [f for f in rest if f.expect and f.family == family.name]
        chosen += rng.sample(members, len(members))
    return chosen + [f for f in rest if not f.expect]


def manifest(name: str, population: Population, seed: int, fixtures: list[Fixture]) -> dict:
    """Population parameters, the sizes drawn and the SHA-256 of every file.

    ``digest`` covers the inputs only, not the pool key, so two commits
    that generate the same files for a seed share it.
    """
    entries = []
    for fixture in fixtures:
        entry = asdict(fixture)
        entry["formula"] = Path(fixture.formula).name
        entry["proof"] = Path(fixture.proof).name
        entry["formula_sha256"] = sha256_file(fixture.formula)
        entry["proof_sha256"] = sha256_file(fixture.proof)
        entries.append(entry)
    body = {
        "population": name,
        "seed": seed,
        "params": asdict(population),
        "lemmas_drawn": [fixture.lemmas for fixture in fixtures if fixture.expect],
        "fixtures": entries,
    }
    body["digest"] = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()
    body["pool_key"] = pool_key(name, population)
    return body
