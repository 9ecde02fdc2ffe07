"""Growth experiments: seeded sampling of parameter sets, realized type
counts per size, per-trial exponent fits, and CSV/JSON emission."""

from __future__ import annotations

import os
import statistics
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass
from random import Random
from typing import Optional

import numpy as np

from .errors import DomainError, ResourceCapError
from .models import (
    CORPUS,
    GROWTH_KINDS,
    CarrierModel,
    OrderModel,
    UltrametricModel,
    growth_formula,
    load_model,
    random_ultrametric,
)
from .setsystem import (
    ENUM_CAP,
    GrowthPoint,
    GrowthSeries,
    SweepCost,
    _decode_tuples,
    distinct_rows,
    type_space,
)

CSV_HEADER = ("model", "formula", "arity", "m", "trial", "seed", "type_count", "ms")
_MODEL_KINDS = {UltrametricModel: "an ultrametric model", OrderModel: "an order model"}


def thread_budget() -> int:
    env = os.environ.get("LAMINAR_VC_THREADS", "")
    if not env.strip():
        return min(4, os.cpu_count() or 1)
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise DomainError(f"LAMINAR_VC_THREADS must be a positive integer, got {env!r}")
    return threads


@dataclass(frozen=True)
class ExperimentConfig:
    formula_kind: str
    arity: int
    sizes: tuple[int, ...]
    trials: int = 5
    seed: int = 0
    tol: float = 0.15
    cap: int = ENUM_CAP
    model_path: Optional[str] = None
    allow_duplicate_params: bool = False

    def __post_init__(self):
        if self.formula_kind not in GROWTH_KINDS:
            raise DomainError(f"unknown formula kind {self.formula_kind!r}; known: {GROWTH_KINDS}")
        if self.arity not in (1, 2):
            raise DomainError("object arity must be 1 or 2")
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if len(self.sizes) < 3:
            raise DomainError("need at least 3 sizes to fit an exponent")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise DomainError("sizes must be strictly increasing")
        if any(m < 2 for m in self.sizes):
            raise DomainError("sizes must be >= 2")

    @property
    def ceiling(self) -> float:
        return self.arity + self.tol


@dataclass(frozen=True)
class GrowthRow:
    model: str
    formula: str
    arity: int
    m: int
    trial: int
    seed: int
    type_count: int
    ms: int
    # JSON only: the cell's cost (setsystem.SweepCost); a factored cell
    # makes no batch calls and dedupes tuples_refined candidate rows
    batch_calls: int
    tuples_refined: int


@dataclass(frozen=True)
class GrowthReport:
    config: ExperimentConfig
    model_label: str
    rows: tuple[GrowthRow, ...]
    series: tuple[GrowthSeries, ...]
    exponents: tuple[float, ...]
    median_exponent: float
    ceiling: float
    passed: bool
    complete: bool
    engine: str  # "factored" at arity 2, else "refine" (type_space)

    def to_json(self) -> dict:
        return {
            "config": asdict(self.config),
            "model": self.model_label,
            "rows": [asdict(r) for r in self.rows],
            "exponents": list(self.exponents),
            "median_exponent": self.median_exponent,
            "ceiling": self.ceiling,
            "passed": self.passed,
            "complete": self.complete,
            "engine": self.engine,
        }


def resolve_model(config: ExperimentConfig) -> CarrierModel:
    """The model of a growth run: the --model file, which must be a carrier
    the formula can evaluate, or a seeded random one (an order of twice the
    largest size for pair-equality, else an ultrametric tree with at least
    16 leaves and branching at most 3)."""
    carriers = CORPUS[config.formula_kind].carriers
    if config.model_path:
        model = load_model(config.model_path)
        if not isinstance(model, carriers):
            raise DomainError(
                f"formula {config.formula_kind} needs "
                f"{' or '.join(_MODEL_KINDS[c] for c in carriers)}, "
                f"not {_MODEL_KINDS.get(type(model), 'a set family')}"
            )
        return model
    top = max(config.sizes)
    if OrderModel in carriers:
        return OrderModel(2 * top, seed=config.seed)
    return random_ultrametric(max(16, 2 * top), 3, config.seed)


def _sample_params(rng: Random, space: int, arity: int, m: int, carrier_size: int,
                   with_replacement: bool) -> list[tuple[int, ...]]:
    if not with_replacement and m > space:
        raise DomainError(f"cannot sample {m} distinct parameter tuples from {space}")
    if with_replacement:
        idxs = [rng.randrange(space) for _ in range(m)]
    else:
        idxs = rng.sample(range(space), m)
    decoded = _decode_tuples(np.array(idxs, dtype=np.int64), carrier_size, arity)
    return list(map(tuple, decoded.tolist()))


def _factored_count(config: ExperimentConfig, model: CarrierModel,
                    params: list[tuple[int, ...]]) -> tuple[int, SweepCost]:
    """Realized types of object pairs over the parameter column: the distinct
    rows among the corpus entry's candidate rows.  The cap is checked against
    the L^2 * m evaluations of the full enumeration, as type_space does, and
    bounds the (at most L^2, ceil(m/8)) packed candidate matrix."""
    evals = model.size**2 * len(params)
    if evals > config.cap:
        raise ResourceCapError(
            f"enumerating {model.size**2} tuples x {len(params)} slots = {evals} "
            f"evaluations exceeds cap {config.cap}"
        )
    xs = np.array(params, dtype=np.int64)[:, 0]
    candidates = CORPUS[config.formula_kind].rows(model, xs)
    return len(distinct_rows(candidates)), SweepCost(tuples_refined=len(candidates))


def run_growth(config: ExperimentConfig) -> GrowthReport:
    """Run every (size, trial) cell, fit one exponent per trial, and compare
    the median against the ceiling.  Rows are sorted before aggregation so the
    output is independent of scheduling.

    An arity-2 cell counts from the corpus entry's per-element profiles over
    its parameters (`_factored_count`); an arity-1 cell runs type_space."""
    threads = thread_budget()
    model = resolve_model(config)
    formula = growth_formula(config.formula_kind, config.arity)
    space = model.size**formula.param_arity
    engine = "factored" if config.arity == 2 else "refine"

    def cell(args) -> GrowthRow:
        m, t = args
        rng = Random(f"{config.seed}/{m}/{t}")
        params = _sample_params(
            rng, space, formula.param_arity, m, model.size, config.allow_duplicate_params
        )
        t0 = time.perf_counter()
        if engine == "factored":
            count, cost = _factored_count(config, model, params)
        else:
            space_result = type_space([formula], params, model, config.arity, cap=config.cap)
            count, cost = space_result.count, space_result.cost
        ms = int(round((time.perf_counter() - t0) * 1000))
        return GrowthRow(
            model.label, formula.name, config.arity, m, t, config.seed,
            count, ms, cost.batch_calls, cost.tuples_refined,
        )

    jobs = [(m, t) for m in config.sizes for t in range(config.trials)]
    rows: list[GrowthRow] = []
    complete = True
    workers = min(threads, len(jobs))
    try:
        if workers <= 1:
            for job in jobs:
                rows.append(cell(job))
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(cell, job) for job in jobs]
                # at the first failed cell, drop the queued ones; cells start in
                # job order, so every cancelled cell comes after the first failure
                wait(futures, return_when=FIRST_EXCEPTION)
                pool.shutdown(cancel_futures=True)
            rows.extend(f.result() for f in futures)
    except ResourceCapError:
        complete = False
    rows.sort(key=lambda r: (r.m, r.trial))

    series = []
    exponents = []
    if complete:
        for t in range(config.trials):
            pts = tuple(
                GrowthPoint(r.m, r.type_count, r.seed) for r in rows if r.trial == t
            )
            s = GrowthSeries(pts).with_fit()
            series.append(s)
            exponents.append(s.fitted_exponent)
    median = statistics.median(exponents) if exponents else float("nan")
    passed = complete and median <= config.ceiling
    return GrowthReport(
        config=config,
        model_label=model.label,
        rows=tuple(rows),
        series=tuple(series),
        exponents=tuple(exponents),
        median_exponent=median,
        ceiling=config.ceiling,
        passed=passed,
        complete=complete,
        engine=engine,
    )


def csv_text(report: GrowthReport) -> str:
    lines = [",".join(CSV_HEADER)]
    for r in report.rows:
        lines.append(
            f"{r.model},{r.formula},{r.arity},{r.m},{r.trial},{r.seed},{r.type_count},{r.ms}"
        )
    return "\n".join(lines) + "\n"


def write_csv(report: GrowthReport, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(report))
