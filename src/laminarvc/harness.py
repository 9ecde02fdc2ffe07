"""Growth experiments: seeded sampling of parameter sets, realized type
counts per size, per-trial exponent fits, and CSV/JSON emission."""

from __future__ import annotations

import math
import os
import platform
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path
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
    mt_words,
    random_ultrametric,
    sample_setsize,
)
from .setsystem import (
    ENUM_CAP,
    GrowthPoint,
    GrowthSeries,
    _decode_tuples,
    laminar_union_count,
    range_set_count,
    segment_count,
)

CSV_HEADER = ("model", "formula", "arity", "m", "trial", "seed", "type_count", "ms")
_MODEL_KINDS = {UltrametricModel: "an ultrametric model", OrderModel: "an order model"}


def git_sha(root: Path) -> Optional[str]:
    """The commit checked out at `root`, or None when `root` is not the top
    of a git checkout (or git cannot say)."""
    import subprocess  # here, not at the top: it adds about 7 ms to CLI startup

    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    out = proc.stdout.splitlines()
    if proc.returncode != 0 or len(out) < 2 or Path(out[0]).resolve() != root.resolve():
        return None
    return out[1]


def env_stamp() -> dict:
    """What a run's timings depend on: interpreter, NumPy, CPUs, and the
    commit of the checkout this package runs from (None when it is
    installed elsewhere)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(Path(__file__).resolve().parents[2]),
    }


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
        if not math.isfinite(self.tol):
            raise DomainError(f"tol must be finite, got {self.tol}")

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
    # JSON only: the rows the cell counted: its m parameter pairs at arity
    # 1; at arity 2 its R row ranges, or for the union kinds the d^2 pairs
    # of its d distinct profiles, whose unions it counts
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
    # why the run is incomplete: the first failed cell's ResourceCapError
    cap_error: Optional[str] = None

    @property
    def complete(self) -> bool:
        return self.cap_error is None

    @property
    def engine(self) -> str:
        """The cells' counting path in _factored_count: segments or ranges."""
        return "segments" if self.config.arity == 1 else "ranges"

    def to_json(self) -> dict:
        return {
            "config": asdict(self.config),
            "model": self.model_label,
            "rows": [asdict(r) for r in self.rows],
            "exponents": list(self.exponents),
            # an incomplete run fits no exponent: null, as NaN is not JSON
            "median_exponent": self.median_exponent if self.exponents else None,
            "ceiling": self.ceiling,
            "passed": self.passed,
            "complete": self.complete,
            "engine": self.engine,
            "cap_error": self.cap_error,
            "env": env_stamp(),
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
                   with_replacement: bool) -> np.ndarray:
    """(m, arity) int64 array of the parameter tuples with the indices
    [rng.randrange(space) for _ in range(m)] when with_replacement, else
    rng.sample(range(space), m), decoded as object tuples.

    Both are read from rng's 32-bit Mersenne Twister output stream in numpy.
    CPython draws one index as getrandbits(b), b = space.bit_length(): the
    top b bits of one output, redrawn while it is >= space.  space <= L**2
    <= 2**24 under the universe cap, so every draw is one output word.
    randrange keeps every draw below space; sample, when its table of seen
    indices is smaller than a pool of the space, keeps the first distinct
    ones.  When a pool of the space is smaller, sample itself draws.  rng is
    left further along its stream than the two calls would leave it."""
    if not with_replacement and m > space:
        raise DomainError(f"cannot sample {m} distinct parameter tuples from {space}")
    if not with_replacement and space <= sample_setsize(m):
        idxs = np.array(rng.sample(range(space), m), dtype=np.int64)
    else:
        idxs = _stream_draws(rng, space, m, distinct=not with_replacement)
    return _decode_tuples(idxs, carrier_size, arity)


def _stream_draws(rng: Random, space: int, m: int, distinct: bool) -> np.ndarray:
    """The first m draws below space (the first m distinct ones when
    `distinct`), in stream order, of getrandbits(space.bit_length()) calls
    on rng, as int64, read from rng's output words (mt_words)."""
    bits = space.bit_length()
    out = np.empty(0, dtype=np.int64)
    while len(out) < m:
        need = m - len(out)
        # words expected to hold `need` draws below space, plus some slack
        c = ((need + need // 8 + 16) << bits) // space
        draws = (mt_words(rng, c) >> (32 - bits)).astype(np.int64)
        out = np.concatenate([out, draws[draws < space]])
        if distinct:
            # keep each value's first occurrence, its least key
            # value * len(out) + position, and put the kept positions back
            # in stream order
            w = len(out)
            value, position = np.divmod(np.sort(out * w + np.arange(w)), w)
            first = np.ones(w, dtype=bool)
            first[1:] = value[1:] != value[:-1]
            out = out[np.sort(position[first])]
    return out[:m]


def _factored_count(config: ExperimentConfig, model: CarrierModel,
                    params: np.ndarray) -> tuple[int, int]:
    """Realized types over the (m, param arity) parameter array, counted
    from the corpus entry's factoring, with no object tuple enumerated, and
    the number of rows counted (GrowthRow.tuples_refined).

    Arity 2, union kinds: the distinct unions of two of the entry's profile
    ranges over the parameter column, counted by laminar_union_count.
    Arity 2, other kinds: the distinct sets among the entry's R row ranges,
    counted by range_set_count.  Arity 1: x's sign row is its membership in
    each of the m' <= m distinct sets the entry gives as rank ranges, so
    segment_count counts the rows of the at most 4m' + 1 elementary
    segments of the leaf order that the range ends cut.

    The cap bounds the work the cell does, each term checked before the
    arrays it counts are built: its L * m sign or profile bits (at arity 1
    the segment matrix has at most L + 1 rows of ceil(m/64) words), then for
    boolean-mix the R * m bits of its rows."""
    size, m = model.size, len(params)

    def afford(work: int, what: str) -> None:
        if work > config.cap:
            raise ResourceCapError(f"cell work {what} = {work} exceeds cap {config.cap}")

    afford(size * m, f"{size} elements x {m} parameters")
    spec = CORPUS[config.formula_kind]
    if config.arity == 1:
        return segment_count(size, *spec.set_ranges(model, params[:, 0], params[:, 1])), m
    xs = params[:, 0]
    if spec.ranges is not None:
        unions, d = laminar_union_count(*spec.ranges(model, xs))
        return unions, d * d
    rows = spec.row_ranges(
        model, xs, lambda r: afford(r * m, f"{r} candidate rows x {m} parameters")
    )
    return range_set_count(*rows), len(rows[0])


def run_growth(config: ExperimentConfig) -> GrowthReport:
    """Run every (size, trial) cell, fit one exponent per trial, and compare
    the median against the ceiling.  Rows come in (size, trial) order.

    Every cell counts from the corpus entry's factoring over its parameters
    (`_factored_count`), one after another in the calling thread.  After
    the first cell that breaks the cap, no later cell starts."""
    model = resolve_model(config)
    formula = growth_formula(config.formula_kind, config.arity)
    space = model.size**formula.param_arity
    rows: list[GrowthRow] = []
    cap_error = None
    try:
        for m in config.sizes:
            for t in range(config.trials):
                rng = Random(f"{config.seed}/{m}/{t}")
                params = _sample_params(
                    rng, space, formula.param_arity, m, model.size,
                    config.allow_duplicate_params,
                )
                t0 = time.perf_counter()
                count, tuples_refined = _factored_count(config, model, params)
                ms = int(round((time.perf_counter() - t0) * 1000))
                rows.append(GrowthRow(
                    model.label, formula.name, config.arity, m, t, config.seed,
                    count, ms, tuples_refined,
                ))
    except ResourceCapError as e:
        cap_error = str(e)
    complete = cap_error is None

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
        cap_error=cap_error,
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
