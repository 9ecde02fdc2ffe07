"""Command-line driver.

Subcommands: gen-model, check-directed, verify-lemmas, growth, fullvcmin-demo.
Exit codes: 0 pass, 1 assertion failure, 2 usage or I/O error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from random import Random

import numpy as np

from . import forest
from .errors import DomainError, ModelFormatError, ResourceCapError, ValidationError
from .fullvcmin import dlo_instance, incremental_count_check
from .harness import ExperimentConfig, csv_text, run_growth, write_csv
from .models import (
    GROWTH_KINDS,
    OrderModel,
    UltrametricModel,
    load_model,
    random_ultrametric,
    save_model,
)
from .setsystem import ENUM_CAP
from .verify import run_all


def _sizes_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sizes list {text!r}")


def cmd_gen_model(args) -> int:
    if args.kind == "ultrametric":
        model = random_ultrametric(args.leaves, args.branching, args.seed)
    else:
        model = OrderModel(args.size, seed=args.seed)
    save_model(model, args.out)
    print(f"wrote {args.out}")
    return 0


def _designated_crossing(model):
    """The first crossing pair of a model's designated family, and its size:
    a tree's balls and an order's cuts as rank ranges, a file's sets from
    its member matrix."""
    if isinstance(model, UltrametricModel):
        return forest.first_range_crossing(model.lo, model.hi), model.n_nodes
    if isinstance(model, OrderModel):
        cuts = np.arange(1, model.size)  # the initial segments [0, c)
        return forest.first_range_crossing(np.zeros_like(cuts), cuts), len(cuts)
    return forest.first_crossing(model.member), len(model.sets)


def cmd_check_directed(args) -> int:
    witness, sets = _designated_crossing(load_model(args.model))
    if witness is not None:
        print(json.dumps({"directed": False, "violation": [witness.i, witness.j]}))
        return 1
    print(json.dumps({"directed": True, "sets": sets}))
    return 0


def cmd_verify_lemmas(args) -> int:
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 2
    reports = run_all(args.seed, trials=args.trials)
    if args.json:
        print(json.dumps([asdict(r) for r in reports]))
    else:
        for r in reports:
            status = "ok" if r.ok else "FAIL"
            detail = f" {r.detail}" if r.detail else ""
            print(f"{r.lemma:32s} trials={r.trials:5d} failures={r.failures:3d} {status}{detail}")
    return 0 if all(r.ok for r in reports) else 1


def cmd_growth(args) -> int:
    config = ExperimentConfig(
        formula_kind=args.formula,
        arity=args.arity,
        sizes=args.sizes,
        trials=args.trials,
        seed=args.seed,
        tol=args.tol,
        cap=args.cap,
        model_path=args.model,
        allow_duplicate_params=args.allow_duplicates,
    )
    report = run_growth(config)
    if args.out:
        write_csv(report, args.out)
    else:
        sys.stdout.write(csv_text(report))
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(
            f"# formula={args.formula} arity={args.arity} "
            f"median_exponent={report.median_exponent:.4f} ceiling={report.ceiling:.2f} "
            f"passed={report.passed} complete={report.complete}",
            file=sys.stderr,
        )
    if not report.complete:
        print(f"resource cap: {report.cap_error}", file=sys.stderr)
        return 3
    return 0 if report.passed else 1


def cmd_fullvcmin_demo(args) -> int:
    m = args.b_size
    instance = dlo_instance(3 * m)
    B = sorted(Random(f"{args.seed}/fullvcmin/{m}").sample(range(instance.carrier.size), m))
    report = incremental_count_check(instance, B)
    if args.json:
        print(json.dumps(asdict(report)))
    else:
        print(f"carrier size {report.carrier_size}, |B|={report.b_size}, "
              f"|delta0|={report.n_delta0}, |delta1|={report.n_delta1}")
        print(f"realized psi-types: {report.n_psi_types}")
        for i, s in enumerate(report.steps):
            print(f"step {i:3d}: new={s.new_entries:2d} <= dist={s.dist:2d}  {'ok' if s.ok else 'FAIL'}")
        print(f"sum dist {report.sum_dist} <= {report.sum_dist_bound}: "
              f"{'ok' if report.sum_dist_ok else 'FAIL'}")
        print(f"union of virtual spaces {report.union_size} <= {report.aggregate_bound}: "
              f"{'ok' if report.aggregate_ok else 'FAIL'}")
        print(f"realized containment: {'ok' if report.containment_ok else 'FAIL'}")
    return 0 if report.all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laminarvc",
        description="Directed set systems, convex orderings, and type-count growth experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-model", help="generate a model file")
    p.add_argument("--kind", choices=["ultrametric", "order"], required=True)
    p.add_argument("--leaves", type=int, default=16)
    p.add_argument("--branching", type=int, default=3)
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_model)

    p = sub.add_parser("check-directed", help="validate a model's designated family")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_check_directed)

    p = sub.add_parser("verify-lemmas", help="run the seeded lemma verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("growth", help="run a growth experiment and emit CSV")
    p.add_argument("--formula", choices=list(GROWTH_KINDS), required=True)
    p.add_argument("--arity", type=int, choices=[1, 2], required=True)
    p.add_argument("--sizes", type=_sizes_list, default=(8, 16, 32, 64))
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=0.15)
    p.add_argument("--cap", type=int, default=ENUM_CAP)
    p.add_argument("--model", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--allow-duplicates", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("fullvcmin-demo", help="run the built-in incremental counting demo")
    p.add_argument("--b-size", type=int, choices=[4, 8, 16, 32, 64], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fullvcmin_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"validation failure: {e}", file=sys.stderr)
        return 1
    except (DomainError, ModelFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceCapError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
