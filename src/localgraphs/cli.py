"""Command-line interface.

One binary, eight subcommands; every randomized subcommand requires an
explicit seed so identical invocations produce identical output.  Exit codes:
0 success, 1 validation or usage error, 2 infeasible instance or exhausted
rejection sampling.
"""
from __future__ import annotations

import argparse
import dataclasses
import random
import sys

from .colored import estimate_alpha_h, read_cds, sample_cm
from .enumeration import enumerate_graphs, enumerate_marked
from .errors import AttemptsExhausted, Infeasible, LocalGraphsError
from .graphs import DegreeSequence, MarkAlphabets, read_graph, write_graph
from .lp_distance import levy_prokhorov
from .marks import CountVectors, fold_leq
from .measures import read_measure
from .rates import (
    rate_I_dQ,
    rate_lambda,
    measure_degree_stats,
    read_rate_inputs,
    s_vector,
    shannon_entropy,
)
from .samplers import (
    read_sampler_config,
    sample_iid_marked,
    sample_uniform_graph,
    sample_uniform_marked,
)
from .surgery import DEFAULT_SURGERY_ATTEMPTS, modify_graph
from .transport import (
    change_bound,
    changed_columns,
    read_matrix,
    read_targets,
    transport_general,
    write_matrix,
)
from .verify import SUITES, format_result, run_suites


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def _parse_degrees(text: str) -> DegreeSequence:
    return DegreeSequence(tuple(int(x) for x in text.split(",")))


def _parse_counts(option: str, text: str) -> dict[str, int]:
    """``key:count,...`` given to ``option``; a key given twice is an error,
    not a silent overwrite, and an error names the option and the item."""
    out = {}
    for item in text.split(","):
        k, _, v = item.partition(":")
        if k in out:
            raise LocalGraphsError(f"{k} is given twice")
        try:
            out[k] = int(v)
        except ValueError:
            raise LocalGraphsError(f"{option} item {item!r} needs a count (key:count)") from None
    return out


def _parse_count_vectors(args) -> CountVectors:
    ab = MarkAlphabets(tuple(args.theta.split(",")), tuple(args.xi.split(",")))
    # b.a names the same unordered pair as a.b, so it may be given once
    pairs = {}
    for k, c in _parse_counts("--m", args.m).items():
        x, _, xp = k.partition(".")
        pairs[(x, xp)] = c
    both = [f"{x}.{xp}" for (x, xp) in pairs if x < xp and (xp, x) in pairs]
    if both:
        raise LocalGraphsError(f"{', '.join(both)} is given in both orders")
    return CountVectors(ab, _parse_counts("--u", args.u), fold_leq(pairs, ab.xi))


def _add_mark_options(p):
    p.add_argument("--theta", help="comma-separated vertex mark symbols")
    p.add_argument("--xi", help="comma-separated edge mark symbols")
    p.add_argument("--u", help="vertex mark counts, e.g. s:2,t:1")
    p.add_argument("--m", help="edge mark pair counts, e.g. a.a:2,a.b:1")


def _marks_requested(args) -> bool:
    given = [args.theta, args.xi, args.u, args.m]
    if any(given) and not all(given):
        raise LocalGraphsError("--theta, --xi, --u, --m must be given together")
    return all(given)


def cmd_sample(args) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = read_sampler_config(fh.read())
        rng = random.Random(cfg.seed)
        for _ in range(cfg.trials):
            sys.stdout.write(write_graph(sample_iid_marked(cfg.ell, cfg.params, rng)))
        return 0
    if args.degrees is None or args.seed is None:
        raise LocalGraphsError("--degrees and --seed are required without --config")
    if args.count < 1:
        raise LocalGraphsError("count must be >= 1")
    rng = random.Random(args.seed)
    ell = _parse_degrees(args.degrees)
    for _ in range(args.count):
        if _marks_requested(args):
            g = sample_uniform_marked(ell, _parse_count_vectors(args), rng)
        else:
            g = sample_uniform_graph(ell, rng)
        sys.stdout.write(write_graph(g))
    return 0


def cmd_enumerate(args) -> int:
    ell = _parse_degrees(args.degrees)
    if _marks_requested(args):
        result = enumerate_marked(ell, _parse_count_vectors(args), cap=args.cap)
    else:
        result = enumerate_graphs(ell, cap=args.cap)
    if args.members:
        count = 0
        for g in result:
            sys.stdout.write(write_graph(g))
            count += 1
        print(f"count {count}")
    else:
        print(f"count {result.count}")
    return 0


def cmd_distance(args) -> int:
    with open(args.left) as fh:
        mu = read_measure(fh.read())
    with open(args.right) as fh:
        nu = read_measure(fh.read())
    d = levy_prokhorov(mu, nu)
    print(f"{d.numerator}/{d.denominator}")
    return 0


def cmd_entropy(args) -> int:
    with open(args.inputs) as fh:
        data = read_rate_inputs(fh)
    h_q = shannon_entropy(data["Q"])
    s_d = s_vector(data["dvec"])
    print(f"H_Q={h_q!r}")
    print(f"s_d={s_d!r}")
    print(f"I_dQ={rate_I_dQ(data['sigma'], data['dvec'], data['Q'])!r}")
    if args.measure:
        with open(args.measure) as fh:
            mu = read_measure(fh.read())
        stats = measure_degree_stats(mu)
        lam = rate_lambda(
            data["P"],
            data["vartheta"],
            data["chi"],
            data["dvec"],
            data["sigma"],
            data["j1"],
            stats,
        )
        print(f"lambda={lam!r}")
    return 0


def cmd_transport(args) -> int:
    with open(args.matrix) as fh:
        A = read_matrix(fh)
    with open(args.targets) as fh:
        beta = read_targets(fh)
    out = transport_general(A, beta)
    if args.out:
        with open(args.out, "w") as fh:
            write_matrix(out, fh)
    else:
        write_matrix(out, sys.stdout)
    print(f"changed_columns={changed_columns(A, out)}")
    print(f"change_bound={change_bound(A, beta)}")
    return 0


def cmd_surgery(args) -> int:
    with open(args.graph) as fh:
        gamma = read_graph(fh.read())
    ell = _parse_degrees(args.degrees)
    rng = random.Random(args.seed)
    rebuilt, report = modify_graph(gamma, ell, args.k, rng, args.max_attempts)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(write_graph(rebuilt))
    else:
        sys.stdout.write(write_graph(rebuilt))
    for f in dataclasses.fields(report):
        print(f"{f.name}={getattr(report, f.name)}")
    return 0


def cmd_cm(args) -> int:
    with open(args.cds) as fh:
        D = read_cds(fh.read())
    rng = random.Random(args.seed)
    if args.trials is not None:
        est = estimate_alpha_h(D, args.girth, args.trials, rng)
        print(f"estimate={est.estimate!r}")
        print(f"ci_low={est.low!r}")
        print(f"ci_high={est.high!r}")
        print(f"successes={est.successes}")
        print(f"trials={est.trials}")
        return 0
    g = sample_cm(D, rng)
    for c in sorted(g.omega):
        for (u, v), k in sorted(g.omega[c].items()):
            if k:
                print(f"edge {u + 1} {v + 1} {c[0]},{c[1]} {k}")
    return 0


def cmd_verify(args) -> int:
    if args.suite:
        by_name = {name: num for num, (name, _, _) in SUITES.items()}
        if args.suite not in by_name:
            raise LocalGraphsError(
                f"unknown suite {args.suite!r}; choose from {sorted(by_name)}"
            )
        numbers = [by_name[args.suite]]
    elif args.criterion:
        for num in args.criterion:
            if num not in SUITES:
                raise LocalGraphsError(
                    f"unknown criterion {num}; choose from {min(SUITES)}-{max(SUITES)}"
                )
        numbers = args.criterion
    else:
        numbers = None
    results = run_suites(numbers)
    for r in results:
        print(format_result(r))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="localgraphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample graphs with given degrees")
    p.add_argument("--degrees", help="comma-separated degree sequence")
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--config", help="key=value config for the marked model")
    _add_mark_options(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("enumerate", help="enumerate graph classes exactly")
    p.add_argument("--degrees", required=True)
    p.add_argument("--cap", type=int, default=8)
    p.add_argument("--members", action="store_true", help="stream every member")
    _add_mark_options(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("distance", help="exact distance between two measure files")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("entropy", help="rate-function values from an inputs file")
    p.add_argument("--inputs", required=True)
    p.add_argument("--measure", help="optional measure file for the full rate")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("transport", help="retarget a degree matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("surgery", help="rebuild a graph on a new degree sequence")
    p.add_argument("--graph", required=True)
    p.add_argument("--degrees", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-attempts", type=int, default=DEFAULT_SURGERY_ATTEMPTS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("cm", help="colored configuration model sampling")
    p.add_argument("--cds", required=True, help="colored degree sequence file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, help="estimate the girth filter rate instead")
    p.add_argument("--girth", type=int, default=3)
    p.set_defaults(func=cmd_cm)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", help="suite name, e.g. counting")
    p.add_argument(
        "--criterion", type=int, action="append", help="criterion number (repeatable)"
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return exc.code if isinstance(exc.code, int) else 1
    except (Infeasible, AttemptsExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LocalGraphsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
