"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields

from .errors import DataError, NumericalError
from .evaluation import evaluate
from .factorization import VARIANTS, SolverConfig, init_factors, solve
from .graph import MODES, build_knn_affinity
from .harness import NOISES, ExperimentSpec, check_report_dir, emit_report, make_synthetic, run_experiment, write_trace
from .matrix import load_labels, read_matrix, save_csv, save_labels


# The factorize flags share SolverConfig's defaults (variant and k have
# none, so their flags are required); the knn flags share ExperimentSpec's.
_SOLVER_DEFAULTS = {f.name: f.default for f in fields(SolverConfig) if f.default is not MISSING}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; this tool reserves 2 for data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mccgr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("factorize", help="factor a data matrix with one variant")
    p.add_argument("--input", required=True, help="features x samples CSV")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--k", required=True, type=int, help="factorization rank")
    p.add_argument("--alpha", type=float, default=_SOLVER_DEFAULTS["alpha"], help="graph penalty weight")
    p.add_argument("--theta", type=float, default=_SOLVER_DEFAULTS["theta"], help="kernel width scale, read only by mcc and mccgr")
    p.add_argument("--knn", type=int, default=ExperimentSpec.knn, help="neighbors for the affinity graph")
    p.add_argument("--knn-mode", choices=list(MODES), default=ExperimentSpec.knn_mode)
    p.add_argument("--max-iter", type=int, default=_SOLVER_DEFAULTS["max_iter"])
    p.add_argument("--tol", type=float, default=_SOLVER_DEFAULTS["tol"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-h", required=True, help="basis CSV destination")
    p.add_argument("--out-w", required=True, help="coefficients CSV destination")
    p.add_argument("--trace", default=None, help="objective trace CSV destination")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("eval", help="cluster coefficient columns against labels")
    p.add_argument("--w", required=True, help="coefficients CSV (k x samples)")
    p.add_argument("--labels", required=True, help="single-column label CSV")
    p.add_argument("--k", required=True, type=int, help="number of clusters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="JSON report destination")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("graph", help="emit a k-NN affinity matrix")
    p.add_argument("--input", required=True, help="features x samples CSV")
    p.add_argument("--knn", required=True, type=int)
    p.add_argument("--knn-mode", choices=list(MODES), default=ExperimentSpec.knn_mode)
    p.add_argument("--out", required=True, help="affinity CSV destination")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("experiment", help="run a spec-driven experiment grid")
    p.add_argument("--spec", required=True, help="experiment spec JSON")
    p.add_argument("--out-dir", required=True, help="report directory")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--classes", required=True, type=int)
    p.add_argument("--per-class", required=True, type=int)
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--noise", choices=list(NOISES), default=NOISES[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="features CSV destination")
    p.add_argument("--out-labels", required=True, help="labels CSV destination")
    p.set_defaults(func=_cmd_synth)

    return parser


def _cmd_factorize(args) -> int:
    x = read_matrix(args.input)
    cfg = SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)})
    # Checked for every variant, not only those that build a graph.
    if args.knn < 1:
        raise DataError(f"knn must be >= 1, got {args.knn}")
    graph = None
    if cfg.graph_weight > 0:
        graph = build_knn_affinity(x, args.knn, args.knn_mode)
    h0, w0 = init_factors(x, cfg.k, args.seed)
    result = solve(x, graph, cfg, h0, w0)
    save_csv(result.h, args.out_h)
    save_csv(result.w, args.out_w)
    if args.trace:
        write_trace(result.trace, args.trace)
    status = "converged" if result.converged else "hit max-iter"
    print(
        f"{cfg.variant}: {status} after {result.iterations_run} iterations, "
        f"objective {result.trace[-1]:.6g}"
    )
    return 0


def _cmd_eval(args) -> int:
    w = read_matrix(args.w)
    labels = load_labels(args.labels)
    report = evaluate(w, labels, args.k, seed=args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report.as_dict(), fh, indent=2)
        fh.write("\n")
    print(f"accuracy {report.accuracy:.4f}  nmi {report.nmi:.4f}")
    return 0


def _cmd_graph(args) -> int:
    graph = build_knn_affinity(read_matrix(args.input), args.knn, args.knn_mode)
    save_csv(graph.affinity, args.out)
    edges = graph.affinity.nnz // 2
    print(f"{graph.n} samples, {edges} edges ({args.knn_mode})")
    return 0


def _cmd_experiment(args) -> int:
    spec = ExperimentSpec.from_json(args.spec)
    # A directory that cannot take the report fails before the runs.
    check_report_dir(args.out_dir)
    aggregate, records = run_experiment(spec)
    emit_report(aggregate, records, args.out_dir)
    for row in aggregate.rows:
        print(
            f"k={row.k} {row.variant}: accuracy {row.mean_accuracy:.4f} "
            f"(+/- {row.std_accuracy:.4f}), nmi {row.mean_nmi:.4f}"
        )
    print(f"report written to {args.out_dir}")
    if aggregate.failed:
        message = f"{aggregate.failed} of the runs failed; see the status column of runs.csv"
        print(f"mccgr: numerical failure: {message}", file=sys.stderr)
        return 3
    return 0


def _cmd_synth(args) -> int:
    x, labels = make_synthetic(
        classes=args.classes,
        per_class=args.per_class,
        dim=args.dim,
        noise=args.noise,
        seed=args.seed,
    )
    save_csv(x, args.out)
    save_labels(labels, args.out_labels)
    print(f"wrote {x.shape[0]}x{x.shape[1]} matrix and {labels.shape[0]} labels")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"mccgr: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"mccgr: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
