"""Command-line interface.

Commands:

* ``python -m repro select --dataset german --algorithm grpsel``
  run fair feature selection on a bundled dataset and print the selection
  with provenance,
* ``python -m repro evaluate --dataset german``
  run the full Figure-2 method suite on one dataset and print the
  accuracy/fairness table,
* ``python -m repro suite --datasets german compas --algorithms grpsel seqsel``
  run a (dataset × selector × classifier) experiment suite over one
  shared experiment store, legs inline or in ``--jobs`` worker processes,
* ``python -m repro stream --dataset german --batches 4``
  simulate the online setting on a bundled dataset: candidate features
  arrive in batches (and rows optionally append per batch) over one
  :class:`~repro.core.online.OnlineSelector`, printing the anytime
  selection state after every batch,
* ``python -m repro lint [paths]``
  run the contract linter (:mod:`repro.lint`) over the source tree and
  exit non-zero on findings,
* ``python -m repro datasets``
  list bundled datasets and their role assignments.

``select``/``evaluate``/``stream``/``suite`` share the CI-test
configuration flags: ``--tester`` picks the backend family
(:func:`repro.ci.default_tester`), ``--subsets`` the phase-1 subset
strategy (:func:`repro.core.subset_search.strategy_by_name`), and
``--store`` a cross-run cache tree.  ``--jobs`` belongs to ``suite``
alone and sets its experiment-leg worker processes; CI-test batches
shard across processes only through ``REPRO_CI_EXECUTOR`` and
``REPRO_CI_JOBS``.  Every pool starts its workers by the interpreter's
default multiprocessing start method.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.ci import default_tester
from repro.ci.store import ExperimentStore
from repro.core.grpsel import GrpSel
from repro.core.seqsel import SeqSel
from repro.core.subset_search import strategy_by_name
from repro.data.loaders import LOADERS
from repro.experiments.figures import render_table
from repro.experiments.tradeoff import run_tradeoff

ALGORITHMS = {"seqsel": SeqSel, "grpsel": GrpSel}
TESTERS = ("adaptive", "rcit", "gtest", "chi2", "fisher-z", "kcit")
SUBSET_STRATEGIES = ("exhaustive", "full-set", "marginal+full", "greedy")
CLASSIFIER_NAMES = ("logistic", "tree", "forest", "nb")


def _add_store_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="experiment-store directory: caches CI verdicts and finished "
             "selections across runs (per-selector namespaces), so a rerun "
             "over unchanged data re-executes nothing")


def _add_ci_flags(parser: argparse.ArgumentParser,
                  default_tester_name: str = "adaptive") -> None:
    parser.add_argument(
        "--tester", choices=TESTERS, default=default_tester_name,
        help="CI-test backend family (default: %(default)s; previously "
             "only reachable through the REPRO_CI_TESTER env var)")
    parser.add_argument(
        "--subsets", choices=SUBSET_STRATEGIES, default=None,
        help="phase-1 subset-search strategy (default: the selector's, "
             "exhaustive)")


def _store_from_args(args: argparse.Namespace) -> ExperimentStore | None:
    return ExperimentStore(args.store) if args.store else None


def _tester_from_args(args: argparse.Namespace):
    # The argparse default is "adaptive", preserving select's historical
    # tester independently of the library/env default.
    return default_tester(alpha=args.alpha, seed=args.seed, name=args.tester)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Causal feature selection for algorithmic fairness "
                    "(SIGMOD 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    select = sub.add_parser("select", help="run fair feature selection")
    select.add_argument("--dataset", choices=sorted(LOADERS), required=True)
    select.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                        default="grpsel")
    select.add_argument("--alpha", type=float, default=0.01,
                        help="CI-test significance level (default 0.01)")
    select.add_argument("--seed", type=int, default=0)
    _add_ci_flags(select)
    _add_store_flag(select)

    evaluate = sub.add_parser("evaluate",
                              help="run the full method suite on one dataset")
    evaluate.add_argument("--dataset", choices=sorted(LOADERS), required=True)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--alpha", type=float, default=0.01,
                          help="CI-test significance level (default 0.01)")
    evaluate.add_argument("--n-train", type=int, default=None,
                          help="override the training-set size")
    _add_ci_flags(evaluate)
    _add_store_flag(evaluate)

    suite = sub.add_parser(
        "suite",
        help="run (dataset x selector x classifier) legs, inline or in "
             "--jobs worker processes, over one shared experiment store")
    suite.add_argument("--datasets", choices=sorted(LOADERS), nargs="+",
                       required=True, metavar="NAME",
                       help=f"datasets to sweep ({', '.join(sorted(LOADERS))})")
    suite.add_argument("--algorithms", choices=sorted(ALGORITHMS),
                       nargs="+", default=["grpsel"], metavar="ALGO",
                       help="selection algorithms to sweep "
                            "(default: grpsel)")
    suite.add_argument("--classifiers", choices=CLASSIFIER_NAMES, nargs="+",
                       default=["logistic"], metavar="CLF",
                       help="downstream classifiers to sweep "
                            "(default: logistic)")
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--alpha", type=float, default=0.01,
                       help="CI-test significance level (default 0.01)")
    suite.add_argument("--n-train", type=int, default=None,
                       help="override the training-set size per leg")
    suite.add_argument("--n-test", type=int, default=None,
                       help="override the test-set size per leg")
    suite.add_argument("--tester", choices=TESTERS, default=None,
                       help="CI-test backend family for every leg "
                            "(default: the library default / "
                            "REPRO_CI_TESTER)")
    suite.add_argument("--subsets", choices=SUBSET_STRATEGIES, default=None,
                       help="phase-1 subset-search strategy for every leg")
    suite.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="experiment-leg worker processes (default: 1, "
                            "every leg inline)")
    suite.add_argument("--store", default=None, metavar="DIR",
                       help="shared experiment-store root for all legs "
                            "(saves append; a warm rerun executes zero "
                            "CI tests)")

    stream = sub.add_parser(
        "stream",
        help="simulate the online setting: candidate features arrive in "
             "batches (rows optionally append per batch) over one "
             "OnlineSelector, printing the anytime state per batch")
    stream.add_argument("--dataset", choices=sorted(LOADERS), required=True)
    stream.add_argument("--batches", type=int, default=3, metavar="N",
                        help="number of arriving candidate batches the "
                             "pool is split into (default 3)")
    stream.add_argument("--rows-per-batch", type=int, default=None,
                        metavar="N",
                        help="drift mode: start from a row prefix and "
                             "append N rows with every batch after the "
                             "first (exercises the prefix-cached table "
                             "kernels); default: the full table throughout")
    stream.add_argument("--delta", choices=("column", "off"),
                        default="column",
                        help="delta-reuse policy gating phase-2 retries "
                             "of previously decided features (default: "
                             "column)")
    stream.add_argument("--alpha", type=float, default=0.01,
                        help="CI-test significance level (default 0.01)")
    stream.add_argument("--seed", type=int, default=0)
    _add_ci_flags(stream)
    _add_store_flag(stream)

    lint = sub.add_parser(
        "lint",
        help="run the determinism/caching contract linter over the "
             "source tree (exit 1 on findings)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint (default: the "
                           "installed repro package source)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="output format (default: text)")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="JSON baseline of accepted findings to filter "
                           "out (ratchet mode)")
    lint.add_argument("--write-baseline", default=None, metavar="FILE",
                      help="write the current findings as a baseline file "
                           "and exit 0")

    sub.add_parser("datasets", help="list bundled datasets")
    return parser


def cmd_select(args: argparse.Namespace) -> int:
    dataset = LOADERS[args.dataset](seed=args.seed)
    problem = dataset.problem()
    tester = _tester_from_args(args)
    strategy = strategy_by_name(args.subsets) if args.subsets else None
    if args.algorithm == "grpsel":
        selector = GrpSel(tester=tester, subset_strategy=strategy,
                          seed=args.seed)
    else:
        selector = SeqSel(tester=tester, subset_strategy=strategy)
    store = _store_from_args(args)
    if store is not None:
        with store:
            result = store.cached_select(selector, problem)
    else:
        result = selector.select(problem)
    print(result.summary())
    rows = [{"feature": f, "verdict": "selected", "reason": result.reasons[f].value}
            for f in result.selected]
    rows += [{"feature": f, "verdict": "rejected", "reason": result.reasons[f].value}
             for f in result.rejected]
    print(render_table(rows))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    kwargs = {"seed": args.seed}
    if args.n_train is not None:
        kwargs["n_train"] = args.n_train
    dataset = LOADERS[args.dataset](**kwargs)
    result = run_tradeoff(dataset, seed=args.seed, alpha=args.alpha,
                          store=_store_from_args(args),
                          tester=args.tester,
                          subsets=args.subsets)
    print(render_table(result.table(),
                       title=f"Method suite on {dataset.name}"))
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    # Imported here: the driver pulls in the experiment harness, which the
    # lighter commands don't need at parse time.
    from repro.experiments.driver import expand_legs, run_suite

    legs = expand_legs(args.datasets, algorithms=args.algorithms,
                       classifiers=args.classifiers, seed=args.seed,
                       alpha=args.alpha, tester=args.tester,
                       subsets=args.subsets, n_train=args.n_train,
                       n_test=args.n_test)
    result = run_suite(legs, store=args.store, jobs=args.jobs)
    print(render_table(
        result.table(),
        title=f"Suite: {len(result.outcomes)} legs, "
              f"{result.jobs} worker(s), {result.seconds:.1f}s"))
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    from repro.core.online import OnlineSelector
    from repro.core.problem import FairFeatureSelectionProblem

    if args.batches < 1:
        raise SystemExit(f"--batches must be >= 1, got {args.batches}")
    dataset = LOADERS[args.dataset](seed=args.seed)
    problem = dataset.problem()
    pool = list(problem.candidates)
    n_batches = min(args.batches, len(pool))
    per = -(-len(pool) // n_batches)
    feature_batches = [pool[i * per:(i + 1) * per]
                       for i in range(n_batches)]

    full = problem.table
    grow = args.rows_per_batch
    if grow is not None:
        if grow < 1:
            raise SystemExit(
                f"--rows-per-batch must be >= 1, got {grow}")
        base = full.n_rows - grow * (n_batches - 1)
        if base < 1:
            raise SystemExit(
                f"--rows-per-batch {grow} x {n_batches} batches needs "
                f"more than the table's {full.n_rows} rows")
        table = full.head(base)
    else:
        table = full

    def arriving():
        nonlocal table
        seen: list[str] = []
        for i, batch in enumerate(feature_batches):
            if grow is not None and i:
                lo = table.n_rows
                table = table.with_appended_rows(
                    {name: full[name][lo:lo + grow]
                     for name in full.columns})
            seen.extend(batch)
            yield (FairFeatureSelectionProblem(
                table=table, sensitive=list(problem.sensitive),
                admissible=list(problem.admissible), candidates=list(seen),
                target=problem.target, name=problem.name), batch)

    store = _store_from_args(args)
    selector = OnlineSelector(
        tester=_tester_from_args(args),
        subset_strategy=(strategy_by_name(args.subsets)
                         if args.subsets else None),
        cache=store.ci_cache("online") if store is not None else False,
        delta=args.delta)

    rows = []
    for i, result in enumerate(selector.stream(arriving())):
        rows.append({
            "batch": i + 1,
            "arrived": len(feature_batches[i]),
            "rows": table.n_rows,
            "C1": len(result.c1), "C2": len(result.c2),
            "rejected": len(result.rejected),
            "n_ci_tests": result.n_ci_tests,
            "cache_hits": result.cache_hits,
            "seconds": f"{result.seconds:.3f}",
        })
    if store is not None:
        store.save()
    print(render_table(
        rows, title=f"Online stream on {dataset.name}: {n_batches} "
                    f"batches, delta={args.delta}"))
    print(selector.current.summary())
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import default_target, lint_paths
    from repro.lint import report

    run = lint_paths(args.paths or [default_target()])
    if args.baseline:
        run = type(run)(
            findings=tuple(report.filter_baseline(
                run.findings, report.load_baseline(args.baseline))),
            n_files=run.n_files)
    if args.write_baseline:
        report.write_baseline(args.write_baseline, run.findings)
        print(f"wrote {len(run.findings)} baseline entr"
              f"{'y' if len(run.findings) == 1 else 'ies'} to "
              f"{args.write_baseline}")
        return 0
    if args.format == "json":
        print(report.render_json(run))
    else:
        print(report.render_text(run))
    return 0 if run.ok else 1


def cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name, loader in sorted(LOADERS.items()):
        dataset = loader(seed=0, n_train=50, n_test=10)
        rows.append({
            "name": name,
            "sensitive": ", ".join(dataset.sensitive),
            "admissible": ", ".join(dataset.admissible),
            "candidates": len(dataset.candidates),
            "target": dataset.target,
        })
    print(render_table(rows, title="Bundled datasets (SCM-backed stand-ins)"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"select": cmd_select, "evaluate": cmd_evaluate,
                "suite": cmd_suite, "stream": cmd_stream,
                "lint": cmd_lint, "datasets": cmd_datasets}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
