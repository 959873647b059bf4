"""Regenerate every table and figure of the paper from the command line.

Usage:
    python examples/paper_figures.py            # everything (slow-ish)
    python examples/paper_figures.py fig2       # one artefact
    python examples/paper_figures.py table2 fig4 fig5

Artefacts: fig2, fig3a, fig3b, table2, fig4, fig5, spurious, robust.

Figures are rendered as text tables / ASCII scatter plots, so no plotting
library is needed.
"""

import sys

from repro.data.loaders import load_adult, load_compas, load_german, load_meps
from repro.experiments import (
    figure3b,
    run_robustness,
    run_tradeoff,
    sweep_alpha,
    sweep_bias_fraction,
    sweep_feature_count,
    sweep_spuriousness,
    table2_row,
)
from repro.experiments.figures import ascii_scatter, render_series, render_table

# Smaller-than-paper sweep sizes keep the default run to about a minute
# on a 2-core x86_64 host; --full (the paper-scale parameters) takes
# about three and a half minutes there.
FAST = "--full" not in sys.argv


def tradeoff_datasets():
    if FAST:
        return [
            load_meps(1, seed=0, n_train=3000, n_test=1200),
            load_meps(2, seed=0, n_train=3000, n_test=1200),
            load_german(seed=0),
            load_compas(seed=0, n_train=3000, n_test=1000),
        ]
    return [load_meps(1, seed=0), load_meps(2, seed=0), load_german(seed=0),
            load_compas(seed=0)]


def fig2() -> None:
    print("=" * 72)
    print("Figure 2: accuracy vs absolute odds difference (4 datasets)")
    for dataset in tradeoff_datasets():
        result = run_tradeoff(dataset, seed=0)
        print()
        print(render_table(result.table(), title=f"-- {dataset.name} --"))
        points = {r.method: (r.abs_odds_difference, r.accuracy)
                  for r in result.reports}
        print(ascii_scatter(points))


def fig3a() -> None:
    print("=" * 72)
    print("Figure 3(a): accuracy vs abs odds difference on Adult")
    dataset = (load_adult(seed=0, n_train=6000, n_test=2000) if FAST
               else load_adult(seed=0))
    result = run_tradeoff(dataset, seed=0)
    print(render_table(result.table(), title="-- Adult --"))
    points = {r.method: (r.abs_odds_difference, r.accuracy)
              for r in result.reports}
    print(ascii_scatter(points))


def fig3b() -> None:
    print("=" * 72)
    print("Figure 3(b): RCIT running time vs conditioning-set size")
    sizes = (None if not FAST
             else {"German": 800, "MEPS": 2000, "Compas": 2000, "Adult": 5000})
    for series in figure3b(set_sizes=[1, 4, 16, 64, 128, 256], sizes=sizes):
        xs, secs = series.series()
        print(render_series(xs, {f"{series.dataset} (n={series.n_rows})":
                                 [round(s, 4) for s in secs]},
                            x_label="|Z|"))


def table2() -> None:
    print("=" * 72)
    print("Table 2: CMI and CI-test counts")
    rows = []
    datasets = [
        load_meps(1, seed=0, n_train=3000, n_test=1200),
        load_meps(2, seed=0, n_train=3000, n_test=1200),
        load_german(seed=0),
        load_compas(seed=0, n_train=3000, n_test=1000),
        load_adult(seed=0, n_train=4000, n_test=1500),
    ] if FAST else [
        load_meps(1, seed=0), load_meps(2, seed=0), load_german(seed=0),
        load_compas(seed=0), load_adult(seed=0),
    ]
    for dataset in datasets:
        rows.append(table2_row(dataset, seed=0).cells())
    print(render_table(rows))


def fig4() -> None:
    print("=" * 72)
    print("Figure 4: CI tests vs % biased variables")
    sizes = [200, 1000] if FAST else [1000, 5000]
    for n in sizes:
        sweep = sweep_bias_fraction(n, percentages=list(range(1, 11)), seed=0)
        xs, seq, grp = sweep.series("p_percent")
        print(render_series(xs, {"SeqSel": seq, "GrpSel": grp},
                            x_label="p%", title=f"-- n={n} --"))


def fig5() -> None:
    print("=" * 72)
    print("Figure 5: CI tests vs n at fixed biased count")
    ns = [500, 1000, 2000, 4000] if not FAST else [200, 400, 800, 1600]
    for k in ([100, 500] if not FAST else [20, 100]):
        sweep = sweep_feature_count(ns, n_biased=k, seed=0)
        xs, seq, grp = sweep.series("n_features")
        print(render_series(xs, {"SeqSel": seq, "GrpSel": grp},
                            x_label="n", title=f"-- {k} biased features --"))


def spurious() -> None:
    print("=" * 72)
    print("§5.3: spurious CI verdicts vs feature count (all-independent data)")
    counts = [100, 200, 500, 1000] if not FAST else [50, 100, 200]
    sweep = sweep_spuriousness(counts, n_samples=1000, seed=0)
    xs, seq, grp = sweep.series()
    print(render_series(xs, {"SeqSel spurious": seq, "GrpSel spurious": grp},
                        x_label="t"))


def robust() -> None:
    print("=" * 72)
    print("§5.4: robustness to distribution shift (German)")
    german = load_german(seed=0, n_train=2000, n_test=800)
    shift = {("age", "housing"): 4.0, ("housing", "credit_risk"): -2.0,
             ("age", "employment_duration"): 4.0,
             ("employment_duration", "credit_risk"): -2.0}
    result = run_robustness(german, shift, n_shifted_test=6000, seed=0)
    rows = [
        {"method": m,
         "odds diff (original)": round(result.original[m], 3),
         "odds diff (shifted)": round(result.shifted[m], 3),
         "degradation": round(result.degradation(m), 3)}
        for m in result.original
    ]
    print(render_table(rows))


def alpha() -> None:
    print("=" * 72)
    print("§5.2: p-value threshold sweep (German)")
    german = load_german(seed=0, n_train=2000, n_test=800)
    sweep = sweep_alpha(german, alphas=[0.01, 0.02, 0.03, 0.05], seed=0)
    print(render_table(sweep.rows()))
    print(f"accuracy range {sweep.accuracy_range:.4f}, "
          f"odds-diff range {sweep.odds_range:.4f}, "
          f"selection Jaccard {sweep.selection_jaccard():.2f}")


ARTEFACTS = {
    "fig2": fig2, "fig3a": fig3a, "fig3b": fig3b, "table2": table2,
    "fig4": fig4, "fig5": fig5, "spurious": spurious, "robust": robust,
    "alpha": alpha,
}


def main() -> None:
    requested = [a for a in sys.argv[1:] if not a.startswith("--")]
    unknown = set(requested) - set(ARTEFACTS)
    if unknown:
        raise SystemExit(f"unknown artefacts {sorted(unknown)}; "
                         f"choose from {sorted(ARTEFACTS)}")
    for name in requested or list(ARTEFACTS):
        ARTEFACTS[name]()


if __name__ == "__main__":
    main()
