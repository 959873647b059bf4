"""Advanced causal analysis: counterfactuals, do-calculus, online selection.

Three capabilities beyond the paper's core algorithms, all exercised on the
German Credit stand-in:

1. **Counterfactual fairness audit** (Kusner et al.) — for each applicant,
   would the decision change had their age group been different, holding
   everything else (exogenous noise) fixed?
2. **Do-calculus checks** — find a backdoor adjustment set and verify the
   graphical side condition behind the paper's Lemma 10 proof on the
   actual dataset graph.
3. **Online selection** — features arrive in batches (the data-integration
   reality); the selector maintains a sound running selection.

Run:  python examples/causal_analysis.py
"""

import numpy as np

from repro.causal.identification import find_backdoor_set, lemma10_condition
from repro.ci.adaptive import AdaptiveCI
from repro.core import GrpSel
from repro.core.online import OnlineSelector
from repro.data.loaders import load_german
from repro.fairness.counterfactual import counterfactual_unfairness
from repro.ml import LogisticRegression


def main() -> None:
    dataset = load_german(seed=0, n_train=3000, n_test=1000)
    problem = dataset.problem()

    # -- 1. Counterfactual fairness audit ---------------------------------
    print("1. Counterfactual fairness (flip rate under do(age)):")
    selection = GrpSel(tester=AdaptiveCI(seed=0), seed=0).select(problem)
    for label, features in {
        "GrpSel features": problem.training_features(selection.selected),
        "all features": problem.admissible + problem.candidates,
    }.items():
        model = LogisticRegression().fit(
            dataset.train.matrix(features),
            np.asarray(dataset.train[problem.target]))

        def predictor(table, feats=features, m=model):
            return m.predict(table.matrix(feats))

        flip_rate = counterfactual_unfairness(
            dataset.scm, dataset.test, predictor, "age", seed=1)
        print(f"   {label:16s} -> {flip_rate:.3f}")
    print("   (proxy-using models change their mind when age flips; the"
          " selected set barely does)\n")

    # -- 2. Do-calculus on the dataset graph -------------------------------
    print("2. Do-calculus checks on the German graph:")
    dag = dataset.scm.dag
    backdoor = find_backdoor_set(dag, "account_status", "credit_risk")
    print(f"   minimal backdoor set for account_status -> credit_risk: "
          f"{sorted(backdoor) if backdoor is not None else 'none'}")
    safe_ok = lemma10_condition(
        dag.add_node("Yp").add_edge("account_status", "Yp")
           .add_edge("savings", "Yp"),
        "Yp", ["age"], ["account_status"], ["savings"])
    print(f"   Lemma 10 condition for a savings-based predictor: {safe_ok}\n")

    # -- 3. Online selection ------------------------------------------------
    print("3. Online selection (features arriving in three batches):")
    online = OnlineSelector(tester=AdaptiveCI(seed=0))
    pool = problem.candidates
    batches = [pool[:4], pool[4:7], pool[7:]]
    for i, batch in enumerate(batches, start=1):
        state = online.observe(problem, batch)
        print(f"   after batch {i} ({batch}):")
        print(f"      selected so far: {state.selected}")
    final = online.current
    batch_run = GrpSel(tester=AdaptiveCI(seed=0), seed=0).select(problem)
    agree = set(final.selected) == set(batch_run.selected)
    print(f"   online result matches one-shot GrpSel: {agree}")


if __name__ == "__main__":
    main()
