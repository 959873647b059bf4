"""Group fairness metrics.

The paper's headline evaluation metric is the **absolute odds difference**:
the mean of |ΔFPR| and |ΔTPR| between the privileged and unprivileged
groups.  Demographic parity and equal-opportunity differences are included
for completeness (the paper reports "various metrics of fairness").
"""

from __future__ import annotations

import numpy as np

from repro.ml.metrics import confusion_counts


def _group_masks(sensitive: np.ndarray, privileged=1) -> tuple[np.ndarray, np.ndarray]:
    sensitive = np.asarray(sensitive)
    priv = sensitive == privileged
    if priv.all() or (~priv).any() is False:
        pass
    return priv, ~priv


def absolute_odds_difference(y_true: np.ndarray, y_pred: np.ndarray,
                             sensitive: np.ndarray, privileged=1,
                             positive=1) -> float:
    """Mean of |FPR gap| and |TPR gap| across sensitive groups.

    Returns 0 when a group is empty (no evidence of disparity), which keeps
    sweeps robust on small test sets.
    """
    priv, unpriv = _group_masks(sensitive, privileged)
    if priv.sum() == 0 or unpriv.sum() == 0:
        return 0.0
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    cm_p = confusion_counts(y_true[priv], y_pred[priv], positive=positive)
    cm_u = confusion_counts(y_true[unpriv], y_pred[unpriv], positive=positive)
    return 0.5 * (abs(cm_p.fpr - cm_u.fpr) + abs(cm_p.tpr - cm_u.tpr))


def demographic_parity_difference(y_pred: np.ndarray, sensitive: np.ndarray,
                                  privileged=1, positive=1) -> float:
    """|P(Y'=1 | priv) - P(Y'=1 | unpriv)|."""
    priv, unpriv = _group_masks(sensitive, privileged)
    if priv.sum() == 0 or unpriv.sum() == 0:
        return 0.0
    y_pred = np.asarray(y_pred)
    rate_p = float(np.mean(y_pred[priv] == positive))
    rate_u = float(np.mean(y_pred[unpriv] == positive))
    return abs(rate_p - rate_u)


def equal_opportunity_difference(y_true: np.ndarray, y_pred: np.ndarray,
                                 sensitive: np.ndarray, privileged=1,
                                 positive=1) -> float:
    """|TPR gap| between groups."""
    priv, unpriv = _group_masks(sensitive, privileged)
    if priv.sum() == 0 or unpriv.sum() == 0:
        return 0.0
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    cm_p = confusion_counts(y_true[priv], y_pred[priv], positive=positive)
    cm_u = confusion_counts(y_true[unpriv], y_pred[unpriv], positive=positive)
    return abs(cm_p.tpr - cm_u.tpr)
