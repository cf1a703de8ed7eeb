"""Ridge-regression surrogate scorer for the GA (NeuroScalar-style).

The analytical :class:`~repro.dvfs.scoring.StrategyScorer` is already fast
(a few gathers per population), but the multi-fidelity GA wants to score a
much larger exploratory population per generation and reserve the exact
model for a top-k re-rank.  Following NeuroScalar's recipe — train a cheap
learned predictor on engine outputs, keep the detailed model as the oracle
— this module fits a closed-form ridge regression (NumPy ``lstsq``, no new
dependencies) from the same stacked per-stage frequency tables the grouped
scorer builds, in one shot.

The trick that keeps inference at *one gather per population* is the
feature choice.  The smooth part of the Eq. (17) score is regressed on
four aggregates that are each linear in the one-hot (stage, frequency)
assignment::

    T  = sum_j time[j, g_j]          total predicted time
    Ea = sum_j aicore_energy[j, g_j] total AICore energy
    Es = sum_j soc_energy[j, g_j]    total SoC energy
    VT = sum_j volts[g_j] * time[j, g_j]   voltage-time integral

Any linear model ``b0 + b . [T, Ea, Es, VT]`` therefore collapses into a
single per-(stage, frequency) weight table ``W[j, f]`` plus a bias, so a
population is scored by gathering ``W`` exactly like the exact scorer
gathers its time table.  The discontinuous 2x feasibility bonus is NOT
regressed: it is re-applied exactly from the exact time table, so the
surrogate is only ever approximate on the smooth part.

A holdout R^2 gate (against oracle scores) decides whether the fit is
trustworthy; below the floor the caller falls back to the exact GA.  The
returned strategy's score is *always* produced by the oracle — the
surrogate only shapes which candidates get oracle attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dvfs.scoring import StrategyScorer
from repro.errors import StrategyError


@dataclass(frozen=True)
class SurrogateConfig:
    """Knobs for the surrogate fit and the multi-fidelity GA around it."""

    #: Master switch; off by default so existing configs are unchanged.
    enabled: bool = False
    #: Oracle-labelled training rows (includes one constant-frequency row
    #: per grid point for coverage of the feasibility boundary).
    train_size: int = 160
    #: Oracle-labelled holdout rows for the R^2 quality gate.
    holdout_size: int = 64
    #: Ridge penalty on the (standardised) feature weights.
    ridge_lambda: float = 1e-6
    #: Minimum holdout R^2 (on full Eq. 17 scores) to trust the fit;
    #: below this the search falls back to the exact GA.
    r2_floor: float = 0.9
    #: Inner (surrogate-scored) population is this multiple of
    #: ``GaConfig.population_size``.
    explore_multiplier: int = 2
    #: Individuals per generation re-scored by the analytical oracle.
    oracle_top_k: int = 4

    def __post_init__(self) -> None:
        if self.train_size < 8:
            raise StrategyError(f"train_size must be >= 8: {self.train_size}")
        if self.holdout_size < 4:
            raise StrategyError(
                f"holdout_size must be >= 4: {self.holdout_size}"
            )
        if self.ridge_lambda < 0:
            raise StrategyError(
                f"ridge_lambda must be >= 0: {self.ridge_lambda}"
            )
        if self.explore_multiplier < 1:
            raise StrategyError(
                f"explore_multiplier must be >= 1: {self.explore_multiplier}"
            )
        if self.oracle_top_k < 1:
            raise StrategyError(
                f"oracle_top_k must be >= 1: {self.oracle_top_k}"
            )


@dataclass(frozen=True)
class SurrogateModel:
    """A fitted surrogate: two flat gathers score a whole population.

    ``weights`` is the learned per-(stage, frequency) score table
    ``W[j, f]``; ``time_us`` is the *exact* stage time table, used to
    re-apply the feasibility doubling exactly.  Both are pre-ravelled so
    scoring is two 1-D ``take`` gathers plus row sums — measurably faster
    than a single 3-D fancy-index on the stacked table.
    """

    weights: np.ndarray = field(repr=False)
    time_us: np.ndarray = field(repr=False)
    bias: float
    time_lower_bound_us: float
    holdout_r2: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_weights_flat", np.ascontiguousarray(self.weights.ravel())
        )
        object.__setattr__(
            self, "_time_flat", np.ascontiguousarray(self.time_us.ravel())
        )
        object.__setattr__(
            self,
            "_offsets",
            np.arange(self.weights.shape[0]) * self.weights.shape[1],
        )

    @property
    def stage_count(self) -> int:
        """Number of genes per individual."""
        return self.weights.shape[0]

    def score(self, population: np.ndarray) -> np.ndarray:
        """Approximate Eq. (17) scores (exact feasibility doubling)."""
        flat = np.asarray(population) + self._offsets
        base = self._weights_flat.take(flat).sum(axis=1) + self.bias
        meets = (
            self._time_flat.take(flat).sum(axis=1)
            <= self.time_lower_bound_us
        )
        return np.where(meets, 2.0 * base, base)


def _design_matrix(
    tables, population: np.ndarray
) -> np.ndarray:
    """The (rows, 4) aggregate features [T, Ea, Es, VT] for a population."""
    rows = np.arange(population.shape[1])[None, :]
    time = tables.time_us[rows, population]
    features = np.empty((population.shape[0], 4))
    features[:, 0] = time.sum(axis=1)
    features[:, 1] = tables.aicore_energy[rows, population].sum(axis=1)
    features[:, 2] = tables.soc_energy[rows, population].sum(axis=1)
    features[:, 3] = (tables.volts[population] * time).sum(axis=1)
    return features


def fit_surrogate(
    scorer: StrategyScorer,
    config: SurrogateConfig,
    rng: np.random.Generator,
) -> tuple[SurrogateModel | None, int]:
    """Fit the ridge surrogate; returns ``(model, oracle_evaluations)``.

    ``model`` is ``None`` when the holdout R^2 gate fails (the caller then
    runs the exact GA).  ``oracle_evaluations`` counts the labelled rows —
    they are real :meth:`StrategyScorer.score` work either way.
    """
    n_stages = scorer.stage_count
    n_freqs = scorer.frequency_count
    n_rows = config.train_size + config.holdout_size
    population = rng.integers(0, n_freqs, size=(n_rows, n_stages))
    # Constant-frequency rows straddle the feasibility boundary and pin
    # the per-frequency extremes of every aggregate feature.
    for f in range(min(n_freqs, config.train_size)):
        population[f, :] = f

    tables = scorer.stage_tables()
    evaluation = scorer.evaluate(population)
    y_base = scorer.base_scores(evaluation)
    y_full = scorer.score_evaluation(evaluation)
    features = _design_matrix(tables, population)

    train = slice(0, config.train_size)
    hold = slice(config.train_size, n_rows)

    # Standardised ridge via lstsq on the augmented system: the intercept
    # column is unpenalised, the four feature columns are shrunk by
    # sqrt(lambda) rows.
    mean = features[train].mean(axis=0)
    std = features[train].std(axis=0)
    std = np.where(std > 0, std, 1.0)
    z_train = (features[train] - mean) / std
    n_feat = features.shape[1]
    top = np.hstack([z_train, np.ones((config.train_size, 1))])
    bottom = np.hstack(
        [np.sqrt(config.ridge_lambda) * np.eye(n_feat),
         np.zeros((n_feat, 1))]
    )
    system = np.vstack([top, bottom])
    target = np.concatenate([y_base[train], np.zeros(n_feat)])
    beta_scaled, *_ = np.linalg.lstsq(system, target, rcond=None)
    beta = beta_scaled[:n_feat] / std
    bias = float(beta_scaled[n_feat] - (beta * mean).sum())

    # Collapse the linear model into the per-(stage, frequency) weight
    # table: each aggregate feature is a sum of per-stage gene-indexed
    # entries, so the weighted sum of features is itself one table gather.
    weights = (
        beta[0] * tables.time_us
        + beta[1] * tables.aicore_energy
        + beta[2] * tables.soc_energy
        + beta[3] * (tables.volts[None, :] * tables.time_us)
    )

    # Holdout predictions straight from the feature matrix (equivalent to
    # a model.score call, without constructing a throwaway model).
    base = features[hold] @ beta + bias
    meets = features[hold][:, 0] <= scorer.time_lower_bound_us
    predicted = np.where(meets, 2.0 * base, base)
    actual = y_full[hold]
    ss_res = float(((actual - predicted) ** 2).sum())
    ss_tot = float(((actual - actual.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    if not np.isfinite(r2) or r2 < config.r2_floor:
        return None, n_rows
    return (
        SurrogateModel(
            weights=weights,
            time_us=tables.time_us,
            bias=bias,
            time_lower_bound_us=scorer.time_lower_bound_us,
            holdout_r2=r2,
        ),
        n_rows,
    )
