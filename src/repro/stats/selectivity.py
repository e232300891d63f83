"""Selectivity estimation for predicates (Sections 5.1.3 and 5.2).

Estimates the fraction of rows satisfying a predicate, using column
statistics and histograms when available and falling back to the
System-R "ad hoc constants" of [55] when not.  Conjunctions multiply
selectivities under the independence assumption -- the error source the
paper calls out -- with an optional DB2-style mode that uses only the
most selective conjunct ([17]).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.expr.expressions import (
    BoolExpr,
    BoolOp,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    InList,
    IsNull,
    Literal,
    NotExpr,
    Param,
    UdfCall,
)
from repro.stats.summaries import ColumnStats, TableStats

if TYPE_CHECKING:
    from repro.stats.feedback import CardinalityFeedback

# The System-R fallback constants [55].
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_JOIN_SELECTIVITY = 0.1
DEFAULT_GENERIC_SELECTIVITY = 0.25

# Multiplicative uncertainty factors by estimate provenance, for the
# risk-aware selection knob.  A selectivity estimated as ``s`` with
# factor ``u`` is credible within ``[s / u, s * u]``.  Histogram-backed
# estimates are tight, distinct-count arithmetic is looser, and the
# System-R ad-hoc constants say almost nothing.  Conjunctions multiply
# factors -- estimation error compounds through ANDs and joins
# (Ioannidis & Christodoulakis) -- capped so a long conjunction cannot
# drive worst-case costs to meaningless infinities.
UNCERTAINTY_HISTOGRAM = 2.0
UNCERTAINTY_DISTINCT = 3.0
UNCERTAINTY_FALLBACK = 8.0
UNCERTAINTY_SAME_TABLE = 6.0
UNCERTAINTY_UDF = 4.0
UNCERTAINTY_CAP = 256.0


class SelectivityEstimator:
    """Predicate selectivity estimation over a set of aliased tables.

    Args:
        stats_by_alias: table statistics keyed by the alias used in the
            query (several aliases may share one underlying table).
        independence: if True (default), AND multiplies conjunct
            selectivities; if False, only the most selective conjunct is
            used (the conservative mode of [17]).
        damping: exponent in (0, 1] applied to every estimated
            selectivity.  Values below 1 inflate selectivities toward 1
            (``s ** 0.5 >= s`` for s in [0, 1]), producing deliberately
            conservative -- larger -- cardinality estimates.  Used when
            re-optimizing a plan that failed at runtime: a plan chosen
            under pessimistic cardinalities is robust to the estimation
            errors that likely sank the original.
        feedback: optional :class:`~repro.stats.feedback.CardinalityFeedback`
            store of runtime-observed selectivities; every estimated
            predicate is corrected by its entry (if any) before damping.
    """

    def __init__(
        self,
        stats_by_alias: Dict[str, TableStats],
        independence: bool = True,
        damping: float = 1.0,
        feedback: Optional["CardinalityFeedback"] = None,
    ) -> None:
        self._stats = dict(stats_by_alias)
        self.independence = independence
        self.damping = damping
        self.feedback = feedback
        # Alias -> table name, so fingerprints match across alias spellings.
        self._alias_to_table = {
            alias: stats.table for alias, stats in self._stats.items()
        }
        self._fp_cache: Dict[Expr, Optional[str]] = {}

    # ------------------------------------------------------------------
    # Column statistics lookup
    # ------------------------------------------------------------------
    def column_stats(self, ref: ColumnRef) -> Optional[ColumnStats]:
        """Stats for an aliased column, or None when not collected."""
        table_stats = self._stats.get(ref.table)
        if table_stats is None:
            return None
        return table_stats.column(ref.column)

    def distinct_count(self, ref: ColumnRef) -> Optional[float]:
        """Distinct-value count for a column when known."""
        stats = self.column_stats(ref)
        if stats is None or stats.distinct_count <= 0:
            return None
        return stats.distinct_count

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def selectivity(self, predicate: Optional[Expr]) -> float:
        """Estimated fraction of rows satisfying the predicate (in [0, 1])."""
        if predicate is None:
            return 1.0
        result = max(0.0, min(1.0, self._estimate(predicate)))
        if self.damping != 1.0:
            result = result ** self.damping
        return result

    def predicate_fingerprint(self, predicate: Optional[Expr]) -> Optional[str]:
        """The feedback fingerprint of a predicate under this alias map.

        Plan builders stamp this onto physical operators so the runtime
        harvest attributes observed row counts to the same key the
        estimator consults.
        """
        if predicate is None:
            return None
        if predicate not in self._fp_cache:
            from repro.stats.feedback import fingerprint

            self._fp_cache[predicate] = fingerprint(
                predicate, self._alias_to_table
            )
        return self._fp_cache[predicate]

    def _estimate(self, predicate: Expr) -> float:
        """Model estimate for one predicate node, corrected by feedback."""
        model = self._model(predicate)
        if self.feedback is None:
            return model
        return self.feedback.adjusted(
            self.predicate_fingerprint(predicate), model
        )

    # ------------------------------------------------------------------
    # Uncertainty (risk-aware selection)
    # ------------------------------------------------------------------
    def uncertainty(self, predicate: Optional[Expr]) -> float:
        """Multiplicative error factor (>= 1) of ``selectivity(predicate)``.

        Derived from the provenance of each estimate (histogram vs.
        distinct count vs. ad-hoc constant), compounded across AND
        conjuncts, and shrunk by feedback confidence: a predicate whose
        selectivity was *observed* at runtime is nearly certain however
        crude the model behind it.
        """
        if predicate is None:
            return 1.0
        return max(1.0, min(UNCERTAINTY_CAP, self._uncertainty(predicate)))

    def selectivity_interval(
        self, predicate: Optional[Expr]
    ) -> "tuple[float, float, float]":
        """``(low, estimate, high)`` selectivity bounds for a predicate."""
        estimate = self.selectivity(predicate)
        factor = self.uncertainty(predicate)
        return (
            max(0.0, estimate / factor),
            estimate,
            min(1.0, estimate * factor),
        )

    def _uncertainty(self, predicate: Expr) -> float:
        factor = self._uncertainty_model(predicate)
        if self.feedback is not None:
            hit = self.feedback.peek(self.predicate_fingerprint(predicate))
            if hit is not None:
                _observed, confidence = hit
                # Full confidence collapses the interval to the estimate.
                factor = factor ** (1.0 - max(0.0, min(1.0, confidence)))
        return factor

    def _uncertainty_model(self, predicate: Expr) -> float:
        if isinstance(predicate, Comparison):
            return self._comparison_uncertainty(predicate)
        if isinstance(predicate, BoolExpr):
            parts = [self._uncertainty(arg) for arg in predicate.args]
            if predicate.op is BoolOp.AND and self.independence:
                product = 1.0
                for part in parts:
                    product *= part
                return min(UNCERTAINTY_CAP, product)
            # OR (and conservative AND) track the loosest disjunct: the
            # inclusion-exclusion sum is dominated by its largest term.
            return max(parts)
        if isinstance(predicate, NotExpr):
            return self._uncertainty(predicate.arg)
        if isinstance(predicate, IsNull):
            if (
                isinstance(predicate.arg, ColumnRef)
                and self.column_stats(predicate.arg) is not None
            ):
                return UNCERTAINTY_HISTOGRAM  # null fractions are counted
            return UNCERTAINTY_FALLBACK
        if isinstance(predicate, InList):
            if isinstance(predicate.arg, ColumnRef):
                return self._column_uncertainty(predicate.arg)
            return UNCERTAINTY_FALLBACK
        if isinstance(predicate, UdfCall):
            return UNCERTAINTY_UDF  # declared, never measured
        if isinstance(predicate, Literal):
            return 1.0
        return UNCERTAINTY_FALLBACK

    def _comparison_uncertainty(self, predicate: Comparison) -> float:
        left, right = predicate.left, predicate.right
        if isinstance(right, ColumnRef) and isinstance(left, Literal):
            left, right = right, left
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            return self._column_uncertainty(left)
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            if left.table == right.table:
                return UNCERTAINTY_SAME_TABLE
            if (
                self.distinct_count(left) is not None
                and self.distinct_count(right) is not None
            ):
                # Containment assumption over counted domains: wrong by
                # roughly the key-skew factor, not by orders of magnitude.
                return UNCERTAINTY_DISTINCT
            return UNCERTAINTY_FALLBACK
        return UNCERTAINTY_FALLBACK

    def _column_uncertainty(self, ref: ColumnRef) -> float:
        stats = self.column_stats(ref)
        if stats is None:
            return UNCERTAINTY_FALLBACK
        if stats.histogram is not None:
            return UNCERTAINTY_HISTOGRAM
        if stats.distinct_count > 0:
            return UNCERTAINTY_DISTINCT
        return UNCERTAINTY_FALLBACK

    def _model(self, predicate: Expr) -> float:
        if isinstance(predicate, Comparison):
            return self._comparison(predicate)
        if isinstance(predicate, BoolExpr):
            if predicate.op is BoolOp.AND:
                parts = [self._estimate(arg) for arg in predicate.args]
                if self.independence:
                    product = 1.0
                    for part in parts:
                        product *= part
                    return product
                return min(parts)
            # OR via inclusion-exclusion, pairwise-independent approximation.
            result = 0.0
            for part in (self._estimate(arg) for arg in predicate.args):
                result = result + part - result * part
            return result
        if isinstance(predicate, NotExpr):
            return 1.0 - self._estimate(predicate.arg)
        if isinstance(predicate, IsNull):
            return self._is_null(predicate)
        if isinstance(predicate, InList):
            return self._in_list(predicate)
        if isinstance(predicate, UdfCall):
            return predicate.selectivity
        if isinstance(predicate, Literal):
            if predicate.value is True:
                return 1.0
            return 0.0
        return DEFAULT_GENERIC_SELECTIVITY

    # ------------------------------------------------------------------
    # Comparison predicates
    # ------------------------------------------------------------------
    def _comparison(self, predicate: Comparison) -> float:
        left, right, op = predicate.left, predicate.right, predicate.op
        # Normalize to column-on-the-left.
        if isinstance(right, ColumnRef) and isinstance(left, (Literal, Param)):
            left, right, op = right, left, op.flip()
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            return self._column_vs_literal(left, op, right.value)
        if isinstance(left, ColumnRef) and isinstance(right, Param):
            return self._column_vs_param(left, op)
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            if left.table == right.table:
                return DEFAULT_GENERIC_SELECTIVITY
            return self.join_selectivity(left, right, op)
        return DEFAULT_GENERIC_SELECTIVITY

    def _column_vs_param(self, ref: ColumnRef, op: ComparisonOp) -> float:
        """``col op ?``: the value is unknown at plan time, so System R's
        rule applies -- an equality matches one distinct value's share
        of the non-NULL rows, a range the ad hoc third."""
        stats = self.column_stats(ref)
        not_null = 1.0 - stats.null_fraction if stats is not None else 1.0
        if op in (ComparisonOp.EQ, ComparisonOp.NE):
            if stats is not None and stats.distinct_count > 0:
                eq = not_null / stats.distinct_count
            else:
                eq = DEFAULT_EQ_SELECTIVITY
            if op is ComparisonOp.EQ:
                return eq
            return max(0.0, not_null - eq)
        return DEFAULT_RANGE_SELECTIVITY

    def _column_vs_literal(
        self, ref: ColumnRef, op: ComparisonOp, value: object
    ) -> float:
        stats = self.column_stats(ref)
        if op is ComparisonOp.EQ:
            if stats is not None and stats.histogram is not None:
                estimate = stats.histogram.estimate_eq(value)
                return estimate * (1.0 - stats.null_fraction)
            if stats is not None and stats.distinct_count > 0:
                return (1.0 - stats.null_fraction) / stats.distinct_count
            return DEFAULT_EQ_SELECTIVITY
        if op is ComparisonOp.NE:
            # NULL rows satisfy neither ``= c`` nor ``<> c``: the
            # complement is taken within the non-null fraction.
            not_null = 1.0 - stats.null_fraction if stats is not None else 1.0
            eq = self._column_vs_literal(ref, ComparisonOp.EQ, value)
            return max(0.0, min(1.0, not_null - eq))
        # Range comparison.  Strict bounds subtract the boundary value's
        # own frequency so that sel(<= c) + sel(> c) ~= 1.
        if stats is not None and stats.histogram is not None:
            numeric = _as_float(value)
            if numeric is not None:
                if op in (ComparisonOp.LT, ComparisonOp.LE):
                    estimate = stats.histogram.estimate_range(None, numeric)
                    if op is ComparisonOp.LT:
                        estimate -= stats.histogram.estimate_eq(numeric)
                else:
                    estimate = stats.histogram.estimate_range(numeric, None)
                    if op is ComparisonOp.GT:
                        estimate -= stats.histogram.estimate_eq(numeric)
                estimate = max(0.0, min(1.0, estimate))
                return estimate * (1.0 - stats.null_fraction)
        if stats is not None:
            interpolated = _interpolate(stats, op, value)
            if interpolated is not None:
                return interpolated * (1.0 - stats.null_fraction)
        return DEFAULT_RANGE_SELECTIVITY

    def join_selectivity(
        self, left: ColumnRef, right: ColumnRef, op: ComparisonOp = ComparisonOp.EQ
    ) -> float:
        """Selectivity of a join predicate between two relations.

        The classical 1 / max(d_left, d_right) containment estimate for
        equijoins; range joins fall back to the System-R constant.
        """
        if op is not ComparisonOp.EQ:
            return DEFAULT_RANGE_SELECTIVITY
        d_left = self.distinct_count(left)
        d_right = self.distinct_count(right)
        if d_left is None and d_right is None:
            return DEFAULT_JOIN_SELECTIVITY
        if d_left is None:
            return 1.0 / d_right
        if d_right is None:
            return 1.0 / d_left
        return 1.0 / max(d_left, d_right)

    # ------------------------------------------------------------------
    # Other predicate shapes
    # ------------------------------------------------------------------
    def _is_null(self, predicate: IsNull) -> float:
        if isinstance(predicate.arg, ColumnRef):
            stats = self.column_stats(predicate.arg)
            if stats is not None:
                fraction = stats.null_fraction
                return 1.0 - fraction if predicate.negated else fraction
        return 0.05 if not predicate.negated else 0.95

    def _in_list(self, predicate: InList) -> float:
        if not isinstance(predicate.arg, ColumnRef):
            return DEFAULT_GENERIC_SELECTIVITY
        total = 0.0
        seen = set()
        for value in predicate.values:
            if isinstance(value, Literal):
                # ``IN (5, 5, 5)`` matches the same rows as ``IN (5)``;
                # repeated literals must not be summed repeatedly.
                key = (type(value.value).__name__, value.value)
                if key in seen:
                    continue
                seen.add(key)
                total += self._column_vs_literal(
                    predicate.arg, ComparisonOp.EQ, value.value
                )
        # Even matching every distinct value cannot reach NULL rows.
        stats = self.column_stats(predicate.arg)
        cap = 1.0 - stats.null_fraction if stats is not None else 1.0
        return max(0.0, min(cap, total))


def _as_float(value: object) -> Optional[float]:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    return None


def _interpolate(
    stats: ColumnStats, op: ComparisonOp, value: object
) -> Optional[float]:
    """Min/max linear interpolation using the robust extremes."""
    numeric = _as_float(value)
    lo = _as_float(stats.robust_min())
    hi = _as_float(stats.robust_max())
    if numeric is None or lo is None or hi is None:
        return None
    if hi <= lo:
        return DEFAULT_RANGE_SELECTIVITY
    fraction = (numeric - lo) / (hi - lo)
    fraction = max(0.0, min(1.0, fraction))
    if op in (ComparisonOp.LT, ComparisonOp.LE):
        return fraction
    return 1.0 - fraction
