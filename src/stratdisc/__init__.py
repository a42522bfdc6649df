"""Stratified sampling of the unit square by diagonal strips, with exact,
quasi-Monte Carlo, and Monte Carlo estimates of the expected squared L2 star
discrepancy."""

from .asymptotics import (
    ApproximantOrderReport,
    ComponentSums,
    component_sums,
    cubic_component_closed_form,
    estimate_limit_offset,
    fit_error_order,
    interior_strip_sum,
    paired_strip_integral,
    power_sqrt_order_report,
    power_sqrt_sum,
    power_sqrt_sum_approx,
    power_sum,
    power_sum_approx,
)
from .estimators import (
    DiscrepancyEstimate,
    expected_l2_sq_mc,
    expected_l2_sq_qmc,
    random_baseline,
    ratio_to_random,
    vertical_baseline,
)
from .exactform import (
    expected_l2_sq_asymptotic,
    expected_l2_sq_exact,
    strip_integral_first,
    strip_integral_last,
    strip_integral_lower,
    strip_integral_table,
    strip_integral_upper,
)
from .lowdisc import (
    HaltonConfig,
    PointSet,
    halton,
    l2_discrepancy_sq_batch,
)
from .partition import (
    GeneratingSet,
    generating_set,
    sample_partition,
    sample_stratified_batch,
)
from .qgeometry import (
    intersection_area_grid,
    overlap_vector,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximantOrderReport",
    "ComponentSums",
    "DiscrepancyEstimate",
    "GeneratingSet",
    "HaltonConfig",
    "PointSet",
    "component_sums",
    "cubic_component_closed_form",
    "estimate_limit_offset",
    "expected_l2_sq_asymptotic",
    "expected_l2_sq_exact",
    "expected_l2_sq_mc",
    "expected_l2_sq_qmc",
    "fit_error_order",
    "generating_set",
    "halton",
    "interior_strip_sum",
    "intersection_area_grid",
    "l2_discrepancy_sq_batch",
    "overlap_vector",
    "paired_strip_integral",
    "power_sqrt_order_report",
    "power_sqrt_sum",
    "power_sqrt_sum_approx",
    "power_sum",
    "power_sum_approx",
    "random_baseline",
    "ratio_to_random",
    "sample_partition",
    "sample_stratified_batch",
    "strip_integral_first",
    "strip_integral_last",
    "strip_integral_lower",
    "strip_integral_table",
    "strip_integral_upper",
    "vertical_baseline",
]
