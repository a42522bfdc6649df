"""Stratified sampling of the unit square by diagonal strips, with exact,
quasi-Monte Carlo, and Monte Carlo estimates of the expected squared L2 star
discrepancy.

Each public name is imported from its module on first access (PEP 562), so
`import stratdisc` loads no numeric module, and a command loads only the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Largest n accepted for direct summation by asymptotics and `verify --n`;
# `verify --n 1048576` takes 1.4–1.5 s on a 2-vCPU box, 1.1 s of it in
# component_sums.  It is stated here, where the command-line parser reads it
# without loading asymptotics.  The closed forms have their own, larger cap,
# exactform.MAX_CLOSED_FORM_N.
MAX_DIRECT_N = 2**20

# the module that defines each public name
_MODULES = {
    "asymptotics": (
        "ComponentSums", "component_sums", "cubic_component_closed_form", "interior_strip_sum",
        "paired_strip_integral", "power_sqrt_sum", "power_sqrt_sum_approx", "power_sum", "power_sum_approx",
    ),
    "estimators": (
        "DiscrepancyEstimate", "expected_l2_sq_mc", "expected_l2_sq_qmc", "random_baseline",
        "ratio_to_random", "vertical_baseline",
    ),
    "exactform": (
        "expected_l2_sq_asymptotic", "expected_l2_sq_exact", "strip_integral_lower", "strip_integral_table",
        "strip_integral_upper",
    ),
    "lowdisc": ("HaltonConfig", "PointSet", "halton", "l2_discrepancy_sq_batch"),
    "partition": ("GeneratingSet", "generating_set", "sample_partition", "sample_stratified_batch"),
    "qgeometry": ("intersection_area_grid", "overlap_vector"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
