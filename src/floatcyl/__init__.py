"""Floating-cylinder capillary statics.

Equilibrium configurations, stability and physical validity of an infinite
horizontal circular cylinder floating on an unbounded liquid bath with
surface tension, plus maps of the governing parameter plane.

``import floatcyl`` loads no submodule: each public name is imported from
its submodule on first access (PEP 562) and then kept in this namespace.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "model": (
        "DimensionlessParams", "EnergyBreakdown", "InterfaceProfile",
        "PhysicalParams", "center_height", "center_height_slope",
        "force_curvature", "force_slope", "inclination_at_contact",
        "interface_profile", "to_dimensionless", "total_energy",
        "total_force"),
    "equilibria": (
        "CriticalPoint", "Equilibrium", "ExtremumKind",
        "ModelInconsistencyWarning", "NoSecondCriticalPointError",
        "Stability", "UnsupportedRegimeError", "asymptotic_critical_mass",
        "critical_mass_ratio", "critical_points", "find_equilibria",
        "second_extremum_threshold"),
    "intersection": (
        "FlatInterfaceError", "Regime", "ValidityReport",
        "intersection_margin", "validity"),
    "regions": (
        "BoundaryCurve", "CurveKind", "RegionLabel", "RegionMap",
        "classify_point", "endpoint_boundary_c",
        "endpoint_boundary_is_vertical", "intersection_curve_point",
        "region_map", "region_map_csv", "region_map_json",
        "tangency_boundary_c", "trace_endpoint_curve",
        "trace_intersection_curve", "trace_tangency_curve",
        "two_equilibrium_corner"),
    "oracles": (
        "OracleReport", "QuadratureError", "buoyancy_closed",
        "buoyancy_geometric", "buoyancy_quadrature",
        "energy_factored_identity_check", "energy_slope",
        "energy_force_identity_check", "expected_fourier_coefficients",
        "fluid_energy_quadrature", "force_series", "fourier_coefficients",
        "fourier_projection_check", "run_all", "submerged_segment_force",
        "surface_energy_quadrature"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

# the submodules and their names, in dir() order
__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it here
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
