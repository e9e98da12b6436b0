import importlib

import pytest

import floatcyl

SUBMODULES = ["equilibria", "intersection", "model", "oracles", "regions"]
ALL = [
    "BoundaryCurve", "CriticalPoint", "CurveKind",
    "DimensionlessParams", "EnergyBreakdown", "Equilibrium", "ExtremumKind",
    "FlatInterfaceError", "InterfaceProfile", "ModelInconsistencyWarning",
    "NoSecondCriticalPointError", "OracleReport", "PhysicalParams",
    "QuadratureError", "Regime", "RegionLabel", "RegionMap", "Stability",
    "UnsupportedRegimeError", "ValidityReport",
    "asymptotic_critical_mass", "buoyancy_closed", "buoyancy_geometric",
    "buoyancy_quadrature", "center_height", "center_height_slope",
    "classify_point", "critical_mass_ratio", "critical_points",
    "endpoint_boundary_c", "endpoint_boundary_is_vertical",
    "energy_factored_identity_check", "energy_force_identity_check",
    "energy_slope", "equilibria", "expected_fourier_coefficients",
    "find_equilibria", "fluid_energy_quadrature", "force_curvature",
    "force_series", "force_slope", "fourier_coefficients",
    "fourier_projection_check", "inclination_at_contact",
    "interface_profile", "intersection", "intersection_curve_point",
    "intersection_margin", "model", "oracles", "region_map",
    "region_map_csv", "region_map_json", "regions", "run_all",
    "second_extremum_threshold", "submerged_segment_force",
    "surface_energy_quadrature", "tangency_boundary_c",
    "to_dimensionless", "total_energy",
    "total_force", "trace_endpoint_curve", "trace_intersection_curve",
    "trace_tangency_curve", "two_equilibrium_corner", "validity",
]


class TestNamespace:
    def test_all_is_pinned(self):
        assert floatcyl.__all__ == ALL

    def test_star_import_binds_the_defining_objects(self):
        names = {}
        exec("from floatcyl import *", names)
        for name in ALL:
            value = names[name]
            if name in SUBMODULES:
                assert value is importlib.import_module(f"floatcyl.{name}")
            else:
                # each public name is the object its submodule defines
                assert value.__module__ in {f"floatcyl.{m}" for m in SUBMODULES}
                module = importlib.import_module(value.__module__)
                assert value is getattr(module, name), name
                assert value is getattr(floatcyl, name), name

    def test_dir_lists_every_name(self):
        assert set(ALL) <= set(dir(floatcyl))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            floatcyl.no_such_name
