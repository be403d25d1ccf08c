"""The public surface of the package, pinned name by name."""

import eudoxos as E
from eudoxos.kinds import KindOps

PUBLIC_NAMES = [
    "Angle", "AngleMeasure", "AngleUnit", "Arc", "CollinearError", "Comparison",
    "CutSide", "DEFAULT_RESOLUTION", "DegeneratePolygonError", "DigitStream",
    "DomainError", "DuplicatePointError", "EmptyArcError", "EtaResult",
    "EudoxosError", "IndistinguishableError", "Interval", "IrrationalVertexError",
    "KindId", "KindMismatchError", "LessOutcome", "LessVerdict", "Magnitude",
    "NoWitnessError", "NotAcuteError", "NotArchimedeanError", "NotDisjointError",
    "NotGreaterError", "PiEnclosure", "Polygon", "ProportionVerdict",
    "Proportionality", "Ratio", "RealEnclosure", "Region", "Resolution", "Sector",
    "SelfIntersectionError", "SqrtRational", "Xii2Record", "ZeroMagnitudeError",
    "add", "add_ratio", "angle_equiv", "angle_from_points", "angle_magnitude",
    "arc_sup_b", "archimedean_witness", "asin_integral", "celebrated_limit_check",
    "compare", "content", "convert_measure", "cos_analytic", "cut_member", "disk",
    "eq_E", "eq_L", "exact_sqrt", "fan_triangles", "inscribed_outer_bounds",
    "inverse", "kmul", "less_E", "lex_pair", "magnitude_enclosure", "measure_m",
    "measure_mu", "measure_positional", "mul_ratio", "naturals", "parse_polygon",
    "parse_region", "pi_enclosure", "pi_interval", "pi_real", "polygon_class",
    "proposition_suite", "ratio", "rational_ratio", "rectangle",
    "rectangle_normal_form", "region_content", "region_eta", "region_magnitude",
    "render_stream", "rho1_equivalent", "right_angle", "sample_acute_angles",
    "scale_rational", "sector_content", "segment_from_enclosure",
    "segment_rational", "segment_sqrt", "sin_analytic", "sin_geometric",
    "sqrt_interval", "stream_to_enclosure", "sub",
    "to_real", "transform", "unit_relation_check", "unit_square", "xii2_verify",
]


def test_public_surface_is_pinned():
    # adding, removing or renaming a public name is a visible change: make it
    # here as well
    assert E.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 104


def test_every_public_name_resolves():
    assert all(hasattr(E, name) for name in E.__all__)


def test_kind_protocol_is_pinned():
    # the hooks a kind supplies; one that no caller uses cannot come back
    # unnoticed
    hooks = sorted(name for name in dir(KindOps) if not name.startswith("_"))
    assert hooks == ["add", "compare", "enclosure", "exact_compare", "never_exceeds", "sub"]
