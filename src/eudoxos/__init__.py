"""Executable ratio and proportion: exact magnitude kinds, Eudoxean cuts,
positional digit streams, certified pi bounds, angle measures, and a
circularity-free construction of the sine function.

The public surface is every name imported below, collected into ``__all__``.
"""

from types import ModuleType as _ModuleType

from .errors import (
    CollinearError,
    DegeneratePolygonError,
    DomainError,
    DuplicatePointError,
    EmptyArcError,
    EudoxosError,
    IndistinguishableError,
    IrrationalVertexError,
    KindMismatchError,
    NoWitnessError,
    NotAcuteError,
    NotArchimedeanError,
    NotDisjointError,
    NotGreaterError,
    SelfIntersectionError,
    ZeroMagnitudeError,
)
from .intervals import Interval, sqrt_interval, exact_sqrt
from .enclosures import RealEnclosure
from .kinds import (
    Comparison,
    DEFAULT_RESOLUTION,
    KindId,
    Magnitude,
    Resolution,
    add,
    archimedean_witness,
    compare,
    kmul,
    lex_pair,
    magnitude_enclosure,
    naturals,
    polygon_class,
    segment_from_enclosure,
    segment_rational,
    segment_sqrt,
    sub,
)
from .ratios import (
    CutSide,
    LessOutcome,
    LessVerdict,
    Proportionality,
    ProportionVerdict,
    Ratio,
    add_ratio,
    cut_member,
    eq_E,
    eq_L,
    inverse,
    less_E,
    mul_ratio,
    proposition_suite,
    ratio,
    rational_ratio,
    scale_rational,
    to_real,
)
from .positional import DigitStream, measure_positional, render_stream, stream_to_enclosure
from .polygons import (
    Polygon,
    content,
    fan_triangles,
    parse_polygon,
    rectangle,
    rectangle_normal_form,
    rho1_equivalent,
    transform,
    unit_square,
)
from .archimedes import PiEnclosure, inscribed_outer_bounds, pi_enclosure, pi_interval, pi_real
from .angles import (
    Angle,
    AngleMeasure,
    AngleUnit,
    SqrtRational,
    angle_equiv,
    angle_from_points,
    angle_magnitude,
    asin_integral,
    celebrated_limit_check,
    convert_measure,
    cos_analytic,
    measure_m,
    measure_mu,
    right_angle,
    sample_acute_angles,
    sin_analytic,
    sin_geometric,
    unit_relation_check,
)
from .regions import (
    Arc,
    EtaResult,
    Region,
    Sector,
    Xii2Record,
    arc_sup_b,
    disk,
    parse_region,
    region_content,
    region_eta,
    region_magnitude,
    sector_content,
    xii2_verify,
)

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
