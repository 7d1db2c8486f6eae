"""Point counts, zeta functions, and slope invariants for the Dwork pencil
and its toric mirror over finite fields."""

__version__ = "0.1.0"

from .ff import PrimePower, FieldCtx, build_field, embed
from .padic import TowerCtx, build_tower
from .counting import (
    CountRecord,
    DworkInstance,
    charsum_count,
    count_brute,
    count_record,
    count_X,
    count_Y,
    is_singular,
)
from .zeta import (
    IntPoly,
    ZetaData,
    divide_check,
    expected_degree_P,
    is_weil_pure,
    power_sums_from_counts,
    r_poly,
    recover_mirror_zeta,
    recover_numerator,
    recover_pencil_zeta,
)
from .slope import (
    HodgeData,
    NewtonPolygon,
    SlopeZeta,
    hodge_numbers_dwork,
    newton_above_hodge,
    newton_polygon,
    ordinarity_test,
    ordinary_slope_zeta,
    slope_fe_check,
    slope_zeta,
)

import types as _types

__all__ = [name for name, obj in list(globals().items())
           if not name.startswith("_") and not isinstance(obj, _types.ModuleType)]
