"""Spectral exterior calculus on the flat unit 3-torus."""

from .grid import (
    Box,
    Grid,
    check_grid_n,
    curl_cs,
    dealias,
    grad_cs,
    irfft3_cs,
    leray_cs,
    mean_dot_cs,
    rfft3_cs,
    spectral_derivative,
    spectral_tail_fraction,
)
from .forms import (
    Form0,
    Form1,
    Form2,
    Form3,
    VectorField,
    constant_field,
    coordinate_oneform,
    form_of_rank,
    one_form,
    scale_by,
    volume_form,
    zero_field,
)
from .calculus import (
    contraction_identity_residual,
    d,
    divergence,
    flat,
    integrate3,
    interior,
    leray_project,
    lie_derivative,
    sharp,
    vf_bracket,
    vorticity_from,
    wedge,
)
from .sampling import circle_loop, closed_curve, curve_velocity, eval_at
from .transport import generator, transport
from .randfields import (
    random_divfree_field,
    random_form,
    random_form0,
    random_form1,
    random_scalar_array,
    random_vector_field,
)
from . import io

__all__ = [name for name in dir() if not name.startswith("_")]
