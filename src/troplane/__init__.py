"""Exact tropical (max-plus) linear maps on the tropical projective plane.

Scalars are exact rationals extended with -inf; all geometry (spans,
triangles, somas, antennas, plane arrangements, piecewise map behavior) is
computed with exact arithmetic.  Decimals appear only when figures are
serialized to SVG, rounded exactly.

The package exports its names lazily (PEP 562): ``import troplane`` loads no
submodule, and ``troplane.X`` or ``from troplane import X`` imports only the
module that defines X, then returns that module's own object.  A process
such as ``troplane analyze`` thus loads only the modules its command runs.
"""

__version__ = "1.0.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("Arrangement", "Cell", "CellSignature", "antenna_cell",
         "bounded_complex", "enumerate_cells", "signature_at"), "arrangement"),
    "TroplaneError": "errors",
    **dict.fromkeys(
        ("apply", "classify", "is_fixed", "piecewise_report", "project"),
        "mapping"),
    **dict.fromkeys(
        ("IDENTITY", "MonomialMatrix", "TropMatrix3", "adjoint_hat", "breve",
         "collinear", "is_normal", "kleene_star", "monomial_act", "mul",
         "power", "trop_det"), "matrices"),
    **dict.fromkeys(
        ("CanonicalParams", "canonical_form", "make_F", "make_L", "normalize",
         "read_params", "validate_params"), "normalform"),
    **dict.fromkeys(
        ("AffinePoint", "ProjPoint", "TropLine", "chart", "cross", "on_line",
         "point"), "projective"),
    **dict.fromkeys(("TropScalar", "plane_norm", "trop_distance"), "scalars"),
    **dict.fromkeys(("Viewport", "render_figure"), "svgfig"),
    **dict.fromkeys(
        ("Antenna", "TriangleReport", "analyze", "hrep_idempotent", "is_good",
         "is_pinwheel", "member", "origin_in_soma", "soma_dimension"),
        "triangle"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import an exported name's module on first use; a module named in the
    table resolves as that submodule."""
    module = _EXPORTS.get(name)
    if module is None and name not in _EXPORTS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    loaded = import_module(f"{__name__}.{module or name}")
    return loaded if module is None else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS.values()})
