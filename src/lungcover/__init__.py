"""Quantify how much lung volume 2D chest-radiograph masks actually cover.

The pipeline: synthesize a radiograph from a CT-like volume, carry lung
masks between the coronal plane and the volume, split each 3D lung into
the part covered by a 2D mask's extrusion and the part obscured from
it, and summarize cohorts with nonparametric paired statistics. A
synthetic chest phantom with analytically integrated obscured fractions
provides ground truth for end-to-end verification.

Every public name and submodule loads on first use (PEP 562):
``import lungcover`` itself imports neither numpy nor any submodule, and
``lungcover.render_drr`` imports ``lungcover.projection`` (and numpy)
when it is first read.
"""

import importlib

# submodule -> the public names it gives this package
_PUBLIC = {
    "cli": (),
    "concordance": ("AgreementReport", "ConcordanceReport", "LabelMeasures", "agreement",
                    "analyze_case", "dice", "jaccard", "mask_volume_ml", "obscured_fraction",
                    "obscured_mask", "overlap_mask", "union2d"),
    "errors": ("AllZeroDifferences", "BothEmpty", "DegenerateVariance", "EmptyInput",
               "EmptyReference", "GeometryMismatch", "IoFailure", "LengthMismatch",
               "LungCoverError", "MalformedHeader", "MalformedMask", "SizeMismatch",
               "SpecViolation", "TooFewSamples", "TooManySamples", "ValidationError"),
    "grid": ("HU_MAX", "HU_MIN", "LABELS", "DrrImage", "GridGeometry", "Mask2D", "Mask3D",
             "VoxelVolume", "voxel_volume_ml"),
    "io": ("load_mask", "load_mask2d", "load_mask3d", "load_volume", "pgm_bytes", "save_mask2d",
           "save_mask3d", "save_pgm", "save_volume"),
    "phantom": ("Ellipsoid", "PhantomCase", "PhantomSpec", "SphereCap", "TissueHu",
                "analytic_obscured_fraction", "anatomical_spec", "cohort_case", "default_spec",
                "generate_cohort", "generate_phantom", "oracle_tolerance_pct", "spec_from_dict",
                "spec_to_dict"),
    "projection": ("DEFAULT_WINDOW", "WindowSpec", "extrude_mask", "project_mask", "render_drr"),
    "reporting": (),
    "stats": ("DescriptiveSummary", "PairedComparison", "QuartileSummary", "TestResult",
              "describe", "describe_quartiles", "paired_compare", "paired_t_test",
              "shapiro_wilk", "wilcoxon_signed_rank"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _PUBLIC:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *_PUBLIC, *__all__})
