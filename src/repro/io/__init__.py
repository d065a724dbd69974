"""I/O: VTK export for visualization, time-series snapshots."""

from .vtk import write_time_series, write_vtk  # noqa: F401
