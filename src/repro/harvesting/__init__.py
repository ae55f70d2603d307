"""Energy-harvesting substrate: solar traces, solar cell and budgets.

* :mod:`repro.harvesting.traces` -- hourly irradiance trace container and an
  NREL-style CSV loader,
* :mod:`repro.harvesting.solar` -- a synthetic clear-sky + cloud irradiance
  generator standing in for the NREL SRRL measurements,
* :mod:`repro.harvesting.solar_cell` -- the flexible solar cell model that
  converts irradiance into the hourly energy budgets REAP consumes.
"""

from repro.harvesting.solar import (
    CloudModel,
    GOLDEN_COLORADO_LATITUDE_DEG,
    SyntheticSolarModel,
    clear_sky_ghi,
    solar_declination_rad,
    solar_elevation_rad,
)
from repro.harvesting.solar_cell import (
    HarvestScenario,
    SolarCellModel,
    summarize_budgets,
)
from repro.harvesting.traces import SolarTrace, TraceHour, load_nrel_csv

__all__ = [
    "CloudModel",
    "GOLDEN_COLORADO_LATITUDE_DEG",
    "HarvestScenario",
    "SolarCellModel",
    "SolarTrace",
    "SyntheticSolarModel",
    "TraceHour",
    "clear_sky_ghi",
    "load_nrel_csv",
    "solar_declination_rad",
    "solar_elevation_rad",
    "summarize_budgets",
]
