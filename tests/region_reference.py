"""The row-by-row region-file loader, written with the ``csv`` module and
Python's ``int``/``float``: the reference that ``harness.load_regions`` is
tested against, for the arrays it returns and for the error it raises."""

import csv

import numpy as np

from odeguide.regions import RegionSeries

# each column of the region file and its parse, in the order a row is read
_REGION_FIELDS = {
    "week": int, "policy": int, "region": str, "deaths_per_capita": float, "hospitalizations": float
}


def _bad_field(rec: list[str], at: dict[str, int]) -> str:
    """Why a region row's parse raised: the first field it lacks or cannot parse."""
    for name, parse in _REGION_FIELDS.items():
        try:
            parse(rec[at[name]])
        except IndexError:
            return f"no column {name!r}: the row ends after field {len(rec)}"
        except ValueError as err:
            return f"column {name!r}: {err}"


def load_regions(path) -> list[RegionSeries]:
    """Parse the (region, week, deaths_per_capita, hospitalizations, policy)
    CSV, columns in any order, into per-region series ordered by week. Every
    region must list each week once, and the same weeks as the first region."""
    rows: dict[str, list[int]] = {}  # region -> its row numbers, in file order
    weeks, deaths, hosp, policies = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        # an empty file has no header either; it fails below for having no rows
        at = {name: k for k, name in enumerate(next(reader, _REGION_FIELDS))}
        try:
            iw, ip, ir, i_d, ih = (at[c] for c in _REGION_FIELDS)
        except KeyError as err:
            raise ValueError(f"{path}: the header has no column {err.args[0]!r}") from None
        for rec in filter(None, reader):  # blank lines hold no row
            try:
                week, policy, region = int(rec[iw]), int(rec[ip]), rec[ir]
                if policy in (0, 1):  # else the policy check below speaks first
                    deaths.append(float(rec[i_d]))
                    hosp.append(float(rec[ih]))
            except (IndexError, ValueError):
                raise ValueError(f"{path}:{reader.line_num}: {_bad_field(rec, at)}") from None
            if policy not in (0, 1):
                raise ValueError(
                    f"region {region!r} has policy {policy} in week {week}; "
                    "policy must be 0 or 1"
                )
            rows.setdefault(region, []).append(len(weeks))
            weeks.append(week)
            policies.append(policy)
    if not rows:
        raise ValueError("region file contains no rows")
    deaths, hosp, policies = np.array(deaths), np.array(hosp), np.array(policies)
    out = []
    grid = None
    for region, idx in rows.items():
        idx.sort(key=weeks.__getitem__)
        region_weeks = [weeks[k] for k in idx]
        if region_weeks != grid:
            if len(set(region_weeks)) < len(region_weeks):
                raise ValueError(f"region {region!r} lists a week more than once")
            if grid is not None:
                raise ValueError(f"region {region!r} does not have the weeks of region {first!r}")
            grid, first = region_weeks, region
        series = RegionSeries(region, deaths[idx], hosp[idx], policies[idx])
        finite = np.isfinite(series.deaths) & np.isfinite(series.hospitalizations)
        if not finite.all():
            week = region_weeks[int(np.argmin(finite))]
            raise ValueError(f"region {region!r} has a non-finite value in week {week}")
        out.append(series)
    return out
