"""The regional panel file of the case study: one row per (region, week)
with the region's deaths per capita, hospitalizations and policy, read into
one series per region."""

from __future__ import annotations

import csv
import warnings
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from typing import NoReturn

import numpy as np


@dataclass
class RegionSeries:
    region: str
    deaths: np.ndarray
    hospitalizations: np.ndarray
    policy: np.ndarray


# the region file's columns, each with its parse in the row-by-row reread, in
# the order that reread tries a row's fields
_REGION_FIELDS = {
    "week": int, "policy": int, "region": str, "deaths_per_capita": float, "hospitalizations": float
}


def _raise_first_bad_row(fh, at: dict[str, int], path, reason: object) -> NoReturn:
    """Reread the region rows with ``int`` and ``float`` and raise the first
    row's error: a field it lacks or cannot parse, but a policy other than 0
    or 1 before the values; ``reason`` if no row has one."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)  # the header
    for rec in filter(None, reader):  # blank lines hold no row
        row = {}
        for name, parse in _REGION_FIELDS.items():
            if name == "deaths_per_capita" and row["policy"] not in (0, 1):
                raise ValueError(
                    f"region {row['region']!r} has policy {row['policy']} in week {row['week']}; "
                    "policy must be 0 or 1"
                )
            try:
                row[name] = parse(rec[at[name]])
            except IndexError:
                why = f"no column {name!r}: the row ends after field {len(rec)}"
                raise ValueError(f"{path}:{reader.line_num}: {why}") from None
            except ValueError as err:
                raise ValueError(f"{path}:{reader.line_num}: column {name!r}: {err}") from None
    raise ValueError(f"{path}: {reason}")


def load_regions(path) -> list[RegionSeries]:
    """Parse the (region, week, deaths_per_capita, hospitalizations, policy)
    CSV, columns in any order, into per-region series ordered by week, the
    regions in the order they first appear. Every region must list each week
    once, and the same weeks as the first region.

    One ``np.loadtxt`` pass over the open file parses every row, numbers in
    numpy's syntax (no digit-group underscores, ASCII digits only), and one
    stable sort on (region, week) groups them. Only if that pass fails are
    the rows reread one by one, to name the first bad line and column."""
    with open(path, newline="") as fh:
        # an empty file has no header either; it fails below for having no rows
        at = {name: k for k, name in enumerate(next(csv.reader(fh), _REGION_FIELDS))}
        try:
            cols = [at[c] for c in _REGION_FIELDS]
        except KeyError as err:
            raise ValueError(f"{path}: the header has no column {err.args[0]!r}") from None
        code = defaultdict(count().__next__)  # region -> its number, in order of appearance
        dtype = [(c, "f8" if p is float else "i8") for c, p in _REGION_FIELDS.items()]
        try:
            with warnings.catch_warnings():
                # a file without rows fails below; an older numpy reads an
                # integer field such as "1.0" through float, with only a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
                t = np.loadtxt(
                    fh, dtype, comments=None, delimiter=",", usecols=cols, ndmin=1, quotechar='"',
                    converters={at["region"]: code.__getitem__}, encoding=None,
                )
        except ValueError as err:
            _raise_first_bad_row(fh, at, path, err)
        if ((t["policy"] != 0) & (t["policy"] != 1)).any():
            _raise_first_bad_row(fh, at, path, "a policy other than 0 or 1")
    if not t.size:
        raise ValueError("region file contains no rows")
    names = list(code)
    order = np.lexsort((t["week"], t["region"]))  # stable: a repeated week keeps file order
    key, week, policy = t["region"][order], t["week"][order], t["policy"][order]
    deaths, hosp = t["deaths_per_capita"][order], t["hospitalizations"][order]
    same = key[1:] == key[:-1]
    starts = np.flatnonzero(np.append(True, ~same))
    sizes = np.diff(starts, append=t.size)
    # per region: a repeated week, not the first region's weeks, a non-finite value
    repeated = np.logical_or.reduceat(np.append(False, same & (week[1:] == week[:-1])), starts)
    at_grid = np.minimum(np.arange(t.size) - np.repeat(starts, sizes), sizes[0] - 1)
    off_grid = (sizes != sizes[0]) | np.logical_or.reduceat(week != week[at_grid], starts)
    non_finite = ~(np.isfinite(deaths) & np.isfinite(hosp))
    bad = repeated | off_grid | np.logical_or.reduceat(non_finite, starts)
    if bad.any():
        r = int(bad.argmax())
        if repeated[r]:
            raise ValueError(f"region {names[r]!r} lists a week more than once")
        if off_grid[r]:
            raise ValueError(f"region {names[r]!r} does not have the weeks of region {names[0]!r}")
        at_week = week[starts[r] + non_finite[starts[r] :].argmax()]
        raise ValueError(f"region {names[r]!r} has a non-finite value in week {at_week}")
    bounds = zip(names, starts.tolist(), [*starts[1:].tolist(), t.size])
    return [RegionSeries(n, deaths[a:b], hosp[a:b], policy[a:b]) for n, a, b in bounds]
