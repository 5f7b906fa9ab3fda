"""``harness.load_regions`` against the row-by-row reference loader of
``region_reference``: the same arrays, bit for bit, on valid panels, and the
same first error on broken ones."""

import csv
import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import region_reference
from odeguide.harness import load_regions

COLUMNS = ["region", "week", "deaths_per_capita", "hospitalizations", "policy"]
# a lone "\r" is left out: the csv module leaves it unquoted under LF endings
NAMES = st.lists(st.sampled_from([*'ab Z,"\n\t#;é東', "\r\n"]), max_size=5).map("".join)


def _outcome(load, path):
    """The loaded series as bytes, or the message of the error raised."""
    try:
        series = load(path)
    except ValueError as err:
        return str(err)
    return [
        (s.region, *((a.dtype.str, a.tobytes()) for a in (s.deaths, s.hospitalizations, s.policy)))
        for s in series
    ]


@st.composite
def panels(draw, defects=False):
    """CSV text of a regional panel: quoted names holding commas, quotes and
    newlines, LF or CRLF endings, blank lines, the columns permuted among
    extra ones, shuffled rows, numbers quoted or padded, and perhaps one
    non-finite value. With ``defects``, one cell holds a bad week (unparsed,
    repeated or off the grid), policy or number, and perhaps a row is cut
    short."""
    names = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    weeks = draw(st.lists(st.integers(-3, 60), min_size=1, max_size=5, unique=True))
    value = st.floats(-1e6, 1e6, allow_subnormal=True) | st.sampled_from([0.0, -0.0, 1e-300, 5e-324])
    rows = [
        {
            "region": name,
            "week": str(week),
            "deaths_per_capita": repr(draw(value)),
            "hospitalizations": repr(draw(value)),
            "policy": str(draw(st.integers(0, 1))),
        }
        for name in names
        for week in weeks
    ]
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    if draw(st.integers(0, 2)) == 0:
        row = draw(st.sampled_from(rows))
        column = draw(st.sampled_from(["deaths_per_capita", "hospitalizations"]))
        row[column] = draw(st.sampled_from(["nan", "inf", "-Infinity", "NaN", "1e999"]))
    for row in rows:
        for column in ("week", "deaths_per_capita", "policy"):
            row[column] = draw(st.sampled_from(["{}", " {}", "{} ", "\t{}\t"])).format(row[column])
    if defects:
        row = draw(st.sampled_from(rows))
        column, text = draw(
            st.sampled_from(
                [
                    ("week", "x"), ("policy", "yes"), ("deaths_per_capita", ""),
                    ("hospitalizations", "1,5"), ("policy", "2"), ("policy", "-1"),
                    ("week", "99"), ("week", rows[0]["week"]),
                ]
            )
        )
        row[column] = text
    extra = draw(st.lists(st.sampled_from(["note", "x0", "x1"]), max_size=2, unique=True))
    header = draw(st.permutations(COLUMNS + extra))
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator=terminator, quoting=quoting)
    writer.writerow(header)
    cut = draw(st.integers(0, 4 * len(rows))) if defects else len(rows)  # the row cut short
    for k, row in enumerate(rows):
        cells = [row.get(c, "a,b") for c in header]
        writer.writerow(cells[: draw(st.integers(1, len(cells) - 1))] if k == cut else cells)
        buf.write(terminator * draw(st.integers(0, 1)))  # a blank line
    return buf.getvalue()


def _write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=panels())
def test_load_regions_matches_the_reference_on_generated_panels(tmp_path, text):
    path = tmp_path / "regions.csv"
    _write(path, text)
    assert _outcome(load_regions, path) == _outcome(region_reference.load_regions, path)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=panels(defects=True))
def test_load_regions_raises_the_references_first_error_on_broken_panels(tmp_path, text):
    path = tmp_path / "regions.csv"
    _write(path, text)
    assert _outcome(load_regions, path) == _outcome(region_reference.load_regions, path)


def test_load_regions_reads_a_quoted_name_and_crlf_endings(tmp_path):
    path = tmp_path / "regions.csv"
    _write(
        path,
        "week,policy,region,hospitalizations,deaths_per_capita\r\n"
        '1,0,"Springfield, IL",0,2.5\r\n'
        '0,0,"Springfield, IL",0,1.5\r\n'
        "\r\n"
        '0,1,"say ""hi""",0,3.0\r\n'
        '1,1,"say ""hi""",0,4.0\r\n',
    )
    a, b = load_regions(path)
    assert (a.region, b.region) == ("Springfield, IL", 'say "hi"')
    np.testing.assert_array_equal(a.deaths, [1.5, 2.5])
    np.testing.assert_array_equal(b.policy, [1, 1])


@pytest.mark.parametrize(
    "row, numpy_message",
    [
        # Python's int and float take digit-group underscores and any
        # Unicode decimal digit; numpy's parser takes neither
        (["a", "1_0", "1.0", "0", "0"], "could not convert string '1_0' to int64"),
        (["a", "0", "1_0.5", "0", "0"], "could not convert string '1_0.5' to float64"),
        (["a", "٣", "1.0", "0", "0"], "could not convert string '٣' to int64"),
        (["a", "0", "١.5", "0", "0"], "could not convert string '١.5' to float64"),
        # and a week beyond int64
        (["a", str(2**63), "1.0", "0", "0"], f"could not convert string '{2**63}' to int64"),
    ],
)
def test_load_regions_rejects_numbers_outside_numpys_syntax(tmp_path, row, numpy_message):
    path = tmp_path / "regions.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([COLUMNS, row])
    assert len(region_reference.load_regions(path)) == 1  # the row-by-row reading took them
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {numpy_message}')}"):
        load_regions(path)


def test_load_regions_reads_names_as_text_and_weeks_as_integers(tmp_path):
    """Names outside Latin-1 come back as ``str``, and a week written as a
    float fails naming its line, as in the row-by-row reading."""
    path = tmp_path / "regions.csv"
    rows = [["東京", "0", "1.0", "0", "0"], ["Zürich", "0", "2.0", "1", "0"]]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([COLUMNS, *rows])
    assert [s.region for s in load_regions(path)] == ["東京", "Zürich"]
    with open(path, "a", newline="") as fh:
        csv.writer(fh).writerow(["東京", "1.0", "1.0", "0", "0"])
    message = f"{path}:4: column 'week': invalid literal for int() with base 10: '1.0'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_regions(path)


@pytest.mark.parametrize("nan_first", [True, False])
def test_load_regions_reports_the_first_listed_regions_fault(tmp_path, nan_first):
    """Regions are checked in the order they first appear, each for its
    weeks before its values."""
    nan_region = [["a", "0", "1.0", "0", "0"], ["a", "1", "nan", "0", "0"]]
    repeated_week = [["b", "0", "1.0", "0", "0"], ["b", "0", "2.0", "0", "0"]]
    path = tmp_path / "regions.csv"
    with open(path, "w", newline="") as fh:
        rows = nan_region + repeated_week if nan_first else repeated_week + nan_region
        csv.writer(fh).writerows([COLUMNS, *rows])
    message = "region 'a' has a non-finite value in week 1" if nan_first else "region 'b' lists a week"
    with pytest.raises(ValueError, match=f"^{message}"):
        load_regions(path)
    with pytest.raises(ValueError, match=f"^{message}"):
        region_reference.load_regions(path)


@pytest.mark.parametrize("weeks_b", [[0, 1], [0, 1, 2, 3], [1, 2]])
def test_load_regions_rejects_a_region_with_fewer_or_more_weeks(tmp_path, weeks_b):
    path = tmp_path / "regions.csv"
    with open(path, "w", newline="") as fh:
        rows = [["a", w, "1.0", "0", "0"] for w in (0, 1, 2)]
        rows += [["b", w, "1.0", "0", "0"] for w in weeks_b]
        csv.writer(fh).writerows([COLUMNS, *rows])
    with pytest.raises(ValueError, match="^region 'b' does not have the weeks of region 'a'$"):
        load_regions(path)
