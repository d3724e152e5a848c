"""The reach ratchet: every statement of ``src/repro`` that no shipped driver
runs is tagged in ``data/reach_report.json``, and no tag outlives its reason.

``reach_driver.py`` runs once, traced, in a fresh process (no ``REPRO_*``
variable, a fresh cache directory, pinned shard grids), so the result is
the same on every executor leg and host.  See ``reach_census.py`` for the
tags; ``make reach`` prints the per-module table and ``python
tests/reach/reach_census.py --update`` regenerates the report, keeping the
tags of unchanged ranges.
"""

import pytest

import reach_census

REGENERATE = (
    "regenerate with `python tests/reach/reach_census.py --update` and tag "
    "each new range by hand (or delete the code no shipped driver reaches)"
)


@pytest.fixture(scope="module")
def failures(tmp_path_factory):
    report = reach_census.load_report()
    reached = reach_census.trace(tmp_path_factory.mktemp("reach"))
    return reach_census.compare(reach_census.census(reached, report), report)


def test_every_unexecuted_range_is_tagged(failures):
    untagged = [reach_census.describe(item) for item in failures["untagged"]]
    assert not untagged, f"untagged unexecuted ranges ({REGENERATE}): {untagged}"


def test_no_tag_outlives_its_range(failures):
    stale = [reach_census.describe(item) for item in failures["stale"]]
    assert not stale, (
        f"tagged ranges that now run or are gone ({REGENERATE}): {stale}"
    )


def test_every_timing_range_is_still_in_its_module(failures):
    gone = [reach_census.describe(item) for item in failures["timing"]]
    assert not gone, f"timing ranges whose text is gone ({REGENERATE}): {gone}"


def test_every_driver_gap_names_what_reaches_it(failures):
    unexplained = [reach_census.describe(item) for item in failures["no why"]]
    assert not unexplained, (
        f"driver gap entries with no 'why' (name the input, caller or test "
        f"that reaches the range, or delete it): {unexplained}"
    )


def test_every_tag_is_a_known_one(failures):
    unknown = [
        f"{reach_census.describe(item)} -> {item['tag']!r}"
        for item in failures["bad tags"]
    ]
    assert not unknown, f"tags outside {reach_census.TAGS}: {unknown}"


def test_a_timing_range_masks_only_its_own_statement():
    """A one-line timing text masks one statement of its own qualname —
    the ``occurrence``-th, 0 when absent — not a match elsewhere in the
    module or a second match in the same function."""
    source = (
        "def first():\n"
        "    return None\n"
        "\n"
        "def racy(x):\n"
        "    if x:\n"
        "        return None\n"
        "    if not x:\n"
        "        return None\n"
    )
    first = {"qualname": "racy", "source": ["return None"]}
    assert reach_census._masked_lines(source, [first]) == ({6}, [])
    second = {**first, "occurrence": 1}
    assert reach_census._masked_lines(source, [second]) == ({8}, [])
    third = {**first, "occurrence": 2}
    assert reach_census._masked_lines(source, [third]) == (set(), [third])
    gone = {"qualname": "elsewhere", "source": ["return None"]}
    assert reach_census._masked_lines(source, [gone]) == (set(), [gone])


def test_an_update_keeps_a_timing_entry_whose_text_is_gone():
    """``--update`` must not drop a mask the run just named as gone, or the
    next run could no longer name it."""
    gone = {
        "module": "repro/service/queue/workers.py",
        "qualname": "WorkerPool._loop",
        "tag": "timing",
        "lines": 1,
        "source": ["self._wake.wait(OLD_TEXT)"],
    }
    result = reach_census.Census({}, [], missing_timing=[gone])
    assert reach_census.updated_report(result, [gone]) == [gone]
    assert reach_census.compare(result, [gone])["timing"] == [gone]
