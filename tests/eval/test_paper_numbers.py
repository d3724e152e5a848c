"""The paper's figures and table, pinned cell by cell.

``data/paper_numbers.json`` holds every row of Figures 4–7 and Table 1 (see
``paper_corpus.py``), and each row is one test: a change that moves any cell,
by any amount, fails here with the figure and the row named.  The bounds the
paper claims for those cells are stated in ``test_figures.py``.
"""

import json

import pytest

import paper_corpus

PINNED = json.loads(paper_corpus.PAPER_NUMBERS.read_text(encoding="utf-8"))


def test_pins_cover_every_row():
    assert list(paper_corpus.paper_rows()) == list(PINNED)


@pytest.mark.parametrize("row", list(PINNED))
def test_row_is_unchanged(row):
    assert paper_corpus.paper_rows().get(row) == PINNED[row]
