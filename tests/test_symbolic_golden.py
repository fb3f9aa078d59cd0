"""Golden symbolic analysis of every registry stand-in.

The ordering and the assembly tree of each stand-in problem are pinned by
hash, so any change to the symbolic code that alters a tree — and with it
every paper table — fails here.  Regenerate (only after an *intentional*
change of the trees) with::

    PYTHONPATH=src python tests/test_symbolic_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.matrices import collection
from repro.symbolic.driver import AnalysisParams, analyze_problem
from repro.symbolic.graph import symmetrize_pattern
from repro.symbolic.ordering import compute_ordering

GOLDEN = Path(__file__).parent / "golden" / "symbolic_trees.json"


def ordering_sha256(name: str) -> str:
    """sha256 of the nested-dissection ordering ``analyze_problem`` uses."""
    params = AnalysisParams()
    B = symmetrize_pattern(collection.get(name).matrix)
    perm = compute_ordering(B, params.ordering, leaf_size=params.nd_leaf_size)
    return hashlib.sha256(np.asarray(perm, dtype="<i8").tobytes()).hexdigest()


def tree_record(name: str) -> dict:
    """Front count, factor entries and front-list hash of one stand-in."""
    tree = analyze_problem(collection.get(name))
    fronts = [[f.id, f.npiv, f.nfront, f.parent, list(f.children)]
              for f in tree.fronts]
    blob = json.dumps(fronts, separators=(",", ":")).encode()
    return {
        "fronts": len(tree),
        "factor_entries": tree.total_factor_entries,
        "fronts_sha256": hashlib.sha256(blob).hexdigest(),
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_names_every_stand_in():
    assert sorted(_golden()) == sorted(collection.ALL_NAMES)


@pytest.mark.parametrize("name", collection.ALL_NAMES)
def test_tree_matches_golden(name):
    expected = {k: v for k, v in _golden()[name].items()
                if k != "ordering_sha256"}
    assert tree_record(name) == expected


@pytest.mark.parametrize("name", collection.ALL_NAMES)
def test_ordering_matches_golden(name):
    assert ordering_sha256(name) == _golden()[name]["ordering_sha256"]


if __name__ == "__main__":
    out = {name: {**tree_record(name),
                  "ordering_sha256": ordering_sha256(name)}
           for name in collection.ALL_NAMES}
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
