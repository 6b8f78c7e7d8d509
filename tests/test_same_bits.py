"""tools/same_bits.py on two cheap cases: their stored digests hold, and a moved one is named."""

import importlib.util
import json
import sys
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("same_bits", Path(__file__).parents[1] / "tools" / "same_bits.py")
same_bits = importlib.util.module_from_spec(_SPEC)
_PATH_BEFORE = list(sys.path)
_SPEC.loader.exec_module(same_bits)
_PATH_AFTER = list(sys.path)

CHEAP = ["fdjam regions --rho 0.1 --step 0.1", "field colluding secrecy pj=1e4 rho=0.01 n=1"]


def test_cheap_cases_keep_their_stored_digests(monkeypatch) -> None:
    monkeypatch.delenv("FDJAM_SEED", raising=False)
    stored = json.loads(Path(same_bits.STORE).read_text())["cases"]
    assert set(CHEAP) <= set(same_bits.cases())
    assert same_bits.moved(stored, CHEAP) == []
    assert same_bits.moved({**stored, CHEAP[1]: "0" * 64}, CHEAP) == [CHEAP[1]]


def test_import_leaves_sys_path_alone() -> None:
    # an importer comparing two checkouts must run the fdjam it put on sys.path, not the tool's own
    assert _PATH_AFTER == _PATH_BEFORE
