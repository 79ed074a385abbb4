import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
for entry in (str(REPO / "src"), str(REPO)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
