import os
import pathlib
import sys

SRC = str(pathlib.Path(__file__).parent / "src")
sys.path.insert(0, SRC)
# The CLI tests run `python -m fiberdist.cli` in child processes, which
# import the package from the same checkout through PYTHONPATH.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
