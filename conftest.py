import os
import pathlib
import sys
import tempfile

SRC = str(pathlib.Path(__file__).parent / "src")
sys.path.insert(0, SRC)
# The CLI tests run `python -m fiberdist.cli` in child processes, which
# import the package from the same checkout through PYTHONPATH.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
# Even with database=None, hypothesis caches the constants it reads from the
# checkout's source files in its storage directory, .hypothesis/ under the
# working directory unless this names another; keep it out of the checkout.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "fiberdist-hypothesis"))
