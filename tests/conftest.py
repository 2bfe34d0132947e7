import os

# pyproject.toml puts src/ on this process's path; the CLI tests that run
# `python -m hermeq.cli` in a child process need it there too
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
