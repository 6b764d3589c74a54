"""The repository benchmark (run it with ``python -m bench``).

Only :mod:`bench.drive` imports the simulator; see ``bench/README.md``.
"""
