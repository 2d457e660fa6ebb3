"""``python -m algprog``: the same command line as the ``algprog`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
