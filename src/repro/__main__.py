"""``python -m repro`` == the ``repro`` console script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
