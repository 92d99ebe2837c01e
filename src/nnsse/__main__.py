"""``python -m nnsse``: the `nnsse.cli` command line."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
