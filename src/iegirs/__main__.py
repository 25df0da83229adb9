"""`python -m iegirs ...` runs the command-line interface, iegirs.cli.main."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
