"""`python -m schurmult ...` runs the `schurmult` command line."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="schurmult")
