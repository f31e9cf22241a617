"""`python -m xormpe` runs the command-line interface."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
