"""Entry point for ``python -m riskchoice``: the ``riskchoice`` command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
