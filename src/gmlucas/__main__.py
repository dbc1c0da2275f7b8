"""``python -m gmlucas``: the same command line as the ``gmlucas`` script."""

from .cli import run

if __name__ == "__main__":
    run()
