"""``python -m definetti``: the same command line as the ``definetti`` script."""

from definetti.cli import entrypoint

if __name__ == "__main__":
    entrypoint()
