"""`python -m triplescore`: the same command line as the `triplescore` script."""

from .cli import run

run()
