"""``python -m mirrormatch``: the same command line as the ``mirrormatch`` script."""

from .cli import entrypoint

entrypoint()
