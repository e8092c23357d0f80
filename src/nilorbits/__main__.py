"""``python -m nilorbits``: the command line of ``nilorbits.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
