"""`python -m pairons lmg|bcs ...`: either tool without its console script."""
import sys

from .cli import bcs_main, lmg_main

TOOLS = {"lmg": lmg_main, "bcs": bcs_main}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in TOOLS:
        print("usage: python -m pairons {lmg,bcs} COMMAND [FLAGS]",
              file=sys.stderr)
        return 2
    return TOOLS[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
