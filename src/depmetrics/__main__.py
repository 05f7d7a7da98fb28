import sys

from .cli import entry_point

sys.exit(entry_point())
