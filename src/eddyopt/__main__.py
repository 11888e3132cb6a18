"""``python -m eddyopt``: the command-line front end."""

from .cli import main_entry

main_entry()
