"""``python3 -m trophodge``: the command-line front end."""

from .cli import main

main()
