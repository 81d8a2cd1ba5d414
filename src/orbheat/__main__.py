"""Run the command-line front end: python -m orbheat SUBCOMMAND ..."""

from .cli import main

if __name__ == "__main__":
    main()
