"""The one error type that every command reports as a usage error."""


class InputError(ValueError):
    """Input that cannot be used as written: a corpus file, a command-line
    option, an endpoint config, a price table or a cassette. ``posr.cli.main``
    prints it as one ``error:`` line and exits with status 2."""
