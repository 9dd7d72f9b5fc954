"""Exception taxonomy.

Three operational families, mapped onto CLI exit codes:
DataError -> 2 (bad input), TableError -> 3 (missing external table),
NumericalError -> 4 (degenerate statistic or failed construction).
"""

__all__ = ["MwivError", "DataError", "TableError", "NumericalError"]


class MwivError(Exception):
    """Base class for all package errors."""


class DataError(MwivError):
    """Invalid input: parsing, dimensions, rank, cluster sizes, designs."""


class TableError(MwivError):
    """External critical-value table missing or malformed."""


class NumericalError(MwivError):
    """Degenerate statistic, identity violation, or construction failure."""
