"""Exception taxonomy for the pipeline.

Every error raised on bad input derives from :class:`DataError`, which the
CLI maps to exit code 3.
"""


class HyposcreenError(Exception):
    """Base class for every error raised by this package."""


class DataError(HyposcreenError):
    """Invalid input: file contents, shapes, values, or configuration."""


# --- manifest / file ingestion ------------------------------------------

class MissingFile(DataError):
    def __init__(self, path):
        super().__init__(f"referenced file does not exist: {path}")
        self.path = str(path)


class SchemaViolation(DataError):
    def __init__(self, field, row, detail=""):
        msg = f"entry {row}: invalid field {field!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.field = field
        self.row = row


class DuplicateEntry(DataError):
    def __init__(self, key, what="manifest entry"):
        super().__init__(f"duplicate {what} for {key!r}")
        self.key = key


class MissingColumn(DataError):
    def __init__(self, name):
        super().__init__(f"required column {name!r} is missing")
        self.name = name


class NonNumericCell(DataError):
    def __init__(self, row, col):
        super().__init__(f"non-numeric cell at row {row}, column {col!r}")
        self.row = row
        self.col = col


class MissingCell(DataError):
    def __init__(self, row, col):
        super().__init__(f"row {row} ends before column {col!r}")
        self.row = row
        self.col = col


class OutOfRange(DataError):
    def __init__(self, row, col, value=None):
        super().__init__(f"out-of-range value at row {row}, column {col!r}"
                         + (f": {value}" if value is not None else ""))
        self.row = row
        self.col = col
        self.value = value


class EmptyFile(DataError):
    def __init__(self, path):
        super().__init__(f"no data rows in {path}")
        self.path = str(path)


class WideRow(DataError):
    def __init__(self, row, cells, width):
        super().__init__(f"row {row} has {cells} cells, more than the "
                         f"header's {width}")
        self.row = row
        self.cells = cells
        self.width = width


class RaggedFrame(DataError):
    def __init__(self, frame_idx, point_count):
        super().__init__(
            f"frame {frame_idx} has {point_count} landmark points, expected 478")
        self.frame_idx = frame_idx
        self.point_count = point_count


class LengthMismatch(DataError):
    def __init__(self, detail):
        super().__init__(f"per-frame series lengths disagree: {detail}")


# --- featurization -------------------------------------------------------

class EmptySeries(DataError):
    def __init__(self, what="series"):
        super().__init__(f"cannot compute statistics of an empty {what}")


class DegenerateDomain(DataError):
    def __init__(self, lo, hi):
        super().__init__(f"histogram domain [{lo}, {hi}] is degenerate")


class DegenerateIrisDistance(DataError):
    def __init__(self, value):
        super().__init__(f"iris-center distance {value!r} is below 1e-9; "
                         "cannot normalize landmark distances")
        self.value = value


class IndexOutOfRange(DataError):
    def __init__(self, index, n_points):
        super().__init__(f"landmark index {index} outside 0..{n_points - 1}")
        self.index = index


class IncompleteExpression(DataError):
    def __init__(self, expression, detail=""):
        super().__init__(f"expression {expression!r} is incomplete"
                         + (f": {detail}" if detail else ""))
        self.expression = expression


# --- preprocessing -------------------------------------------------------

class EmptyMatrix(DataError):
    def __init__(self):
        super().__init__("matrix has no rows")


class WidthMismatch(DataError):
    def __init__(self, expected, got):
        super().__init__(f"expected {expected} columns, got {got}")
        self.expected = expected
        self.got = got


class TooFewMinority(DataError):
    """``where`` names the rows to be oversampled, or is empty."""

    def __init__(self, count, where):
        super().__init__(f"minority class has {count} rows{where}; "
                         "at least 2 are required for interpolation")
        self.count = count


class ClassTooSmall(DataError):
    """``setting`` names the fold count ``k``, and ``split`` the rows dealt."""

    def __init__(self, label, count, k, setting, split):
        super().__init__(f"class {label!r} has {count} rows{split}, "
                         f"fewer than {setting}={k} folds")
        self.label = label
        self.count = count


class SingleClass(DataError):
    def __init__(self):
        super().__init__("labels contain a single class; need both classes")


# --- modeling ------------------------------------------------------------

class DegenerateParams(DataError):
    def __init__(self, detail):
        super().__init__(f"invalid model parameters: {detail}")


class MissingFeature(DataError):
    def __init__(self, name):
        super().__init__(f"input rows lack required feature {name!r}")
        self.name = name


class ArtifactError(DataError):
    def __init__(self, detail):
        super().__init__(f"cannot load model artifact: {detail}")


# --- statistics ----------------------------------------------------------

class ZeroPooledVariance(DataError):
    def __init__(self, pooled):
        super().__init__(f"pooled proportion is {pooled}; z statistic undefined")
        self.pooled = pooled


class DegenerateMargins(DataError):
    def __init__(self):
        super().__init__("contingency table has an empty margin")


class ConstantInput(DataError):
    def __init__(self, which):
        super().__init__(f"{which} are constant; rank association undefined")
        self.which = which


class ZeroExpectedCell(DataError):
    def __init__(self, row, col):
        super().__init__(f"expected count for cell ({row}, {col}) is zero")
        self.row = row
        self.col = col


class UnknownColumn(DataError):
    def __init__(self, name):
        super().__init__(f"unknown demographic column {name!r}")
        self.name = name


class EmptySubgroup(DataError):
    def __init__(self, name):
        super().__init__(f"subgroup {name!r} has no members")
        self.name = name


# --- explanation ---------------------------------------------------------

class TooFewRows(DataError):
    def __init__(self, n, need):
        super().__init__(f"need at least {need} rows, got {n}")


class TooFewColumns(DataError):
    def __init__(self, d, need):
        super().__init__(f"need at least {need} non-constant columns, got {d}")


class SingleCluster(DataError):
    def __init__(self):
        super().__init__("silhouette requires at least two distinct labels")


class ReportError(DataError):
    def __init__(self, detail):
        super().__init__(f"cannot emit report: {detail}")


class UsageError(HyposcreenError):
    """Bad command-line usage; the CLI maps this to exit code 2."""
