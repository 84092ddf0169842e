"""Exception hierarchy shared across the package.

Two failure families matter to callers: input/format problems (CLI exit
code 2) and numerical/fit problems (CLI exit code 3). Everything derives
from TripleScoreError so library users can catch broadly. `text_lines`
and `read_text` read the text input files, skipping one leading UTF-8
byte-order mark, and turn undecodable bytes into an input error that
names the file.
"""


class TripleScoreError(Exception):
    pass


class InputFormatError(TripleScoreError):
    """Bad input data or files. CLI maps this family to exit code 2."""


def text_lines(path):
    """Yield (line number from 1, line) of a UTF-8 text file.

    Bytes that are not UTF-8 raise InputFormatError naming the file and the
    last line read whole; the decoder reads ahead, so the bad byte is
    somewhere after it.
    """
    line_no = 0
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                yield line_no, line
    except UnicodeDecodeError:
        raise InputFormatError(f"{path}: not valid UTF-8 after line {line_no}") from None


def read_text(path) -> str:
    """The whole of a UTF-8 text file.

    Bytes that are not UTF-8 raise InputFormatError naming the file.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise InputFormatError(f"{path}: not valid UTF-8") from None


class MalformedLineError(InputFormatError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class DuplicateKeyError(InputFormatError):
    def __init__(self, key, path=None):
        where = f" in {path}" if path else ""
        super().__init__(f"duplicate key {key!r}{where}")
        self.key = key


class DimensionMismatchError(InputFormatError):
    pass


class MalformedRecordError(MalformedLineError):
    pass


class DuplicatePersonError(InputFormatError):
    def __init__(self, key, path=None):
        where = f" in {path}" if path else ""
        super().__init__(f"duplicate person record {key!r}{where}")
        self.key = key


class RelationMismatchError(InputFormatError):
    pass


class UnknownRelationError(InputFormatError, ValueError):
    """A relation name that is neither profession nor nationality; a
    ValueError too, as for any other value an artifact field cannot take."""


class EmptyUniverseError(InputFormatError):
    pass


class EmptyTrainingSetError(InputFormatError):
    pass


class EmptyInputError(InputFormatError):
    pass


class TooFewEntitiesError(InputFormatError):
    pass


class ArtifactError(InputFormatError):
    """Model artifact file is malformed or incompatible."""


class FitError(TripleScoreError):
    """Model fitting failed. CLI maps this family to exit code 3."""


class DegenerateLabelsError(FitError):
    pass


class NonFiniteError(FitError):
    pass
