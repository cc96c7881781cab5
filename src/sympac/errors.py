"""Exception types shared across the package."""


class SympacError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SympacError):
    """Input bytes or document could not be parsed at all."""


class UnsupportedFormatError(ParseError):
    """Recognized container, but a variant this package does not handle."""


class ValidationError(SympacError):
    """Parsed data violates a domain invariant."""


class EmptySongError(ValidationError):
    """A song carries no note events."""


class DecodeError(SympacError):
    """Token sequence does not follow the encoding grammar.

    Carries the offending token ``index``, the ``message`` that says what
    is wrong there, and the token kinds that would have been legal there
    (``expected``; empty when the token has the right kind but breaks an
    order or a prompt-bar match).  ``str()`` gives
    ``token <index>: <message>``, after ``<source>: `` when the error
    names the ``source`` it was read from, such as ``a.tokens[0]``.
    ``encoding.validate`` returns the same error that
    ``encoding.decode_sequence`` raises.
    """

    def __init__(self, index: int, message: str, expected: tuple[str, ...] = (), source: str = ""):
        self.index = index
        self.message = message
        self.expected = expected
        self.source = source
        super().__init__(f"{source}: token {index}: {message}" if source else f"token {index}: {message}")

    def __reduce__(self):  # ``args`` holds only the text; pickle rebuilds from the fields
        return type(self), (self.index, self.message, self.expected, self.source)


class ControlError(SympacError):
    """A ControlSpec is internally inconsistent."""


class ConstraintConflictError(SympacError):
    """Grammar and user-input constraints left no legal token.

    ``grammar_expects`` names what the grammar alone would allow;
    ``control_desc`` names the control that emptied the mask.
    """

    def __init__(self, step: int, grammar_expects: str, control_desc: str):
        self.step = step
        self.grammar_expects = grammar_expects
        self.control_desc = control_desc
        super().__init__(
            f"step {step}: no legal token; grammar expects {grammar_expects}, "
            f"emptied by {control_desc}"
        )

    def __reduce__(self):
        return type(self), (self.step, self.grammar_expects, self.control_desc)


class ModelFormatError(SympacError):
    """Model byte stream is corrupt or has the wrong version."""
