"""Errors raised by the dsXPath engine."""


class XPathError(Exception):
    """Base class for all dsXPath engine errors."""


class XPathParseError(XPathError):
    """The query text is not valid (extended) dsXPath syntax."""

    def __init__(self, message: str, text: str, position: int) -> None:
        super().__init__(f"{message} at offset {position} in {text!r}")
        self.message = message
        self.text = text
        self.position = position

    def __reduce__(self):
        # Rebuilt from the constructor's arguments, so the error survives
        # the pickle trip back from a process-pool worker: the sweep
        # fleet's (``sweep --workers``) or ``repro.sitegen``'s sweep pool.
        return type(self), (self.message, self.text, self.position)
