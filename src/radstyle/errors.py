"""Exception types shared across the package."""


class RadstyleError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(RadstyleError):
    """Input document is malformed or violates the expected schema."""


class InputError(RadstyleError):
    """An argument violates a documented precondition."""


class ConfigError(RadstyleError):
    """Configuration is missing a required entry or contains an unknown one."""


class IoError(RadstyleError):
    """A file could not be read or written."""


class ClientError(RadstyleError):
    """Base class for chat-completion client failures."""


class TransportError(ClientError):
    """A request could not be delivered or its reply not received."""


class RequestError(ClientError):
    """The service answered with a status other than 200.

    ``client.complete_batch`` retries a 429 or 5xx; any other is final.
    """

    def __init__(self, status: int, body: str,
                 retry_after: float | None = None):
        super().__init__(f"request rejected with status {status}")
        self.status = status
        self.body = body
        self.retry_after = retry_after   # seconds, from a Retry-After header


class ProtocolError(ClientError):
    """The service response could not be interpreted."""
