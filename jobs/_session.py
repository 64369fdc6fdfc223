from repro.session import get_session  # noqa: F401
