from .dictionary import build_global_dictionary  # noqa: F401
