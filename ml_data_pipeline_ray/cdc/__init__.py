from .oracle import oracle_replay  # noqa: F401
from .replay import CDCEngine  # noqa: F401
from .manifest import LakeManifest  # noqa: F401
