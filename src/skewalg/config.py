"""Run configuration: resource limits, output and reproducibility knobs.

Limits are hard errors, never silent truncation: computations that would
exceed them raise ResourceLimitError, which the verification layer maps to
the distinct resource_limit verdict (exit code 3 in the CLI).
max_generators bounds the descriptors of one component's generator
stream.  A component space reads its stream whole before it inserts
anything, so a membership query needs the whole stream within the limit
even when the first generator already spans its target.

Every field can be overridden by an environment variable SKEWALG_<FIELD>.
"""

import os
from collections import namedtuple


class ResourceLimitError(RuntimeError):
    """A configured limit would be exceeded; names the violated bound."""

    def __init__(self, limit_name: str, needed, limit):
        super().__init__(f"{limit_name}: needed {needed}, limit {limit}")
        self.limit_name = limit_name
        self.needed = needed
        self.limit = limit


class Config(namedtuple("Config", "max_ambient_dimension max_generators output_format "
                                  "certificate_directory random_seed",
                        defaults=(6000, 2_000_000, "text", None, 271828))):
    """Limits, output format and seed; certificate_directory None writes
    no certificate files."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_ambient_dimension <= 0 or self.max_generators <= 0:
            raise ValueError("limits must be positive")
        if self.output_format not in ("text", "json"):
            raise ValueError("output_format must be 'text' or 'json'")
        if self.certificate_directory == "":
            raise ValueError("certificate_directory must name a directory, not be empty")
        return self

    @classmethod
    def from_env(cls, **overrides) -> "Config":
        kwargs = {}
        for field, default in cls._field_defaults.items():
            name = f"SKEWALG_{field.upper()}"
            env = os.environ.get(name)
            if env is None:
                continue
            if type(default) is int:
                try:
                    env = int(env)
                except ValueError:
                    raise ValueError(f"{name} must be an integer, got {env!r}") from None
            kwargs[field] = env
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**kwargs)


DEFAULT_CONFIG = Config()
