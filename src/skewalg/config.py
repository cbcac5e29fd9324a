"""Run configuration: resource limits, output and reproducibility knobs.

Limits are hard errors, never silent truncation: computations that would
exceed them raise ResourceLimitError, which the verification layer maps to
the distinct resource_limit verdict (exit code 3 in the CLI).

Every field can be overridden by an environment variable SKEWALG_<FIELD>.
"""

import os
from dataclasses import dataclass, fields


class ResourceLimitError(RuntimeError):
    """A configured limit would be exceeded; names the violated bound."""

    def __init__(self, limit_name: str, needed, limit):
        super().__init__(f"{limit_name}: needed {needed}, limit {limit}")
        self.limit_name = limit_name
        self.needed = needed
        self.limit = limit


@dataclass
class Config:
    max_ambient_dimension: int = 6000
    max_generators: int = 2_000_000
    output_format: str = "text"
    certificate_directory: str | None = None  # None: write no certificate files
    random_seed: int = 271828

    def __post_init__(self):
        if self.max_ambient_dimension <= 0 or self.max_generators <= 0:
            raise ValueError("limits must be positive")
        if self.output_format not in ("text", "json"):
            raise ValueError("output_format must be 'text' or 'json'")
        if self.certificate_directory == "":
            raise ValueError("certificate_directory must name a directory, not be empty")

    @classmethod
    def from_env(cls, **overrides) -> "Config":
        kwargs = {}
        for f in fields(cls):
            name = f"SKEWALG_{f.name.upper()}"
            env = os.environ.get(name)
            if env is None:
                continue
            if f.type is int:
                try:
                    env = int(env)
                except ValueError:
                    raise ValueError(f"{name} must be an integer, got {env!r}") from None
            kwargs[f.name] = env
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**kwargs)


DEFAULT_CONFIG = Config()
