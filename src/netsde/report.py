"""Validation reports shared by the structural checkers."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class Check:
    """One measured property: name, whether it passed, value and threshold."""

    name: str
    passed: bool
    measured: float
    threshold: float
    mandatory: bool = True
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a group of checks; ``passed`` iff every mandatory check passed."""

    checks: tuple[Check, ...]
    context: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.mandatory)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if c.mandatory and not c.passed]

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}
