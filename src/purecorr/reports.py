"""Report type shared by the seeded verification campaigns."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .states import GENERATOR_NAME

__all__ = ["TheoremReport"]


@dataclass(frozen=True, eq=False)
class TheoremReport:
    """Outcome of one seeded verification campaign.

    Everything needed to reproduce the run is embedded: the seed, the trial
    count, every tolerance used and the RNG algorithm name.  The report
    passes exactly when the counterexample list is empty.
    """

    theorem: int
    claim: str
    ensemble: str
    seed: int
    trials: int
    counterexamples: tuple[str, ...]
    stats: dict[str, float] = field(default_factory=dict)
    tolerances: dict[str, float] = field(default_factory=dict)
    generator: str = GENERATOR_NAME

    def __post_init__(self):
        object.__setattr__(self, "counterexamples", tuple(self.counterexamples))

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "claim": self.claim,
            "ensemble": self.ensemble,
            "seed": self.seed,
            "trials": self.trials,
            "generator": self.generator,
            "tolerances": dict(self.tolerances),
            "stats": dict(self.stats),
            "counterexamples": list(self.counterexamples),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def summary(self) -> str:
        lines = [
            f"theorem {self.theorem}: {self.claim}",
            f"  ensemble:   {self.ensemble}",
            f"  seed:       {self.seed}",
            f"  trials:     {self.trials}",
            f"  generator:  {self.generator}",
        ]
        if self.tolerances:
            tols = ", ".join(f"{k}={v:g}" for k, v in self.tolerances.items())
            lines.append(f"  tolerances: {tols}")
        for key, value in self.stats.items():
            lines.append(f"  {key}: {value:.12g}")
        if self.counterexamples:
            lines.append(f"  counterexamples ({len(self.counterexamples)}):")
            lines.extend(f"    {c}" for c in self.counterexamples)
        else:
            lines.append("  counterexamples: none")
        lines.append("  result: PASS" if self.passed else "  result: FAIL")
        return "\n".join(lines)
