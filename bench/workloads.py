"""Benchmark workloads: a seeded stream, a learner configuration, chunk sizes.

Each workload is chosen for which layers it keeps busy (BENCHMARK.json
gives the reasons). Two properties decide that: the stacked row count
(three rows per rule: the rule and its slow/fast shadow pair) and the
share of the stream spent scoring rather than training. ``build_stream`` is the only place the seed enters, so the
same seed always yields the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from driftfis import streams
from driftfis.config import LearnerConfig


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    trs: int
    tes: int
    learner: dict
    accuracy_floor: float
    n_samples: int = 0          # 0 = the generator's preset length
    swap_every: int = 0         # 0 = the generator's default swaps
    verify_purity: bool = False

    def build_stream(self, seed: int) -> streams.Stream:
        swaps = None
        if self.swap_every:
            swaps = list(range(self.swap_every, self.n_samples, self.swap_every))
        return streams.make_stream(self.dataset, n_samples=self.n_samples,
                                   seed=seed, swaps=swaps)

    def learner_config(self) -> LearnerConfig:
        return LearnerConfig(**self.learner)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sea-paper",
            dataset="sea",
            trs=250, tes=250,
            learner={"strategy": "naive", "forgetting_mode": "forget_am"},
            accuracy_floor=0.90,
        ),
        Workload(
            name="plane10d-audit",
            dataset="plane10d",
            n_samples=12_000, swap_every=3_000,
            trs=400, tes=100,
            learner={"strategy": "global", "forgetting_mode": "forget_ps"},
            accuracy_floor=0.60,
            verify_purity=True,
        ),
    )
}
