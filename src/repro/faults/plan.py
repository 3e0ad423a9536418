"""Declarative, seeded fault plans.

A :class:`FaultPlan` is the serialisable description of *what goes wrong* in a
chaos run: which fault kinds fire, in which engine phase, against which shard,
and with which recovery budget.  Plans are plain frozen dataclasses with a
versioned JSON round-trip (mirroring :class:`~repro.api.spec.ScenarioSpec`),
picklable so the frame-fault subset can ride inside the shipped
:class:`~repro.sharding.worker.ShardWorld`s, and deterministic: every
random choice an injector makes is drawn from ``random.Random(plan.seed)``,
so a failing chaos run reproduces byte-for-byte from its plan file.

The plan is inert data.  The machinery that arms and fires it lives in
:mod:`repro.faults.injector`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import FaultError

#: Fault kinds a plan may request.
#:
#: ``kill_worker``  — terminate one shard worker mid-phase (coordinator-side).
#: ``drop_frame``   — drop one cross-shard frame and retransmit it after
#:                    ``delay`` simulated seconds (worker-side; counted so the
#:                    quiescence barrier stays balanced).
#: ``delay_frame``  — delay one cross-shard frame by ``delay`` simulated
#:                    seconds (worker-side).
#: ``partition``    — cut the coordinator's link to the host owning ``shard``;
#:                    heal it after ``heal_after`` wall seconds (socket only).
FAULT_KINDS: tuple[str, ...] = (
    "kill_worker",
    "drop_frame",
    "delay_frame",
    "partition",
)

#: Engine phases a fault can be armed for.  ``ship`` covers spawn/world
#: shipping, ``sync`` the warm-pool delta read, ``chase`` the main fix-point
#: drive, and ``quiescence`` fires after the barrier certifies, before the
#: run checks that every worker is still reachable.
FAULT_PHASES: tuple[str, ...] = ("ship", "sync", "chase", "quiescence")

#: Kinds injected inside worker processes (they act on individual frames).
FRAME_KINDS: tuple[str, ...] = ("drop_frame", "delay_frame")

_PLAN_FORMAT = "repro-faults/1"


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    ``shard`` of ``None`` means "pick a victim with the plan's seeded RNG";
    ``run_index`` counts engine runs on one session (0 = first run), letting a
    warm-pool plan target the second, delta-synced run.  ``count`` repeats a
    frame fault that many times within the run.  ``heal_after`` of ``None``
    makes a partition permanent (the run must then fail loudly within its
    retry budget).
    """

    kind: str
    phase: str = "chase"
    shard: int | None = None
    run_index: int = 0
    count: int = 1
    delay: float = 0.05
    heal_after: float | None = 0.5

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.phase not in FAULT_PHASES:
            raise FaultError(
                f"unknown fault phase {self.phase!r}; "
                f"expected one of {FAULT_PHASES}"
            )
        if self.shard is not None and self.shard < 0:
            raise FaultError(f"fault shard must be >= 0, got {self.shard}")
        if self.run_index < 0:
            raise FaultError(f"fault run_index must be >= 0, got {self.run_index}")
        if self.count < 1:
            raise FaultError(f"fault count must be >= 1, got {self.count}")
        if self.delay < 0:
            raise FaultError(f"fault delay must be >= 0, got {self.delay}")
        if self.heal_after is not None and self.heal_after < 0:
            raise FaultError(
                f"fault heal_after must be >= 0 or null, got {self.heal_after}"
            )
        if self.kind in FRAME_KINDS and self.phase != "chase":
            raise FaultError(
                f"{self.kind} faults act on chase-phase traffic; "
                f"got phase {self.phase!r}"
            )

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "phase": self.phase,
            "shard": self.shard,
            "run_index": self.run_index,
            "count": self.count,
            "delay": self.delay,
            "heal_after": self.heal_after,
        }

    @classmethod
    def from_json_dict(cls, document: Mapping[str, Any]) -> "FaultSpec":
        if not isinstance(document, Mapping):
            raise FaultError(
                f"each fault must be a JSON object, got {type(document).__name__}"
            )
        unknown = set(document) - {
            "kind",
            "phase",
            "shard",
            "run_index",
            "count",
            "delay",
            "heal_after",
        }
        if unknown:
            raise FaultError(f"unknown fault fields: {sorted(unknown)}")
        if "kind" not in document:
            raise FaultError("a fault needs a 'kind' field")
        kwargs = dict(document)
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of faults plus the recovery budget allowed against them.

    ``max_cold_reruns`` lets the engines degrade a failed (killed/partitioned)
    run to a cold re-run that many times before re-raising; ``send_retries``
    plus ``backoff`` configure bounded retry-with-backoff on the socket
    transports.  All budgets default to zero so an *undeclared* fault still
    fails loudly — recovery is always opt-in, per plan.
    """

    seed: int = 0
    faults: tuple[FaultSpec, ...] = ()
    max_cold_reruns: int = 0
    send_retries: int = 0
    backoff: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, FaultSpec):
                raise FaultError(
                    f"plan faults must be FaultSpec instances, "
                    f"got {type(fault).__name__}"
                )
        if self.max_cold_reruns < 0:
            raise FaultError(
                f"max_cold_reruns must be >= 0, got {self.max_cold_reruns}"
            )
        if self.send_retries < 0:
            raise FaultError(f"send_retries must be >= 0, got {self.send_retries}")
        if self.backoff < 0:
            raise FaultError(f"backoff must be >= 0, got {self.backoff}")

    def with_(self, **changes: Any) -> "FaultPlan":
        return replace(self, **changes)

    # ------------------------------------------------------------- selections

    def coordinator_specs(self) -> tuple[FaultSpec, ...]:
        """Faults fired by the coordinator (kills and partitions)."""
        return tuple(f for f in self.faults if f.kind not in FRAME_KINDS)

    def frame_specs(self) -> tuple[FaultSpec, ...]:
        """Faults applied inside worker processes (frame drop/delay)."""
        return tuple(f for f in self.faults if f.kind in FRAME_KINDS)

    def worker_plan(self) -> "FaultPlan | None":
        """The (picklable) subset shipped to workers, or ``None`` if empty."""
        frame = self.frame_specs()
        if not frame:
            return None
        return FaultPlan(seed=self.seed, faults=frame)

    # ------------------------------------------------------------ JSON I/O

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "format": _PLAN_FORMAT,
            "seed": self.seed,
            "max_cold_reruns": self.max_cold_reruns,
            "send_retries": self.send_retries,
            "backoff": self.backoff,
            "faults": [fault.to_json_dict() for fault in self.faults],
        }

    def dump_json(self, path: str | Path | None = None) -> str:
        text = json.dumps(self.to_json_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    @classmethod
    def from_json_dict(cls, document: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(document, Mapping):
            raise FaultError(
                f"a fault plan must be a JSON object, "
                f"got {type(document).__name__}"
            )
        fmt = document.get("format")
        if fmt != _PLAN_FORMAT:
            raise FaultError(
                f"unsupported fault-plan format {fmt!r}; expected {_PLAN_FORMAT!r}"
            )
        unknown = set(document) - {
            "format",
            "seed",
            "max_cold_reruns",
            "send_retries",
            "backoff",
            "faults",
        }
        if unknown:
            raise FaultError(f"unknown fault-plan fields: {sorted(unknown)}")
        raw_faults = document.get("faults", [])
        if not isinstance(raw_faults, Sequence) or isinstance(raw_faults, str):
            raise FaultError("'faults' must be a JSON array")
        return cls(
            seed=int(document.get("seed", 0)),
            max_cold_reruns=int(document.get("max_cold_reruns", 0)),
            send_retries=int(document.get("send_retries", 0)),
            backoff=float(document.get("backoff", 0.05)),
            faults=tuple(FaultSpec.from_json_dict(f) for f in raw_faults),
        )

    @classmethod
    def load_json(cls, source: str | Path) -> "FaultPlan":
        """Load a plan from a path or a JSON string."""
        text = str(source)
        if not text.lstrip().startswith("{"):
            text = Path(source).read_text(encoding="utf-8")
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise FaultError(f"fault plan is not valid JSON: {error}") from error
        return cls.from_json_dict(document)


__all__ = [
    "FAULT_KINDS",
    "FAULT_PHASES",
    "FRAME_KINDS",
    "FaultPlan",
    "FaultSpec",
]
