"""Seeded request streams of the three benchmark workloads.

The server sees only the requests generated here.  Problem *structures*
come from fixed pools whose plans are pinned in ``golden.json``;
``--seed`` picks which structures are requested, in what order, under
which fresh operand names and with which data seeds.  The same seed always
yields the same stream, request for request.

* ``warm_rename`` -- fresh-name copies of 24 fixed ``ChainGenerator``
  chains (lengths 6-12), Zipf-skewed over structures.  After one untimed
  warm-up pass per structure the plan cache answers every request.
* ``cold_long`` -- every request is a distinct palette chain (lengths
  12-20, each length equally often), drawn without replacement from an
  800-chain pool, so the DP runs on every request and the plan cache is
  only written.
* ``dag_execute`` -- Jacobian-style DAG programs run through
  ``POST /execute``; a seeded share replays an earlier program text exactly
  (emitted-module cache hit), the rest use fresh names (module cache miss).
"""

from __future__ import annotations

import json
import random
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Dimensions of the ``make_palette_chain`` shape used by ``cold_long``.
PALETTE = (40, 60, 80, 100, 120)
SQUARE_PROPERTIES = ("lower_triangular", "diagonal", "symmetric")
COLD_LENGTHS = (12, 20)
#: The cold pool is fixed (seed-independent) so every request it serves is
#: covered by the golden plans; streams longer than the pool continue with
#: seeded chains outside it, which are checked numerically only.
COLD_POOL_SEED = 2018
COLD_POOL_SIZE = 800
#: Untimed warm-up chains, drawn from their own seed so they never collide
#: with a pooled structure the timed window must solve cold.
COLD_WARMUP_SEED = 1804
COLD_WARMUP = 8

ZIPF_EXPONENT = 1.0
#: ``dag_execute`` requests per ten that replay an earlier program text
#: exactly, and how far back they reach (well inside the 32-module LRU).
REPLAYS_PER_10 = 3
REPLAY_WINDOW = 8

WORKLOADS = ("warm_rename", "cold_long", "dag_execute")


@dataclass(frozen=True)
class Request:
    """One generated request: wire body plus what the checks need."""

    index: int
    path: str
    body: bytes
    source: str
    #: Pool index whose golden plan applies (``None`` outside the pool).
    structure: Optional[int]
    data_seed: int
    replay: bool = False


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def declared_operands(source: str) -> List[str]:
    return re.findall(r"^\s*(?:Matrix|Vector)\s+([A-Za-z_][A-Za-z_0-9]*)", source, re.M)


def rename_operands(source: str, suffix: str) -> str:
    """*source* with every declared operand renamed ``<name>_<suffix>``.

    Assignment targets keep their names, so references between the lines
    of a DAG program still resolve; the renamed program is signature-equal
    to the original.
    """
    names = sorted(declared_operands(source), key=len, reverse=True)
    if not names:
        return source
    pattern = re.compile(r"\b(?:" + "|".join(map(re.escape, names)) + r")\b")
    return pattern.sub(lambda match: f"{match.group(0)}_{suffix}", source)


def palette_chain_source(rng: random.Random, length: int) -> str:
    """A conformable chain over :data:`PALETTE` as DSL text (the
    ``make_palette_chain`` shape: shared dimensions, occasional square
    properties and transposes)."""
    dims = [rng.choice(PALETTE) for _ in range(length + 1)]
    lines, factors = [], []
    for index in range(length):
        rows, columns = dims[index], dims[index + 1]
        properties = ""
        if rows == columns and rng.random() < 0.3:
            properties = rng.choice(SQUARE_PROPERTIES)
        lines.append(f"Matrix M{index} ({rows}, {columns}) <{properties}>")
        transposed = rows == columns and rng.random() < 0.2
        factors.append(f"M{index}^T" if transposed else f"M{index}")
    lines.append("X := " + " * ".join(factors))
    return "\n".join(lines) + "\n"


def palette_chains(seed: int, count: int, exclude=()) -> List[str]:
    """*count* distinct palette chains drawn from *seed*."""
    rng = random.Random(seed)
    seen = set(exclude)
    chains: List[str] = []
    while len(chains) < count:
        source = palette_chain_source(rng, rng.randint(*COLD_LENGTHS))
        if source not in seen:
            seen.add(source)
            chains.append(source)
    return chains


def cold_pool() -> List[str]:
    return palette_chains(COLD_POOL_SEED, COLD_POOL_SIZE)


def compile_body(source: str) -> bytes:
    return json.dumps({"source": source, "options": {"emit": ["numpy"]}}).encode()


def _execute_body(source: str, data_seed: int) -> bytes:
    return json.dumps(
        {
            "source": source,
            "options": {},
            "execute": {"seed": data_seed, "engine": "module", "validate": True},
        }
    ).encode()


class Workload:
    """A seeded request stream; :meth:`next` is safe to call from the
    client threads and hands out requests strictly in stream order."""

    name = ""
    path = "/compile"
    connections = 1

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"{self.name}:{seed}")
        self._lock = threading.Lock()
        self._index = 0

    def warmup(self) -> List[Request]:
        raise NotImplementedError

    def _make(self, index: int) -> Request:
        raise NotImplementedError

    def next(self) -> Request:
        with self._lock:
            request = self._make(self._index)
            self._index += 1
            return request

    def take(self, count: int) -> List[Request]:
        return [self.next() for _ in range(count)]


class WarmRename(Workload):
    name = "warm_rename"
    connections = 2

    def __init__(self, seed: int, golden: dict) -> None:
        super().__init__(seed)
        self.sources = [entry["source"] for entry in golden[self.name]]
        hot_order = list(range(len(self.sources)))
        self._rng.shuffle(hot_order)
        self._structures = hot_order
        self._weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(hot_order))]

    def _request(self, index: int, structure: int, suffix: str) -> Request:
        source = rename_operands(self.sources[structure], suffix)
        return Request(
            index=index,
            path=self.path,
            body=compile_body(source),
            source=source,
            structure=structure,
            data_seed=self._rng.randrange(2**31),
        )

    def warmup(self) -> List[Request]:
        return [
            self._request(-1 - structure, structure, f"w{structure}")
            for structure in range(len(self.sources))
        ]

    def _make(self, index: int) -> Request:
        structure = self._rng.choices(self._structures, self._weights)[0]
        return self._request(index, structure, f"q{index}")


class ColdLong(Workload):
    name = "cold_long"

    def __init__(self, seed: int, golden: Optional[dict] = None) -> None:
        super().__init__(seed)
        self.pool = cold_pool()
        self._pooled = set(self.pool)
        by_length: Dict[int, List[int]] = {}
        for index, source in enumerate(self.pool):
            by_length.setdefault(source.count("Matrix"), []).append(index)
        self._by_length = {
            length: self._rng.sample(indices, len(indices))
            for length, indices in sorted(by_length.items())
        }
        self._lengths: List[int] = []

    def _request(self, index: int, source: str, structure: Optional[int], suffix: str) -> Request:
        source = rename_operands(source, suffix)
        return Request(
            index=index,
            path=self.path,
            body=compile_body(source),
            source=source,
            structure=structure,
            data_seed=self._rng.randrange(2**31),
        )

    def warmup(self) -> List[Request]:
        chains = palette_chains(COLD_WARMUP_SEED, COLD_WARMUP, exclude=self.pool)
        return [
            self._request(-1 - number, source, None, f"w{number}")
            for number, source in enumerate(chains)
        ]

    def _make(self, index: int) -> Request:
        # Stratified by length: every length once per cycle, so the seed
        # changes which chains run, not how long they are on average.
        if not self._lengths:
            self._lengths = self._rng.sample(sorted(self._by_length), len(self._by_length))
        length = self._lengths.pop()
        remaining = self._by_length[length]
        if remaining:
            structure = remaining.pop()
            return self._request(index, self.pool[structure], structure, f"q{index}")
        while True:  # this length's pooled chains are used up
            source = palette_chain_source(self._rng, length)
            if source not in self._pooled:
                self._pooled.add(source)
                return self._request(index, source, None, f"q{index}")


class DagExecute(Workload):
    name = "dag_execute"
    path = "/execute"

    def __init__(self, seed: int, golden: dict) -> None:
        super().__init__(seed)
        self.sources = [entry["source"] for entry in golden[self.name]]
        self._warmup = [
            self._fresh(-1 - structure, structure, f"w{structure}")
            for structure in range(len(self.sources))
        ]
        self._history: List[Request] = list(self._warmup)
        self._variants: List[int] = []
        self._replay_slots: set = set()

    def _fresh(self, index: int, structure: int, suffix: str) -> Request:
        source = rename_operands(self.sources[structure], suffix)
        data_seed = self._rng.randrange(2**31)
        return Request(
            index=index,
            path=self.path,
            body=_execute_body(source, data_seed),
            source=source,
            structure=structure,
            data_seed=data_seed,
        )

    def warmup(self) -> List[Request]:
        return list(self._warmup)

    def _make(self, index: int) -> Request:
        # Balanced mix: exactly REPLAYS_PER_10 replays in every ten
        # requests and every variant once per cycle of fresh requests, so
        # the seed changes names, order and data but not the work mix.
        if index % 10 == 0:
            self._replay_slots = set(self._rng.sample(range(10), REPLAYS_PER_10))
        if index % 10 in self._replay_slots:
            earlier = self._rng.choice(self._history[-REPLAY_WINDOW:])
            data_seed = self._rng.randrange(2**31)
            return Request(
                index=index,
                path=self.path,
                body=_execute_body(earlier.source, data_seed),
                source=earlier.source,
                structure=earlier.structure,
                data_seed=data_seed,
                replay=True,
            )
        if not self._variants:
            self._variants = self._rng.sample(range(len(self.sources)), len(self.sources))
        request = self._fresh(index, self._variants.pop(), f"q{index}")
        self._history.append(request)
        return request


def make_workload(name: str, seed: int, golden: dict) -> Workload:
    classes: Dict[str, type] = {
        "warm_rename": WarmRename,
        "cold_long": ColdLong,
        "dag_execute": DagExecute,
    }
    return classes[name](seed, golden)
