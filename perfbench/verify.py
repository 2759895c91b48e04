"""Correctness of one run: oracle decisions and, when served, a local replay."""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.runtime import open_session

from perfbench.oracle import Oracle

__all__ = ["verify"]


def verify(inputs: Any, outcome: Any) -> Tuple[Set[Tuple[int, int, int]], List[str], int]:
    """Check sampled decisions against the oracle and, when served, a local replay.

    Every decided read whose pool position is in its tenant's oracle sample is
    compared with the scalar oracle. Served runs additionally replay the
    sampled reads' chunks, round by round, through a local ``open_session``
    with the tenant's config; its actions must equal the served ones field
    for field. Returns the failed rounds as ``(replay, tenant, round)``, the
    reasons, and how many decisions were checked.
    """
    oracle = Oracle(inputs.config, outcome.threshold)
    failed: Set[Tuple[int, int, int]] = set()
    reasons: List[str] = []
    checked = 0
    for phase, replay in enumerate(outcome.replays):
        for tenant, round_index, why in replay.errors:
            failed.add((phase, tenant, round_index))
            reasons.append(f"replay {phase} tenant {tenant} round {round_index} raised {why}")
        served: Dict[Tuple[int, str], Any] = {}
        for decision in replay.decisions:
            if decision.pool_index not in inputs.tenants[decision.tenant].oracle_sample:
                continue
            served[(decision.tenant, decision.read_id)] = decision
            read = inputs.tenants[decision.tenant].pool[decision.pool_index]
            expected = oracle.decide((decision.tenant, decision.pool_index), read.signal_pa)
            why = oracle.mismatch(decision.action, expected)
            checked += 1
            if why is not None:
                failed.add((phase, decision.tenant, decision.round_index))
                reasons.append(f"read {decision.read_id} (pool {decision.pool_index}): {why}")
        if not inputs.spec.served:
            continue
        for tenant, rounds in enumerate(replay.sampled_rounds):
            with open_session(outcome.replay_configs[phase][tenant]) as local:
                for _round_index, chunks in rounds:
                    for chunk, action in zip(chunks, local.submit(chunks)):
                        decision = served.get((tenant, chunk.read_id))
                        if not action.is_terminal or decision is None:
                            continue
                        checked += 1
                        if action != decision.action:
                            failed.add((phase, tenant, decision.round_index))
                            reasons.append(
                                f"read {chunk.read_id}: served {decision.action} != local {action}"
                            )
    return failed, reasons, checked
