"""Recovery-cost curve: how performance degrades as fault rates rise.

Drives one workload under one mode across a ladder of fault rates (the
same rate at every requested site), reusing a single workload build, and
reports per-rate cycles, traffic, and realized recovery statistics — the
``repro faults`` CLI subcommand and EXPERIMENTS.md both consume this.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.config import SystemConfig
from repro.fault.plan import FaultPlan, FaultSite
from repro.offload.modes import ExecMode

#: Default fault-rate ladder (events per million site opportunities).
DEFAULT_RATES = (0.0, 10.0, 100.0, 1000.0, 10000.0)


def plan_for(rate: float, sites: Sequence[FaultSite],
             seed: int = 0) -> FaultPlan:
    """A plan applying ``rate`` at ``sites`` and zero elsewhere."""
    fields = {
        FaultSite.ALIAS: "alias_rate",
        FaultSite.TLB_MISS: "tlb_miss_rate",
        FaultSite.LOCK_CONFLICT: "lock_conflict_rate",
        FaultSite.SCC_EVICT: "scc_evict_rate",
    }
    return FaultPlan(seed=seed,
                     **{fields[site]: rate for site in sites})


def fault_rate_curve(workload: str,
                     mode: ExecMode = ExecMode.NS,
                     rates: Sequence[float] = DEFAULT_RATES,
                     sites: Sequence[FaultSite] = tuple(FaultSite),
                     config: Optional[SystemConfig] = None,
                     scale: float = 1.0 / 64.0,
                     seed: int = 42,
                     fault_seed: int = 0,
                     sample_cores: int = 4) -> List[Dict[str, object]]:
    """One row per rate: cycles, slowdown, traffic, recovery statistics.

    The workload is built once and shared across every rate, so rows
    differ only by their fault plans; rate 0 is the fault-free reference
    the slowdown column normalizes against.  Every plan is built (and
    so validated) before the workload is.
    """
    from repro.mem.address import AddressSpace
    from repro.sim.run import run_workload
    from repro.workloads import make_workload

    plans = [plan_for(rate, sites, seed=fault_seed) for rate in rates]
    config = config or SystemConfig.ooo8()
    wl = make_workload(workload, scale=scale, seed=seed)
    wl.build(AddressSpace(config))

    rows: List[Dict[str, object]] = []
    base_cycles = None
    base_hops = None
    for rate, plan in zip(rates, plans):
        result = run_workload(wl, mode, config=config, scale=scale,
                              seed=seed, sample_cores=sample_cores,
                              fault_plan=None if plan.is_null() else plan)
        if base_cycles is None:
            base_cycles = result.cycles
            base_hops = max(result.traffic.total_byte_hops, 1e-9)
        faults = result.faults
        rows.append({
            "rate": rate,
            "cycles": result.cycles,
            "slowdown": result.cycles / max(base_cycles, 1e-9),
            "traffic_ratio": result.traffic.total_byte_hops / base_hops,
            "injected": faults.total_injected if faults else 0,
            "episodes": faults.recovery_episodes if faults else 0,
            "derived_recovery_rate":
                faults.derived_recovery_rate if faults else 0.0,
            "reexecuted_iterations":
                faults.reexecuted_iterations if faults else 0.0,
            "faults": faults.to_dict() if faults else None,
        })
    return rows


def parse_sites(spec: Optional[str]) -> List[FaultSite]:
    """Parse a comma-separated site list (``alias,tlb,lock,scc``)."""
    if not spec:
        return list(FaultSite)
    aliases = {
        "alias": FaultSite.ALIAS,
        "tlb": FaultSite.TLB_MISS,
        "tlb_miss": FaultSite.TLB_MISS,
        "lock": FaultSite.LOCK_CONFLICT,
        "lock_conflict": FaultSite.LOCK_CONFLICT,
        "scc": FaultSite.SCC_EVICT,
        "scc_evict": FaultSite.SCC_EVICT,
    }
    sites = []
    for token in spec.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in aliases:
            raise ValueError(f"unknown fault site {token!r}; choose from "
                             f"{sorted(set(aliases))}")
        if aliases[token] not in sites:
            sites.append(aliases[token])
    return sites or list(FaultSite)
