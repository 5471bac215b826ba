"""The paper's headline shape claims, restated from the figure benches.

Each bar is the one ``benchmarks/test_fig09_speedup.py`` and
``benchmarks/test_fig12_traffic.py`` assert today; none is lowered.
Every assertion there (and every workload of a per-workload loop) is one
claim here, so ``shape_held_frac`` is held claims / checked claims.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.engine.stats import geomean

REDUCE_WORKLOADS = ("bfs_pull", "pr_pull", "bin_tree", "hash_join")
MO_WORKLOADS = ("pathfinder", "srad", "hotspot", "hotspot3D")
AFFINE = ("pathfinder", "srad", "hotspot", "hotspot3D")
MODES = ("base", "inst", "single", "ns_core", "ns_no_comp", "ns",
         "ns_no_sync", "ns_decouple")

#: Paper headline numbers printed beside the simulated ones
#: (EXPERIMENTS.md headline table).
PAPER_NS_SPEEDUP = 3.19
PAPER_NS_TRAFFIC_REDUCTION = 0.69

Claim = Tuple[str, bool]


def headline(table: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """NS geomean speedup over base and NS traffic reduction (Fig 9/12)."""
    speed, totals = _speedups(table), _traffic_totals(table)
    return {"ns_speedup_geomean": geomean([speed[n]["ns"] for n in table]),
            "ns_traffic_reduction":
                1.0 - float(np.mean([totals[n]["ns"] for n in table]))}


def shape_claims(table: Dict[str, Dict[str, object]]) -> List[Claim]:
    """Evaluate every Fig 9 / Fig 12 claim on ``{workload: {mode: r}}``."""
    claims: List[Claim] = []

    def claim(text: str, held: bool) -> None:
        claims.append((text, bool(held)))

    names = list(table)
    speed = _speedups(table)
    gm = {m: geomean([speed[n][m] for n in names]) for m in MODES}
    claim(f"Fig 9: NS geomean {gm['ns']:.2f}x > 2.0x", gm["ns"] > 2.0)
    claim(f"Fig 9: NS_decouple {gm['ns_decouple']:.2f}x > NS "
          f"{gm['ns']:.2f}x", gm["ns_decouple"] > gm["ns"])
    claim(f"Fig 9: NS {gm['ns']:.2f}x > 1.3 x INST {gm['inst']:.2f}x",
          gm["ns"] > 1.3 * gm["inst"])
    claim(f"Fig 9: NS_decouple {gm['ns_decouple']:.2f}x > 1.5 x SINGLE "
          f"{gm['single']:.2f}x", gm["ns_decouple"] > 1.5 * gm["single"])
    claim(f"Fig 9: NS {gm['ns']:.2f}x > NS_no_comp "
          f"{gm['ns_no_comp']:.2f}x > 1.0",
          gm["ns"] > gm["ns_no_comp"] > 1.0)
    for n in names:
        claim(f"Fig 9: NS {speed[n]['ns']:.2f}x >= 0.9 x INST "
              f"{speed[n]['inst']:.2f}x on {n}",
              speed[n]["ns"] >= speed[n]["inst"] * 0.90)
    for n in (n for n in REDUCE_WORKLOADS if n in table):
        claim(f"Fig 9: INST {speed[n]['inst']:.2f}x < NS_decouple "
              f"{speed[n]['ns_decouple']:.2f}x on {n}",
              speed[n]["inst"] < speed[n]["ns_decouple"])
    for n in (n for n in MO_WORKLOADS if n in table):
        claim(f"Fig 9: SINGLE {speed[n]['single']:.2f}x < NS "
              f"{speed[n]['ns']:.2f}x on {n}",
              speed[n]["single"] < speed[n]["ns"])

    totals = _traffic_totals(table)
    red = {m: 1.0 - float(np.mean([totals[n][m] for n in names]))
           for m in ("inst", "ns", "ns_decouple")}
    claim(f"Fig 12: NS traffic reduction {red['ns']:.0%} > 40%",
          red["ns"] > 0.4)
    claim(f"Fig 12: NS_decouple reduction {red['ns_decouple']:.0%} >= NS "
          f"{red['ns']:.0%} - 2%", red["ns_decouple"] >= red["ns"] - 0.02)
    claim(f"Fig 12: NS reduction {red['ns']:.0%} > INST {red['inst']:.0%}",
          red["ns"] > red["inst"])
    affine = [n for n in AFFINE if n in table]
    if affine:
        ratio = float(np.mean([totals[n]["inst"] / max(totals[n]["ns"],
                                                       1e-9)
                               for n in affine]))
        claim(f"Fig 12: INST/NS affine traffic {ratio:.1f}x > 1.5x",
              ratio > 1.5)
    for n in names:
        base_total = _base_total(table[n])
        base_off = table[n]["base"].traffic.breakdown()["offload"]
        ns_off = table[n]["ns"].traffic.breakdown()["offload"]
        claim(f"Fig 12: base has no offload traffic on {n}",
              base_off / base_total == 0.0)
        claim(f"Fig 12: NS has offload traffic on {n}",
              ns_off / base_total > 0.0)
    return claims


def _speedups(table) -> Dict[str, Dict[str, float]]:
    return {n: {m: (1.0 if m == "base"
                    else by_mode[m].speedup_over(by_mode["base"]))
                for m in MODES}
            for n, by_mode in table.items()}


def _base_total(by_mode) -> float:
    return max(by_mode["base"].traffic.total_byte_hops, 1e-9)


def _traffic_totals(table) -> Dict[str, Dict[str, float]]:
    return {n: {m: by_mode[m].traffic.total_byte_hops / _base_total(by_mode)
                for m in MODES}
            for n, by_mode in table.items()}
