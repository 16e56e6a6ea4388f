"""Report assembly shared by the CLI commands."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .instance import Instance
from .instancefile import _encode_number as _num

RATIO_TOL = 1e-12


def items_block(instance: Instance) -> list[dict]:
    rows = []
    for n, item in enumerate(instance.items):
        idx = instance.indices[n]
        rows.append(
            {
                "id": n,
                "cost": _num(item.cost),
                "mu": _num(idx.mu),
                "u_rsv": _num(idx.u_rsv),
                "u_bkp": _num(idx.u_bkp),
                "p_hedge": _num(idx.p_hedge),
                "alpha_local": _num(idx.alpha_local),
                "never_inspect": idx.never_inspect,
            }
        )
    return rows


@dataclass
class Report:
    items: list[dict] = field(default_factory=list)
    bounds: Optional[dict] = None
    policy: Optional[dict] = None
    ratio: Optional[dict] = None
    oracle: Optional[dict] = None
    checks: Optional[list[dict]] = None

    def ratio_ok(self) -> bool:
        if self.ratio is None:
            return True
        return bool(self.ratio.get("ok", True))

    def to_json(self) -> str:
        doc = {"items": self.items}
        for name in ("bounds", "policy", "ratio", "oracle", "checks"):
            value = getattr(self, name)
            if value is not None:
                doc[name] = value
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        if self.items:
            header = f"{'id':>3} {'cost':>10} {'mu':>10} {'u_rsv':>10} {'u_bkp':>10} {'p_hedge':>10} {'alpha':>10}  never"
            lines.append(header)
            lines.append("-" * len(header))
            for row in self.items:
                lines.append(
                    f"{row['id']:>3} {_cell(row['cost']):>10} {_cell(row['mu']):>10} "
                    f"{_cell(row['u_rsv']):>10} {_cell(row['u_bkp']):>10} "
                    f"{_cell(row['p_hedge']):>10} {_cell(row['alpha_local']):>10}  "
                    f"{'yes' if row['never_inspect'] else 'no'}"
                )
        for name in ("bounds", "policy", "oracle", "ratio"):
            block = getattr(self, name)
            if block is None:
                continue
            lines += ["", f"{name}:"]
            lines += [f"  {key:<24} {_cell(block[key])}" for key in sorted(block) if key != "traces"]
            for trace in block.get("traces", []):
                lines.append(f"  trace[{trace['trial']}]:")
                for k in ("labels", "inspection_order", "selected", "selected_without_inspection", "total_cost"):
                    if k in trace:
                        lines.append(f"    {k:<22} {trace[k]}")
        if not self.ratio_ok():
            lines.append("  FAIL: ratio exceeds its certified ceiling")
        return "\n".join(lines) + "\n"


def _cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def ratio_block(lh_value, lower_bound, ceiling) -> dict:
    """LH-to-lower-bound ratio with its certified ceiling."""
    if float(lower_bound) == 0.0:
        realized = 1.0 if float(lh_value) == 0.0 else float("inf")
    else:
        realized = float(lh_value) / float(lower_bound)
    ok = realized <= float(ceiling) * (1 + RATIO_TOL) + RATIO_TOL
    return {
        "lh_over_lower_bound": realized,
        "certified_ceiling": float(ceiling),
        "ok": ok,
    }
