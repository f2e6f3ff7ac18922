"""Textual reports and ASCII charts of experiment results.

The paper presents its results as bar charts (Figures 5-13); this module
renders the same series as text tables and simple horizontal ASCII bars so
the benchmark harness can print directly comparable output.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..core.experiments import DvfsResult
from ..core.metrics import ComparisonRow
from ..power.accounting import EnergyBreakdown
from ..power.blocks import BREAKDOWN_CATEGORIES


def ascii_bar(value: float, scale: float = 50.0, maximum: float = 1.2) -> str:
    """A horizontal bar of '#' characters for a normalised value."""
    if maximum <= 0:
        raise ValueError("maximum must be positive")
    clamped = max(0.0, min(value, maximum))
    return "#" * int(round(clamped / maximum * scale))


def bar_chart(series: Mapping[str, float], title: str = "",
              maximum: Optional[float] = None, width: int = 40) -> str:
    """Render a named series as an ASCII bar chart."""
    if not series:
        return title
    peak = maximum if maximum is not None else max(series.values()) or 1.0
    label_width = max(len(name) for name in series)
    lines = [title] if title else []
    for name, value in series.items():
        bar = ascii_bar(value, scale=width, maximum=peak)
        lines.append(f"{name:<{label_width}}  {value:6.3f}  {bar}")
    return "\n".join(lines)


# ------------------------------------------------------------------ Figures 5-9
def performance_table(rows: Sequence[ComparisonRow]) -> str:
    """Figure 5: GALS performance relative to base, per benchmark."""
    lines = [f"{'benchmark':<10} {'relative performance':>21}"]
    for row in rows:
        lines.append(f"{row.benchmark:<10} {row.relative_performance:>21.3f}")
    mean = sum(r.relative_performance for r in rows) / len(rows)
    lines.append(f"{'average':<10} {mean:>21.3f}")
    return "\n".join(lines)


def slip_table(rows: Sequence[ComparisonRow]) -> str:
    """Figure 6: average slip (ns) in base and GALS."""
    lines = [f"{'benchmark':<10} {'base slip':>10} {'gals slip':>10} {'ratio':>7}"]
    for row in rows:
        lines.append(f"{row.benchmark:<10} {row.base_slip_ns:>10.2f} "
                     f"{row.gals_slip_ns:>10.2f} {row.slip_ratio:>7.2f}")
    return "\n".join(lines)


def slip_breakdown_table(rows: Sequence[ComparisonRow]) -> str:
    """Figure 7: share of the GALS slip spent in FIFOs vs in the pipeline."""
    lines = [f"{'benchmark':<10} {'FIFO share':>11} {'pipeline share':>15}"]
    for row in rows:
        fifo = row.gals_fifo_slip_fraction
        lines.append(f"{row.benchmark:<10} {fifo:>11.2%} {1 - fifo:>15.2%}")
    return "\n".join(lines)


def misspeculation_table(rows: Sequence[ComparisonRow]) -> str:
    """Figure 8: percentage of mis-speculated instructions, base vs GALS."""
    lines = [f"{'benchmark':<10} {'base':>8} {'gals':>8}"]
    for row in rows:
        lines.append(f"{row.benchmark:<10} {row.base_misspeculation:>8.1%} "
                     f"{row.gals_misspeculation:>8.1%}")
    return "\n".join(lines)


def energy_power_table(rows: Sequence[ComparisonRow]) -> str:
    """Figure 9: GALS energy and power normalised to base."""
    lines = [f"{'benchmark':<10} {'rel energy':>11} {'rel power':>10}"]
    for row in rows:
        lines.append(f"{row.benchmark:<10} {row.relative_energy:>11.3f} "
                     f"{row.relative_power:>10.3f}")
    mean_e = sum(r.relative_energy for r in rows) / len(rows)
    mean_p = sum(r.relative_power for r in rows) / len(rows)
    lines.append(f"{'average':<10} {mean_e:>11.3f} {mean_p:>10.3f}")
    return "\n".join(lines)


# -------------------------------------------------------------------- Figure 10
def breakdown_table(base: EnergyBreakdown, gals: EnergyBreakdown) -> str:
    """Figure 10: per-macro-block energy, both machines normalised to base."""
    lines = [f"{'category':<18} {'base':>8} {'gals':>8}"]
    total = base.total_energy_nj or 1.0
    for category in BREAKDOWN_CATEGORIES:
        base_share = base.by_category.get(category, 0.0) / total
        gals_share = gals.by_category.get(category, 0.0) / total
        lines.append(f"{category:<18} {base_share:>8.3f} {gals_share:>8.3f}")
    lines.append(f"{'total':<18} {1.0:>8.3f} "
                 f"{gals.total_energy_nj / total:>8.3f}")
    return "\n".join(lines)


# ------------------------------------------------------------------- scenarios
def scenario_table(results: Sequence) -> str:
    """Comparison table for a batch of ScenarioResult objects (CLI sweeps)."""
    header = (f"{'scenario':<20} {'topology':<11} {'workload':<18} "
              f"{'IPC':>6} {'elapsed ns':>11} {'energy nJ':>10} {'power W':>8}")
    lines = [header]
    for item in results:
        result = item.result
        lines.append(
            f"{item.scenario.name:<20} {item.scenario.topology:<11} "
            f"{item.scenario.workload:<18} {result.ipc:>6.2f} "
            f"{result.elapsed_ns:>11.1f} {result.total_energy_nj:>10.1f} "
            f"{result.average_power_w:>8.2f}")
    return "\n".join(lines)


# ------------------------------------------------------- design-space compare
def design_space_records(results: Sequence) -> List[Dict[str, Any]]:
    """Flat metric records for a topology × workload × policy result set.

    Each record carries the absolute figures of merit (IPC, elapsed time,
    energy, power, energy-delay and energy-delay² products) plus the same
    quantities normalised to the fully synchronous ``base`` topology of the
    same workload × policy cell (or, if the set has no ``base`` row for that
    cell, to its first row).  This is the payload ``repro report compare
    --json`` writes for CI artifacts.
    """
    records = []
    for item in results:
        scenario, result = item.scenario, item.result
        elapsed = result.elapsed_ns
        energy = result.total_energy_nj
        records.append({
            "scenario": scenario.name,
            "topology": scenario.topology,
            "workload": scenario.workload,
            "policy": scenario.policy,
            "controller": getattr(scenario, "controller", None),
            "instructions": result.committed_instructions,
            "ipc": result.ipc,
            "elapsed_ns": elapsed,
            "energy_nj": energy,
            "power_w": result.average_power_w,
            "edp_nj_ns": energy * elapsed,
            "ed2p_nj_ns2": energy * elapsed * elapsed,
        })
    # normalise within each workload × policy cell against its base topology;
    # adaptive (controller-driven) rows never serve as the reference, so a
    # controller's rel_* columns always read against the static baseline
    references: Dict[tuple, Dict[str, Any]] = {}
    for record in records:
        cell = (record["workload"], record["policy"])
        if cell not in references or (record["topology"] == "base"
                                      and record["controller"] is None):
            references[cell] = record
    for record in records:
        reference = references[(record["workload"], record["policy"])]
        record["rel_performance"] = (
            reference["elapsed_ns"] / record["elapsed_ns"]
            if record["elapsed_ns"] else 0.0)
        for field_name, rel_name in (("energy_nj", "rel_energy"),
                                     ("edp_nj_ns", "rel_edp"),
                                     ("ed2p_nj_ns2", "rel_ed2p")):
            record[rel_name] = (record[field_name] / reference[field_name]
                                if reference[field_name] else 0.0)
    return records


def design_space_table(results: Sequence) -> str:
    """Cross-topology design-space table (``repro report compare``).

    Relative columns are normalised per workload × policy cell against the
    ``base`` topology (see :func:`design_space_records`); ED and ED² are the
    energy-delay products, the lower the better.
    """
    records = design_space_records(results)
    header = (f"{'topology':<11} {'workload':<18} {'policy':<10} "
              f"{'controller':<10} "
              f"{'IPC':>6} {'energy nJ':>10} {'power W':>8} "
              f"{'ED':>9} {'ED2':>9} "
              f"{'rel perf':>9} {'rel E':>7} {'rel ED':>7} {'rel ED2':>8}")
    lines = [header]
    for record in records:
        lines.append(
            f"{record['topology']:<11} {record['workload']:<18} "
            f"{record['policy'] or '-':<10} "
            f"{record['controller'] or '-':<10} "
            f"{record['ipc']:>6.2f} {record['energy_nj']:>10.1f} "
            f"{record['power_w']:>8.2f} "
            f"{record['edp_nj_ns']:>9.3g} {record['ed2p_nj_ns2']:>9.3g} "
            f"{record['rel_performance']:>9.3f} {record['rel_energy']:>7.3f} "
            f"{record['rel_edp']:>7.3f} {record['rel_ed2p']:>8.3f}")
    return "\n".join(lines)


# ------------------------------------------------------- controller traces
def dvfs_trace_records(item) -> List[Dict[str, Any]]:
    """Flat per-epoch records for one controller-driven ScenarioResult.

    Each record carries the epoch boundary time, the epoch's IPC and energy,
    and the per-domain frequency (GHz, derived from the scenario's base
    period and the slowdowns in force after the epoch's control decision) --
    the time series adaptive-vs-static comparisons plot.
    """
    trace = item.result.dvfs_trace or []
    base_period = item.scenario.base_period
    records = []
    for entry in trace:
        records.append({
            "epoch": entry["epoch"],
            "time_ns": entry["time_ns"],
            "committed": entry["committed"],
            "ipc": entry["ipc"],
            "energy_nj": entry["energy_nj"],
            "energy_delta_nj": entry["energy_delta_nj"],
            "retimed": entry["retimed"],
            "frequency_ghz": {
                domain: 1.0 / (base_period * slowdown)
                for domain, slowdown in entry["slowdowns"].items()},
            "slowdowns": dict(entry["slowdowns"]),
            "voltages": dict(entry["voltages"]),
            "queue_occupancy": dict(entry.get("queue_occupancy", {})),
        })
    return records


def dvfs_trace_table(item) -> str:
    """Per-epoch frequency/IPC/energy trace of one controller-driven run.

    One row per control epoch; the frequency columns (GHz) show each clock
    domain's rate in force *after* that epoch's control decision, with a
    ``*`` marking epochs where the controller actually retimed a domain.
    """
    records = dvfs_trace_records(item)
    if not records:
        return "(no DVFS trace: run had no online controller)"
    domains = list(records[0]["frequency_ghz"])
    header = f"{'epoch':>5} {'t ns':>8} {'IPC':>6} {'dE nJ':>8}  " + " ".join(
        f"{domain:>8}" for domain in domains)
    lines = [header]
    for record in records:
        freqs = " ".join(f"{record['frequency_ghz'][domain]:>8.3f}"
                         for domain in domains)
        mark = "*" if record["retimed"] else " "
        lines.append(f"{record['epoch']:>5} {record['time_ns']:>8.1f} "
                     f"{record['ipc']:>6.2f} {record['energy_delta_nj']:>8.1f} "
                     f"{mark} {freqs}")
    return "\n".join(lines)


# -------------------------------------------------------- phased workloads
def phase_trace_records(item) -> List[Dict[str, Any]]:
    """Per-control-epoch records annotated with the phased-workload phase.

    For a controller-driven run of a ``phased:<mix>`` workload, rebuilds the
    (deterministic) phase plan and attributes every control epoch to the
    phase in which the epoch's last committed instruction falls, adding
    ``phase``, ``segment`` and ``committed_delta`` to each
    :func:`dvfs_trace_records` record.  This is what lets adaptive-vs-static
    comparisons see *which regime* the controller was reacting to.
    """
    from ..workloads import PhasedWorkload, get_mix
    from ..workloads.registry import PHASED_PREFIX
    scenario = item.scenario
    if not scenario.workload.startswith(PHASED_PREFIX):
        raise ValueError(f"scenario {scenario.name!r} runs workload "
                         f"{scenario.workload!r}, not a phased: workload")
    workload = PhasedWorkload(
        get_mix(scenario.workload[len(PHASED_PREFIX):]),
        seed=scenario.seed, kernel_size=scenario.kernel_size)
    plan = workload.plan(scenario.num_instructions)
    records = []
    prev_committed = 0
    for record in dvfs_trace_records(item):
        committed = record["committed"]
        marker = max(prev_committed,
                     min(committed, scenario.num_instructions) - 1)
        placement = next(p for p in plan if p.start <= marker < p.end)
        records.append({**record,
                        "phase": placement.index,
                        "segment": placement.segment,
                        "committed_delta": committed - prev_committed})
        prev_committed = committed
    return records


def phase_resolved_table(item) -> str:
    """Phase-resolved IPC and energy of one controller-driven phased run.

    One row per phase of the workload's schedule: how many control epochs it
    spanned, the instructions committed and time spent inside it, and the
    resulting per-phase IPC (in nominal reference cycles) and energy per
    instruction -- the table that shows a regime change actually moving the
    machine's operating point.
    """
    records = phase_trace_records(item)
    if not records:
        return "(no phase trace: run had no online controller)"
    base_period = item.scenario.base_period
    by_phase: Dict[int, Dict[str, Any]] = {}
    prev_time = 0.0
    for record in records:
        row = by_phase.setdefault(record["phase"], {
            "segment": record["segment"], "epochs": 0,
            "committed": 0, "time_ns": 0.0, "energy_nj": 0.0})
        row["epochs"] += 1
        row["committed"] += record["committed_delta"]
        row["time_ns"] += record["time_ns"] - prev_time
        row["energy_nj"] += record["energy_delta_nj"]
        prev_time = record["time_ns"]
    header = (f"{'phase':>5} {'segment':<20} {'epochs':>6} {'instr':>7} "
              f"{'t ns':>9} {'IPC':>6} {'nJ':>9} {'nJ/instr':>9}")
    lines = [header]
    for phase in sorted(by_phase):
        row = by_phase[phase]
        cycles = row["time_ns"] / base_period if base_period else 0.0
        ipc = row["committed"] / cycles if cycles else 0.0
        epi = row["energy_nj"] / row["committed"] if row["committed"] else 0.0
        lines.append(f"{phase:>5} {row['segment']:<20} {row['epochs']:>6} "
                     f"{row['committed']:>7} {row['time_ns']:>9.1f} "
                     f"{ipc:>6.2f} {row['energy_nj']:>9.1f} {epi:>9.2f}")
    return "\n".join(lines)


# ----------------------------------------------------------------- Figures 11-13
def dvfs_table(results: Sequence[DvfsResult], include_ideal: bool = True) -> str:
    """Figures 11-13: normalised performance / energy / (ideal) / power."""
    header = f"{'config':<22} {'performance':>12} {'energy':>8}"
    if include_ideal:
        header += f" {'ideal':>7}"
    header += f" {'power':>7}"
    lines = [header]
    for result in results:
        line = (f"{result.benchmark + '/' + result.policy:<22} "
                f"{result.relative_performance:>12.3f} "
                f"{result.relative_energy:>8.3f}")
        if include_ideal:
            line += f" {result.ideal_energy:>7.3f}"
        line += f" {result.relative_power:>7.3f}"
        lines.append(line)
    return "\n".join(lines)
