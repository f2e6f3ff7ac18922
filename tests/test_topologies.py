"""Tests for the Topology abstraction, its registry and the generic builder."""

from dataclasses import asdict

import pytest

from repro.core.domains import (BLOCK_LINKS, BLOCKS, DOMAIN_FETCH, DOMAIN_FP,
                                DOMAIN_INTEGER, GALS_DOMAINS, SYNC_DOMAIN,
                                Topology, available_topologies, base_block,
                                get_topology, make_cluster_topology,
                                register_topology)
from repro.core.experiments import run_single
from repro.core.processor import Processor
from repro.workloads import make_workload
from test_golden_regression import assert_pinned

SMALL = 250


# ------------------------------------------------------------------ structure
def test_canonical_topologies_registered():
    names = available_topologies()
    assert "base" in names and "gals5" in names
    # at least three non-paper topologies, as the design-space opener promises
    extras = [n for n in names if n not in ("base", "gals5")]
    assert len(extras) >= 3


def test_aliases_resolve():
    assert get_topology("gals") is get_topology("gals5")
    assert get_topology("sync") is get_topology("base")


def test_base_topology_is_degenerate_single_domain():
    base = get_topology("base")
    assert base.is_synchronous
    assert base.domain_names == (SYNC_DOMAIN,)
    assert base.edges() == ()
    assert base.blocks_in(SYNC_DOMAIN) == BLOCKS


def test_gals5_topology_is_identity_partition():
    gals = get_topology("gals5")
    assert gals.domain_names == GALS_DOMAINS
    assert not gals.is_synchronous
    # every structural link crosses a domain boundary in the 5-domain machine
    assert len(gals.edges()) == len(BLOCK_LINKS)
    for block in BLOCKS:
        assert gals.domain_of(block) == block


def test_partition_edges_follow_assignment():
    topo = get_topology("frontback2")
    edge_names = {name for name, _, _ in topo.edges()}
    # fetch->decode stays inside the front domain; dispatch and redirect cross
    assert "fetch->decode" not in edge_names
    assert {"dispatch->int", "dispatch->fp", "dispatch->mem",
            "redirect"} == edge_names


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology("bad", "missing blocks", {DOMAIN_FETCH: "a"})
    with pytest.raises(ValueError):
        Topology("bad", "unknown block",
                 {**{b: "a" for b in BLOCKS}, "rogue": "a"})
    with pytest.raises(ValueError):
        Topology("bad", "empty domain name", {b: "" for b in BLOCKS})


def test_register_rejects_duplicates():
    with pytest.raises(ValueError):
        register_topology(Topology("gals5", "dup",
                                   {b: b for b in BLOCKS}))
    with pytest.raises(KeyError):
        get_topology("never-registered")


def test_register_with_conflicting_alias_leaves_registry_untouched():
    """A rejected registration must not leave a half-registered topology."""
    fresh = Topology("atomic-check", "alias conflict fixture",
                     {b: "one" for b in BLOCKS})
    with pytest.raises(ValueError):
        register_topology(fresh, aliases=("gals",))   # 'gals' is taken
    with pytest.raises(KeyError):
        get_topology("atomic-check")
    # and the corrected retry succeeds
    register_topology(fresh, aliases=("atomic-check-alias",))
    assert get_topology("atomic-check-alias") is fresh


# ------------------------------------------------------------------ execution
@pytest.mark.parametrize("name", ["frontback2", "fem3", "alu4", "memsplit2"])
def test_new_topologies_run_to_completion(name):
    result = run_single("perl", name, num_instructions=SMALL, seed=1)
    topo = get_topology(name)
    assert result.committed_instructions == SMALL
    assert result.processor == topo.kind
    assert set(result.domain_cycles) == set(topo.domain_names)
    assert result.ipc > 0
    assert result.total_energy_nj > 0


def test_coarser_partitions_lose_less_performance_than_gals5():
    """Fewer domain crossings on the critical path -> smaller slowdown."""
    base = run_single("perl", "base", num_instructions=SMALL, seed=1)
    gals5 = run_single("perl", "gals5", num_instructions=SMALL, seed=1)
    front = run_single("perl", "frontback2", num_instructions=SMALL, seed=1)
    assert base.elapsed_ns <= front.elapsed_ns <= gals5.elapsed_ns


def test_adhoc_single_domain_topology_matches_base_bit_for_bit():
    """Any all-in-one assignment degenerates to the synchronous machine."""
    adhoc = Topology("adhoc-sync", "unregistered single-domain topology",
                     {block: SYNC_DOMAIN for block in BLOCKS},
                     random_phases=False, kind="base")
    workload = make_workload("perl", seed=1)
    machine = Processor(workload.trace(SMALL), topology=adhoc,
                        workload=workload)
    result = machine.run()
    reference = run_single("perl", "base", num_instructions=SMALL, seed=1)
    assert result.elapsed_ns == reference.elapsed_ns
    assert result.ipc == reference.ipc
    assert result.total_energy_nj == reference.total_energy_nj


def test_unknown_processor_kind_still_raises_value_error():
    with pytest.raises(ValueError):
        run_single("perl", "warp-drive", num_instructions=10)


def test_synchronous_topology_has_no_fifo_machinery():
    workload = make_workload("perl", seed=1)
    machine = Processor(workload.trace(10), topology="base",
                        workload=workload)
    assert not any(ch.counts_as_fifo for ch in machine.all_channels)
    assert machine.kind == "base"
    assert machine.topology.is_synchronous


def test_multi_domain_topology_builds_fifos_on_edges_only():
    workload = make_workload("perl", seed=1)
    machine = Processor(workload.trace(10), topology="fem3",
                        workload=workload)
    topo = get_topology("fem3")
    edge_names = {name for name, _, _ in topo.edges()}
    for link_name, channel in machine.channels.items():
        assert channel.counts_as_fifo == (link_name in edge_names)


def _fifo_power_ports(machine):
    for blocks in machine.power._blocks_by_domain.values():
        for model in blocks:
            if model.name == "fifo":
                return model.ports
    return None


def test_fifo_power_model_scales_with_crossing_count():
    """A topology with fewer mixed-clock FIFOs pays for fewer FIFO ports."""
    workload = make_workload("perl", seed=1)
    ports = {}
    for name in ("gals5", "memsplit2", "frontback2"):
        machine = Processor(workload.trace(10), topology=name,
                            workload=workload)
        ports[name] = _fifo_power_ports(machine)
    # gals5 keeps the stock full-complex model (all 5 links are FIFOs)
    full = ports["gals5"]
    assert full is not None
    assert ports["memsplit2"] == max(1, round(full * 1 / len(BLOCK_LINKS)))
    assert ports["frontback2"] == max(1, round(full * 4 / len(BLOCK_LINKS)))


# ------------------------------------------------- replicated-cluster family
def test_base_block_strips_replica_suffixes():
    assert base_block("integer2") == DOMAIN_INTEGER
    assert base_block("fp12") == DOMAIN_FP
    for block in BLOCKS:
        assert base_block(block) == block
    # only canonical stems resolve; anything else passes through unchanged
    assert base_block("rogue7") == "rogue7"


def test_cluster_topology_structure_scales_with_replicas():
    """Domains, blocks and synchronizer crossings grow as N predicts."""
    for n in (1, 2, 3, 4, 8):
        topo = get_topology(f"cluster{n}")
        assert topo.num_domains == 3 + 2 * n
        assert len(topo.blocks) == 3 + 2 * n
        # every block keeps its own clock -> every link is a crossing
        assert len(topo.edges()) == len(BLOCK_LINKS) + 2 * (n - 1)
        assert len(topo.links) == len(BLOCK_LINKS) + 2 * (n - 1)
    with pytest.raises(ValueError):
        make_cluster_topology(0)
    with pytest.raises(KeyError):
        get_topology("cluster999")   # beyond the on-demand synthesis bound


def test_cluster1_matches_gals5_bit_for_bit():
    """The 1-pair member of the parametric family IS the paper's machine."""
    reference = run_single("perl", "gals5", num_instructions=SMALL, seed=1)
    cluster1 = run_single("perl", "cluster1", num_instructions=SMALL, seed=1)
    ref = asdict(reference)
    got = asdict(cluster1)
    # only the processor label (the topology's kind) may differ
    assert ref.pop("processor") == "gals"
    assert got.pop("processor") == "cluster1"
    assert got == ref


#: Bit-exact goldens for the replicated-cluster machines, captured when the
#: cluster family landed.  If a future change intentionally alters the model,
#: update these constants in the same commit and say so.
CLUSTER_GOLDEN = {
    ("cluster2", "perl", 300): {
        "committed_instructions": 300,
        "elapsed_ns": 146.7579544029403,
        "ipc": 2.044182212953968,
        "mean_slip_ns": 26.206865884748627,
        "total_energy_nj": 2734.6213859555164,
        "recoveries": 0,
        "domain_cycles": {"fetch": 146, "decode": 147, "integer": 147,
                          "fp": 147, "memory": 147, "integer2": 147,
                          "fp2": 146},
    },
    ("cluster4", "perl", 300): {
        "committed_instructions": 300,
        "elapsed_ns": 146.7579544029403,
        "ipc": 2.044182212953968,
        "mean_slip_ns": 26.843532551415294,
        "total_energy_nj": 3388.528607560866,
        "recoveries": 0,
        "domain_cycles": {"fetch": 146, "decode": 147, "integer": 147,
                          "fp": 147, "memory": 147, "integer2": 147,
                          "fp2": 146, "integer3": 147, "fp3": 147,
                          "integer4": 147, "fp4": 146},
    },
}


def test_cluster_goldens_bit_identical():
    for (kind, benchmark, instructions), expected in CLUSTER_GOLDEN.items():
        result = run_single(benchmark, kind, num_instructions=instructions,
                            seed=1)
        assert result.committed_instructions == expected["committed_instructions"]
        # exact float equality on purpose: the contract is bit-identity
        assert result.elapsed_ns == expected["elapsed_ns"]
        assert result.ipc == expected["ipc"]
        assert result.mean_slip_ns == expected["mean_slip_ns"]
        assert result.total_energy_nj == expected["total_energy_nj"]
        assert result.recoveries == expected["recoveries"]
        assert result.domain_cycles == expected["domain_cycles"]


def test_cluster_machine_replicates_execution_resources():
    """The builder materialises per-replica queues, channels and power models."""
    workload = make_workload("perl", seed=1)
    machine = Processor(workload.trace(10), topology="cluster2",
                        workload=workload)
    assert set(machine.exec_units) == {"int", "fp", "mem", "int2", "fp2"}
    assert set(machine.dispatch_channels) == {"int", "fp", "mem", "int2", "fp2"}
    # 7 links, every one a crossing on the identity-assignment cluster machine
    assert len(machine.all_channels) == 7
    assert all(ch.counts_as_fifo for ch in machine.all_channels)
    # the FIFO power complex scales UP beyond the paper's five crossings
    full_machine = Processor(workload.trace(10), topology="gals5",
                             workload=make_workload("perl", seed=1))
    full = _fifo_power_ports(full_machine)
    assert _fifo_power_ports(machine) == max(1, round(full * 7 / 5))
    # replicas carry their own (renamed) energy models in their own domains
    registered = {model.name
                  for blocks in machine.power._blocks_by_domain.values()
                  for model in blocks}
    assert {"iq_int2", "alu_int2", "iq_fp2", "alu_fp2",
            "clock_integer2", "clock_fp2"} <= registered
    # only the primary integer cluster resolves branches
    assert machine.exec_units["int"].branch_unit is not None
    assert machine.exec_units["int2"].branch_unit is None


def test_replicas_actually_receive_work():
    result = run_single("perl", "cluster2", num_instructions=SMALL, seed=1)
    assert result.mean_iq_occupancy["int2"] > 0


def test_cluster_scenario_equivalent_on_wheel_and_heap_schedulers():
    """cluster2 reproduces the result pinned while the heap scheduler and
    the scan wakeup still agreed with the defaults."""
    assert_pinned("cluster2")
