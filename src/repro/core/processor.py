"""Assembly of processor models from declarative clock-domain topologies.

Every machine is built from the same microarchitecture components
(:mod:`repro.uarch`), the same memory hierarchy and the same power models;
what differs between machines -- exactly as in the paper -- is

* the clocking: how the five locally synchronous blocks are partitioned into
  clock domains (a :class:`~repro.core.domains.Topology`), and
* the inter-stage communication: plain pipeline queues inside a clock domain
  vs. mixed-clock FIFOs (with synchronization latency) between domains, plus
  the synchronization delay of results, completions and branch redirects that
  cross domains.

:class:`Processor` assembles one machine from composable per-block builders
driven by the topology: the synchronous baseline is the degenerate one-domain
topology, the paper's GALS machine is the registered five-domain topology,
and every other registered partitioning builds the same way.
:func:`build_processor` is the generic factory; :func:`build_base_processor`
and :func:`build_gals_processor` remain as the two paper-configured shortcuts.
"""

from __future__ import annotations

import dataclasses
import gc
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..async_comm.fifo import MixedClockFifo
from ..isa.trace import ListTraceSource
from ..memory.hierarchy import MemoryHierarchy
from ..power.accounting import PowerAccountant
from ..power.activity import ActivityCounters
from ..power.blocks import default_block_models, global_clock_block, local_clock_block
from ..sim.channel import Channel, SyncQueue
from ..sim.clock import ClockDomain
from ..sim.engine import SimulationEngine
from ..uarch.branch_predictor import (BranchTargetBuffer, BranchUnit,
                                      make_direction_predictor)
from ..uarch.commit import CommitUnit
from ..uarch.decode import DecodeRenameUnit
from ..uarch.execute import ExecutionUnit, FunctionalUnitPool
from ..uarch.fetch import FetchUnit, RedirectMessage
from ..uarch.instruction import DynamicInstruction
from ..uarch.issue_queue import IssueQueue
from ..uarch.regfile import PhysicalRegisterFile
from ..uarch.rename import RegisterAliasTable
from ..uarch.rob import ReorderBuffer
from ..power.voltage import voltage_for_slowdown
from .config import DEFAULT_CONFIG, ProcessorConfig
from .controllers import CONTROLLER_PRIORITY, DvfsController, EpochTelemetry
from .domains import (BLOCK_LINKS, BLOCKS, DOMAIN_DECODE, DOMAIN_FETCH,
                      DOMAIN_FP, DOMAIN_INTEGER, DOMAIN_MEMORY, GALS_DOMAINS,
                      SYNC_DOMAIN, ClockPlan, Topology, base_block,
                      get_topology, uniform_plan)
from .metrics import SimulationResult, SimulationStats

BASE_PROCESSOR = "base"
GALS_PROCESSOR = "gals"


class _FifoActivityProbe:
    """Per-cycle probe translating FIFO pushes/pops into power-model activity.

    The mixed-clock FIFOs increment one shared counter cell on every push and
    pop, so the probe reads a single integer per cycle instead of re-summing
    the push/pop statistics of every channel.
    """

    def __init__(self, channels: Iterable[Channel], activity: ActivityCounters) -> None:
        self._box = [0]
        for channel in channels:
            if channel.counts_as_fifo:
                channel.attach_transfer_counter(self._box)
        self._fifo_cell = activity.cell("fifo")
        self._last_transfer_count = 0

    def clock_edge(self, cycle: int, time: float) -> None:
        transfers = self._box[0]
        delta = transfers - self._last_transfer_count
        if delta > 0:
            self._last_transfer_count = transfers
            self._fifo_cell[0] += delta


class _DvfsControllerDriver:
    """The control-loop plumbing between a processor and a DvfsController.

    A periodic engine event (period = the control epoch, priority after every
    clock edge sharing its timestamp) samples per-epoch telemetry -- committed
    instructions, IPC in nominal reference cycles, energy, and each tracked
    queue's mean occupancy over the epoch -- hands it to the controller, and
    applies any returned per-block slowdown vector by retiming the affected
    clock domains through :meth:`Processor.retime_domain`.  Every epoch is
    appended to :attr:`trace`, which ends up as ``SimulationResult.dvfs_trace``.
    """

    def __init__(self, processor: "Processor", controller: DvfsController,
                 epoch_ns: float) -> None:
        if epoch_ns <= 0:
            raise ValueError("control epoch must be positive")
        self.processor = processor
        self.controller = controller
        self.epoch_ns = epoch_ns
        self.trace: List[dict] = []
        self._epoch = 0
        self._last_committed = 0
        self._last_energy = 0.0
        #: queues whose occupancy the controller observes; sampled once per
        #: consumer cycle by the pipeline itself, so the per-epoch mean is a
        #: difference of cumulative (accum, samples) counters
        self._queues = {
            "fetch_q": processor.fetch_channel,
            **{f"iq_{instance}": unit.issue_queue
               for instance, unit in processor.exec_units.items()},
        }
        self._last_queue_counters = {name: (0, 0) for name in self._queues}
        topology = processor.topology
        plan = processor.plan
        #: per-block slowdowns currently in force (blocks inherit their
        #: domain's plan slowdown at build time)
        self._block_slowdowns: Dict[str, float] = {
            block: plan.slowdown_of(topology.domain_of(block))
            for block in topology.blocks
        }
        controller.reset()

    # ------------------------------------------------------------- telemetry
    def _sample(self, now: float) -> EpochTelemetry:
        processor = self.processor
        # Epoch boundaries are observation points: replay the deferred energy
        # segments and occupancy runs so the deltas below are exact.
        processor.flush_telemetry()
        committed = processor.stats.committed
        committed_delta = committed - self._last_committed
        self._last_committed = committed
        energy = processor.power.total_energy()
        energy_delta = energy - self._last_energy
        self._last_energy = energy
        occupancy: Dict[str, float] = {}
        for name, queue in self._queues.items():
            accum, samples = queue.occupancy_accum, queue.occupancy_samples
            last_accum, last_samples = self._last_queue_counters[name]
            self._last_queue_counters[name] = (accum, samples)
            delta_samples = samples - last_samples
            occupancy[name] = ((accum - last_accum) / delta_samples
                               if delta_samples else 0.0)
        reference_cycles = self.epoch_ns / processor.plan.base_period
        return EpochTelemetry(
            epoch=self._epoch,
            time_ns=now,
            epoch_ns=self.epoch_ns,
            committed=committed,
            committed_delta=committed_delta,
            ipc=committed_delta / reference_cycles if reference_cycles else 0.0,
            energy_nj=energy,
            energy_delta_nj=energy_delta,
            queue_occupancy=occupancy,
            slowdowns=dict(self._block_slowdowns),
        )

    # -------------------------------------------------------------- decision
    def _apply(self, vector: Dict[str, float]) -> bool:
        """Project a per-block vector onto the topology and retime domains.

        Returns True when at least one domain's clock actually changed.
        """
        processor = self.processor
        topology = processor.topology
        base_period = processor.plan.base_period
        domain_slowdowns: Dict[str, float] = {}
        for block in topology.blocks:
            # Controllers reason in the canonical blocks; replica blocks
            # follow their base block's decision unless addressed directly.
            slowdown = vector.get(block, vector.get(base_block(block), 1.0))
            if slowdown < 1.0:
                raise ValueError(f"controller requested slowdown {slowdown} "
                                 f"< 1.0 for block {block!r}")
            domain = topology.domain_of(block)
            if slowdown > domain_slowdowns.get(domain, 1.0):
                domain_slowdowns[domain] = slowdown
        retimed = False
        for domain_name, domain in processor.domains.items():
            slowdown = domain_slowdowns.get(domain_name, 1.0)
            period = base_period * slowdown
            if period != domain.period:
                processor.retime_domain(domain_name, period, slowdown)
                retimed = True
        if retimed:
            for block in topology.blocks:
                self._block_slowdowns[block] = domain_slowdowns.get(
                    topology.domain_of(block), 1.0)
        return retimed

    def on_epoch(self, _param: object) -> None:
        processor = self.processor
        now = processor.engine.now
        telemetry = self._sample(now)
        vector = self.controller.observe(telemetry)
        retimed = self._apply(dict(vector)) if vector is not None else False
        domains = processor.domains
        base_period = processor.plan.base_period
        self.trace.append({
            "epoch": self._epoch,
            "time_ns": now,
            "committed": telemetry.committed,
            "ipc": telemetry.ipc,
            "energy_nj": telemetry.energy_nj,
            "energy_delta_nj": telemetry.energy_delta_nj,
            "queue_occupancy": dict(telemetry.queue_occupancy),
            "retimed": retimed,
            "slowdowns": {name: domain.period / base_period
                          for name, domain in domains.items()},
            "voltages": {name: domain.voltage
                         for name, domain in domains.items()},
        })
        self._epoch += 1


class Processor:
    """A fully assembled processor model ready to run one workload trace."""

    def __init__(
        self,
        trace: ListTraceSource,
        config: ProcessorConfig = DEFAULT_CONFIG,
        plan: Optional[ClockPlan] = None,
        gals: bool = True,
        workload=None,
        name: Optional[str] = None,
        engine: Optional[SimulationEngine] = None,
        topology: Optional[Union[Topology, str]] = None,
        controller: Optional[DvfsController] = None,
        controller_epoch: float = 0.0,
    ) -> None:
        if topology is None:
            topology = get_topology(GALS_PROCESSOR if gals else BASE_PROCESSOR)
        elif isinstance(topology, str):
            topology = get_topology(topology)
        self.trace = trace
        self.config = config
        self.plan = plan or uniform_plan()
        self.topology = topology
        #: legacy flag: True whenever any block pair is asynchronous
        self.gals = not topology.is_synchronous
        self.workload = workload
        self.kind = topology.kind
        self.name = name or f"{self.kind}-{trace.name}"

        #: injectable for A/B testing scheduler implementations (the
        #: wheel-vs-generic equivalence test and the perf benchmarks)
        self.engine = engine if engine is not None else SimulationEngine()
        #: forwarding latencies are pure functions of the clock plan, which
        #: only changes through retime_domain (the online DVFS path); that
        #: method clears this cache -- and the per-unit copies in
        #: CommitUnit/IssueQueue -- so the caches can never go stale within
        #: a run
        self._forwarding_cache: Dict[Tuple[str, str], float] = {}
        #: online DVFS control loop (None = static clocking, today's default)
        self.controller = controller
        self.controller_epoch = controller_epoch
        self._controller_driver: Optional[_DvfsControllerDriver] = None
        self.activity = ActivityCounters()
        self.stats = SimulationStats()
        self.epoch = 0
        self.recoveries = 0
        self._has_run = False

        self._build()

    # ----------------------------------------------------------------- build
    def _build(self) -> None:
        """Assemble the machine from composable per-block builders.

        Every step is driven by ``self.topology``; nothing below branches on
        which particular machine is being built.
        """
        self._build_domains()
        self._build_shared_structures()
        self._build_channels()
        self._build_fetch_block()
        self._build_decode_block()
        self._build_execute_blocks()
        self._register_components()
        self._build_power()
        for domain in self.domains.values():
            domain.bind(self.engine)
        if self.controller is not None:
            if self.controller_epoch <= 0:
                raise ValueError("a DVFS controller needs a positive "
                                 "controller_epoch (ns)")
            self._controller_driver = _DvfsControllerDriver(
                self, self.controller, self.controller_epoch)
            # Fires at the end of every control epoch, after all clock edges
            # sharing the boundary timestamp (CONTROLLER_PRIORITY > 0).
            self.engine.schedule_periodic(
                start=self.controller_epoch,
                period=self.controller_epoch,
                callback=self._controller_driver.on_epoch,
                priority=CONTROLLER_PRIORITY,
                name="dvfs-controller",
            )

    def _build_domains(self) -> None:
        """Instantiate the topology's clock domains and the block->domain map."""
        self.domains: Dict[str, ClockDomain] = self.plan.build_domains(
            self.topology)
        #: logical block name -> the ClockDomain clocking it
        self._block_domains: Dict[str, ClockDomain] = {
            block: self.domains[self.topology.domain_of(block)]
            for block in self.topology.blocks
        }
        #: execution-cluster instance -> the block hosting it, derived from
        #: the topology's dispatch links ("dispatch->int" feeds instance
        #: "int" in block "integer"; replicated topologies add "int2", ...)
        self._cluster_blocks: Dict[str, str] = {
            link_name[len("dispatch->"):]: consumer
            for link_name, _producer, consumer in self.topology.links
            if link_name.startswith("dispatch->")
        }
        #: execution cluster -> clock-domain *name* (decode stamps this on
        #: dispatched instructions so wakeup/commit can price the crossing)
        self._cluster_domains = {
            instance: self.topology.domain_of(block)
            for instance, block in self._cluster_blocks.items()
        }

    def _build_shared_structures(self) -> None:
        """Structures shared by all blocks: memory, registers, ROB, branches."""
        config = self.config
        self.memory = MemoryHierarchy(config.memory)
        self.regfile = PhysicalRegisterFile(config.int_registers, config.fp_registers)
        self.rat = RegisterAliasTable(self.regfile)
        self.rob = ReorderBuffer(config.rob_entries)
        predictor = make_direction_predictor(config.predictor_kind,
                                             config.predictor_entries,
                                             config.predictor_history_bits)
        btb = BranchTargetBuffer(config.btb_entries, config.btb_associativity)
        self.branch_unit = BranchUnit(predictor, btb)

    def _channel_spec(self, link_name: str) -> Tuple[int, Optional[int]]:
        """(capacity, sync_cycles override) for one structural link."""
        config = self.config
        if link_name == "fetch->decode":
            return config.fetch_queue_entries, None
        if link_name.startswith("dispatch->"):
            return config.dispatch_queue_entries, None
        if link_name == "redirect":
            return 4, config.redirect_sync_cycles
        raise KeyError(f"no channel spec for link {link_name!r}")

    def _build_channels(self) -> None:
        """Instantiate every structural link as a queue or mixed-clock FIFO.

        The links are the topology's structural ``links`` (the paper's
        :data:`BLOCK_LINKS` for the canonical machines); whether a link
        becomes a plain pipeline queue or a mixed-clock FIFO follows from
        the topology's assignment of its endpoint blocks.
        """
        block_domains = self._block_domains
        channels: Dict[str, Channel] = {}
        for link_name, producer_block, consumer_block in self.topology.links:
            capacity, sync_cycles = self._channel_spec(link_name)
            channels[link_name] = self._make_channel(
                link_name, capacity,
                block_domains[producer_block], block_domains[consumer_block],
                sync_cycles=sync_cycles)
        self.channels = channels
        self.fetch_channel = channels["fetch->decode"]
        self.redirect_channel = channels["redirect"]
        self.dispatch_channels: Dict[str, Channel] = {
            instance: channels["dispatch->" + instance]
            for instance in self._cluster_blocks
        }
        self.all_channels: List[Channel] = [self.fetch_channel,
                                            self.redirect_channel,
                                            *self.dispatch_channels.values()]

    def _build_fetch_block(self) -> None:
        """Block 1: L1 I-cache access and branch prediction."""
        config = self.config
        fetch_domain = self._block_domains[DOMAIN_FETCH]
        self.fetch_unit = FetchUnit(
            source=self.trace,
            output_channel=self.fetch_channel,
            redirect_channel=self.redirect_channel,
            branch_unit=self.branch_unit,
            memory=self.memory,
            clock_period=lambda: fetch_domain.period,
            activity=self.activity,
            fetch_width=config.fetch_width,
            wrong_path_generator=(self.workload.wrong_path_instruction
                                  if self.workload is not None else None),
        )

    def _build_decode_block(self) -> None:
        """Block 2: decode, rename, register files, dispatch and commit."""
        config = self.config
        decode_domain = self._block_domains[DOMAIN_DECODE]
        self.decode_unit = DecodeRenameUnit(
            input_channel=self.fetch_channel,
            issue_channels=self.dispatch_channels,
            rob=self.rob,
            rat=self.rat,
            regfile=self.regfile,
            clock_period=lambda: decode_domain.period,
            clock=decode_domain.clock,
            current_epoch=lambda: self.epoch,
            activity=self.activity,
            decode_width=config.decode_width,
            dispatch_width=config.dispatch_width,
            decode_stages=config.decode_stages,
            cluster_domains=self._cluster_domains,
            cluster_instances=self._cluster_instances(),
        )
        self.commit_unit = CommitUnit(
            rob=self.rob,
            rat=self.rat,
            regfile=self.regfile,
            memory=self.memory,
            domain_name=decode_domain.name,
            forwarding_latency=self.forwarding_latency,
            activity=self.activity,
            stats=self.stats,
            commit_width=config.commit_width,
        )

    def _cluster_instances(self) -> Dict[str, Tuple[str, ...]]:
        """Cluster kind -> execution-cluster instances, primary first.

        Instance keys are the dispatch-link suffixes ("int", "fp", "mem",
        plus "int2"/"fp2"/... on replicated topologies); the kind of each
        instance follows from its host block's canonical base block.
        """
        kinds = {DOMAIN_INTEGER: "int", DOMAIN_FP: "fp", DOMAIN_MEMORY: "mem"}
        instances: Dict[str, List[str]] = {kind: [] for kind in kinds.values()}
        for instance, block in self._cluster_blocks.items():
            instances[kinds[base_block(block)]].append(instance)
        return {kind: tuple(members) for kind, members in instances.items()}

    def _build_execute_blocks(self) -> None:
        """Blocks 3-5 (and their replicas): the execution clusters.

        One :class:`ExecutionUnit` per dispatch link, in link order, so the
        canonical machines build exactly the historical int/fp/mem trio and
        replicated-cluster topologies append their extra instances after it.
        Only the primary integer cluster carries the branch unit and the
        recovery callback: decode routes every control instruction there, so
        the single redirect link of the paper's machine is unchanged.
        """
        config = self.config
        #: per-kind ExecutionUnit parameterisation (issue queue sizing,
        #: functional units, issue width, power-model blocks)
        cluster_params = {
            "int": dict(entries=config.int_issue_entries,
                        units=("int_alu", config.num_int_alus),
                        issue_width=config.issue_width_int,
                        alu_block="alu_int", unit_name="integer-cluster"),
            "fp": dict(entries=config.fp_issue_entries,
                       units=("fp_alu", config.num_fp_alus),
                       issue_width=config.issue_width_fp,
                       alu_block="alu_fp", unit_name="fp-cluster"),
            "mem": dict(entries=config.mem_issue_entries,
                        units=("mem_port", config.num_mem_ports),
                        issue_width=config.issue_width_mem,
                        alu_block="alu_int", unit_name="memory-cluster"),
        }
        kinds = {DOMAIN_INTEGER: "int", DOMAIN_FP: "fp", DOMAIN_MEMORY: "mem"}
        self.exec_units: Dict[str, ExecutionUnit] = {}
        for instance, block in self._cluster_blocks.items():
            kind = kinds[base_block(block)]
            params = cluster_params[kind]
            domain = self._block_domains[block]
            primary = instance == kind
            queue_block = f"iq_{instance}"
            unit_name = (params["unit_name"] if primary
                         else f"{params['unit_name']}-{instance}")
            pool_name, pool_size = params["units"]
            self.exec_units[instance] = ExecutionUnit(
                name=unit_name,
                domain_name=domain.name,
                issue_queue=IssueQueue(queue_block, params["entries"],
                                       domain.name,
                                       scheme=config.wakeup_scheme),
                input_channel=self.dispatch_channels[instance],
                regfile=self.regfile,
                forwarding_latency=self.forwarding_latency,
                clock_period=lambda d=domain: d.period,
                clock=domain.clock,
                functional_units=FunctionalUnitPool(pool_name, pool_size),
                issue_width=params["issue_width"],
                activity=self.activity,
                alu_block=(params["alu_block"] if primary or kind == "mem"
                           else f"alu_{instance}"),
                queue_block=queue_block,
                branch_unit=self.branch_unit if instance == "int" else None,
                recovery_callback=self._recover if instance == "int" else None,
                memory=self.memory if kind == "mem" else None,
            )

    def _register_components(self) -> None:
        """Register each unit with its domain, in reverse pipeline order.

        Within any one domain, downstream stages must consume before upstream
        stages produce (the standard cycle-accurate simulation idiom), so
        units are registered in the canonical reverse pipeline order; the
        per-domain registration order follows from the topology's assignment.
        """
        block_domains = self._block_domains
        reverse_pipeline = (
            (self.commit_unit, DOMAIN_DECODE),
            *((unit, self._cluster_blocks[instance])
              for instance, unit in self.exec_units.items()),
            (self.decode_unit, DOMAIN_DECODE),
            (self.fetch_unit, DOMAIN_FETCH),
        )
        for unit, block in reverse_pipeline:
            block_domains[block].add_component(unit)
        # The FIFO power probe ticks with the commit/decode domain, after
        # every unit of that domain; a fully synchronous machine has no
        # mixed-clock FIFOs and therefore no probe.
        if any(channel.counts_as_fifo for channel in self.all_channels):
            block_domains[DOMAIN_DECODE].add_component(
                _FifoActivityProbe(self.all_channels, self.activity))

    def _make_channel(self, name: str, capacity: int,
                      producer: ClockDomain, consumer: ClockDomain,
                      sync_cycles: Optional[int] = None) -> Channel:
        """Pipeline queue inside a domain, mixed-clock FIFO across domains.

        Cross-domain channels use the configured FIFO capacity rather than the
        pipeline-queue depth: the mixed-clock FIFO needs enough slack to cover
        the round-trip synchronization latency of its full/empty flags or it
        caps the steady-state bandwidth below the machine width (Section 3.2
        stresses the FIFO's steady-state throughput).
        """
        if producer is consumer:
            return SyncQueue(name, capacity)
        if sync_cycles is None:
            sync_cycles = self.config.fifo_sync_cycles
        return MixedClockFifo(
            name, max(capacity, self.config.fifo_capacity),
            producer_clock=producer.clock,
            consumer_clock=consumer.clock,
            consumer_sync=sync_cycles,
            producer_sync=sync_cycles,
        )

    #: power-model block name -> logical block whose clock domain charges it
    _POWER_PLACEMENT: Tuple[Tuple[str, str], ...] = (
        ("icache", DOMAIN_FETCH), ("bpred", DOMAIN_FETCH),
        ("decode", DOMAIN_DECODE), ("rename", DOMAIN_DECODE),
        ("regfile_read", DOMAIN_DECODE), ("regfile_write", DOMAIN_DECODE),
        ("resultbus", DOMAIN_DECODE),
        ("iq_int", DOMAIN_INTEGER), ("alu_int", DOMAIN_INTEGER),
        ("iq_fp", DOMAIN_FP), ("alu_fp", DOMAIN_FP),
        ("iq_mem", DOMAIN_MEMORY), ("dcache", DOMAIN_MEMORY),
        ("l2", DOMAIN_MEMORY),
    )

    def _build_power(self) -> None:
        config = self.config
        block_domains = self._block_domains
        self.power = PowerAccountant(self.activity, config.technology)
        models = default_block_models(
            int_issue_entries=config.int_issue_entries,
            fp_issue_entries=config.fp_issue_entries,
            mem_issue_entries=config.mem_issue_entries,
            int_registers=config.int_registers,
            fp_registers=config.fp_registers,
            il1_size=config.memory.il1_size,
            il1_assoc=config.memory.il1_assoc,
            dl1_size=config.memory.dl1_size,
            dl1_assoc=config.memory.dl1_assoc,
            l2_size=config.memory.l2_size,
            l2_assoc=config.memory.l2_assoc,
            num_int_alus=config.num_int_alus,
            num_fp_alus=config.num_fp_alus,
            machine_width=config.machine_width,
        )
        for name, block in self._POWER_PLACEMENT:
            self.power.register_block(models[name], block_domains[block])
        # Replicated execution clusters carry their own issue-queue and ALU
        # energy models (clones of the canonical ones under the replica's
        # activity-cell names), charged in the replica's clock domain.
        for instance, block in self._cluster_blocks.items():
            if instance in ("int", "fp", "mem"):
                continue
            kind = "fp" if base_block(block) == DOMAIN_FP else "int"
            for model_name in (f"iq_{kind}", f"alu_{kind}"):
                clone = dataclasses.replace(
                    models[model_name],
                    name=model_name.replace(kind, instance, 1))
                self.power.register_block(clone, block_domains[block])
        if self.gals:
            # Any machine with mixed-clock FIFOs pays their energy in the
            # commit/decode domain (where the probe ticks).  The stock model
            # is sized for the full 5-FIFO gals5 complex; a topology with a
            # different crossing count carries proportionally scaled FIFO
            # ports, so its idle cost and utilisation normalisation follow
            # the synchronizer count in both directions.
            fifo_model = models["fifo"]
            num_crossings = len(self.topology.edges())
            if num_crossings != len(BLOCK_LINKS):
                fifo_model = dataclasses.replace(
                    fifo_model,
                    ports=max(1, round(fifo_model.ports * num_crossings
                                       / len(BLOCK_LINKS))))
            self.power.register_block(fifo_model,
                                      block_domains[DOMAIN_DECODE])
        else:
            # The synchronous machine pays for the chip-wide global clock grid.
            self.power.register_block(global_clock_block(),
                                      block_domains[DOMAIN_FETCH])
        # Every machine has one local (major-clock) distribution grid per
        # block, each charged in whatever domain clocks it; replica blocks
        # reuse their canonical block's grid model under a distinct name.
        for block in self.topology.blocks:
            base = base_block(block)
            clock_model = local_clock_block(base)
            if block != base:
                clock_model = dataclasses.replace(clock_model,
                                                  name=f"clock_{block}")
            self.power.register_block(clock_model, block_domains[block])

    # ----------------------------------------------------------- cross-domain
    def forwarding_latency(self, producer_domain: str, consumer_domain: str) -> float:
        """Extra delay (ns) for a result produced in one domain to be usable
        in another.

        Inside a domain (and everywhere in the synchronous machine) this is
        zero -- normal same-cycle/next-cycle bypassing.  Across GALS domains a
        result rides a mixed-clock FIFO: it is captured by the consumer clock
        and synchronized, costing ``fifo_sync_cycles`` consumer cycles plus an
        average half-cycle of arrival misalignment.
        """
        cache = self._forwarding_cache
        key = (producer_domain, consumer_domain)
        latency = cache.get(key)
        if latency is None:
            if producer_domain == consumer_domain:
                latency = 0.0
            else:
                consumer = self.domains.get(consumer_domain)
                if consumer is None:
                    latency = 0.0
                else:
                    latency = self.config.forwarding_sync_cycles * consumer.period
            cache[key] = latency
        return latency

    # ----------------------------------------------------------------- DVFS
    def retime_domain(self, domain_name: str, period: float,
                      slowdown: Optional[float] = None) -> None:
        """Change one domain's clock period (and voltage) during a run.

        This is the machine side of online DVFS: the domain's periodic edge
        chain is re-anchored on its already-scheduled next edge
        (:meth:`~repro.sim.clock.ClockDomain.retime`), the mixed-clock FIFOs
        re-read the mutated clock constants, and every forwarding-latency
        cache derived from the old periods is dropped (this cache plus the
        per-unit copies in the commit unit and the issue queues).  The supply
        voltage follows Equation 1 when the run's plan scales voltages;
        ``slowdown`` defaults to ``period / base_period``.
        """
        domain = self.domains[domain_name]
        # A voltage change must close the deferred accounting run at the old
        # voltage: retiming is one of the accountant's flush points.
        self.power.flush()
        if slowdown is None:
            slowdown = period / self.plan.base_period
        voltage: Optional[float] = None
        if self.plan.scale_voltages:
            voltage = voltage_for_slowdown(slowdown, self.plan.technology)
        domain.retime(period, voltage)
        self._forwarding_cache.clear()
        self.commit_unit._fwd_cache.clear()
        for unit in self.exec_units.values():
            unit.issue_queue._fwd_cache.clear()
        for channel in self.all_channels:
            if channel.counts_as_fifo:
                channel.retime()

    # -------------------------------------------------------------- recovery
    def _recover(self, branch: DynamicInstruction, now: float) -> None:
        """Branch misprediction recovery, initiated at branch resolution."""
        if branch.squashed:
            return
        self.epoch += 1
        self.recoveries += 1
        seq = branch.seq
        squashed = self.rob.squash_younger_than(seq)
        for instr in squashed:
            if instr.phys_dest is not None:
                self.regfile.free(instr.phys_dest)
        if branch.rename_checkpoint is not None:
            self.rat.restore(branch.rename_checkpoint)
        self.decode_unit.squash_younger_than(seq)
        for unit in self.exec_units.values():
            unit.squash_younger_than(seq)
        message = RedirectMessage(epoch=self.epoch, branch_seq=seq,
                                  resume_pc=branch.trace.next_pc())
        if not self.redirect_channel.can_push(now):
            self.redirect_channel.flush()
        self.redirect_channel.push(message, now)

    # ------------------------------------------------------------------- run
    def run(self, max_time_ns: Optional[float] = None) -> SimulationResult:
        """Simulate until the whole trace has committed; return the result."""
        if self._has_run:
            raise RuntimeError("a Processor instance can only run once; "
                               "build a new one for another experiment")
        self._has_run = True
        if self.config.warm_caches:
            self._warm_caches()
        total_instructions = len(self.trace)
        if max_time_ns is None:
            max_time_ns = (total_instructions * 25 + 20_000) * self.plan.base_period

        # Stop exactly at the event during which the last instruction commits
        # -- equivalent to a per-event stop_condition, but paid once per
        # commit instead of once per event.
        self.stats.commit_target = total_instructions
        self.stats.on_target = self.engine.stop
        # The simulation allocates short-lived objects at a rate that makes
        # generational GC sweeps a measurable fraction of the run; disable
        # collection for the (bounded) run and restore afterwards.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.engine.run(until=max_time_ns)
        finally:
            if gc_was_enabled:
                gc.enable()
        elapsed = (self.stats.last_commit_time if self.stats.committed
                   else self.engine.now)
        return self._collect_result(elapsed)

    def _warm_caches(self) -> None:
        """Pre-warm caches, the branch predictor and the BTB from the trace.

        The paper's experiments run full SPEC/Mediabench programs, so their
        caches and predictors operate in steady state; short synthetic traces
        would otherwise be dominated by cold misses and untrained counters.
        Warming touches each referenced line once, replays every branch
        outcome through the direction predictor and BTB once, and then clears
        the statistics; capacity/conflict misses and genuinely hard-to-predict
        branches still show up during the timed run.

        The warm accesses are a pure function of the trace and the cache line
        size, so they are derived once into an ordered replay plan (shared
        between copies of a memoized trace) and replayed per run without
        re-walking every instruction.
        """
        line = self.memory.config.line_size
        plans = getattr(self.trace, "_warm_plans", None)
        plan = plans.get(line) if plans is not None else None
        if plan is None:
            plan = []
            add_op = plan.append
            seen_code = set()
            seen_data = set()
            add_code = seen_code.add
            add_data = seen_data.add
            for instr in self.trace:
                pc = instr.pc
                code_line = pc // line
                if code_line not in seen_code:
                    add_code(code_line)
                    add_op((0, pc, False, None))
                mem_address = instr.mem_address
                if mem_address is not None:
                    data_line = mem_address // line
                    if data_line not in seen_data:
                        add_data(data_line)
                        add_op((1, mem_address, False, None))
                if instr.is_branch:
                    add_op((2, pc, instr.taken, instr.target_pc))
                elif instr.target_pc is not None and instr.is_control:
                    add_op((3, pc, False, instr.target_pc))
            if plans is not None:
                plans[line] = plan
        fetch_access = self.memory.fetch_access
        load_access = self.memory.load_access
        branch_unit = self.branch_unit
        predict = branch_unit.predict
        resolve = branch_unit.resolve
        btb_update = branch_unit.btb.update
        for kind, address, taken, target in plan:
            if kind == 2:
                predicted, _ = predict(address)
                resolve(address, taken, predicted, target)
            elif kind == 0:
                fetch_access(address)
            elif kind == 1:
                load_access(address)
            else:
                btb_update(address, target)
        self.memory.reset_stats()
        self.branch_unit.predictor.stats = type(self.branch_unit.predictor.stats)()

    def flush_telemetry(self) -> None:
        """Replay all deferred telemetry (energy segments, occupancy runs).

        Called at every observation point -- controller epoch sampling and
        end-of-run collection -- and safe to call at any time: flushing is
        value-preserving, so interleaved flushes never change final results.
        """
        self.power.flush()
        self.fetch_unit.flush_samples()
        self.decode_unit.flush_samples()
        self.commit_unit.flush_samples()
        for unit in self.exec_units.values():
            unit.flush_samples()

    def _collect_result(self, elapsed_ns: float) -> SimulationResult:
        self.flush_telemetry()
        committed = self.stats.committed
        base_period = self.plan.base_period
        reference_cycles = elapsed_ns / base_period if base_period > 0 else 0.0
        fetched = self.fetch_unit.fetched_total
        wrong_path = self.fetch_unit.fetched_wrong_path
        energy = self.power.breakdown(elapsed_ns=elapsed_ns)
        iq_occupancy = {name: unit.issue_queue.mean_occupancy
                        for name, unit in self.exec_units.items()}
        return SimulationResult(
            processor=self.kind,
            benchmark=self.trace.name,
            committed_instructions=committed,
            elapsed_ns=elapsed_ns,
            reference_cycles=reference_cycles,
            ipc=committed / reference_cycles if reference_cycles > 0 else 0.0,
            mean_slip_ns=self.stats.mean_slip,
            mean_fifo_time_ns=self.stats.mean_fifo_time,
            misspeculated_fraction=wrong_path / fetched if fetched else 0.0,
            fetched_instructions=fetched,
            wrong_path_fetched=wrong_path,
            branch_misprediction_rate=self.branch_unit.misprediction_rate,
            icache_miss_rate=self.memory.icache.stats.miss_rate,
            dcache_miss_rate=self.memory.dcache.stats.miss_rate,
            l2_miss_rate=self.memory.l2.stats.miss_rate,
            mean_rob_occupancy=self.stats.mean_rob_occupancy,
            mean_int_regs_in_use=self.stats.mean_int_regs_in_use,
            mean_fp_regs_in_use=self.stats.mean_fp_regs_in_use,
            mean_iq_occupancy=iq_occupancy,
            domain_cycles={name: domain.cycle
                           for name, domain in self.domains.items()},
            domain_voltages={name: domain.voltage
                             for name, domain in self.domains.items()},
            energy=energy,
            recoveries=self.recoveries,
            dvfs_trace=(self._controller_driver.trace
                        if self._controller_driver is not None else None),
        )


# ------------------------------------------------------------------ factories
def build_processor(trace: ListTraceSource,
                    topology: Union[Topology, str] = GALS_PROCESSOR,
                    config: ProcessorConfig = DEFAULT_CONFIG,
                    plan: Optional[ClockPlan] = None,
                    workload=None,
                    engine: Optional[SimulationEngine] = None) -> Processor:
    """Assemble a processor for any registered (or ad-hoc) topology."""
    return Processor(trace, config=config, plan=plan, workload=workload,
                     engine=engine, topology=topology)


def build_base_processor(trace: ListTraceSource,
                         config: ProcessorConfig = DEFAULT_CONFIG,
                         plan: Optional[ClockPlan] = None,
                         workload=None) -> Processor:
    """The fully synchronous baseline (Figure 3a)."""
    return Processor(trace, config=config, plan=plan, gals=False,
                     workload=workload)


def build_gals_processor(trace: ListTraceSource,
                         config: ProcessorConfig = DEFAULT_CONFIG,
                         plan: Optional[ClockPlan] = None,
                         workload=None) -> Processor:
    """The five-clock-domain GALS processor (Figure 3b)."""
    return Processor(trace, config=config, plan=plan, gals=True,
                     workload=workload)
