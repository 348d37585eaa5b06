"""Host-side subsystem: interfaces (SATA II / PCIe+NVMe), commands,
trace player, real-trace ingestion and IOZone-like workload generators."""

from . import nvme, sata, traces
from .commands import IoCommand, IoOpcode, IoStatus, SECTOR_BYTES
from .interface import (HostInterface, HostInterfaceSpec, pcie_nvme_spec,
                        sata2_spec, sata_spec)
from .tenants import (ARBITRATION_POLICIES, NamespacePartition,
                      TENANT_WORKLOADS, Tenant, TenantSpec,
                      arbitration_burst, build_tenants, kv_store_workload,
                      merge_tenants, page_io_workload, partition_namespaces,
                      tenant_commands)
from .trace import (TraceError, format_trace, load_trace, parse_trace,
                    play_trace, save_trace)
from .traces import (TraceProfile, TraceRecord, characterize,
                     detect_format, detect_format_of_file, format_profile,
                     iter_trace, preconditioning_commands,
                     records_to_commands, run_preconditioning, scale_time,
                     wrap_to_capacity, wrap_to_device)
from .workload import (AccessPattern, CommandListWorkload, IOZONE_SUITE,
                       Workload, mixed_workload, random_read, random_write,
                       sequential_read, sequential_write, timed_workload)

__all__ = [
    "ARBITRATION_POLICIES", "AccessPattern", "CommandListWorkload",
    "HostInterface",
    "HostInterfaceSpec", "IOZONE_SUITE", "NamespacePartition",
    "TENANT_WORKLOADS", "Tenant", "TenantSpec", "arbitration_burst",
    "build_tenants", "kv_store_workload", "merge_tenants",
    "page_io_workload", "partition_namespaces", "tenant_commands",
    "IoCommand", "IoOpcode", "IoStatus", "SECTOR_BYTES", "TraceError",
    "TraceProfile", "TraceRecord", "Workload",
    "characterize", "detect_format", "detect_format_of_file",
    "format_profile", "format_trace", "iter_trace", "load_trace",
    "parse_trace", "pcie_nvme_spec", "play_trace",
    "preconditioning_commands",
    "mixed_workload", "random_read", "random_write",
    "records_to_commands", "run_preconditioning", "sata2_spec",
    "sata_spec", "save_trace", "scale_time", "timed_workload", "traces",
    "nvme", "sata", "sequential_read", "sequential_write",
    "wrap_to_capacity", "wrap_to_device",
]
