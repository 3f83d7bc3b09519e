#ifndef MORPHEUS_HARNESS_CONFIG_CODEC_HPP_
#define MORPHEUS_HARNESS_CONFIG_CODEC_HPP_

/**
 * @file
 * Canonical byte encoding of a simulation configuration: every knob of
 * SystemSetup and WorkloadParams, listed once as archive templates
 * (sim/state_io.hpp), so serialize and restore cannot drift apart.
 *
 * The result cache's content key (serve/result_cache.hpp) hashes these
 * bytes to memoize completed runs.
 *
 * Because the byte stream is a cache identity, its stability is part of
 * the on-disk format: reordering fields, adding a knob, or changing a
 * width is a FORMAT CHANGE. Bump kResultCacheVersion when you touch
 * these templates — tests/test_result_cache.cpp pins the digest of a
 * fixed configuration, so a silent change fails loudly there instead of
 * surfacing as a cold cache.
 */

#include "gpu/gpu_system.hpp"
#include "workloads/synthetic_workload.hpp"

namespace morpheus {

template <class A>
void
state_noc_params(A &ar, NocParams &p)
{
    ar.field(p.sm_ports);
    ar.field(p.partition_ports);
    ar.field(p.sm_link_bytes_per_cycle);
    ar.field(p.partition_link_bytes_per_cycle);
    ar.field(p.hop_latency);
    ar.field(p.header_bytes);
}

template <class A>
void
state_dram_params(A &ar, DramParams &p)
{
    ar.field(p.channels);
    ar.field(p.bytes_per_cycle_per_channel);
    ar.field(p.banks_per_channel);
    ar.field(p.row_hit_latency);
    ar.field(p.row_miss_latency);
    ar.field(p.lines_per_row);
    ar.field(p.bank_occupancy);
}

template <class A>
void
state_energy_params(A &ar, EnergyParams &p)
{
    ar.field(p.instr_pj);
    ar.field(p.l1_pj_per_byte);
    ar.field(p.llc_pj_per_byte);
    ar.field(p.dram_pj_per_byte);
    ar.field(p.noc_pj_per_byte);
    ar.field(p.rf_pj_per_byte);
    ar.field(p.smem_pj_per_byte);
    ar.field(p.sm_static_w);
    ar.field(p.sm_gated_w);
    ar.field(p.mem_static_w);
    ar.field(p.base_static_w);
    ar.field(p.controller_overhead_frac);
}

template <class A>
void
state_ext_params(A &ar, ExtLlcParams &p)
{
    ar.field(p.rf_warps);
    ar.field(p.l1_warps);
    ar.field(p.smem_warps);
    ar.field(p.compression);
    ar.field(p.hw_indirect_mov);
    ar.field(p.bloom_bits_per_entry);
    ar.field(p.bloom_probes);
    ar.field(p.issue_width);
    ar.field(p.epoch_cycles);
    ar.field(p.tag_lookup_instrs);
    ar.field(p.respond_instrs);
    ar.field(p.evict_instrs);
    ar.field(p.atomic_instrs);
    ar.field(p.l1_forward_instrs);
    ar.field(p.compress_instrs);
    ar.field(p.decompress_low_instrs);
    ar.field(p.decompress_high_instrs);
    ar.field(p.service_overhead);
    ar.field(p.rf_latency);
    ar.field(p.smem_latency);
    ar.field(p.l1_latency);
}

template <class A>
void
state_gpu_config(A &ar, GpuConfig &c)
{
    ar.field(c.num_sms);
    ar.field(c.warps_per_sm);
    ar.field(c.issue_width);
    ar.field(c.warp_mem_credits);
    ar.field(c.l1_bytes);
    ar.field(c.l1_ways);
    ar.field(c.l1_latency);
    ar.field(c.l1_mshrs);
    ar.field(c.rf_bytes);
    ar.field(c.llc_partitions);
    ar.field(c.llc_bytes);
    ar.field(c.llc_ways);
    ar.field(c.llc_latency);
    ar.field(c.llc_banks);
    ar.field(c.llc_bank_occupancy);
    state_noc_params(ar, c.noc);
    state_dram_params(ar, c.dram);
    ar.field(c.mem_frequency_scale);
    ar.field(c.blocking_writes);
    ar.field(c.max_cycles);
}

template <class A>
void
state_setup(A &ar, SystemSetup &s)
{
    state_gpu_config(ar, s.cfg);
    ar.field(s.compute_sms);
    ar.field(s.morpheus.enabled);
    ar.field(s.morpheus.cache_sms);
    state_ext_params(ar, s.morpheus.kernel);
    ar.field(s.morpheus.prediction);
    ar.field(s.l1_bonus_bytes);
    state_energy_params(ar, s.energy);
}

template <class A>
void
state_workload_params(A &ar, WorkloadParams &p)
{
    ar.str(p.name);
    ar.field(p.memory_bound);
    ar.field(p.pattern);
    ar.field(p.alu_per_mem);
    ar.field(p.lines_per_mem);
    ar.field(p.shared_ws_bytes);
    ar.field(p.per_warp_ws_bytes);
    ar.field(p.private_frac);
    ar.field(p.reuse_frac);
    ar.field(p.hot_frac);
    ar.field(p.zipf_alpha);
    ar.field(p.write_frac);
    ar.field(p.atomic_frac);
    ar.field(p.warps_per_sm);
    ar.field(p.total_mem_instrs);
    ar.field(p.stencil_row);
    ar.field(p.tile_lines);
    ar.field(p.tile_reuse);
    ar.field(p.data.high_frac);
    ar.field(p.data.low_frac);
    ar.field(p.data.seed);
    ar.field(p.seed);
}

} // namespace morpheus

#endif // MORPHEUS_HARNESS_CONFIG_CODEC_HPP_
