#include "gpu/gpu_system.hpp"

#include <algorithm>
#include <cassert>

#include "morpheus/address_separator.hpp"
#include "morpheus/morpheus_controller.hpp"

namespace morpheus {

namespace {

NocParams
noc_params_for(const GpuConfig &cfg)
{
    NocParams p = cfg.noc;
    p.sm_ports = cfg.num_sms;
    p.partition_ports = cfg.llc_partitions;
    return p;
}

DramParams
dram_params_for(const GpuConfig &cfg)
{
    DramParams p = cfg.dram;
    p.channels = cfg.llc_partitions;
    return p;
}

} // namespace

GpuSystem::GpuSystem(const SystemSetup &setup, Workload &workload)
    : setup_(setup), workload_(workload), energy_(setup.energy),
      noc_(noc_params_for(setup.cfg)), dram_(dram_params_for(setup.cfg))
{
    const GpuConfig &cfg = setup_.cfg;
    assert(setup_.compute_sms + setup_.morpheus.cache_sms <= cfg.num_sms);

    ctx_ = FabricContext{&eq_, &noc_, &dram_, &store_, &energy_, &setup_.cfg};

    if (cfg.mem_frequency_scale != 1.0) {
        noc_.set_frequency_scale(cfg.mem_frequency_scale);
        dram_.set_frequency_scale(cfg.mem_frequency_scale);
    }

    const std::uint32_t sets = cfg.llc_sets_per_partition();
    for (std::uint32_t p = 0; p < cfg.llc_partitions; ++p) {
        partitions_.push_back(std::make_unique<LlcPartition>(
            p, ctx_, sets, cfg.llc_ways, cfg.llc_latency, cfg.llc_banks,
            cfg.llc_bank_occupancy));
        if (cfg.mem_frequency_scale != 1.0)
            partitions_.back()->set_frequency_scale(cfg.mem_frequency_scale);
    }

    if (setup_.morpheus.enabled && setup_.morpheus.cache_sms > 0) {
        std::vector<std::uint32_t> cache_ids;
        for (std::uint32_t i = 0; i < setup_.morpheus.cache_sms; ++i)
            cache_ids.push_back(setup_.compute_sms + i);
        ext_ = std::make_unique<ExtendedLlc>(ctx_, setup_.morpheus.kernel, cache_ids,
                                             &workload_, cfg.llc_bytes, &partitions_);
        for (std::uint32_t p = 0; p < cfg.llc_partitions; ++p) {
            controllers_.push_back(std::make_unique<MorpheusController>(
                p, ctx_, partitions_[p].get(), ext_.get(), setup_.morpheus.prediction));
        }
    }

    for (std::uint32_t i = 0; i < setup_.compute_sms; ++i)
        sms_.push_back(std::make_unique<Sm>(i, ctx_, this, &workload_));

    if (setup_.l1_bonus_bytes > 0) {
        for (auto &sm : sms_)
            sm->l1().add_capacity(setup_.l1_bonus_bytes);
    }
}

GpuSystem::~GpuSystem() = default;

MorpheusController *
GpuSystem::controller(std::uint32_t p)
{
    return controllers_.empty() ? nullptr : controllers_[p].get();
}

void
GpuSystem::to_llc(Cycle when, const MemRequest &req, RespFn resp)
{
    const std::uint32_t p = partition_of(req.line, setup_.cfg.llc_partitions);
    const std::uint32_t payload = req.type == AccessType::kRead ? 0 : kLineBytes;
    energy_.add_noc_bytes(payload + noc_.params().header_bytes);
    const Cycle arrival = noc_.sm_to_partition(when, req.requester_sm, p, payload);

    eq_.schedule(arrival, [this, p, req, arrival, resp = std::move(resp)]() mutable {
        if (!controllers_.empty())
            controllers_[p]->handle(arrival, req, std::move(resp));
        else
            partitions_[p]->handle(arrival, req, std::move(resp));
    });
}

void
GpuSystem::begin_run()
{
    workload_.configure(setup_.compute_sms);
    for (auto &sm : sms_)
        sm->start();
}

void
GpuSystem::advance_to(Cycle stop)
{
    eq_.run_until(stop);
}

RunResult
GpuSystem::run()
{
    begin_run();
    advance_to(setup_.cfg.max_cycles);
    return collect();
}

RunResult
GpuSystem::collect()
{
    RunResult r;
    r.workload = workload_.info().name;
    r.cycles = eq_.now();

    for (const auto &sm : sms_) {
        r.instructions += sm->instructions();
        r.l1_hits += sm->l1().hits();
        r.l1_misses += sm->l1().misses();
    }
    r.ipc = r.cycles ? static_cast<double>(r.instructions) / static_cast<double>(r.cycles) : 0;

    Accumulator conv_hit;
    Accumulator conv_miss;
    for (const auto &part : partitions_) {
        r.llc_accesses += part->accesses();
        r.llc_hits += part->hits();
        r.llc_misses += part->misses();
        if (part->hit_latency().count())
            conv_hit.add(part->hit_latency().mean());
        if (part->miss_latency().count())
            conv_miss.add(part->miss_latency().mean());
    }
    r.conv_hit_latency = conv_hit.mean();
    r.conv_miss_latency = conv_miss.mean();

    if (ext_) {
        r.ext_capacity_bytes = ext_->total_capacity_bytes();
        r.ext_hits = ext_->hits();
        r.ext_misses = ext_->misses();
        Accumulator eh;
        Accumulator em;
        Accumulator pm;
        for (const auto &ctl : controllers_) {
            r.ext_requests += ctl->ext_requests();
            r.ext_predicted_hits += ctl->predicted_hits();
            r.ext_predicted_misses += ctl->predicted_misses();
            r.ext_false_positives += ctl->false_positives();
            if (ctl->ext_hit_latency().count())
                eh.add(ctl->ext_hit_latency().mean());
            if (ctl->ext_miss_latency().count())
                em.add(ctl->ext_miss_latency().mean());
            if (ctl->pred_miss_latency().count())
                pm.add(ctl->pred_miss_latency().mean());
        }
        r.ext_hit_latency = eh.mean();
        r.ext_miss_latency = em.mean();
        r.pred_miss_latency = pm.mean();
    }

    r.dram_reads = dram_.reads();
    r.dram_writes = dram_.writes();
    r.dram_utilization = dram_.utilization(r.cycles);

    r.noc_injection_rate = noc_.injection_rate(r.cycles);
    r.noc_avg_latency = noc_.transfer_latency().mean();
    r.noc_bytes = noc_.injected_bytes();

    const double llc_services =
        static_cast<double>(r.llc_accesses + r.ext_requests);
    r.llc_throughput = r.cycles ? llc_services * 1000.0 / static_cast<double>(r.cycles) : 0;

    const double total_misses = static_cast<double>(
        r.llc_misses + r.ext_misses + r.ext_predicted_misses);
    r.mpki = r.instructions ? total_misses * 1000.0 / static_cast<double>(r.instructions) : 0;

    const std::uint32_t active =
        setup_.compute_sms + (ext_ ? setup_.morpheus.cache_sms : 0);
    const std::uint32_t gated = setup_.cfg.num_sms - active;
    r.energy = energy_.finalize(r.cycles, active, gated, ext_ != nullptr);
    r.avg_watts = EnergyModel::average_watts(r.energy, r.cycles);
    r.perf_per_watt = r.avg_watts > 0 ? r.ipc / r.avg_watts : 0;
    return r;
}

} // namespace morpheus
