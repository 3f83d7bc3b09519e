#include "mem/dram.hpp"

#include <cassert>

namespace morpheus {

DramModel::DramModel(const DramParams &params)
    : params_(params), row_hit_cycles_(params.row_hit_latency),
      row_miss_cycles_(params.row_miss_latency)
{
    channel_bus_.resize(params_.channels,
                        ThroughputPort::from_rate(params_.bytes_per_cycle_per_channel));
    const std::size_t total_banks =
        static_cast<std::size_t>(params_.channels) * params_.banks_per_channel;
    // A bank serves one access per bank_occupancy window.
    banks_.resize(total_banks,
                  ThroughputPort::from_rate(1.0 / static_cast<double>(params_.bank_occupancy)));
    open_row_.assign(total_banks, 0);
    row_valid_.assign(total_banks, false);
}

void
DramModel::set_frequency_scale(double scale)
{
    freq_scale_ = scale;
    row_hit_cycles_ = static_cast<Cycle>(static_cast<double>(params_.row_hit_latency) / scale);
    row_miss_cycles_ = static_cast<Cycle>(static_cast<double>(params_.row_miss_latency) / scale);
    for (auto &bus : channel_bus_)
        bus.set_rate(params_.bytes_per_cycle_per_channel * scale);
    for (auto &bank : banks_)
        bank.set_rate(scale / static_cast<double>(params_.bank_occupancy));
}

Cycle
DramModel::access(Cycle now, std::uint32_t channel, LineAddr line, bool is_write)
{
    assert(channel < params_.channels);
    const std::uint64_t row = line / params_.lines_per_row;
    const std::uint32_t bank_idx = static_cast<std::uint32_t>(row % params_.banks_per_channel);
    const std::size_t bank_id =
        static_cast<std::size_t>(channel) * params_.banks_per_channel + bank_idx;

    const bool row_hit = row_valid_[bank_id] && open_row_[bank_id] == row;
    open_row_[bank_id] = row;
    row_valid_[bank_id] = true;
    if (row_hit)
        ++row_hits_;
    else
        ++row_misses_;

    const Cycle device_latency = row_hit ? row_hit_cycles_ : row_miss_cycles_;

    // Reserve the bank slot and the data-bus burst at the (monotonic)
    // arrival time; the device latency is pipelined on top. Reserving the
    // bus at a future timestamp would fragment its reservation timeline.
    banks_[bank_id].acquire(now, 1);
    channel_bus_[channel].acquire(now, kLineBytes);
    const Cycle done =
        std::max(banks_[bank_id].next_free(), channel_bus_[channel].next_free()) +
        device_latency;

    if (is_write)
        ++writes_;
    else
        ++reads_;
    bytes_ += kLineBytes;
    service_latency_.add(static_cast<double>(done - now));
    return done;
}

double
DramModel::utilization(Cycle elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    const double capacity =
        peak_bytes_per_cycle() * freq_scale_ * static_cast<double>(elapsed);
    return capacity > 0 ? static_cast<double>(bytes_) / capacity : 0.0;
}

} // namespace morpheus
