#ifndef MORPHEUS_SIM_THROUGHPUT_PORT_HPP_
#define MORPHEUS_SIM_THROUGHPUT_PORT_HPP_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace morpheus {

/**
 * A bandwidth-limited, latency-free service resource.
 *
 * Models a serializing port (a NoC link, a DRAM channel data bus, an LLC
 * bank port, an SM issue slot) as a "next free" timestamp: each acquire
 * reserves the port for a duration and returns the time at which service
 * begins. Queuing delay emerges as max(0, next_free - now). Fixed
 * latencies are added by the caller after the grant.
 */
class ThroughputPort
{
  public:
    ThroughputPort() = default;

    /**
     * @param units_per_cycle Service rate in units per cycle (e.g. bytes
     *        per cycle for a link, accesses per cycle for a bank port).
     *        set_rate stores its inverse, the occupancy per unit, in
     *        1/1024ths of a cycle for integer precision.
     */
    static ThroughputPort
    from_rate(double units_per_cycle)
    {
        ThroughputPort p;
        p.set_rate(units_per_cycle);
        return p;
    }

    /** Sets the service rate in units per cycle (e.g. bytes/cycle). */
    void
    set_rate(double units_per_cycle)
    {
        // Store occupancy in 1/1024 cycle fixed point to stay deterministic.
        milli_per_unit_ =
            units_per_cycle > 0 ? static_cast<std::uint64_t>(1024.0 / units_per_cycle + 0.5) : 0;
    }

    /**
     * Reserves the port for @p units starting no earlier than @p now.
     * @return the cycle at which service begins (>= now).
     */
    Cycle
    acquire(Cycle now, std::uint64_t units)
    {
        Cycle start = std::max(now, next_free_);
        fixed_free_ = std::max(fixed_free_, start << 10) + units * milli_per_unit_;
        next_free_ = fixed_free_ >> 10;
        busy_fixed_ += units * milli_per_unit_;
        served_units_ += units;
        return start;
    }

    /** Earliest time a new acquisition could begin service. */
    Cycle next_free() const { return next_free_; }

    /** Total busy time in cycles (for utilization stats). */
    Cycle busy_cycles() const { return busy_fixed_ >> 10; }

    /** Total units served (e.g. bytes through a link). */
    std::uint64_t served_units() const { return served_units_; }

    /** Resets reservations and stats. */
    void
    reset()
    {
        next_free_ = 0;
        fixed_free_ = 0;
        busy_fixed_ = 0;
        served_units_ = 0;
    }

  private:
    Cycle next_free_ = 0;
    std::uint64_t fixed_free_ = 0;    // next_free in 1/1024 cycles
    std::uint64_t milli_per_unit_ = 1024;
    std::uint64_t busy_fixed_ = 0;
    std::uint64_t served_units_ = 0;
};

/**
 * A pool of identical ThroughputPorts (e.g. the banks of an LLC partition
 * or the channels of a DRAM device). acquire() picks the port that frees
 * up earliest, modeling n-way banking without tracking per-bank addresses.
 */
class PortPool
{
  public:
    PortPool() = default;

    PortPool(std::size_t n, double units_per_cycle_each) { configure(n, units_per_cycle_each); }

    /** (Re)configures the pool with @p n ports of the given rate each. */
    void
    configure(std::size_t n, double units_per_cycle_each)
    {
        ports_.assign(n, ThroughputPort::from_rate(units_per_cycle_each));
    }

    /** Reserves the earliest-free port; see ThroughputPort::acquire. */
    Cycle
    acquire(Cycle now, std::uint64_t units)
    {
        ThroughputPort *best = &ports_.front();
        for (auto &p : ports_) {
            if (p.next_free() <= now) {
                best = &p;
                break;
            }
            if (p.next_free() < best->next_free())
                best = &p;
        }
        return best->acquire(now, units);
    }

    /**
     * Reserves a specific port selected by @p key (e.g. a bank index
     * derived from the address), modeling address-interleaved banking.
     */
    Cycle
    acquire_keyed(Cycle now, std::uint64_t key, std::uint64_t units)
    {
        return ports_[key % ports_.size()].acquire(now, units);
    }

    std::size_t size() const { return ports_.size(); }

    /** Sum of busy cycles across ports. */
    Cycle
    busy_cycles() const
    {
        Cycle total = 0;
        for (const auto &p : ports_)
            total += p.busy_cycles();
        return total;
    }

    /** Sum of served units across ports. */
    std::uint64_t
    served_units() const
    {
        std::uint64_t total = 0;
        for (const auto &p : ports_)
            total += p.served_units();
        return total;
    }

    void
    reset()
    {
        for (auto &p : ports_)
            p.reset();
    }

  private:
    std::vector<ThroughputPort> ports_;
};

} // namespace morpheus

#endif // MORPHEUS_SIM_THROUGHPUT_PORT_HPP_
