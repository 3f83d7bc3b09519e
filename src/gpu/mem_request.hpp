#ifndef MORPHEUS_GPU_MEM_REQUEST_HPP_
#define MORPHEUS_GPU_MEM_REQUEST_HPP_

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/types.hpp"

namespace morpheus {

class EventQueue;
class Crossbar;
class DramModel;
class BackingStore;
class EnergyModel;
struct GpuConfig;

/** Kind of memory access issued by a warp. */
enum class AccessType : std::uint8_t
{
    kRead,
    kWrite,
    kAtomic,
};

/** A line-granular memory request traveling through the hierarchy. */
struct MemRequest
{
    LineAddr line = 0;
    AccessType type = AccessType::kRead;
    /** Issuing SM (for response routing). */
    std::uint32_t requester_sm = 0;
    /** For writes/atomics: the version the requester is storing. */
    std::uint64_t write_version = 0;
};

/** Identifies one in-flight request record in a ReqPool. */
using ReqId = std::uint32_t;

/**
 * Requester tokens with this bit set belong to the router's own probe
 * requests (GpuSystem's callback overload of to_llc); L1 tokens never
 * set it.
 */
inline constexpr std::uint32_t kProbeTokenBit = 1u << 31;

/**
 * The system's in-flight memory requests, one flat record each, addressed
 * by a 32-bit ReqId. The L1 (or a probe) acquires a record when a request
 * departs for the LLC and releases it when the response is delivered, so
 * every hop in between passes 4 bytes instead of the request and a
 * completion closure. Records are recycled through a free list; the pool
 * only grows to the run's peak in-flight count.
 *
 * A Record reference is invalidated by acquire(): read what you need
 * before a call that may issue a new request.
 */
class ReqPool
{
  public:
    struct Record
    {
        MemRequest req;
        /** Requester-side completion token; its meaning belongs to the
         *  requester (an L1 step slot, a fill, a probe callback). */
        std::uint32_t token = 0;
        /** Free-list link (valid only while the record is free). */
        ReqId next_free = kNone;
        /** Time the request reached the Morpheus controller. */
        Cycle arrived = 0;
    };

    /** Takes a free record for @p req, tagged with the requester's @p token. */
    ReqId
    acquire(const MemRequest &req, std::uint32_t token)
    {
        ReqId id = free_;
        if (id == kNone) {
            id = static_cast<ReqId>(records_.size());
            records_.emplace_back();
        } else {
            free_ = records_[id].next_free;
        }
        Record &rec = records_[id];
        rec.req = req;
        rec.token = token;
        ++in_flight_;
        return id;
    }

    /** Returns record @p id to the free list. */
    void
    release(ReqId id)
    {
        assert(in_flight_ > 0);
        records_[id].next_free = free_;
        free_ = id;
        --in_flight_;
    }

    /** Hint: prefetches record @p id. Changes no state; ignores an id
     *  the pool never handed out. */
    void
    prefetch(ReqId id) const noexcept
    {
        if (id < records_.size()) {
            const Record *rec = &records_[id];
            __builtin_prefetch(rec);
            __builtin_prefetch(reinterpret_cast<const unsigned char *>(rec + 1) - 1);
        }
    }

    Record &operator[](ReqId id) { return records_[id]; }
    const Record &operator[](ReqId id) const { return records_[id]; }

    /** Records acquired and not yet released. */
    std::size_t in_flight() const { return in_flight_; }

  private:
    static constexpr ReqId kNone = std::numeric_limits<ReqId>::max();

    std::vector<Record> records_;
    ReqId free_ = kNone;
    std::size_t in_flight_ = 0;
};

class LlcRouter;

/**
 * Shared plumbing handed to every timing component: the event queue, the
 * interconnect, DRAM, the functional backing store, energy accounting,
 * the configuration, the in-flight request pool and the router that
 * carries requests to the LLC and responses back. Non-owning; the
 * GpuSystem outlives all users.
 */
struct FabricContext
{
    EventQueue *eq = nullptr;
    Crossbar *noc = nullptr;
    DramModel *dram = nullptr;
    BackingStore *store = nullptr;
    EnergyModel *energy = nullptr;
    const GpuConfig *cfg = nullptr;
    ReqPool *reqs = nullptr;
    LlcRouter *router = nullptr;
};

/**
 * Routing interface implemented by GpuSystem: carries an L1 miss (or
 * uncached access) from an SM across the NoC into the right LLC
 * partition, which may be fronted by a Morpheus controller, and hands
 * each response back to its requester.
 */
class LlcRouter
{
  public:
    virtual ~LlcRouter() = default;

    /**
     * Sends request @p id (departing SM `req.requester_sm` at @p when)
     * into the memory side.
     */
    virtual void to_llc(Cycle when, ReqId id) = 0;

    /**
     * The response to request @p id reached its requester at @p when,
     * carrying data version @p version. Releases the record.
     */
    virtual void deliver(ReqId id, Cycle when, std::uint64_t version) = 0;

    /**
     * Hint: prefetches what delivering a response for @p line to SM
     * @p sm will touch. Changes no state; the default does nothing.
     */
    virtual void prefetch_delivery(std::uint32_t sm, LineAddr line) const noexcept
    {
        (void)sm;
        (void)line;
    }
};

} // namespace morpheus

#endif // MORPHEUS_GPU_MEM_REQUEST_HPP_
