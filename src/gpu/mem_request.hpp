#ifndef MORPHEUS_GPU_MEM_REQUEST_HPP_
#define MORPHEUS_GPU_MEM_REQUEST_HPP_

#include <cstdint>
#include <functional>

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

/**
 * Completion callback: invoked (as an event) when the request finishes,
 * with the completion time and the data version observed/produced.
 */
using RespFn = std::function<void(Cycle when, std::uint64_t version)>;

/**
 * Shared plumbing handed to every timing component: the event queue, the
 * interconnect, DRAM, the functional backing store, energy accounting and
 * the configuration. Non-owning; the GpuSystem outlives all users.
 */
struct FabricContext
{
    EventQueue *eq = nullptr;
    Crossbar *noc = nullptr;
    DramModel *dram = nullptr;
    BackingStore *store = nullptr;
    EnergyModel *energy = nullptr;
    const GpuConfig *cfg = nullptr;
};

/**
 * Routing interface implemented by GpuSystem: carries an L1 miss (or
 * uncached access) from an SM across the NoC into the right LLC
 * partition, which may be fronted by a Morpheus controller.
 */
class LlcRouter
{
  public:
    virtual ~LlcRouter() = default;

    /**
     * Sends @p req (departing SM @p req.requester_sm at @p when) into the
     * memory side. @p resp is scheduled when the access completes.
     */
    virtual void to_llc(Cycle when, const MemRequest &req, RespFn resp) = 0;
};

} // namespace morpheus

#endif // MORPHEUS_GPU_MEM_REQUEST_HPP_
