#ifndef MORPHEUS_MORPHEUS_EXTENDED_LLC_KERNEL_HPP_
#define MORPHEUS_MORPHEUS_EXTENDED_LLC_KERNEL_HPP_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "cache/bdi.hpp"
#include "gpu/mem_request.hpp"
#include "morpheus/address_separator.hpp"
#include "morpheus/hit_miss_predictor.hpp"
#include "morpheus/indirect_mov.hpp"
#include "morpheus/layout.hpp"
#include "sim/stats.hpp"
#include "sim/throughput_port.hpp"
#include "sim/types.hpp"

namespace morpheus {

class LlcPartition;
class Workload;

/** Which on-chip memory backs an extended LLC set. */
enum class ExtStorage : std::uint8_t
{
    kRegisterFile,
    kSharedMemory,
    kL1,
};

/** Human-readable storage name. */
const char *ext_storage_name(ExtStorage storage);

/**
 * Configuration and instruction-cost model of the extended LLC kernel
 * (§4.2, calibrated against the §5 characterization).
 */
struct ExtLlcParams
{
    /** Kernel warps assigned to each storage variant per cache-mode SM
     *  (§5 "Combining different extended LLC versions": 32 RF + 16 L1). */
    std::uint32_t rf_warps = 32;
    std::uint32_t l1_warps = 16;
    std::uint32_t smem_warps = 0;

    bool compression = false;       ///< BDI in the kernel (§4.3.1)
    bool hw_indirect_mov = false;   ///< ISA extension (§4.3.2)

    /** @name Hit/miss predictor sizing (§4.1.2)
     * Bloom-filter bits budgeted per set entry and hash probes per key.
     * The paper's design point is 8 bits / 4 probes (2 x 32 B per 32-way
     * set); the bloom_sensitivity scenario sweeps both knobs.
     */
    ///@{
    std::uint32_t bloom_bits_per_entry = 8;
    std::uint32_t bloom_probes = 4;
    ///@}

    /** Kernel-visible issue bandwidth (warp-instructions/cycle). */
    std::uint32_t issue_width = 4;

    /** Epoch length for compression-level repartitioning, cycles. */
    Cycle epoch_cycles = 10'000;

    /** @name Instruction counts per request (issue-port occupancy) */
    ///@{
    std::uint32_t tag_lookup_instrs = 6;   ///< Algorithm 1
    std::uint32_t respond_instrs = 3;      ///< write to read data buffer
    std::uint32_t evict_instrs = 4;        ///< victim select + metadata update
    std::uint32_t atomic_instrs = 4;       ///< RMW on the SM's ALUs (§4.2.3)
    std::uint32_t l1_forward_instrs = 4;   ///< ld/st into the L1 (§4.2.2)
    std::uint32_t compress_instrs = 16;    ///< BDI pack on insert
    std::uint32_t decompress_low_instrs = 8;
    std::uint32_t decompress_high_instrs = 12;
    ///@}

    /**
     * Fixed software overhead per serviced request (polling the
     * memory-mapped warp status table, reading/writing the data buffers).
     * Calibrated against Figure 5's unloaded extended-LLC *hit* latency
     * (~325 ns, roughly 2x a conventional hit's 160 ns): handshake +
     * buffer traffic dominates a software hit, so the overhead carries
     * most of that latency. On a false-positive miss it overlaps the
     * DRAM round trip (the warp polls while the fetch is in flight), so
     * misses stay near the conventional-miss + fill cost (Figure 5's
     * 773 ns vs 608 ns).
     */
    Cycle service_overhead = 167;

    /** @name Storage access latencies, cycles (paper footnote 7) */
    ///@{
    Cycle rf_latency = 2;
    Cycle smem_latency = 25;
    Cycle l1_latency = 34;
    ///@}

    std::uint32_t
    total_warps() const
    {
        return rf_warps + l1_warps + smem_warps;
    }

    /** Issue-slot cost of one data-array access for a given storage. */
    std::uint32_t data_move_instrs(ExtStorage storage) const;
};

/**
 * One extended LLC set: a fully-associative, LRU, software-managed group
 * of cache blocks owned by one kernel warp (§4.2.1).
 *
 * With compression enabled, blocks occupy 32/64/128-byte slots by BDI
 * level; the slot mix is re-derived from demand counters every epoch
 * (§4.3.1). Eviction is strict global-LRU order (evict the stalest entry
 * until a compatible slot frees), which is what makes the predictor's
 * BF2-swap argument sound for any slot mix.
 */
class ExtSet
{
  public:
    struct Entry
    {
        LineAddr line = 0;
        std::uint64_t version = 0;
        bool dirty = false;
        CompLevel slot_level = CompLevel::kUncompressed;  ///< slot occupied
        CompLevel data_level = CompLevel::kUncompressed;  ///< actual compressibility
        std::uint64_t stamp = 0;
    };

    struct Evicted
    {
        LineAddr line;
        std::uint64_t version;
        bool dirty;
    };

    /**
     * @param budget_bytes data capacity of this set.
     * @param compression  enable BDI slot management.
     * @param epoch_cycles slot repartition period.
     */
    ExtSet(std::uint32_t budget_bytes, bool compression, Cycle epoch_cycles);

    /** Presence check without side effects. */
    bool contains(LineAddr line) const { return find(line) != nullptr; }

    /**
     * Read hit path: refresh LRU, return version/level.
     * @return false on miss.
     */
    bool touch_read(Cycle now, LineAddr line, std::uint64_t &version, CompLevel &level);

    /** Write hit path: refresh LRU, mark dirty. @return false on miss. */
    bool touch_write(Cycle now, LineAddr line, std::uint64_t version);

    /**
     * Inserts a block (miss fill or predicted-miss insertion task).
     * Dirty displaced victims are appended to @p evicted.
     * @return false if no compatible slot exists (block bypasses the set).
     */
    bool insert(Cycle now, LineAddr line, std::uint64_t version, bool dirty, CompLevel level,
                std::vector<Evicted> &evicted);

    /** Maximum simultaneously resident blocks (predictor swap threshold). */
    std::uint32_t max_blocks() const;

    std::uint32_t resident() const { return static_cast<std::uint32_t>(entries_.size()); }
    std::uint32_t budget_bytes() const { return budget_; }

    /** @name Statistics */
    ///@{
    std::uint64_t insertions(CompLevel level) const
    {
        return inserted_[static_cast<std::size_t>(level)];
    }
    std::uint64_t bypasses() const { return bypasses_; }
    ///@}

  private:
    const Entry *find(LineAddr line) const;
    Entry *find(LineAddr line);
    void maybe_epoch(Cycle now);
    void rebalance();

    /** Removes entry @p i (swap-with-back), keeping tags_ in sync. */
    void remove_at(std::size_t i);

    /** Free slots at @p level under the current allocation. */
    std::int64_t
    free_slots(std::size_t level) const
    {
        return static_cast<std::int64_t>(alloc_[level]) - static_cast<std::int64_t>(used_[level]);
    }

    std::uint32_t budget_;
    bool compression_;
    Cycle epoch_cycles_;
    Cycle next_epoch_;
    std::uint64_t clock_ = 0;

    std::vector<Entry> entries_;
    /** entries_[i].line mirrored into a dense array so lookups scan 8-byte
     *  tags instead of 40-byte Entry structs (the find() hot path). */
    std::vector<LineAddr> tags_;
    std::uint32_t alloc_[3] = {0, 0, 0};   ///< slots per CompLevel
    std::uint32_t used_[3] = {0, 0, 0};
    std::uint64_t demand_[3] = {0, 0, 0};  ///< per-epoch level demand
    std::uint64_t inserted_[3] = {0, 0, 0};
    std::uint64_t bypasses_ = 0;
};

/** Receives the completion of each request an extended-LLC warp serves
 *  (the Morpheus controller that forwarded it). */
class ExtSink
{
  public:
    virtual ~ExtSink() = default;

    /** The warp of cache-mode SM @p cache_sm finished serving request
     *  @p id now (the event queue's current time). */
    virtual void ext_done(ReqId id, std::uint32_t cache_sm, std::uint64_t version, bool hit) = 0;
};

/** Where an extended-LLC request's completion goes: @p sink gets @p id. */
struct ExtDone
{
    ReqId id = 0;
    ExtSink *sink = nullptr;
};

/**
 * One GPU core in cache mode: hosts the extended LLC kernel with one warp
 * per extended set, a shared issue port (warp scheduling contention), and
 * the per-storage timing model. Misses fetch from DRAM over the NoC,
 * bypassing the conventional LLC (§4.2.1-4.2.2).
 */
class CacheModeSm
{
  public:
    /**
     * @param sm_id       global SM id (NoC port).
     * @param ctx         shared fabric plumbing.
     * @param params      kernel configuration.
     * @param rf_bytes    the SM's register file size.
     * @param l1_bytes    the SM's unified L1/shared-memory size.
     * @param workload    source of block contents for BDI.
     * @param partitions  LLC partitions (DRAM fetch/writeback path).
     */
    CacheModeSm(std::uint32_t sm_id, FabricContext ctx, const ExtLlcParams &params,
                std::uint64_t rf_bytes, std::uint64_t l1_bytes, const Workload *workload,
                std::vector<std::unique_ptr<LlcPartition>> *partitions);

    std::uint32_t sm_id() const { return sm_id_; }
    std::uint32_t num_sets() const { return static_cast<std::uint32_t>(sets_.size()); }

    /** Data capacity of local set @p s. */
    std::uint64_t set_capacity_bytes(std::uint32_t s) const { return sets_[s].set.budget_bytes(); }

    /** Storage variant of local set @p s. */
    ExtStorage set_storage(std::uint32_t s) const { return sets_[s].storage; }

    /** Max resident blocks of local set @p s (predictor threshold). */
    std::uint32_t set_max_blocks(std::uint32_t s) const { return sets_[s].set.max_blocks(); }

    /** Oracle presence check (Perfect-Prediction mode). */
    bool contains(std::uint32_t s, LineAddr line) const { return sets_[s].set.contains(line); }

    /** Tasks ever enqueued for local set @p s (load-balance diagnostics). */
    std::uint64_t set_tasks(std::uint32_t s) const { return sets_[s].tasks; }

    /** Cycles local set @p s spent serving (utilization diagnostics). */
    Cycle set_busy_cycles(std::uint32_t s) const { return sets_[s].busy_cycles; }

    /** Total extended-LLC data capacity of this SM. */
    std::uint64_t total_capacity_bytes() const;

    /**
     * Enqueues a request (predicted hit path) for local set @p s. The
     * request sits in the controller's request queue until the owning
     * warp is free; the partition->SM NoC transfer is performed at
     * dequeue time. @p done fires when the warp finishes serving (before
     * the response NoC transfer, which the controller performs).
     */
    void enqueue_request(Cycle ready, std::uint32_t s, const MemRequest &req, ExtDone done);

    /**
     * Enqueues an insertion task (predicted-miss fill; off the
     * requester's critical path). The block ships to the SM at dequeue.
     */
    void enqueue_insert(Cycle ready, std::uint32_t s, LineAddr line, std::uint64_t version,
                        bool dirty);

    /** @name Statistics */
    ///@{
    std::uint64_t served() const { return served_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t insert_tasks() const { return insert_tasks_; }
    std::uint64_t merged_requests() const { return merged_requests_; }
    std::uint64_t kernel_instructions() const { return kernel_instructions_; }
    const Accumulator &service_time() const { return service_time_; }
    const Accumulator &queue_wait() const { return queue_wait_; }
    const Accumulator &queue_depth() const { return queue_depth_; }
    const Accumulator &transfer_time() const { return transfer_time_; }
    std::uint64_t comp_insertions(CompLevel level) const;
    ///@}

  private:
    static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

    /**
     * A node of the SM's task pool: a queued task, or a read request
     * merged onto one (then only `done` and `next` are used). Nodes are
     * addressed by index, so any enqueue, which may grow the pool,
     * invalidates a `Task &`.
     */
    struct Task
    {
        LineAddr line = 0;
        /** Request tasks: the requester's write version; insert tasks:
         *  the block's version. */
        std::uint64_t version = 0;
        /** Time the task became ready at the controller's request queue.
         *  The partition->SM NoC transfer happens at dequeue (§4.1.3: a
         *  request is de-queued only when its warp is ready). */
        Cycle ready = 0;
        ExtDone done;                       ///< request tasks and merged readers
        /** Next task of the set's FIFO, next merged reader, or next free
         *  node. */
        std::uint32_t next = kNone;
        /** Same-line read requests merged onto this task (MSHR-style
         *  coalescing in the query logic's request queue), a FIFO of
         *  nodes in arrival order. */
        std::uint32_t merged_head = kNone;
        std::uint32_t merged_tail = kNone;
        AccessType type = AccessType::kRead;
        bool is_insert = false;
        bool dirty = false;                 ///< insert tasks
    };

    struct WarpSet
    {
        ExtSet set;
        /** The set's queued tasks: an intrusive FIFO of task-pool nodes. */
        std::uint32_t head = kNone;
        std::uint32_t tail = kNone;
        std::uint32_t queued = 0;
        ExtStorage storage;
        bool busy = false;
        /** Head task has begun service (unmergeable). */
        bool head_active = false;
        std::uint64_t tasks = 0;
        Cycle busy_cycles = 0;
        Cycle service_began = 0;

        WarpSet(std::uint32_t budget, bool compression, Cycle epoch, ExtStorage st)
            : set(budget, compression, epoch), storage(st)
        {
        }
    };

    /** Takes a cleared node from the task pool. @return its index. */
    std::uint32_t new_node();
    void free_node(std::uint32_t n);

    /** Appends task node @p n to set @p s's queue; wakes the warp if idle. */
    void push_task(std::uint32_t s, std::uint32_t n);

    /** Starts serving the head task of set @p s at time @p when. */
    void service(Cycle when, std::uint32_t s);
    void finish_task(Cycle when, std::uint32_t s);

    /** Performs the dequeue-time partition -> SM NoC transfer. */
    Cycle dequeue_transfer(Cycle when, const Task &task);

    /** Miss continuation: the fetched block arrived at the SM. */
    void service_miss_fill(std::uint32_t s, Cycle start);

    /** Signals each requester's completion (as events) and pops the task. */
    void complete_task(Cycle when, std::uint32_t s, std::uint64_t version, bool hit);

    /** DRAM round trip (NoC + channel) for the miss at the head of set
     *  @p s, starting now; service_miss_fill(s, @p start) runs when the
     *  block arrives at this SM. */
    void dram_round_trip(std::uint32_t s, Cycle start);
    void writeback(Cycle when, LineAddr line, std::uint64_t version);

    /** Charges @p instrs to the issue port starting at @p when;
     *  @return completion time. */
    Cycle issue(Cycle when, std::uint32_t instrs);

    /** BDI level of @p line under the current workload's data profile. */
    CompLevel level_of(LineAddr line) const;

    /** Unit access latency + energy for touching set @p s's storage. */
    Cycle storage_access(std::uint32_t s, std::uint32_t bytes);

    std::uint32_t sm_id_;
    FabricContext ctx_;
    ExtLlcParams params_;
    const Workload *workload_;
    std::vector<std::unique_ptr<LlcPartition>> *partitions_;
    ThroughputPort issue_port_;
    std::vector<WarpSet> sets_;
    /** Every set's queued tasks and merged readers; freed nodes are
     *  chained through `next` from free_. */
    std::vector<Task> pool_;
    std::uint32_t free_ = kNone;
    std::vector<ExtSet::Evicted> evicted_scratch_;

    std::uint64_t served_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t insert_tasks_ = 0;
    std::uint64_t merged_requests_ = 0;
    std::uint64_t kernel_instructions_ = 0;
    Accumulator service_time_;
    Accumulator queue_wait_;
    Accumulator queue_depth_;
    Accumulator transfer_time_;
};

} // namespace morpheus

#endif // MORPHEUS_MORPHEUS_EXTENDED_LLC_KERNEL_HPP_
