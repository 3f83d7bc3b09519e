/**
 * @file
 * Microbenchmark suite for the hot components of the simulator and of
 * Morpheus itself: Bloom filters, the dual-filter predictor, BDI
 * compression, the tag-lookup / Indirect-MOV warp emulation, the
 * set-associative cache, the extended-LLC set, the event queue, and the
 * Zipf sampler.
 *
 * Self-contained timing loops (no external benchmark framework): each
 * component runs a fixed deterministic iteration count under
 * std::chrono::steady_clock, and independent components fan out across
 * the worker pool like any other sweep.
 */
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/bdi.hpp"
#include "cache/bloom_filter.hpp"
#include "cache/set_assoc_cache.hpp"
#include "harness/report.hpp"
#include "harness/sweep_engine.hpp"
#include "harness/table.hpp"
#include "morpheus/extended_llc_kernel.hpp"
#include "morpheus/hit_miss_predictor.hpp"
#include "morpheus/indirect_mov.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "workloads/block_data.hpp"

namespace morpheus::scenarios {
namespace {

struct MicroResult
{
    std::uint64_t iterations = 0;
    double ns_per_op = 0;
};

/** Times @p iters calls of @p op (after a small untimed warm-up). */
template <typename Op>
MicroResult
time_op(std::uint64_t iters, Op op)
{
    for (std::uint64_t i = 0; i < iters / 16 + 1; ++i)
        op(i);
    const auto begin = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i)
        op(i);
    const auto end = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin).count());
    return MicroResult{iters, ns / static_cast<double>(iters)};
}

/** Keeps a value alive without letting the optimizer see through it. */
template <typename T>
inline void
do_not_optimize(const T &value)
{
    asm volatile("" : : "g"(value) : "memory");
}

MicroResult
bm_bloom_insert(std::uint32_t bits)
{
    BloomFilter bf(bits);
    std::uint64_t key = 1;
    return time_op(2'000'000, [&](std::uint64_t) {
        bf.insert(key++);
        if ((key & 1023) == 0)
            bf.clear();
    });
}

MicroResult
bm_bloom_query(std::uint32_t bits)
{
    BloomFilter bf(bits);
    for (std::uint64_t k = 0; k < 32; ++k)
        bf.insert(k * 977);
    std::uint64_t key = 1;
    bool sink = false;
    auto r = time_op(4'000'000, [&](std::uint64_t) { sink ^= bf.maybe_contains(key++); });
    do_not_optimize(sink);
    return r;
}

MicroResult
bm_predictor_access()
{
    DualBloomPredictor pred(32);
    Rng rng(7);
    return time_op(1'000'000, [&](std::uint64_t) {
        const LineAddr line = rng.next_below(4096);
        do_not_optimize(pred.predict_hit(line));
        pred.on_access(line);
    });
}

MicroResult
bm_predictor_access_fused()
{
    // Same access stream as predictor_access, through the one-pass
    // query+train entry point the Bloom-mode controller uses.
    DualBloomPredictor pred(32);
    Rng rng(7);
    return time_op(1'000'000, [&](std::uint64_t) {
        const LineAddr line = rng.next_below(4096);
        do_not_optimize(pred.access_and_predict(line));
    });
}

MicroResult
bm_bdi_compress()
{
    const BlockDataProfile profile{0.3, 0.4, 42};
    return time_op(200'000, [&](std::uint64_t i) {
        const Block block = synthesize_block(profile, i);
        do_not_optimize(bdi_compress(block));
    });
}

MicroResult
bm_bdi_round_trip()
{
    const BlockDataProfile profile{0.5, 0.4, 43};
    std::vector<std::uint8_t> encoded;
    return time_op(200'000, [&](std::uint64_t i) {
        const Block block = synthesize_block(profile, i);
        const BdiResult r = bdi_encode(block, encoded);
        do_not_optimize(bdi_decode(r.encoding, encoded));
    });
}

/** Deterministic pool of pre-synthesized blocks: the encode/decode split
 *  entries measure the codec alone, without block synthesis in the loop. */
std::vector<Block>
bdi_block_pool()
{
    const BlockDataProfile profile{0.5, 0.4, 43};
    std::vector<Block> blocks;
    blocks.reserve(256);
    for (std::uint64_t i = 0; i < 256; ++i)
        blocks.push_back(synthesize_block(profile, i));
    return blocks;
}

MicroResult
bm_bdi_encode()
{
    const std::vector<Block> blocks = bdi_block_pool();
    std::vector<std::uint8_t> encoded;
    return time_op(1'000'000, [&](std::uint64_t i) {
        do_not_optimize(bdi_encode(blocks[i & 255], encoded));
    });
}

MicroResult
bm_bdi_decode()
{
    const std::vector<Block> blocks = bdi_block_pool();
    std::vector<BdiEncoding> encodings(256);
    std::vector<std::vector<std::uint8_t>> payloads(256);
    for (std::size_t i = 0; i < 256; ++i)
        encodings[i] = bdi_encode(blocks[i], payloads[i]).encoding;
    return time_op(1'000'000, [&](std::uint64_t i) {
        do_not_optimize(bdi_decode(encodings[i & 255], payloads[i & 255]));
    });
}

MicroResult
bm_warp_tag_lookup()
{
    WarpSetEmulator warp;
    Block data{};
    for (std::uint64_t t = 0; t < 32; ++t)
        warp.insert(t, data, false);
    return time_op(4'000'000, [&](std::uint64_t i) {
        do_not_optimize(warp.tag_lookup(i % 48));
    });
}

MicroResult
bm_indirect_mov_read()
{
    WarpSetEmulator warp;
    Block data{};
    for (std::uint64_t t = 0; t < 32; ++t)
        warp.insert(t, data, false);
    return time_op(2'000'000, [&](std::uint64_t i) {
        do_not_optimize(warp.indirect_mov_read(static_cast<std::uint32_t>(i % 32)));
    });
}

MicroResult
bm_cache_access()
{
    SetAssocCache cache(512, 16, ReplacementKind::kLru, true);
    Rng rng(11);
    return time_op(1'000'000, [&](std::uint64_t) {
        const LineAddr line = rng.next_below(16384);
        const auto r = cache.read(line);
        if (!r.hit)
            cache.fill(line, 1, false);
    });
}

MicroResult
bm_ext_set_insert_lookup(bool compression)
{
    ExtSet set(48 * 128, compression, 10'000);
    std::vector<ExtSet::Evicted> evicted;
    Rng rng(13);
    Cycle now = 0;
    return time_op(500'000, [&](std::uint64_t) {
        const LineAddr line = rng.next_below(256);
        std::uint64_t version;
        CompLevel level;
        if (!set.touch_read(++now, line, version, level)) {
            evicted.clear();
            set.insert(now, line, 1, false, CompLevel::kLow, evicted);
        }
    });
}

MicroResult
bm_event_queue()
{
    EventQueue eq;
    std::uint64_t counter = 0;
    auto r = time_op(20'000, [&](std::uint64_t) {
        for (int i = 0; i < 64; ++i)
            eq.schedule_in(static_cast<Cycle>(i * 7 % 23), [&counter] { ++counter; });
        eq.run();
    });
    do_not_optimize(counter);
    r.ns_per_op /= 64.0; // report per scheduled event
    r.iterations *= 64;
    return r;
}

MicroResult
bm_event_queue_schedule_pop()
{
    // One schedule + one pop per op: the tightest possible probe of the
    // calendar queue's two O(1) paths (bm_event_queue instead measures
    // 64-event bursts drained by run()).
    EventQueue eq;
    std::uint64_t counter = 0;
    auto r = time_op(4'000'000, [&](std::uint64_t i) {
        eq.schedule_in(static_cast<Cycle>(i * 7 % 23), [&counter] { ++counter; });
        eq.step();
    });
    do_not_optimize(counter);
    return r;
}

MicroResult
bm_zipf_sample()
{
    ZipfSampler zipf(100'000, 0.8);
    Rng rng(17);
    return time_op(1'000'000, [&](std::uint64_t) { do_not_optimize(zipf.sample(rng)); });
}

} // namespace

int
run_micro_components(const ScenarioOptions &opts)
{
    // Unlike the simulation sweeps these tasks measure wall-clock time,
    // so concurrent execution contends for cores and inflates every
    // reading: default to serial unless the user explicitly asks.
    ParallelRunner<MicroResult> pool(opts.jobs == 0 ? 1 : opts.jobs);
    pool.submit("bloom_insert/256", [] { return bm_bloom_insert(256); });
    pool.submit("bloom_insert/2048", [] { return bm_bloom_insert(2048); });
    pool.submit("bloom_query/256", [] { return bm_bloom_query(256); });
    pool.submit("bloom_query/2048", [] { return bm_bloom_query(2048); });
    pool.submit("predictor_access", [] { return bm_predictor_access(); });
    pool.submit("predictor_access_fused", [] { return bm_predictor_access_fused(); });
    pool.submit("bdi_compress", [] { return bm_bdi_compress(); });
    pool.submit("bdi_round_trip", [] { return bm_bdi_round_trip(); });
    pool.submit("bdi_encode", [] { return bm_bdi_encode(); });
    pool.submit("bdi_decode", [] { return bm_bdi_decode(); });
    pool.submit("warp_tag_lookup", [] { return bm_warp_tag_lookup(); });
    pool.submit("indirect_mov_read", [] { return bm_indirect_mov_read(); });
    pool.submit("cache_access", [] { return bm_cache_access(); });
    pool.submit("ext_set_insert_lookup/plain", [] { return bm_ext_set_insert_lookup(false); });
    pool.submit("ext_set_insert_lookup/comp", [] { return bm_ext_set_insert_lookup(true); });
    pool.submit("event_queue", [] { return bm_event_queue(); });
    pool.submit("event_queue_schedule_pop", [] { return bm_event_queue_schedule_pop(); });
    pool.submit("zipf_sample", [] { return bm_zipf_sample(); });
    const auto results = pool.run_all();

    Table table({"component", "iterations", "ns/op"});
    if (opts.report)
        opts.report->set_deterministic(false); // wall-clock timings
    for (const auto &r : results) {
        table.add_row({r.label, std::to_string(r.value.iterations),
                       fmt(r.value.ns_per_op, 1)});
        if (opts.report) {
            ReportEntry &e = opts.report->add_entry(r.label);
            e.set("iterations", static_cast<double>(r.value.iterations));
            e.set("ns_per_op", r.value.ns_per_op);
        }
    }

    ScenarioEmitter emit(opts);
    emit.table("micro-component timings", table);
    emit.note("\n(timings are wall-clock and machine-dependent; components run serially by\n"
              "default — pass --jobs N to trade accuracy for speed)\n");
    return 0;
}

} // namespace morpheus::scenarios
