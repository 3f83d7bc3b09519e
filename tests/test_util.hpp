#ifndef MORPHEUS_TESTS_TEST_UTIL_HPP_
#define MORPHEUS_TESTS_TEST_UTIL_HPP_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "gpu/gpu_config.hpp"
#include "gpu/gpu_system.hpp"
#include "gpu/l1_cache.hpp"
#include "gpu/mem_request.hpp"
#include "mem/backing_store.hpp"
#include "mem/dram.hpp"
#include "morpheus/extended_llc_kernel.hpp"
#include "noc/crossbar.hpp"
#include "power/energy_model.hpp"
#include "sim/event_queue.hpp"

namespace morpheus::test {

/** Bundles the fabric plumbing components for unit tests. */
struct TestFabric
{
    GpuConfig cfg{};
    EventQueue eq;
    EnergyModel energy;
    Crossbar noc{NocParams{}};
    DramModel dram;
    BackingStore store;
    ReqPool reqs;
    /** Where responses are delivered; a FakeRouter installs itself here,
     *  so construct it before the components that take ctx(). */
    LlcRouter *router = nullptr;

    FabricContext
    ctx()
    {
        return FabricContext{&eq, &noc, &dram, &store, &energy, &cfg, &reqs, router};
    }
};

/**
 * Test callbacks addressed by a 32-bit token: add() hands one out, fire()
 * runs it and frees the token. Firing a token that is not pending (a
 * second completion of one request) fails the test.
 */
template <class... Args>
class Callbacks
{
  public:
    using Fn = std::function<void(Args...)>;

    std::uint32_t
    add(Fn fn)
    {
        ++pending_;
        if (free_.empty()) {
            fns_.push_back(std::move(fn));
            return static_cast<std::uint32_t>(fns_.size() - 1);
        }
        const std::uint32_t token = free_.back();
        free_.pop_back();
        fns_[token] = std::move(fn);
        return token;
    }

    void
    fire(std::uint32_t token, Args... args)
    {
        if (token >= fns_.size() || !fns_[token]) {
            ADD_FAILURE() << "token " << token << " completed but was not pending";
            return;
        }
        Fn fn = std::move(fns_[token]);
        fns_[token] = nullptr;
        free_.push_back(token);
        --pending_;
        fn(args...);
    }

    /** Callbacks added and not yet fired. */
    std::size_t pending() const { return pending_; }

  private:
    std::vector<Fn> fns_;
    std::vector<std::uint32_t> free_;
    std::size_t pending_ = 0;
};

/**
 * A scriptable LLC-side router: completes every request after a fixed
 * delay with the backing store's version (bumping it for writes/atomics).
 * Deliveries of L1 requests go to the attached L1; probe requests (see
 * probe()) go to their callbacks.
 */
class FakeRouter : public LlcRouter
{
  public:
    FakeRouter(TestFabric &fabric, Cycle delay) : fabric_(fabric), delay_(delay)
    {
        fabric.router = this;
    }

    /** Routes deliveries of L1-issued requests to @p l1. */
    void attach(L1Cache &l1) { l1_ = &l1; }

    /** A request for @p req whose response calls @p resp, as GpuSystem's
     *  probe overload of to_llc makes one. */
    ReqId
    probe(const MemRequest &req, RespFn resp)
    {
        return fabric_.reqs.acquire(req, kProbeTokenBit | probes.add(std::move(resp)));
    }

    void
    to_llc(Cycle when, ReqId id) override
    {
        ++requests;
        const Cycle done = when + delay_;
        fabric_.eq.schedule(done, [this, id, done] {
            const MemRequest &req = fabric_.reqs[id].req;
            std::uint64_t version = fabric_.store.read(req.line);
            if (req.type != AccessType::kRead) {
                version = std::max(version, req.write_version);
                fabric_.store.write(req.line, version);
            }
            deliver(id, done, version);
        });
    }

    void
    deliver(ReqId id, Cycle when, std::uint64_t version) override
    {
        const std::uint32_t token = fabric_.reqs[id].token;
        if ((token & kProbeTokenBit) == 0) {
            ASSERT_NE(l1_, nullptr) << "L1 request delivered with no L1 attached";
            l1_->on_response(id, when, version);
            return;
        }
        fabric_.reqs.release(id);
        probes.fire(token & ~kProbeTokenBit, when, version);
    }

    int requests = 0;
    Callbacks<Cycle, std::uint64_t> probes;

  private:
    TestFabric &fabric_;
    Cycle delay_;
    L1Cache *l1_ = nullptr;
};

/** An L1Client whose access tokens are test callbacks. */
class FakeL1Client : public L1Client
{
  public:
    /** A token whose completion calls @p fn. */
    std::uint32_t token(RespFn fn) { return calls.add(std::move(fn)); }

    void
    line_done(std::uint32_t token, Cycle when, std::uint64_t version) override
    {
        calls.fire(token, when, version);
    }

    Callbacks<Cycle, std::uint64_t> calls;
};

/** An ExtSink whose request ids are test callbacks, called with the
 *  completion time read from @p eq. */
class FakeExtSink : public ExtSink
{
  public:
    explicit FakeExtSink(const EventQueue &eq) : eq_(eq) {}

    /** A completion target that calls @p fn. */
    ExtDone
    done(std::function<void(Cycle, std::uint64_t, bool)> fn)
    {
        return ExtDone{calls.add(std::move(fn)), this};
    }

    void
    ext_done(ReqId id, std::uint32_t, std::uint64_t version, bool hit) override
    {
        calls.fire(id, eq_.now(), version, hit);
    }

    Callbacks<Cycle, std::uint64_t, bool> calls;

  private:
    const EventQueue &eq_;
};

} // namespace morpheus::test

#endif // MORPHEUS_TESTS_TEST_UTIL_HPP_
