#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "harness/checkpoint.hpp"
#include "harness/runner.hpp"
#include "sim/state_io.hpp"

using namespace morpheus;

namespace {

WorkloadParams
small_app(const char *name)
{
    WorkloadParams p;
    p.name = name;
    p.pattern = PatternKind::kPrivateLoop;
    p.alu_per_mem = 4;
    p.shared_ws_bytes = 1 << 20;
    p.per_warp_ws_bytes = 4 * 1024;
    p.reuse_frac = 0.3;
    p.hot_frac = 0.4;
    p.warps_per_sm = 16;
    p.write_frac = 0.2;
    p.total_mem_instrs = 30'000;
    return p;
}

SystemSetup
baseline_setup()
{
    SystemSetup s;
    s.compute_sms = 8;
    return s;
}

SystemSetup
morpheus_setup()
{
    SystemSetup s;
    s.compute_sms = 8;
    s.morpheus.enabled = true;
    s.morpheus.cache_sms = 4;
    s.morpheus.prediction = PredictionMode::kBloom;
    return s;
}

SystemSetup
unified_setup()
{
    SystemSetup s;
    s.compute_sms = 8;
    s.l1_bonus_bytes = 64 * 1024;
    return s;
}

std::string
result_bytes(const RunResult &r)
{
    StateWriter w;
    RunResult copy = r;
    copy.state(w);
    return w.bytes();
}

/** Unique temp path per test; removed by the caller. */
std::string
tmp_path(const char *tag)
{
    return std::string(::testing::TempDir()) + "morpheus_" + tag + ".mchk";
}

class TempFile
{
  public:
    explicit TempFile(const char *tag) : path_(tmp_path(tag)) {}
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace

TEST(Checkpoint, DefaultControlsMatchPlainRun)
{
    const SystemSetup setup = morpheus_setup();
    const WorkloadParams p = small_app("controls");
    const RunResult plain = run_setup(setup, p);
    const RunResult controlled = run_setup_controlled(setup, p, RunControls{});
    EXPECT_EQ(result_bytes(plain), result_bytes(controlled));
}

TEST(Checkpoint, SaveLoadRoundTrip)
{
    TempFile file("roundtrip");
    const SystemSetup setup = baseline_setup();
    const WorkloadParams p = small_app("roundtrip");
    SyntheticWorkload wl(p);
    GpuSystem sys(setup, wl);
    sys.begin_run();
    sys.event_queue().run_until(2'000);
    const Checkpoint ck = capture_checkpoint(sys, p, 2'000, false);

    std::string error;
    ASSERT_TRUE(save_checkpoint(file.path(), ck, error)) << error;
    Checkpoint back;
    ASSERT_TRUE(load_checkpoint(file.path(), back, error)) << error;
    EXPECT_EQ(back.cycle, ck.cycle);
    EXPECT_EQ(back.flags, ck.flags);
    EXPECT_EQ(back.state, ck.state);
    EXPECT_EQ(back.setup.compute_sms, setup.compute_sms);
    EXPECT_EQ(back.params.name, p.name);
    EXPECT_EQ(back.params.seed, p.seed);
}

/**
 * The tentpole oracle: for each evaluated system family, a run that is
 * checkpointed and then completed from the restored checkpoint must
 * produce a RunResult bit-identical to the uninterrupted run's.
 */
TEST(Checkpoint, RestoreOracleBaseline)
{
    TempFile file("oracle_base");
    const SystemSetup setup = baseline_setup();
    const WorkloadParams p = small_app("oracle-base");
    const RunResult clean = run_setup(setup, p);
    run_setup_checkpointed(setup, p, 5'000, file.path());

    Checkpoint ck;
    std::string error;
    ASSERT_TRUE(load_checkpoint(file.path(), ck, error)) << error;
    EXPECT_TRUE(ck.is_final());
    EXPECT_EQ(result_bytes(restore_run(ck)), result_bytes(clean));
}

TEST(Checkpoint, RestoreOracleMorpheus)
{
    TempFile file("oracle_morpheus");
    const SystemSetup setup = morpheus_setup();
    const WorkloadParams p = small_app("oracle-morpheus");
    const RunResult clean = run_setup(setup, p);
    run_setup_checkpointed(setup, p, 5'000, file.path());

    Checkpoint ck;
    std::string error;
    ASSERT_TRUE(load_checkpoint(file.path(), ck, error)) << error;
    EXPECT_TRUE(ck.is_final());
    EXPECT_EQ(result_bytes(restore_run(ck)), result_bytes(clean));
}

TEST(Checkpoint, RestoreOracleUnifiedSmMem)
{
    TempFile file("oracle_unified");
    const SystemSetup setup = unified_setup();
    const WorkloadParams p = small_app("oracle-unified");
    const RunResult clean = run_setup(setup, p);
    run_setup_checkpointed(setup, p, 5'000, file.path());

    Checkpoint ck;
    std::string error;
    ASSERT_TRUE(load_checkpoint(file.path(), ck, error)) << error;
    EXPECT_TRUE(ck.is_final());
    EXPECT_EQ(result_bytes(restore_run(ck)), result_bytes(clean));
}

/** A mid-run checkpoint restores via prefix replay and still completes
 *  bit-identically. Captures the FIRST boundary only — the periodic
 *  writer would otherwise overwrite it with the final one. */
void
mid_run_oracle(const SystemSetup &setup, const char *tag)
{
    SCOPED_TRACE(tag);
    TempFile file(tag);
    const WorkloadParams p = small_app(tag);
    const RunResult clean = run_setup(setup, p);

    RunControls rc;
    rc.checkpoint_every = 3'000;
    bool captured = false;
    rc.on_checkpoint = [&](GpuSystem &sys, Cycle boundary, bool final) {
        if (captured)
            return;
        captured = true;
        ASSERT_FALSE(final);
        const Checkpoint ck = capture_checkpoint(sys, p, boundary, final);
        std::string error;
        ASSERT_TRUE(save_checkpoint(file.path(), ck, error)) << error;
    };
    run_setup_controlled(setup, p, rc);
    ASSERT_TRUE(captured);

    Checkpoint ck;
    std::string error;
    ASSERT_TRUE(load_checkpoint(file.path(), ck, error)) << error;
    EXPECT_FALSE(ck.is_final());
    EXPECT_EQ(ck.cycle, 3'000u);
    EXPECT_EQ(result_bytes(restore_run(ck)), result_bytes(clean));
}

TEST(Checkpoint, MidRunRestoreReplaysPrefixBaseline)
{
    mid_run_oracle(baseline_setup(), "midrun-base");
}

TEST(Checkpoint, MidRunRestoreReplaysPrefixMorpheus)
{
    mid_run_oracle(morpheus_setup(), "midrun-morpheus");
}

TEST(Checkpoint, MidRunRestoreReplaysPrefixUnifiedSmMem)
{
    mid_run_oracle(unified_setup(), "midrun-unified");
}

TEST(Checkpoint, ChunkedRunMatchesUnchunked)
{
    // The chunked event loop (checkpoint_every with a no-op callback) must
    // be bit-identical to the single run_until call.
    const SystemSetup setup = baseline_setup();
    const WorkloadParams p = small_app("chunked");
    const RunResult plain = run_setup(setup, p);
    RunControls rc;
    rc.checkpoint_every = 1'000;
    EXPECT_EQ(result_bytes(run_setup_controlled(setup, p, rc)), result_bytes(plain));
}

TEST(Checkpoint, RejectsBadMagic)
{
    TempFile file("badmagic");
    const SystemSetup setup = baseline_setup();
    const WorkloadParams p = small_app("badmagic");
    run_setup_checkpointed(setup, p, 5'000, file.path());

    std::FILE *f = std::fopen(file.path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const char junk[4] = {'J', 'U', 'N', 'K'};
    ASSERT_EQ(std::fwrite(junk, 1, 4, f), 4u);
    std::fclose(f);

    Checkpoint ck;
    std::string error;
    EXPECT_FALSE(load_checkpoint(file.path(), ck, error));
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(Checkpoint, RejectsFutureFormatVersion)
{
    TempFile file("badversion");
    const SystemSetup setup = baseline_setup();
    const WorkloadParams p = small_app("badversion");
    run_setup_checkpointed(setup, p, 5'000, file.path());

    std::FILE *f = std::fopen(file.path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
    const std::uint32_t future = 999;
    ASSERT_EQ(std::fwrite(&future, sizeof future, 1, f), 1u);
    std::fclose(f);

    Checkpoint ck;
    std::string error;
    EXPECT_FALSE(load_checkpoint(file.path(), ck, error));
    EXPECT_NE(error.find("format version"), std::string::npos) << error;
}

TEST(Checkpoint, RejectsTruncatedFile)
{
    TempFile file("truncated");
    const SystemSetup setup = baseline_setup();
    const WorkloadParams p = small_app("truncated");
    run_setup_checkpointed(setup, p, 5'000, file.path());

    std::FILE *f = std::fopen(file.path().c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string bytes;
    char buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.append(buf, n);
    std::fclose(f);
    ASSERT_GT(bytes.size(), 100u);
    bytes.resize(bytes.size() / 2);
    f = std::fopen(file.path().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);

    Checkpoint ck;
    std::string error;
    EXPECT_FALSE(load_checkpoint(file.path(), ck, error));
    EXPECT_FALSE(error.empty());
}

TEST(Checkpoint, RejectsCorruptedStateDigest)
{
    TempFile file("corrupt");
    const SystemSetup setup = baseline_setup();
    const WorkloadParams p = small_app("corrupt");
    run_setup_checkpointed(setup, p, 5'000, file.path());

    // Flip one byte near the end of the state blob.
    std::FILE *f = std::fopen(file.path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -8, SEEK_END), 0);
    char b = 0;
    ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
    ASSERT_EQ(std::fseek(f, -8, SEEK_END), 0);
    b = static_cast<char>(b ^ 0x5A);
    ASSERT_EQ(std::fwrite(&b, 1, 1, f), 1u);
    std::fclose(f);

    Checkpoint ck;
    std::string error;
    EXPECT_FALSE(load_checkpoint(file.path(), ck, error));
    EXPECT_NE(error.find("digest"), std::string::npos) << error;
}

TEST(Checkpoint, LoadMissingFileFails)
{
    Checkpoint ck;
    std::string error;
    EXPECT_FALSE(load_checkpoint("/nonexistent/dir/none.mchk", ck, error));
    EXPECT_FALSE(error.empty());
}

TEST(Checkpoint, CancellationThrows)
{
    const SystemSetup setup = baseline_setup();
    const WorkloadParams p = small_app("cancel");
    std::atomic<bool> cancel{true};
    RunControls rc;
    rc.cancel = &cancel;
    EXPECT_THROW(run_setup_controlled(setup, p, rc), SimulationCancelled);
}

TEST(Checkpoint, InjectedThrowFaultFires)
{
    const SystemSetup setup = baseline_setup();
    const WorkloadParams p = small_app("fault");
    RunControls rc;
    rc.fault = RunFault::kThrow;
    rc.fault_cycle = 1'000;
    EXPECT_THROW(run_setup_controlled(setup, p, rc), InjectedFault);
}

TEST(Checkpoint, DisarmedFaultPlanIsHarmless)
{
    // fault == kNone must not schedule anything, whatever fault_cycle says.
    const SystemSetup setup = baseline_setup();
    const WorkloadParams p = small_app("fault-none");
    const RunResult plain = run_setup(setup, p);
    RunControls rc;
    rc.fault = RunFault::kNone;
    rc.fault_cycle = 1'000;
    EXPECT_EQ(result_bytes(run_setup_controlled(setup, p, rc)), result_bytes(plain));
}
