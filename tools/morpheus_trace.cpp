/**
 * @file
 * Trace tool for the `.mtrc` workload format (docs/TRACE_FORMAT.md):
 * record synthetic runs as traces, inspect them, shrink them, and check
 * their round-trip integrity.
 *
 * Usage:
 *   morpheus_trace record <app> --out FILE [--sms N] [--warps N]
 *                  [--mem-instrs N] [--raw]
 *   morpheus_trace convert IN OUT [--sms N] [--name S] [--raw]
 *   morpheus_trace stat FILE
 *   morpheus_trace downsample FILE OUT --keep FRAC
 *   morpheus_trace verify FILE
 *
 *   record      drain-records catalog app <app> (MORPHEUS_WORK_SCALE
 *               honored; --mem-instrs overrides the scaled budget,
 *               --sms/--warps the partitioning, --raw disables RLE)
 *   convert     ingests Accel-Sim/NVBit-style memory-trace text
 *               (docs/TRACE_FORMAT.md) into .mtrc v2
 *   stat        prints header fields and aggregate stream statistics
 *               (streaming: works on traces too large to materialize)
 *   downsample  keeps the leading FRAC of every warp stream
 *   verify      decode -> re-encode must be byte-identical
 *
 * Exit codes: 0 ok, 1 operation failed, 2 usage error.
 */
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/table.hpp"
#include "workloads/app_catalog.hpp"
#include "workloads/synthetic_workload.hpp"
#include "workloads/trace/trace_convert.hpp"
#include "workloads/trace/trace_reader.hpp"
#include "workloads/trace/trace_recorder.hpp"

using namespace morpheus;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: morpheus_trace record <app> --out FILE [--sms N] [--warps N]"
                 " [--mem-instrs N] [--raw]\n"
                 "       morpheus_trace convert IN OUT [--sms N] [--name S] [--raw]\n"
                 "       morpheus_trace stat FILE\n"
                 "       morpheus_trace downsample FILE OUT --keep FRAC\n"
                 "       morpheus_trace verify FILE\n");
    return 2;
}

bool
parse_u32(const char *arg, std::uint32_t &out)
{
    char *end = nullptr;
    const unsigned long v = std::strtoul(arg, &end, 10);
    if (end == arg || *end != '\0' || v == 0 || v > 0xFFFFFFFFu)
        return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

bool
parse_u64(const char *arg, std::uint64_t &out)
{
    // strtoull silently wraps negatives ("-1" -> 2^64-1); reject them and
    // trailing garbage explicitly, like parse_u32 does.
    if (*arg == '-')
        return false;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(arg, &end, 10);
    if (end == arg || *end != '\0' || v == 0)
        return false;
    out = v;
    return true;
}

int
cmd_record(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    const char *app_name = argv[0];
    std::string out_path;
    std::uint32_t sms = 4;
    std::uint32_t warps = 0;
    std::uint64_t mem_instrs = 0;
    bool rle = true;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--sms") == 0 && i + 1 < argc) {
            if (!parse_u32(argv[++i], sms))
                return usage();
        } else if (std::strcmp(argv[i], "--warps") == 0 && i + 1 < argc) {
            if (!parse_u32(argv[++i], warps))
                return usage();
        } else if (std::strcmp(argv[i], "--mem-instrs") == 0 && i + 1 < argc) {
            if (!parse_u64(argv[++i], mem_instrs))
                return usage();
        } else if (std::strcmp(argv[i], "--raw") == 0) {
            rle = false;
        } else {
            return usage();
        }
    }
    if (out_path.empty())
        return usage();
    // Enforce the format ceilings at record time: anything beyond them
    // would encode fine but be rejected by every decoder.
    if (sms > trace::kMaxTraceSms || warps > trace::kMaxTraceWarpsPerSm) {
        std::fprintf(stderr, "morpheus_trace: --sms/--warps exceed the .mtrc ceilings (%llu)\n",
                     static_cast<unsigned long long>(trace::kMaxTraceSms));
        return 2;
    }

    const AppSpec *app = find_app(app_name);
    if (!app) {
        std::fprintf(stderr, "unknown app '%s'; catalog:", app_name);
        for (const auto &a : app_catalog())
            std::fprintf(stderr, " %s", a.params.name.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }

    WorkloadParams params = app->params;
    if (warps > 0)
        params.warps_per_sm = warps;
    if (mem_instrs > 0)
        params.total_mem_instrs = mem_instrs;

    SyntheticWorkload workload(params);
    trace::Trace trace = trace::record_trace(workload, sms, &params.data);
    trace.rle = rle;

    std::string error;
    if (!trace.save_file(out_path, error)) {
        std::fprintf(stderr, "morpheus_trace: %s\n", error.c_str());
        return 1;
    }
    std::printf("recorded %s: %" PRIu64 " records over %zu warp streams (%u SMs) -> %s\n",
                params.name.c_str(), trace.total_records(), trace.streams.size(),
                trace.num_sms, out_path.c_str());
    return 0;
}

int
cmd_stat(const char *path)
{
    // The streaming reader keeps stat usable on traces far beyond the
    // materializing decoder's record ceiling; it also validates every
    // record up front, so stats() below cannot fail.
    trace::TraceReader reader;
    std::string error;
    if (!reader.open(path, error)) {
        std::fprintf(stderr, "morpheus_trace: %s\n", error.c_str());
        return 1;
    }
    trace::TraceStats st;
    if (!reader.stats(st, error)) {
        std::fprintf(stderr, "morpheus_trace: %s\n", error.c_str());
        return 1;
    }

    std::uint64_t file_bytes = 0;
    if (std::FILE *f = std::fopen(path, "rb")) {
        if (std::fseek(f, 0, SEEK_END) == 0)
            file_bytes = static_cast<std::uint64_t>(std::ftell(f));
        std::fclose(f);
    }

    Table table({"field", "value"});
    table.add_row({"workload", reader.name()});
    table.add_row({"format version", std::to_string(reader.version())});
    table.add_row({"recorded SMs", std::to_string(reader.num_sms())});
    table.add_row({"warps/SM", std::to_string(reader.warps_per_sm())});
    table.add_row({"streams", std::to_string(reader.stream_count())});
    table.add_row({"empty streams", std::to_string(st.empty_streams)});
    table.add_row({"block profile", reader.has_profile() ? "embedded" : "per-record classes"});
    table.add_row({"RLE", reader.rle() ? "yes" : "no"});
    table.add_row({"records", std::to_string(st.records)});
    table.add_row({"memory records", std::to_string(st.mem_records)});
    table.add_row({"line accesses", std::to_string(st.lines)});
    table.add_row({"reads / writes / atomics", std::to_string(st.reads) + " / " +
                                                   std::to_string(st.writes) + " / " +
                                                   std::to_string(st.atomics)});
    table.add_row({"ALU warp-instructions", std::to_string(st.alu_instrs)});
    table.add_row({"footprint classes hi/lo/unc/unk",
                   std::to_string(st.class_counts[0]) + " / " +
                       std::to_string(st.class_counts[1]) + " / " +
                       std::to_string(st.class_counts[2]) + " / " +
                       std::to_string(st.class_counts[3])});
    table.add_row({"class collisions", std::to_string(st.class_collisions)});
    table.add_row({"unique lines", std::to_string(st.unique_lines)});
    table.add_row({"footprint", std::to_string(st.footprint_bytes / 1024) + " KiB"});
    table.add_row({"encoded size", std::to_string(file_bytes) + " B"});
    if (st.records > 0) {
        table.add_row({"bytes/record",
                       fmt(static_cast<double>(file_bytes) /
                               static_cast<double>(st.records),
                           2)});
    }
    table.print();
    return 0;
}

int
cmd_convert(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const char *in_path = argv[0];
    const char *out_path = argv[1];
    trace::ConvertOptions options;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--sms") == 0 && i + 1 < argc) {
            if (!parse_u32(argv[++i], options.num_sms))
                return usage();
        } else if (std::strcmp(argv[i], "--name") == 0 && i + 1 < argc) {
            options.name = argv[++i];
        } else if (std::strcmp(argv[i], "--raw") == 0) {
            options.rle = false;
        } else {
            return usage();
        }
    }
    trace::ConvertStats st;
    std::string error;
    if (!trace::convert_text_file(in_path, out_path, options, st, error)) {
        std::fprintf(stderr, "morpheus_trace: %s: %s\n", in_path, error.c_str());
        return 1;
    }
    std::printf("converted %s: %" PRIu64 " instruction lines (+%" PRIu64
                " local/shared) -> %" PRIu64 " records, %" PRIu64
                " line accesses over %" PRIu64 " streams (%u SMs, %" PRIu64
                " inactive lanes skipped) -> %s\n",
                in_path, st.instr_lines, st.local_ops, st.records, st.line_accesses,
                st.streams, options.num_sms, st.inactive_lanes, out_path);
    return 0;
}

int
cmd_downsample(const char *in_path, const char *out_path, const char *keep_arg)
{
    char *end = nullptr;
    const double keep = std::strtod(keep_arg, &end);
    // NaN fails both comparisons the "wrong" way; require a proven-valid
    // value instead of rejecting proven-invalid ones.
    if (end == keep_arg || *end != '\0' || !(keep >= 0.0 && keep <= 1.0)) {
        std::fprintf(stderr, "morpheus_trace: --keep expects a fraction in [0, 1]\n");
        return 2;
    }
    trace::Trace trace;
    std::string error;
    if (!trace::Trace::load_file(in_path, trace, error)) {
        std::fprintf(stderr, "morpheus_trace: %s\n", error.c_str());
        return 1;
    }
    const std::uint64_t before = trace.total_records();
    trace::downsample_trace(trace, keep);
    if (!trace.save_file(out_path, error)) {
        std::fprintf(stderr, "morpheus_trace: %s\n", error.c_str());
        return 1;
    }
    std::printf("downsampled %" PRIu64 " -> %" PRIu64 " records (kept leading %.3f of each "
                "stream) -> %s\n",
                before, trace.total_records(), keep, out_path);
    return 0;
}

int
cmd_verify(const char *path)
{
    // Compare against the raw file bytes: the round-trip guarantee is
    // against the *original file*, not against our own re-encode (which
    // would trivially pass for any decodable input).
    trace::MappedFile file;
    trace::Trace trace;
    std::string error;
    if (!file.open(path, error) || !trace::Trace::decode(file.data(), file.size(), trace, error)) {
        std::fprintf(stderr, "morpheus_trace: %s\n", error.c_str());
        return 1;
    }
    const std::vector<std::uint8_t> encoded = trace.encode();
    if (!std::equal(encoded.begin(), encoded.end(), file.data(), file.data() + file.size())) {
        std::fprintf(stderr,
                     "morpheus_trace: %s decodes but is not canonically encoded "
                     "(re-encode differs from the file bytes)\n",
                     path);
        return 1;
    }
    std::printf("%s: OK (%" PRIu64 " records, round-trip byte-identical)\n", path,
                trace.total_records());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const char *cmd = argv[1];
    if (std::strcmp(cmd, "record") == 0)
        return cmd_record(argc - 2, argv + 2);
    if (std::strcmp(cmd, "convert") == 0)
        return cmd_convert(argc - 2, argv + 2);
    if (std::strcmp(cmd, "stat") == 0 && argc == 3)
        return cmd_stat(argv[2]);
    if (std::strcmp(cmd, "downsample") == 0 && argc == 6 &&
        std::strcmp(argv[4], "--keep") == 0)
        return cmd_downsample(argv[2], argv[3], argv[5]);
    if (std::strcmp(cmd, "verify") == 0 && argc == 3)
        return cmd_verify(argv[2]);
    return usage();
}
