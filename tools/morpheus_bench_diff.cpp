/**
 * @file
 * The bench regression gate: compares two BENCH_*.json reports (see
 * docs/REPORT_SCHEMA.md) and exits nonzero when the candidate regressed
 * against the baseline.
 *
 * Usage:
 *   morpheus_bench_diff <baseline.json> <candidate.json>
 *       [--rel-tol R]           default 0.02 (2%)
 *       [--abs-tol A]           default 1e-9
 *       [--metric-tol NAME=R]   per-metric relative tolerance override
 *                               (repeatable)
 *       [--identical]           require bit-identical compared content
 *                               (reports_identical: tolerances ignored;
 *                               environment (jobs, wall_ms) still exempt —
 *                               the kill-and-resume CI gate)
 *       [--quiet]               print only the verdict line
 *
 * Exit codes: 0 = within tolerance, 1 = regression (or context
 * mismatch), 2 = usage / unreadable input.
 *
 * Context (scenario name, schema version, MORPHEUS_WORK_SCALE,
 * deterministic flag) must match exactly — comparing a smoke-scale run
 * against a full-scale baseline is an error, not a pass. Reports marked
 * non-deterministic (wall-clock timings) compare structurally: labels
 * and metric names must match, values are ignored.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/report.hpp"

using namespace morpheus;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <baseline.json> <candidate.json> [--rel-tol R] [--abs-tol A]\n"
                 "       [--metric-tol NAME=R]... [--identical] [--quiet]\n",
                 argv0);
    return 2;
}

bool
parse_double(const char *s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s, &end);
    return end != s && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    const char *baseline_path = nullptr;
    const char *candidate_path = nullptr;
    DiffOptions opts;
    bool identical = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--rel-tol") == 0 && i + 1 < argc) {
            if (!parse_double(argv[++i], opts.rel_tol) || opts.rel_tol < 0) {
                std::fprintf(stderr, "invalid --rel-tol '%s'\n", argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--abs-tol") == 0 && i + 1 < argc) {
            if (!parse_double(argv[++i], opts.abs_tol) || opts.abs_tol < 0) {
                std::fprintf(stderr, "invalid --abs-tol '%s'\n", argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--metric-tol") == 0 && i + 1 < argc) {
            const char *arg = argv[++i];
            const char *eq = std::strchr(arg, '=');
            double tol = 0;
            if (!eq || eq == arg || !parse_double(eq + 1, tol) || tol < 0) {
                std::fprintf(stderr, "invalid --metric-tol '%s' (expected NAME=R)\n", arg);
                return 2;
            }
            opts.metric_rel_tol.emplace_back(std::string(arg, eq), tol);
        } else if (std::strcmp(argv[i], "--identical") == 0) {
            identical = true;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (argv[i][0] == '-') {
            return usage(argv[0]);
        } else if (!baseline_path) {
            baseline_path = argv[i];
        } else if (!candidate_path) {
            candidate_path = argv[i];
        } else {
            return usage(argv[0]);
        }
    }
    if (!baseline_path || !candidate_path)
        return usage(argv[0]);

    RunReport baseline;
    RunReport candidate;
    std::string error;
    if (!RunReport::load_file(baseline_path, baseline, error)) {
        std::fprintf(stderr, "baseline %s: %s\n", baseline_path, error.c_str());
        return 2;
    }
    if (!RunReport::load_file(candidate_path, candidate, error)) {
        std::fprintf(stderr, "candidate %s: %s\n", candidate_path, error.c_str());
        return 2;
    }

    if (identical) {
        // wall_ms differs between any two runs, so a byte compare of the
        // files can never pass; reports_identical() compares everything
        // that is content, exempting only the environment block.
        if (reports_identical(baseline, candidate)) {
            std::fprintf(stderr, "OK: %s — reports are identical\n",
                         baseline.scenario().c_str());
            return 0;
        }
        std::fprintf(stderr, "FAIL: %s vs %s — compared content differs (expected "
                             "bit-identical reports)\n",
                     baseline_path, candidate_path);
        return 1;
    }

    const DiffResult result = diff_reports(baseline, candidate, opts);

    if (!quiet) {
        for (const DiffFinding &f : result.findings)
            std::fprintf(stderr, "REGRESSION: %s\n", f.message.c_str());
    }

    if (result.ok()) {
        std::fprintf(stderr, "OK: %s — %zu entries, %zu metrics within tolerance\n",
                     baseline.scenario().c_str(), result.entries_compared,
                     result.metrics_compared);
        return 0;
    }

    std::fprintf(stderr,
                 "FAIL: %s vs %s — %zu difference(s).\n"
                 "If the change is intentional, refresh the baseline (run the scenario with "
                 "--output and commit the new BENCH_*.json); the schema and refresh policy "
                 "are documented in docs/REPORT_SCHEMA.md.\n",
                 baseline_path, candidate_path, result.findings.size());
    return 1;
}
