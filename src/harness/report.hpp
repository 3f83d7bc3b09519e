#ifndef MORPHEUS_HARNESS_REPORT_HPP_
#define MORPHEUS_HARNESS_REPORT_HPP_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace morpheus {

struct RunResult;

/**
 * Result persistence for the bench suite: every sweep job's key metrics,
 * serialized to a stable, schema-versioned `BENCH_<scenario>.json` so
 * runs can be compared across commits (the regression gate in
 * tools/morpheus_bench_diff.cpp and the CI baseline step).
 *
 * The JSON layout — field meanings, units, and the schema_version bump
 * policy — is documented in docs/REPORT_SCHEMA.md; keep that file in
 * sync with any change here.
 */

/** Bump on any backwards-incompatible change to the JSON layout
 *  (renamed/removed fields, changed units). Adding metrics is compatible
 *  and does NOT bump the version; see docs/REPORT_SCHEMA.md.
 *  v2: entries carry a "status" ("ok"/"failed") and, when failed, an
 *  "error" string — a fault-tolerant sweep records what it could not
 *  compute instead of dropping the grid point. */
inline constexpr int kReportSchemaVersion = 2;

/** One named measurement of one sweep job. */
struct Metric
{
    std::string name;
    double value = 0;
};

/** All metrics of one sweep job, keyed by the job's label. */
struct ReportEntry
{
    std::string label;
    /** "ok" or "failed" (timed out / threw after the retry budget). */
    std::string status = "ok";
    /** Human-readable failure cause; empty when ok. */
    std::string error;
    std::vector<Metric> metrics;  ///< insertion order is serialization order

    bool ok() const { return status == "ok"; }

    /** Appends (or overwrites, when @p name exists) one metric. */
    void set(const std::string &name, double value);

    /** @return nullptr when @p name is absent. */
    const double *find(const std::string &name) const;
};

/**
 * The full result set of one scenario run. Produced by the SweepEngine
 * (every simulation job's RunResult becomes one entry) and by scenarios
 * that measure outside the engine (fig05 probes).
 */
class RunReport
{
  public:
    explicit RunReport(std::string scenario = "");

    const std::string &scenario() const { return scenario_; }
    void set_scenario(std::string scenario) { scenario_ = std::move(scenario); }

    /** Schema version of this object (differs from kReportSchemaVersion
     *  only for reports parsed from files written by other builds). */
    int schema_version() const { return schema_version_; }

    /** @name Comparison context
     * Anything that changes the meaning of the numbers. The diff refuses
     * to compare reports whose context differs.
     */
    ///@{
    double work_scale() const { return work_scale_; }
    void set_work_scale(double scale) { work_scale_ = scale; }

    /** False for a report of wall-clock measurements: the diff then
     *  checks structure (labels, metric names) but not values. Every
     *  registered scenario is deterministic. */
    bool deterministic() const { return deterministic_; }
    void set_deterministic(bool deterministic) { deterministic_ = deterministic; }
    ///@}

    /** @name Environment (informational; never compared)  */
    ///@{
    unsigned jobs() const { return jobs_; }
    void set_jobs(unsigned jobs) { jobs_ = jobs; }
    double wall_ms() const { return wall_ms_; }
    void set_wall_ms(double ms) { wall_ms_ = ms; }
    ///@}

    /** Appends an empty entry and returns it for metric filling. */
    ReportEntry &add_entry(std::string label);

    /** Appends one entry holding the standard metric set of @p r. */
    void add_run(const std::string &label, const RunResult &r);

    /** Appends a `failed` entry (graceful degradation: the sweep kept
     *  going, this grid point could not be computed). */
    void add_failed(const std::string &label, const std::string &error);

    /** True when any entry is failed (scenario exit code kExitDegraded). */
    bool has_failures() const;

    const std::vector<ReportEntry> &entries() const { return entries_; }
    bool empty() const { return entries_.empty(); }

    /** @return nullptr when no entry has @p label (first match wins). */
    const ReportEntry *find_entry(const std::string &label) const;

    /** Serializes to the BENCH_*.json layout (stable key order, exact
     *  round-trip doubles). */
    void write_json(std::ostream &os) const;
    std::string to_json() const;

    /** Parses a report previously written by write_json (or hand-edited;
     *  the parser accepts any JSON whitespace). @return false and fills
     *  @p error on malformed input. */
    static bool parse_json(const std::string &text, RunReport &out, std::string &error);

    /** File convenience wrappers. */
    bool save_file(const std::string &path, std::string &error) const;
    static bool load_file(const std::string &path, RunReport &out, std::string &error);

    /** The canonical report filename: "BENCH_<scenario>.json". */
    static std::string default_filename(const std::string &scenario);

  private:
    std::string scenario_;
    int schema_version_ = kReportSchemaVersion;
    double work_scale_ = 1.0;
    bool deterministic_ = true;
    unsigned jobs_ = 0;
    double wall_ms_ = 0;
    std::vector<ReportEntry> entries_;
};

/** True when the compared content (context + entries) is identical —
 *  environment (jobs, wall_ms) is ignored, so a --jobs 1 and a --jobs N
 *  run of the same sweep must compare equal. */
bool reports_identical(const RunReport &a, const RunReport &b);

// ---------------------------------------------------------------------------
// Regression diff (the logic behind tools/morpheus_bench_diff.cpp).

/** Tolerances for comparing a candidate report against a baseline. */
struct DiffOptions
{
    /** A metric passes when
     *  |candidate - baseline| <= abs_tol + rel_tol * max(|a|, |b|). */
    double rel_tol = 0.02;
    double abs_tol = 1e-9;

    /** Per-metric relative-tolerance overrides (e.g. latency means are
     *  noisier than counts under model changes). */
    std::vector<std::pair<std::string, double>> metric_rel_tol;

    double rel_tol_for(const std::string &metric) const;
};

/** One detected difference. */
struct DiffFinding
{
    enum class Kind : std::uint8_t
    {
        kContext,       ///< schema/scenario/work_scale mismatch; nothing compared
        kMissingEntry,  ///< baseline label absent from the candidate
        kExtraEntry,    ///< candidate label absent from the baseline
        kMissingMetric, ///< baseline metric absent from a candidate entry
        kValue,         ///< metric out of tolerance
    };

    Kind kind = Kind::kValue;
    std::string label;
    std::string metric;
    double baseline = 0;
    double candidate = 0;
    std::string message;  ///< human-readable one-liner
};

/** Outcome of one baseline/candidate comparison. */
struct DiffResult
{
    std::vector<DiffFinding> findings;
    std::size_t entries_compared = 0;
    std::size_t metrics_compared = 0;

    bool ok() const { return findings.empty(); }
};

/**
 * Compares @p candidate against @p baseline: context must match exactly;
 * every baseline entry/metric must exist in the candidate and be within
 * tolerance. Candidate-only entries are reported too (a changed sweep
 * shape needs a refreshed baseline, not a silent pass).
 */
DiffResult diff_reports(const RunReport &baseline, const RunReport &candidate,
                        const DiffOptions &opts = {});

} // namespace morpheus

#endif // MORPHEUS_HARNESS_REPORT_HPP_
