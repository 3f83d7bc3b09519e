#include "harness/report.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "gpu/gpu_system.hpp"
#include "harness/json.hpp"

namespace morpheus {
namespace {

/** Emits @p v so that parsing it back returns the same double: integral
 *  values print as integers (the common case: counts, cycles), everything
 *  else uses %.17g (exact round trip). */
void
write_number(std::ostream &os, double v)
{
    char buf[40];
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    } else if (std::isfinite(v)) {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
        // JSON has no inf/nan; clamp to null (parses back as 0).
        std::snprintf(buf, sizeof(buf), "null");
    }
    os << buf;
}

void
write_string(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

} // namespace

// ---------------------------------------------------------------------------
// ReportEntry

void
ReportEntry::set(const std::string &name, double value)
{
    for (auto &m : metrics) {
        if (m.name == name) {
            m.value = value;
            return;
        }
    }
    metrics.push_back(Metric{name, value});
}

const double *
ReportEntry::find(const std::string &name) const
{
    for (const auto &m : metrics) {
        if (m.name == name)
            return &m.value;
    }
    return nullptr;
}

// ---------------------------------------------------------------------------
// RunReport

RunReport::RunReport(std::string scenario) : scenario_(std::move(scenario)) {}

ReportEntry &
RunReport::add_entry(std::string label)
{
    ReportEntry entry;
    entry.label = std::move(label);
    entries_.push_back(std::move(entry));
    return entries_.back();
}

void
RunReport::add_run(const std::string &label, const RunResult &r)
{
    ReportEntry &e = add_entry(label);
    auto add = [&e](const char *name, double v) { e.metrics.push_back(Metric{name, v}); };

    add("cycles", static_cast<double>(r.cycles));
    add("instructions", static_cast<double>(r.instructions));
    add("ipc", r.ipc);

    add("l1_hits", static_cast<double>(r.l1_hits));
    add("l1_misses", static_cast<double>(r.l1_misses));
    const double l1_total = static_cast<double>(r.l1_hits + r.l1_misses);
    add("l1_hit_rate", l1_total > 0 ? static_cast<double>(r.l1_hits) / l1_total : 0);

    add("llc_accesses", static_cast<double>(r.llc_accesses));
    add("llc_hits", static_cast<double>(r.llc_hits));
    add("llc_misses", static_cast<double>(r.llc_misses));

    add("ext_requests", static_cast<double>(r.ext_requests));
    add("ext_predicted_hits", static_cast<double>(r.ext_predicted_hits));
    add("ext_predicted_misses", static_cast<double>(r.ext_predicted_misses));
    add("ext_hits", static_cast<double>(r.ext_hits));
    add("ext_misses", static_cast<double>(r.ext_misses));
    add("ext_false_positives", static_cast<double>(r.ext_false_positives));
    add("ext_hit_rate", r.ext_requests
                            ? static_cast<double>(r.ext_hits) / static_cast<double>(r.ext_requests)
                            : 0);
    add("ext_capacity_bytes", static_cast<double>(r.ext_capacity_bytes));

    add("ext_hit_latency", r.ext_hit_latency);
    add("ext_miss_latency", r.ext_miss_latency);
    add("pred_miss_latency", r.pred_miss_latency);
    add("conv_hit_latency", r.conv_hit_latency);
    add("conv_miss_latency", r.conv_miss_latency);

    add("dram_reads", static_cast<double>(r.dram_reads));
    add("dram_writes", static_cast<double>(r.dram_writes));
    add("dram_utilization", r.dram_utilization);

    add("noc_injection_rate", r.noc_injection_rate);
    add("noc_avg_latency", r.noc_avg_latency);
    add("noc_bytes", static_cast<double>(r.noc_bytes));

    add("llc_throughput", r.llc_throughput);
    add("mpki", r.mpki);

    add("avg_watts", r.avg_watts);
    add("perf_per_watt", r.perf_per_watt);
}

void
RunReport::add_failed(const std::string &label, const std::string &error)
{
    ReportEntry &e = add_entry(label);
    e.status = "failed";
    e.error = error;
}

bool
RunReport::has_failures() const
{
    for (const auto &e : entries_) {
        if (!e.ok())
            return true;
    }
    return false;
}

const ReportEntry *
RunReport::find_entry(const std::string &label) const
{
    for (const auto &e : entries_) {
        if (e.label == label)
            return &e;
    }
    return nullptr;
}

void
RunReport::write_json(std::ostream &os) const
{
    os << "{\n";
    os << "  \"schema_version\": " << schema_version_ << ",\n";
    os << "  \"scenario\": ";
    write_string(os, scenario_);
    os << ",\n";
    os << "  \"work_scale\": ";
    write_number(os, work_scale_);
    os << ",\n";
    os << "  \"deterministic\": " << (deterministic_ ? "true" : "false") << ",\n";
    os << "  \"environment\": {\"jobs\": " << jobs_ << ", \"wall_ms\": ";
    write_number(os, wall_ms_);
    os << "},\n";
    os << "  \"entries\": [";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const ReportEntry &e = entries_[i];
        os << (i ? ",\n" : "\n") << "    {\"label\": ";
        write_string(os, e.label);
        os << ", \"status\": ";
        write_string(os, e.status);
        if (!e.ok()) {
            os << ", \"error\": ";
            write_string(os, e.error);
        }
        os << ", \"metrics\": {";
        for (std::size_t m = 0; m < e.metrics.size(); ++m) {
            os << (m ? ", " : "");
            write_string(os, e.metrics[m].name);
            os << ": ";
            write_number(os, e.metrics[m].value);
        }
        os << "}}";
    }
    os << (entries_.empty() ? "]\n" : "\n  ]\n");
    os << "}\n";
}

std::string
RunReport::to_json() const
{
    std::ostringstream ss;
    write_json(ss);
    return ss.str();
}

bool
RunReport::parse_json(const std::string &text, RunReport &out, std::string &error)
{
    JsonValue root;
    if (!parse_json_value(text, root, error))
        return false;
    if (root.type != JsonValue::Type::kObject) {
        error = "top-level JSON value is not an object";
        return false;
    }

    const JsonValue *version = root.get("schema_version");
    if (!version || version->type != JsonValue::Type::kNumber) {
        error = "missing \"schema_version\"";
        return false;
    }
    const JsonValue *scenario = root.get("scenario");
    if (!scenario || scenario->type != JsonValue::Type::kString) {
        error = "missing \"scenario\"";
        return false;
    }
    const JsonValue *entries = root.get("entries");
    if (!entries || entries->type != JsonValue::Type::kArray) {
        error = "missing \"entries\"";
        return false;
    }

    out = RunReport(scenario->string);
    out.schema_version_ = static_cast<int>(version->number);
    out.work_scale_ = root.number_or("work_scale", 1.0);
    if (const JsonValue *det = root.get("deterministic"))
        out.deterministic_ = det->type != JsonValue::Type::kBool || det->boolean;
    if (const JsonValue *env = root.get("environment");
        env && env->type == JsonValue::Type::kObject) {
        out.jobs_ = static_cast<unsigned>(env->number_or("jobs", 0));
        out.wall_ms_ = env->number_or("wall_ms", 0);
    }

    for (std::size_t i = 0; i < entries->array.size(); ++i) {
        const JsonValue &je = entries->array[i];
        const JsonValue *label = je.get("label");
        const JsonValue *metrics = je.get("metrics");
        if (je.type != JsonValue::Type::kObject || !label ||
            label->type != JsonValue::Type::kString || !metrics ||
            metrics->type != JsonValue::Type::kObject) {
            error = "entry " + std::to_string(i) + " is not {\"label\", \"metrics\"}";
            return false;
        }
        ReportEntry &e = out.add_entry(label->string);
        // v1 files have no "status": every entry was an ok run.
        if (const JsonValue *status = je.get("status");
            status && status->type == JsonValue::Type::kString)
            e.status = status->string;
        if (const JsonValue *err = je.get("error");
            err && err->type == JsonValue::Type::kString)
            e.error = err->string;
        for (const auto &kv : metrics->object) {
            if (kv.second.type != JsonValue::Type::kNumber &&
                kv.second.type != JsonValue::Type::kNull) {
                error = "metric \"" + kv.first + "\" of entry \"" + e.label +
                        "\" is not a number";
                return false;
            }
            e.set(kv.first, kv.second.number); // set(): a duplicate key wins over its earlier twin
        }
    }
    return true;
}

bool
RunReport::save_file(const std::string &path, std::string &error) const
{
    std::ofstream os(path);
    if (!os) {
        error = "cannot open '" + path + "' for writing";
        return false;
    }
    write_json(os);
    os.flush();
    if (!os) {
        error = "write to '" + path + "' failed";
        return false;
    }
    return true;
}

bool
RunReport::load_file(const std::string &path, RunReport &out, std::string &error)
{
    std::ifstream is(path);
    if (!is) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    return parse_json(ss.str(), out, error);
}

std::string
RunReport::default_filename(const std::string &scenario)
{
    return "BENCH_" + scenario + ".json";
}

bool
reports_identical(const RunReport &a, const RunReport &b)
{
    if (a.scenario() != b.scenario() || a.schema_version() != b.schema_version() ||
        a.work_scale() != b.work_scale() || a.deterministic() != b.deterministic() ||
        a.entries().size() != b.entries().size())
        return false;
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        const ReportEntry &ea = a.entries()[i];
        const ReportEntry &eb = b.entries()[i];
        if (ea.label != eb.label || ea.status != eb.status || ea.error != eb.error ||
            ea.metrics.size() != eb.metrics.size())
            return false;
        for (std::size_t m = 0; m < ea.metrics.size(); ++m) {
            if (ea.metrics[m].name != eb.metrics[m].name ||
                ea.metrics[m].value != eb.metrics[m].value)
                return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------------
// Diff

double
DiffOptions::rel_tol_for(const std::string &metric) const
{
    for (const auto &kv : metric_rel_tol) {
        if (kv.first == metric)
            return kv.second;
    }
    return rel_tol;
}

namespace {

std::string
format_value(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

void
context_mismatch(DiffResult &result, const std::string &what, const std::string &baseline,
                 const std::string &candidate)
{
    DiffFinding f;
    f.kind = DiffFinding::Kind::kContext;
    f.metric = what;
    f.message = what + " mismatch: baseline " + baseline + " vs candidate " + candidate +
                " — reports are not comparable";
    result.findings.push_back(std::move(f));
}

} // namespace

DiffResult
diff_reports(const RunReport &baseline, const RunReport &candidate, const DiffOptions &opts)
{
    DiffResult result;

    // Context first: a mismatch makes value comparison meaningless.
    if (baseline.schema_version() != candidate.schema_version()) {
        context_mismatch(result, "schema_version", std::to_string(baseline.schema_version()),
                         std::to_string(candidate.schema_version()));
    }
    if (baseline.scenario() != candidate.scenario())
        context_mismatch(result, "scenario", baseline.scenario(), candidate.scenario());
    if (baseline.work_scale() != candidate.work_scale()) {
        context_mismatch(result, "work_scale", format_value(baseline.work_scale()),
                         format_value(candidate.work_scale()));
    }
    if (baseline.deterministic() != candidate.deterministic()) {
        context_mismatch(result, "deterministic", baseline.deterministic() ? "true" : "false",
                         candidate.deterministic() ? "true" : "false");
    }
    if (!result.findings.empty())
        return result;

    // Entries compare positionally: submission order is the stable,
    // deterministic contract; labels are human-readable identifiers that
    // must agree per position but are not required to be unique.
    const auto &be = baseline.entries();
    const auto &ce = candidate.entries();
    const std::size_t common = std::min(be.size(), ce.size());

    for (std::size_t i = common; i < be.size(); ++i) {
        DiffFinding f;
        f.kind = DiffFinding::Kind::kMissingEntry;
        f.label = be[i].label;
        f.message = "entry " + std::to_string(i) + " ('" + be[i].label +
                    "') is in the baseline but not the candidate";
        result.findings.push_back(std::move(f));
    }
    for (std::size_t i = common; i < ce.size(); ++i) {
        DiffFinding f;
        f.kind = DiffFinding::Kind::kExtraEntry;
        f.label = ce[i].label;
        f.message = "entry " + std::to_string(i) + " ('" + ce[i].label +
                    "') is in the candidate but not the baseline — refresh the baseline if "
                    "the sweep shape changed intentionally";
        result.findings.push_back(std::move(f));
    }

    for (std::size_t i = 0; i < common; ++i) {
        const ReportEntry &b = be[i];
        const ReportEntry &c = ce[i];
        ++result.entries_compared;
        if (b.label != c.label) {
            DiffFinding f;
            f.kind = DiffFinding::Kind::kMissingEntry;
            f.label = b.label;
            f.message = "entry " + std::to_string(i) + " label changed: baseline '" + b.label +
                        "' vs candidate '" + c.label + "'";
            result.findings.push_back(std::move(f));
            continue;
        }
        if (b.status != c.status) {
            DiffFinding f;
            f.kind = DiffFinding::Kind::kValue;
            f.label = b.label;
            f.metric = "status";
            f.message = "'" + b.label + "' status changed: baseline '" + b.status +
                        "' vs candidate '" + c.status + "'" +
                        (c.ok() ? "" : " (" + c.error + ")");
            result.findings.push_back(std::move(f));
            continue;
        }
        for (const Metric &m : b.metrics) {
            const double *cv = c.find(m.name);
            if (!cv) {
                DiffFinding f;
                f.kind = DiffFinding::Kind::kMissingMetric;
                f.label = b.label;
                f.metric = m.name;
                f.message = "'" + b.label + "': metric '" + m.name +
                            "' is in the baseline but not the candidate";
                result.findings.push_back(std::move(f));
                continue;
            }
            ++result.metrics_compared;
            if (!baseline.deterministic())
                continue; // structure-only comparison (wall-clock data)
            const double tol =
                opts.abs_tol +
                opts.rel_tol_for(m.name) * std::max(std::fabs(m.value), std::fabs(*cv));
            const double delta = std::fabs(*cv - m.value);
            if (delta > tol) {
                DiffFinding f;
                f.kind = DiffFinding::Kind::kValue;
                f.label = b.label;
                f.metric = m.name;
                f.baseline = m.value;
                f.candidate = *cv;
                const double rel =
                    m.value != 0 ? (*cv - m.value) / std::fabs(m.value) : 0;
                char relbuf[32];
                std::snprintf(relbuf, sizeof(relbuf), "%+.2f%%", 100.0 * rel);
                f.message = "'" + b.label + "' " + m.name + ": baseline " +
                            format_value(m.value) + " vs candidate " + format_value(*cv) +
                            " (" + relbuf + ", tolerance " + format_value(tol) + ")";
                result.findings.push_back(std::move(f));
            }
        }
    }
    return result;
}

} // namespace morpheus
