#include "fi/forensics.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "perf/json_writer.hpp"
#include "util/bytes.hpp"
#include "util/csv.hpp"

namespace sfi {

const char* detector_family_name(std::uint8_t fate) {
    switch (fate) {
        case kRazorNone: return "none";
        case kRazorDetected:
        case kRazorEscaped: return "razor";
        case kCwcDetected:
        case kCwcEscaped: return "cwc";
        default: return "?";
    }
}

namespace {

/// Detector family ordinal used as the by_class_detector_ map key —
/// 0 none, 1 razor, 2 cwc (the map order fixes the artifact row order).
std::uint8_t detector_family_ordinal(std::uint8_t fate) {
    switch (fate) {
        case kRazorDetected:
        case kRazorEscaped: return 1;
        case kCwcDetected:
        case kCwcEscaped: return 2;
        default: return 0;
    }
}

const char* detector_family_ordinal_name(std::uint8_t ordinal) {
    switch (ordinal) {
        case 1: return "razor";
        case 2: return "cwc";
        default: return "none";
    }
}

}  // namespace

const char* outcome_class_name(OutcomeClass cls) {
    switch (cls) {
        case OutcomeClass::Masked: return "masked";
        case OutcomeClass::LatentCorrupt: return "latent_corrupt";
        case OutcomeClass::SDC: return "sdc";
        case OutcomeClass::Hang: return "hang";
        case OutcomeClass::Detected: return "detected";
        case OutcomeClass::kCount: break;
    }
    return "?";
}

// ---------------------------------------------------------------------------
// Binary record stream
// ---------------------------------------------------------------------------

void write_fault_records(std::ostream& os,
                         const std::vector<FaultRecord>& records) {
    // Field by field, so no struct padding reaches the stream.
    ByteWriter out;
    out.reserve(16 + records.size() * kFaultRecordBytes);
    out.put_bytes(kForensicMagic, 8)
        .put(static_cast<std::uint32_t>(kFaultRecordBytes))
        .put(static_cast<std::uint32_t>(records.size()));
    for (const FaultRecord& rec : records)
        out.put(rec.trial)
            .put(rec.point_id)
            .put(rec.cycle)
            .put(rec.pc)
            .put(rec.window)
            .put(rec.op)
            .put(rec.cls)
            .put(rec.endpoint)
            .put(rec.policy)
            .put(rec.pre_bit)
            .put(rec.post_bit)
            .put(rec.razor)
            .put(std::uint8_t{0});  // reserved (keeps the record size even)
    out.write_to(os);
}

std::vector<FaultRecord> read_fault_records(std::istream& is) {
    ByteReader in(is, "fault records");
    const auto magic = in.get<std::array<char, 8>>();
    if (!std::equal(magic.begin(), magic.end(), kForensicMagic))
        in.fail("bad magic");
    if (in.get<std::uint32_t>() != kFaultRecordBytes)
        in.fail("unexpected record size");
    const auto count = in.get<std::uint32_t>();
    std::vector<FaultRecord> records;
    records.reserve(in.bound(count, kFaultRecordBytes));
    for (std::uint32_t i = 0; i < count; ++i) {
        FaultRecord& rec = records.emplace_back();
        rec.trial = in.get<std::uint32_t>();
        rec.point_id = in.get<std::uint32_t>();
        rec.cycle = in.get<std::uint64_t>();
        rec.pc = in.get<std::uint32_t>();
        rec.window = in.get<std::uint16_t>();
        rec.op = in.get<std::uint8_t>();
        rec.cls = in.get<std::uint8_t>();
        rec.endpoint = in.get<std::uint8_t>();
        rec.policy = in.get<std::uint8_t>();
        rec.pre_bit = in.get<std::uint8_t>();
        rec.post_bit = in.get<std::uint8_t>();
        rec.razor = in.get<std::uint8_t>();
        in.get<std::uint8_t>();  // reserved
    }
    return records;
}

std::size_t latency_bucket(std::uint32_t latency_cycles) {
    if (latency_cycles == 0) return 0;
    std::size_t bucket = 1;
    while (bucket + 1 < kLatencyBuckets &&
           latency_cycles >= (1u << bucket))
        ++bucket;
    return bucket;
}

// ---------------------------------------------------------------------------
// ForensicSink
// ---------------------------------------------------------------------------

std::uint32_t ForensicSink::begin_point(std::string panel, std::string model,
                                        std::string kernel,
                                        const OperatingPoint& point) {
    ForensicPointInfo info;
    info.point_id = static_cast<std::uint32_t>(points_.size());
    info.panel = std::move(panel);
    info.model = std::move(model);
    info.kernel = std::move(kernel);
    info.freq_mhz = point.freq_mhz;
    info.vdd = point.vdd;
    info.sigma_mv = point.noise.sigma_mv;
    points_.push_back(std::move(info));
    return points_.back().point_id;
}

void ForensicSink::add_trial(std::uint32_t point_id, OutcomeClass cls,
                             bool finished, bool correct,
                             std::uint32_t razor_detected,
                             std::uint32_t razor_escaped,
                             std::vector<FaultRecord> records,
                             const std::vector<std::uint32_t>& latencies) {
    ForensicPointInfo& info = points_.at(point_id);
    ++info.trials_sampled;
    ++trials_recorded_;
    if (finished) ++info.finished;
    if (correct) ++info.correct;
    ++info.outcomes[static_cast<std::size_t>(cls)];
    info.injections += records.size();
    info.razor_detected += razor_detected;
    info.razor_escaped += razor_escaped;

    // Derating attribution: one trial counts once per distinct key it
    // injected into, regardless of how many records share the key.
    const bool sdc = cls == OutcomeClass::SDC;
    const auto fold = [sdc](auto& map, auto key, std::uint64_t injections) {
        KeyTally& tally = map[key];
        tally.injections += injections;
        ++tally.trials;
        if (sdc) ++tally.sdc_trials;
    };
    std::map<std::uint8_t, std::uint64_t> cls_seen, bit_seen;
    std::map<std::uint32_t, std::uint64_t> pc_seen;
    std::map<std::pair<std::uint8_t, std::uint8_t>, std::uint64_t>
        cls_detector_seen;
    for (FaultRecord& rec : records) {
        rec.point_id = point_id;
        ++cls_seen[rec.cls];
        ++bit_seen[rec.endpoint];
        ++pc_seen[rec.pc];
        ++cls_detector_seen[{rec.cls, detector_family_ordinal(rec.razor)}];
    }
    for (const auto& [key, n] : cls_seen) fold(by_class_, key, n);
    for (const auto& [key, n] : bit_seen) fold(by_bit_, key, n);
    for (const auto& [key, n] : pc_seen) fold(by_pc_, key, n);
    for (const auto& [key, n] : cls_detector_seen)
        fold(by_class_detector_, key, n);
    for (const std::uint32_t latency : latencies) {
        ++latency_hist_[latency_bucket(latency)];
        ++detections_;
    }
    records_.insert(records_.end(), records.begin(), records.end());
}

VulnerabilityReport ForensicSink::report() const {
    VulnerabilityReport report;
    for (const auto& [cls, tally] : by_class_)
        report.by_class.push_back(
            {ex_class_name(static_cast<ExClass>(cls)), tally.injections,
             tally.trials, tally.sdc_trials});
    for (const auto& [bit, tally] : by_bit_)
        report.by_bit.push_back({"bit" + std::to_string(bit), tally.injections,
                                 tally.trials, tally.sdc_trials});
    for (const auto& [pc, tally] : by_pc_) {
        char name[16];
        std::snprintf(name, sizeof(name), "0x%08x", pc);
        report.by_pc.push_back(
            {name, tally.injections, tally.trials, tally.sdc_trials});
    }
    // Hotspot ranking: injections descending, PC ascending on ties (the
    // map order) — stable_sort keeps it deterministic.
    std::stable_sort(report.by_pc.begin(), report.by_pc.end(),
                     [](const auto& lhs, const auto& rhs) {
                         return lhs.injections > rhs.injections;
                     });
    for (const auto& [key, tally] : by_class_detector_)
        report.by_class_detector.push_back(
            {ex_class_name(static_cast<ExClass>(key.first)),
             detector_family_ordinal_name(key.second), tally.injections,
             tally.trials, tally.sdc_trials});
    report.detection_latency_hist = latency_hist_;
    report.detections = detections_;
    return report;
}

void ForensicSink::write_records(std::ostream& os) const {
    write_fault_records(os, records_);
}

namespace {

void write_derating_csv(const std::string& path, const std::string& key_column,
                        const std::vector<VulnerabilityReport::DeratingRow>& rows) {
    CsvWriter csv(path);
    csv.header({key_column, "injections", "trials", "sdc_trials",
                "sdc_derating"});
    for (const auto& row : rows) {
        csv.cell(row.key)
            .cell(row.injections)
            .cell(row.trials)
            .cell(row.sdc_trials)
            .cell(row.sdc_derating());
        csv.end_row();
    }
    csv.close();
}

}  // namespace

void ForensicSink::write_artifacts(const std::string& dir) const {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // ok if it exists

    const std::string records_path = dir + "/records.bin";
    {
        std::ofstream os(records_path, std::ios::binary | std::ios::trunc);
        if (!os)
            throw std::runtime_error("forensics: cannot write " + records_path);
        write_records(os);
        os.flush();
        if (!os)
            throw std::runtime_error("forensics: write to " + records_path +
                                     " failed");
    }

    const VulnerabilityReport rep = report();

    const std::string json_path = dir + "/forensics.json";
    {
        std::ofstream os(json_path, std::ios::trunc);
        if (!os)
            throw std::runtime_error("forensics: cannot write " + json_path);
        perf::JsonWriter json(os);
        json.begin_object();
        json.field("schema", "sfi-forensics");
        json.field("version", 1);
        json.field("record_count", static_cast<std::uint64_t>(records_.size()));
        json.field("trials", trials_recorded_);
        json.key("points");
        json.begin_array();
        for (const ForensicPointInfo& info : points_) {
            json.begin_object();
            json.field("point_id", static_cast<std::uint64_t>(info.point_id));
            json.field("panel", info.panel);
            json.field("model", info.model);
            json.field("kernel", info.kernel);
            json.field("freq_mhz", info.freq_mhz);
            json.field("vdd", info.vdd);
            json.field("sigma_mv", info.sigma_mv);
            json.field("trials_sampled", info.trials_sampled);
            json.field("finished", info.finished);
            json.field("correct", info.correct);
            json.key("outcomes");
            json.begin_object();
            for (std::size_t i = 0; i < kOutcomeClassCount; ++i)
                json.field(outcome_class_name(static_cast<OutcomeClass>(i)),
                           info.outcomes[i]);
            json.end_object();
            json.field("injections", info.injections);
            json.field("razor_detected", info.razor_detected);
            json.field("razor_escaped", info.razor_escaped);
            json.end_object();
        }
        json.end_array();
        json.key("report");
        json.begin_object();
        const auto emit_rows =
            [&json](const char* name,
                    const std::vector<VulnerabilityReport::DeratingRow>& rows) {
                json.key(name);
                json.begin_array();
                for (const auto& row : rows) {
                    json.begin_object();
                    json.field("key", row.key);
                    json.field("injections", row.injections);
                    json.field("trials", row.trials);
                    json.field("sdc_trials", row.sdc_trials);
                    json.field("sdc_derating", row.sdc_derating());
                    json.end_object();
                }
                json.end_array();
            };
        emit_rows("by_class", rep.by_class);
        emit_rows("by_bit", rep.by_bit);
        emit_rows("by_pc", rep.by_pc);
        json.key("by_class_detector");
        json.begin_array();
        for (const auto& row : rep.by_class_detector) {
            json.begin_object();
            json.field("ex_class", row.ex_class);
            json.field("detector", row.detector);
            json.field("injections", row.injections);
            json.field("trials", row.trials);
            json.field("sdc_trials", row.sdc_trials);
            json.field("sdc_derating", row.sdc_derating());
            json.end_object();
        }
        json.end_array();
        json.field("detections", rep.detections);
        json.key("detection_latency_hist");
        json.begin_array();
        for (const std::uint64_t count : rep.detection_latency_hist)
            json.value(count);
        json.end_array();
        json.end_object();
        json.end_object();
        os << "\n";
        os.flush();
        if (!os)
            throw std::runtime_error("forensics: write to " + json_path +
                                     " failed");
    }

    {
        CsvWriter csv(dir + "/forensics_points.csv");
        std::vector<std::string> columns = {
            "panel",   "model",    "kernel",  "point_id", "freq_mhz",
            "vdd",     "sigma_mv", "trials",  "finished", "correct"};
        for (std::size_t i = 0; i < kOutcomeClassCount; ++i)
            columns.push_back(outcome_class_name(static_cast<OutcomeClass>(i)));
        columns.insert(columns.end(),
                       {"injections", "razor_detected", "razor_escaped"});
        csv.header(columns);
        for (const ForensicPointInfo& info : points_) {
            csv.cell(info.panel)
                .cell(info.model)
                .cell(info.kernel)
                .cell(static_cast<std::uint64_t>(info.point_id))
                .cell(info.freq_mhz)
                .cell(info.vdd)
                .cell(info.sigma_mv)
                .cell(info.trials_sampled)
                .cell(info.finished)
                .cell(info.correct);
            for (std::size_t i = 0; i < kOutcomeClassCount; ++i)
                csv.cell(info.outcomes[i]);
            csv.cell(info.injections)
                .cell(info.razor_detected)
                .cell(info.razor_escaped);
            csv.end_row();
        }
        csv.close();
    }

    write_derating_csv(dir + "/forensics_by_class.csv", "ex_class",
                       rep.by_class);
    write_derating_csv(dir + "/forensics_by_bit.csv", "bit", rep.by_bit);
    write_derating_csv(dir + "/forensics_by_pc.csv", "pc", rep.by_pc);

    {
        CsvWriter csv(dir + "/forensics_by_class_detector.csv");
        csv.header({"ex_class", "detector", "injections", "trials",
                    "sdc_trials", "sdc_derating"});
        for (const auto& row : rep.by_class_detector) {
            csv.cell(row.ex_class)
                .cell(row.detector)
                .cell(row.injections)
                .cell(row.trials)
                .cell(row.sdc_trials)
                .cell(row.sdc_derating());
            csv.end_row();
        }
        csv.close();
    }

    {
        CsvWriter csv(dir + "/forensics_latency.csv");
        csv.header({"bucket", "min_cycles", "max_cycles", "detections"});
        for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
            const std::uint64_t lo = i == 0 ? 0 : (1ull << (i - 1));
            const std::uint64_t hi = i == 0 ? 0 : (1ull << i) - 1;
            csv.cell(static_cast<std::uint64_t>(i))
                .cell(lo)
                .cell(hi)
                .cell(rep.detection_latency_hist[i]);
            csv.end_row();
        }
        csv.close();
    }
}

// ---------------------------------------------------------------------------
// forensics_points.csv reader (sfi_trace)
// ---------------------------------------------------------------------------

namespace {

/// Splits one CSV line with the quoting conventions of csv_escape
/// (fields containing separators/quotes are double-quote wrapped,
/// embedded quotes doubled).
std::vector<std::string> split_csv_line(const std::string& line) {
    std::vector<std::string> fields;
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    field.push_back('"');
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                field.push_back(c);
            }
        } else if (c == '"' && field.empty()) {
            quoted = true;
        } else if (c == ',') {
            fields.push_back(std::move(field));
            field.clear();
        } else {
            field.push_back(c);
        }
    }
    fields.push_back(std::move(field));
    return fields;
}

}  // namespace

std::map<std::string, ForensicPanelTally> read_forensic_panel_tallies(
    const std::string& csv_path) {
    std::map<std::string, ForensicPanelTally> tallies;
    std::ifstream is(csv_path);
    if (!is) return tallies;
    std::string line;
    if (!std::getline(is, line)) return tallies;
    const std::vector<std::string> header = split_csv_line(line);
    const auto column = [&header](const std::string& name) -> std::ptrdiff_t {
        const auto it = std::find(header.begin(), header.end(), name);
        return it == header.end() ? -1 : it - header.begin();
    };
    const std::ptrdiff_t panel_col = column("panel");
    const std::ptrdiff_t trials_col = column("trials");
    std::array<std::ptrdiff_t, kOutcomeClassCount> class_col{};
    for (std::size_t i = 0; i < kOutcomeClassCount; ++i)
        class_col[i] = column(outcome_class_name(static_cast<OutcomeClass>(i)));
    if (panel_col < 0 || trials_col < 0) return tallies;
    const auto parse_u64 = [](const std::string& text) -> std::uint64_t {
        try {
            return std::stoull(text);
        } catch (const std::exception&) {
            return 0;
        }
    };
    while (std::getline(is, line)) {
        if (line.empty()) continue;
        const std::vector<std::string> fields = split_csv_line(line);
        if (static_cast<std::size_t>(panel_col) >= fields.size()) continue;
        ForensicPanelTally& tally = tallies[fields[panel_col]];
        if (static_cast<std::size_t>(trials_col) < fields.size())
            tally.trials += parse_u64(fields[trials_col]);
        for (std::size_t i = 0; i < kOutcomeClassCount; ++i) {
            const std::ptrdiff_t col = class_col[i];
            if (col >= 0 && static_cast<std::size_t>(col) < fields.size())
                tally.outcomes[i] += parse_u64(fields[col]);
        }
    }
    return tallies;
}

std::vector<ForensicPointRow> read_forensic_points(
    const std::string& csv_path) {
    std::vector<ForensicPointRow> rows;
    std::ifstream is(csv_path);
    if (!is) return rows;
    std::string line;
    if (!std::getline(is, line)) return rows;
    const std::vector<std::string> header = split_csv_line(line);
    const auto column = [&header](const std::string& name) -> std::ptrdiff_t {
        const auto it = std::find(header.begin(), header.end(), name);
        return it == header.end() ? -1 : it - header.begin();
    };
    const std::ptrdiff_t panel_col = column("panel");
    const std::ptrdiff_t model_col = column("model");
    const std::ptrdiff_t kernel_col = column("kernel");
    const std::ptrdiff_t id_col = column("point_id");
    const std::ptrdiff_t freq_col = column("freq_mhz");
    const std::ptrdiff_t vdd_col = column("vdd");
    const std::ptrdiff_t sigma_col = column("sigma_mv");
    const std::ptrdiff_t trials_col = column("trials");
    const std::ptrdiff_t finished_col = column("finished");
    const std::ptrdiff_t correct_col = column("correct");
    const std::ptrdiff_t injections_col = column("injections");
    const std::ptrdiff_t detected_col = column("razor_detected");
    const std::ptrdiff_t escaped_col = column("razor_escaped");
    if (panel_col < 0 || id_col < 0 || trials_col < 0) return rows;
    const auto cell = [](const std::vector<std::string>& fields,
                         std::ptrdiff_t col) -> std::string {
        return col >= 0 && static_cast<std::size_t>(col) < fields.size()
                   ? fields[col]
                   : std::string();
    };
    const auto parse_u64 = [](const std::string& text) -> std::uint64_t {
        try {
            return std::stoull(text);
        } catch (const std::exception&) {
            return 0;
        }
    };
    const auto parse_double = [](const std::string& text) -> double {
        try {
            return std::stod(text);
        } catch (const std::exception&) {
            return 0.0;
        }
    };
    while (std::getline(is, line)) {
        if (line.empty()) continue;
        const std::vector<std::string> fields = split_csv_line(line);
        ForensicPointRow row;
        row.panel = cell(fields, panel_col);
        row.model = cell(fields, model_col);
        row.kernel = cell(fields, kernel_col);
        row.point_id =
            static_cast<std::uint32_t>(parse_u64(cell(fields, id_col)));
        row.freq_mhz = parse_double(cell(fields, freq_col));
        row.vdd = parse_double(cell(fields, vdd_col));
        row.sigma_mv = parse_double(cell(fields, sigma_col));
        row.trials = parse_u64(cell(fields, trials_col));
        row.finished = parse_u64(cell(fields, finished_col));
        row.correct = parse_u64(cell(fields, correct_col));
        row.injections = parse_u64(cell(fields, injections_col));
        row.razor_detected = parse_u64(cell(fields, detected_col));
        row.razor_escaped = parse_u64(cell(fields, escaped_col));
        rows.push_back(std::move(row));
    }
    return rows;
}

}  // namespace sfi
