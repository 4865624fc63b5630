#include "campaign/point_store.hpp"

#include <array>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/fingerprint.hpp"

namespace sfi::campaign {

namespace {

using Magic = std::array<char, 8>;
constexpr Magic kMagic = {'S', 'F', 'I', 'P', 'T', 'S', '\x01', '\n'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kHeaderBytes = sizeof kMagic + sizeof kVersion;
// A PointSummary payload is ~150 bytes; anything larger than this is a
// corrupt size field, not a record.
constexpr std::uint32_t kMaxPayload = 1u << 20;

void put_point_summary(ByteWriter& out, const PointSummary& summary) {
    out.put(summary.point.freq_mhz)
        .put(summary.point.vdd)
        .put(summary.point.noise.sigma_mv)
        .put(summary.point.noise.clip_sigmas)
        .put(static_cast<std::uint64_t>(summary.trials))
        .put(static_cast<std::uint64_t>(summary.finished_count))
        .put(static_cast<std::uint64_t>(summary.correct_count))
        .put(summary.fi_rate)
        .put(summary.mean_error);
    summary.error_stats.save(out);
    summary.fi_rate_stats.save(out);
}

}  // namespace

void save_point_summary(std::ostream& os, const PointSummary& summary) {
    ByteWriter out;
    put_point_summary(out, summary);
    out.write_to(os);
}

PointSummary load_point_summary(std::istream& is) {
    ByteReader in(is, "point summary");
    PointSummary summary;
    summary.point.freq_mhz = in.get<double>();
    summary.point.vdd = in.get<double>();
    summary.point.noise.sigma_mv = in.get<double>();
    summary.point.noise.clip_sigmas = in.get<double>();
    summary.trials = static_cast<std::size_t>(in.get<std::uint64_t>());
    summary.finished_count = static_cast<std::size_t>(in.get<std::uint64_t>());
    summary.correct_count = static_cast<std::size_t>(in.get<std::uint64_t>());
    summary.fi_rate = in.get<double>();
    summary.mean_error = in.get<double>();
    summary.error_stats = RunningStats::load(in);
    summary.fi_rate_stats = RunningStats::load(in);
    if (!in.at_end()) in.fail("trailing bytes");
    return summary;
}

const char* store_diagnostic_name(StoreDiagnostic::Kind kind) {
    switch (kind) {
        case StoreDiagnostic::Kind::ForeignFile: return "foreign-file";
        case StoreDiagnostic::Kind::CorruptTail: return "corrupt-tail";
        case StoreDiagnostic::Kind::BitRot: return "bit-rot";
    }
    return "unknown";
}

PointStore::PointStore(std::string path, obs::Ledger* ledger)
    : path_(std::move(path)), ledger_(ledger) {
    if (!path_.empty()) {
        load_file();
        report_diagnostics();
    }
}

void PointStore::load_file() {
    valid_bytes_ = kHeaderBytes;
    std::ifstream is(path_, std::ios::binary);
    std::error_code ec;
    const std::uint64_t file_size = std::filesystem::file_size(path_, ec);
    // No file yet, or an empty one: created with a header on first insert.
    if (!is || (!ec && file_size == 0)) return;

    ByteReader in(is, "point store");
    std::string payload;
    auto damage = StoreDiagnostic::Kind::CorruptTail;
    bool damaged = false;
    try {
        header_ok_ =
            in.get<Magic>() == kMagic && in.get<std::uint32_t>() == kVersion;
        // A clean end of file comes between records; a record cut
        // anywhere inside is a torn write.
        while (header_ok_ && !in.at_end()) {
            const auto key = in.get<std::uint64_t>();
            const auto size = in.get<std::uint32_t>();
            if (size > kMaxPayload) in.fail("corrupt size field");
            in.get_array(payload, size);
            if (Fingerprint().bytes(payload.data(), size).value() !=
                in.get<std::uint64_t>()) {
                damage = StoreDiagnostic::Kind::BitRot;
                in.fail("payload hash mismatch");
            }
            std::istringstream ps(payload);
            entries_[key] = load_point_summary(ps);
            valid_bytes_ += sizeof key + sizeof size + size + sizeof(std::uint64_t);
        }
    } catch (const std::exception&) {
        damaged = true;  // this record and the rest are dropped
    }
    if (!header_ok_) {
        // Foreign, old-format or shorter than a header: read as empty;
        // the first insert rewrites it from scratch.
        recovered_bytes_ = ec ? 0 : file_size;
        diagnostics_.push_back({StoreDiagnostic::Kind::ForeignFile,
                                recovered_bytes_, 0});
        return;
    }
    if (!ec && file_size > valid_bytes_)
        recovered_bytes_ = file_size - valid_bytes_;
    if (damaged)
        diagnostics_.push_back({damage, recovered_bytes_, entries_.size()});
}

void PointStore::report_diagnostics() const {
    for (const StoreDiagnostic& diag : diagnostics_) {
        if (ledger_ != nullptr) {
            ledger_->instant(
                "store_warning",
                {{"kind", store_diagnostic_name(diag.kind)},
                 {"path", path_},
                 {"dropped_bytes", diag.dropped_bytes},
                 {"records_loaded",
                  static_cast<std::uint64_t>(diag.records_loaded)}});
        } else {
            std::fprintf(
                stderr,
                "sfi: point store %s: %s — dropped %llu byte(s), "
                "%zu record(s) loaded\n",
                path_.c_str(), store_diagnostic_name(diag.kind),
                static_cast<unsigned long long>(diag.dropped_bytes),
                diag.records_loaded);
        }
    }
}

void PointStore::append_record(std::uint64_t key, const PointSummary& summary) {
    if (!out_.is_open()) {
        if (!header_ok_) {
            // Missing or unrecognizable file: start fresh.
            out_.open(path_, std::ios::binary | std::ios::trunc);
            ByteWriter().put(kMagic).put(kVersion).write_to(out_);
        } else {
            // Cut corrupt trailing data back to the last good record,
            // then append behind it. ios::app (O_APPEND) writes at the
            // OS-maintained end of file, so a second process appending
            // to the same store cannot overwrite this one's records —
            // see the concurrency note in the header.
            if (recovered_bytes_ > 0) {
                std::error_code ec;
                std::filesystem::resize_file(path_, valid_bytes_, ec);
            }
            out_.open(path_, std::ios::binary | std::ios::app);
        }
        if (!out_)
            throw std::runtime_error("PointStore: cannot open " + path_ +
                                     " for writing");
        header_ok_ = true;
    }
    ByteWriter payload;
    put_point_summary(payload, summary);
    const std::string& bytes = payload.bytes();
    ByteWriter record;
    record.put(key)
        .put(static_cast<std::uint32_t>(bytes.size()))
        .put_bytes(bytes.data(), bytes.size())
        .put(Fingerprint().bytes(bytes.data(), bytes.size()).value());
    record.write_to(out_);
    out_.flush();  // the resume guarantee: completed points hit the disk
    if (!out_)
        throw std::runtime_error("PointStore: write to " + path_ + " failed");
    valid_bytes_ += record.bytes().size();
}

std::optional<PointSummary> PointStore::lookup(std::uint64_t key) const {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
}

void PointStore::insert(std::uint64_t key, const PointSummary& summary) {
    if (!entries_.emplace(key, summary).second) return;  // already stored
    if (!path_.empty()) append_record(key, summary);
}

}  // namespace sfi::campaign
