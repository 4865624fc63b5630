// The binary codec of every persisted format: the CDF cache, the campaign
// point store and the forensic records.bin (docs/ARCHITECTURE.md,
// "Persisted formats", tabulates their layouts).
//
//  * Fields are little-endian. Only little-endian hosts build, so each
//    field or float array is copied as it sits in memory; structs are
//    written field by field, so no layout depends on padding.
//  * A writer appends to one buffer and writes it out in one call.
//  * A reader names its format in every std::runtime_error it throws and
//    sizes nothing from an unchecked count: a count read from a header
//    must fit in the bytes left of a seekable stream, and a stream that
//    cannot seek (a pipe) gets at most kUnmeasuredPrefix bytes sized at
//    once, so a hostile count fails on truncation, not on allocation.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace sfi {

static_assert(std::endian::native == std::endian::little,
              "the persisted formats copy little-endian fields as they sit "
              "in memory");

class ByteWriter {
public:
    template <typename T>
    ByteWriter& put(const T& value) {
        static_assert(std::is_trivially_copyable_v<T>);
        return put_bytes(&value, sizeof value);
    }

    ByteWriter& put_bytes(const void* data, std::size_t size) {
        buffer_.append(static_cast<const char*>(data), size);
        return *this;
    }

    void reserve(std::size_t size) { buffer_.reserve(size); }
    const std::string& bytes() const { return buffer_; }

    /// Writes the buffer to `os` in one call; the caller checks `os`.
    void write_to(std::ostream& os) const {
        os.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    }

private:
    std::string buffer_;
};

class ByteReader {
public:
    static constexpr std::uint64_t kUnmeasuredPrefix = std::uint64_t{1} << 21;

    /// Reads `is` from its current position; `format` prefixes every error.
    ByteReader(std::istream& is, const char* format) : is_(is), format_(format) {
        const std::streamoff here = is.tellg();
        if (here >= 0 && is.seekg(0, std::ios::end)) {
            const std::streamoff left = is.tellg() - here;
            left_ = static_cast<std::uint64_t>(std::max<std::streamoff>(left, 0));
            is.seekg(here);
        }
        is.clear();  // a stream that cannot seek fails the attempt
    }

    [[noreturn]] void fail(const char* what) const {
        throw std::runtime_error(std::string(format_) + ": " + what);
    }

    /// Throws "<format>: truncated stream" when the stream ends first.
    template <typename T>
    T get() {
        static_assert(std::is_trivially_copyable_v<T>);
        T value{};
        read(&value, sizeof value);
        return value;
    }

    /// Replaces `out` with `count` elements: on a seekable stream one
    /// resize and one read, straight into `out`.
    template <typename Container>
    void get_array(Container& out, std::uint64_t count) {
        using T = typename Container::value_type;
        static_assert(std::is_trivially_copyable_v<T>);
        out.clear();
        while (out.size() < count) {
            const std::size_t done = out.size();
            const auto step = static_cast<std::size_t>(bound(count - done, sizeof(T)));
            out.resize(done + step);
            read(out.data() + done, step * sizeof(T));
        }
    }

    /// How many of `count` items of `item_bytes` each may be sized at
    /// once: all of them if a seekable stream holds them (else throws
    /// "<format>: count exceeds the stream"), at most kUnmeasuredPrefix
    /// bytes' worth if the stream cannot seek.
    std::uint64_t bound(std::uint64_t count, std::size_t item_bytes) const {
        if (!left_) return std::min(count, kUnmeasuredPrefix / item_bytes);
        if (count > *left_ / item_bytes) fail("count exceeds the stream");
        return count;
    }

    /// True at a clean end of the stream.
    bool at_end() { return is_.peek() == std::istream::traits_type::eof(); }

private:
    void read(void* data, std::size_t size) {
        if (!is_.read(static_cast<char*>(data), static_cast<std::streamsize>(size)))
            fail("truncated stream");
        if (left_) *left_ -= std::min<std::uint64_t>(*left_, size);
    }

    std::istream& is_;
    const char* format_;
    std::optional<std::uint64_t> left_;  ///< unset when `is_` cannot seek
};

}  // namespace sfi
