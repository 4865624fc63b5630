// Input-stream helpers for the binary readers (the CDF cache and the
// forensic record stream), which must reject a header whose counts
// promise more bytes than the stream holds before sizing anything.
#pragma once

#include <istream>

namespace sfi {

/// Offset of the end of `is`, or -1 when the stream cannot seek (its reads
/// still fail on truncation, just after sizing). The read position is left
/// where it was.
inline std::streamoff stream_end(std::istream& is) {
    const std::streamoff here = is.tellg();
    if (here < 0 || !is.seekg(0, std::ios::end)) {
        is.clear();
        return -1;
    }
    const std::streamoff end = is.tellg();
    is.seekg(here);
    return end;
}

}  // namespace sfi
