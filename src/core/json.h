// JSON string escaping shared by every machine-readable dump (fxlint
// reports, dataflow facts, plan-cache stats, profiler summaries).
#pragma once

#include <cstdio>
#include <string>

namespace fxcpp::fx {

// `s` as the body of a JSON string literal: quote, backslash and every
// control byte below 0x20 escaped; other bytes (UTF-8 included) pass through.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace fxcpp::fx
