// The end of every bench's --json writer: a write that did not reach the
// file must fail the bench (its main returns non-zero), never print
// "wrote" and exit 0.
#pragma once

#include <iostream>
#include <string>

namespace msq::bench {

/// End the JSON document on `out`, flush it, and report it.  False (after
/// printing why) when any write to `path` failed.
inline bool finish_json_file(std::ostream& out, const std::string& path) {
  out << '\n';
  out.flush();
  if (!out) {
    std::cerr << "error writing " << path << '\n';
    return false;
  }
  std::cout << "wrote " << path << '\n';
  return true;
}

}  // namespace msq::bench
