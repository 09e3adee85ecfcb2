#pragma once

#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"

namespace fpgafu::testing {

/// The what() text of the SimError that `f` throws, or "" (and a test
/// failure) when it throws none.  Error texts are part of the API: hosts
/// and logs match on them, so tests pin them exactly.
template <typename F>
std::string sim_error_text(F&& f) {
  try {
    f();
  } catch (const SimError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a SimError";
  return {};
}

}  // namespace fpgafu::testing
