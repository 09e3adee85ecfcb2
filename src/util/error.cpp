#include "util/error.hpp"

namespace fpgafu {

void throw_sim_error(std::string_view message) {
  throw SimError(std::string(message));
}

}  // namespace fpgafu
