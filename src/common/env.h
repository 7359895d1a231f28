#ifndef PPP_COMMON_ENV_H_
#define PPP_COMMON_ENV_H_

#include <cstdlib>
#include <cstring>

namespace ppp::common {

/// Reads the on/off environment switch `name`: unset or empty gives
/// `default_on`, "0" turns it off, and any other value turns it on.
inline bool EnvFlag(const char* name, bool default_on) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return default_on;
  return std::strcmp(value, "0") != 0;
}

}  // namespace ppp::common

#endif  // PPP_COMMON_ENV_H_
