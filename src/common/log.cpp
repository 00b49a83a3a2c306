#include "common/log.hpp"

#include <cstdarg>
#include <cstdio>
#include <mutex>

namespace camps {

void progress_line(const char* fmt, ...) {
  static std::mutex mu;
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  std::lock_guard<std::mutex> lock(mu);
  std::fprintf(stderr, "%s\n", buf);
}

}  // namespace camps
