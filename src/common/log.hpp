// Whole-line progress output on stderr, safe to call from concurrent sweep
// workers.
//
// printf-style formatting (GCC 12 in this toolchain has no <format>); the
// format string is checked by the compiler via the format attribute.
#pragma once

namespace camps {

/// Writes one whole line to stderr under a process-wide mutex, so lines
/// emitted from concurrent sweep workers never interleave mid-line.
/// Unconditional: callers gate on their own verbosity flags. A trailing
/// '\n' is appended.
void progress_line(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace camps
