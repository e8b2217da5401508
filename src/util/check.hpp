// Lightweight contract checking for the tgroom library.
//
// TGROOM_CHECK is always on (cheap invariants guarding public API misuse);
// TGROOM_DCHECK compiles away in release builds and is used for internal
// algorithm invariants that are expensive to evaluate.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace tgroom {

/// Thrown when a checked precondition or invariant fails.  what() names
/// the failed expression and its source location (for logs); message()
/// is the failure alone, which is what a service client is told.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what)
      : std::logic_error(what), message_(what) {}
  CheckError(const std::string& what, const std::string& message)
      : std::logic_error(what), message_(message) {}

  const std::string& message() const { return message_; }

 private:
  std::string message_;
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str(),
                   msg.empty() ? std::string("check failed: ") + expr : msg);
}
}  // namespace detail

}  // namespace tgroom

#define TGROOM_CHECK(expr)                                              \
  do {                                                                  \
    if (!(expr))                                                        \
      ::tgroom::detail::check_failed(#expr, __FILE__, __LINE__, "");    \
  } while (0)

#define TGROOM_CHECK_MSG(expr, msg)                                     \
  do {                                                                  \
    if (!(expr))                                                        \
      ::tgroom::detail::check_failed(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)

#ifndef NDEBUG
#define TGROOM_DCHECK(expr) TGROOM_CHECK(expr)
#else
#define TGROOM_DCHECK(expr) \
  do {                      \
  } while (0)
#endif
