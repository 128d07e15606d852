// Lightweight contract checking (C++ Core Guidelines I.6/I.8 style).
//
// GIO_EXPECTS checks preconditions at public API boundaries and throws
// graphio::contract_error on violation; it stays enabled in release builds
// because bound *validity* depends on input invariants (e.g. acyclicity).
// GIO_ASSERT guards internal invariants and compiles out under NDEBUG.
#pragma once

#include <stdexcept>
#include <string>

namespace graphio {

/// Thrown when a public-API precondition is violated.
class contract_error : public std::logic_error {
 public:
  explicit contract_error(const std::string& what_arg)
      : std::logic_error(what_arg) {}
};

namespace detail {
/// The message names the condition, never the source location: it lands
/// in report rows, result lines and provenance, which must not differ
/// between checkouts or move when code above a check does.
[[noreturn]] inline void contract_fail(const char* kind, const char* cond,
                                       const std::string& msg) {
  std::string what = std::string(kind) + " violated: (" + cond + ")";
  if (!msg.empty()) what += " — " + msg;
  throw contract_error(what);
}
}  // namespace detail

#define GIO_EXPECTS(cond)                                                    \
  do {                                                                       \
    if (!(cond))                                                             \
      ::graphio::detail::contract_fail("precondition", #cond, "");           \
  } while (false)

#define GIO_EXPECTS_MSG(cond, msg)                                           \
  do {                                                                       \
    if (!(cond))                                                             \
      ::graphio::detail::contract_fail("precondition", #cond, (msg));        \
  } while (false)

#define GIO_ENSURES(cond)                                                    \
  do {                                                                       \
    if (!(cond))                                                             \
      ::graphio::detail::contract_fail("postcondition", #cond, "");          \
  } while (false)

#ifdef NDEBUG
#define GIO_ASSERT(cond) ((void)0)
#else
#define GIO_ASSERT(cond)                                                     \
  do {                                                                       \
    if (!(cond))                                                             \
      ::graphio::detail::contract_fail("invariant", #cond, "");              \
  } while (false)
#endif

}  // namespace graphio
