/**
 * @file
 * Status and error reporting helpers in the gem5 spirit.
 *
 * fatal()  - the run cannot continue because of a user-level problem
 *            (bad configuration, invalid argument); exits with code 1.
 * panic()  - an internal invariant was violated (a library bug); aborts.
 * warn()   - something is off but the run can continue.
 * inform() - plain status output.
 *
 * Runtime configuration (read once, on first use):
 *   COLDBOOT_LOG_LEVEL  = quiet|warn|info (or 0|1|2)
 *   COLDBOOT_LOG_FORMAT = plain|timestamped|json
 *
 * `timestamped` prefixes every line with a wall-clock timestamp;
 * `json` emits one JSON object per line ({"ts","level","msg"}) for
 * log scrapers. Level filtering and emission are thread-safe: the
 * level is an atomic, and each record is formatted into a single
 * string then written under one lock (no interleaved lines).
 */

#ifndef COLDBOOT_COMMON_LOGGING_HH
#define COLDBOOT_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace coldboot
{

/** Verbosity levels accepted by setLogLevel(). */
enum class LogLevel { Quiet, Warn, Info };

/** Line formats accepted by setLogFormat(). */
enum class LogFormat { Plain, Timestamped, JsonLines };

/** Set the global verbosity; defaults to LogLevel::Info. */
void setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

/** Set the global line format; defaults to LogFormat::Plain. */
void setLogFormat(LogFormat format);

/** Current global line format. */
LogFormat logFormat();

namespace detail
{

[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Re-read COLDBOOT_LOG_LEVEL / COLDBOOT_LOG_FORMAT. Called once
 * automatically before the first log record; exposed so tests can
 * change the environment mid-process.
 */
void reinitLoggingFromEnv();

} // namespace detail

} // namespace coldboot

/** Terminate with a user-error message (exit code 1). */
#define cb_fatal(...)                                                     \
    ::coldboot::detail::fatalImpl(__FILE__, __LINE__,                     \
                                  ::coldboot::detail::format(__VA_ARGS__))

/** Abort on a violated internal invariant. */
#define cb_panic(...)                                                     \
    ::coldboot::detail::panicImpl(__FILE__, __LINE__,                     \
                                  ::coldboot::detail::format(__VA_ARGS__))

/** Warn but keep going. */
#define cb_warn(...)                                                      \
    ::coldboot::detail::warnImpl(::coldboot::detail::format(__VA_ARGS__))

/** Informational status output. */
#define cb_inform(...)                                                    \
    ::coldboot::detail::informImpl(::coldboot::detail::format(__VA_ARGS__))

/** panic() with the given message unless the condition holds. */
#define cb_assert(cond, ...)                                              \
    do {                                                                  \
        if (!(cond))                                                      \
            cb_panic(__VA_ARGS__);                                        \
    } while (0)

#endif // COLDBOOT_COMMON_LOGGING_HH
