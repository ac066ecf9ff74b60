#include "common/logging.hh"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <mutex>

#include <sys/time.h>

namespace coldboot
{

namespace
{

std::atomic<LogLevel> globalLevel{LogLevel::Info};
std::atomic<LogFormat> globalFormat{LogFormat::Plain};
std::once_flag envInitOnce;
std::mutex emitMutex;

/** "2026-08-05T22:49:01.123" in local time. */
std::string
timestampNow()
{
    struct timeval tv;
    // coldboot-lint: allow(no-wallclock-in-sim) -- log timestamp, not sim
    gettimeofday(&tv, nullptr);
    struct tm tm_buf;
    // coldboot-lint: allow(no-wallclock-in-sim) -- formats the log stamp
    localtime_r(&tv.tv_sec, &tm_buf);
    char buf[40];
    // coldboot-lint: allow(no-wallclock-in-sim) -- formats the log stamp
    size_t len = strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%S",
                          &tm_buf);
    std::snprintf(buf + len, sizeof(buf) - len, ".%03d",
                  static_cast<int>(tv.tv_usec / 1000));
    return buf;
}

/**
 * Minimal JSON string escape. Deliberately local: cb_common sits
 * below cb_obs, so the obs::json helpers are not linkable here.
 */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

/**
 * Format one record and write it with a single fprintf under the
 * emission lock - concurrent log lines never interleave.
 */
void
ensureEnvInit()
{
    std::call_once(envInitOnce, detail::reinitLoggingFromEnv);
}

void
emit(FILE *to, const char *level, const std::string &msg)
{
    ensureEnvInit();
    std::string line;
    switch (globalFormat.load(std::memory_order_relaxed)) {
    case LogFormat::Plain:
        line = std::string(level) + ": " + msg + "\n";
        break;
    case LogFormat::Timestamped:
        line = timestampNow() + " " + level + ": " + msg + "\n";
        break;
    case LogFormat::JsonLines:
        line = "{\"ts\":\"" + timestampNow() + "\",\"level\":\"" +
               level + "\",\"msg\":\"" + jsonEscape(msg) + "\"}\n";
        break;
    }
    std::lock_guard<std::mutex> lock(emitMutex);
    std::fputs(line.c_str(), to);
}

} // anonymous namespace

void
setLogLevel(LogLevel level)
{
    globalLevel.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return globalLevel.load(std::memory_order_relaxed);
}

void
setLogFormat(LogFormat format)
{
    globalFormat.store(format, std::memory_order_relaxed);
}

LogFormat
logFormat()
{
    return globalFormat.load(std::memory_order_relaxed);
}

namespace detail
{

void
reinitLoggingFromEnv()
{
    if (const char *level = std::getenv("COLDBOOT_LOG_LEVEL")) {
        if (!std::strcmp(level, "quiet") || !std::strcmp(level, "0"))
            setLogLevel(LogLevel::Quiet);
        else if (!std::strcmp(level, "warn") ||
                 !std::strcmp(level, "1"))
            setLogLevel(LogLevel::Warn);
        else if (!std::strcmp(level, "info") ||
                 !std::strcmp(level, "2"))
            setLogLevel(LogLevel::Info);
        else
            std::fprintf(stderr,
                         "warn: COLDBOOT_LOG_LEVEL='%s' not "
                         "recognized (want quiet|warn|info)\n",
                         level);
    }
    if (const char *format = std::getenv("COLDBOOT_LOG_FORMAT")) {
        if (!std::strcmp(format, "plain"))
            setLogFormat(LogFormat::Plain);
        else if (!std::strcmp(format, "timestamped"))
            setLogFormat(LogFormat::Timestamped);
        else if (!std::strcmp(format, "json"))
            setLogFormat(LogFormat::JsonLines);
        else
            std::fprintf(stderr,
                         "warn: COLDBOOT_LOG_FORMAT='%s' not "
                         "recognized (want plain|timestamped|"
                         "json)\n",
                         format);
    }
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (len < 0) {
        va_end(args_copy);
        return "<format error>";
    }
    std::string out(static_cast<size_t>(len), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    va_end(args_copy);
    return out;
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    emit(stderr, "fatal",
         msg + " (" + file + ":" + std::to_string(line) + ")");
    std::exit(1);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    emit(stderr, "panic",
         msg + " (" + file + ":" + std::to_string(line) + ")");
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    ensureEnvInit();
    if (logLevel() >= LogLevel::Warn)
        emit(stderr, "warn", msg);
}

void
informImpl(const std::string &msg)
{
    ensureEnvInit();
    if (logLevel() >= LogLevel::Info)
        emit(stdout, "info", msg);
}

} // namespace detail

} // namespace coldboot
