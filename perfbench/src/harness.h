/**
 * @file
 * Helpers of the perfbench harness that are worth testing on their
 * own: percentile ranks, the compile report's "timings" note parser,
 * seeded schedules, the in-memory span recorder and a small JSON
 * writer.  Nothing here depends on the workloads; perfbench.cc and
 * selftest.cc both include it.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

// ---------------------------------------------------------- percentiles

/** Samples a percentile must leave beyond it before it is reported
 *  (fewer and a single outlier decides the value). */
inline constexpr std::size_t kMinBeyond = 10;

/** Nearest-rank index of percentile @p p (0 < p <= 1) among @p n
 *  sorted samples: the smallest index covering a share p. */
std::size_t percentileIndex(std::size_t n, double p);

/** Samples strictly beyond percentile @p p among @p n samples. */
std::size_t samplesBeyond(std::size_t n, double p);

/** Nearest-rank percentile of @p values (sorted in place); nullopt
 *  when fewer than kMinBeyond samples lie beyond it. */
std::optional<double> percentile(std::vector<double> &values,
                                 double p);

/** Median of @p values (mean of the two middle values for an even
 *  count); 0 when empty. */
double median(std::vector<double> values);

/** The highest of p99.9 / p99 / p98 / p95 / p90 / p75 / p50 that
 *  leaves kMinBeyond samples beyond it among @p n; 0 when none
 *  does. */
double tailPercentile(std::size_t n);

// ------------------------------------------------------ timings note

/** One "<pass> <N>us" entry of the PassManager's timings note. */
struct PassTiming
{
    std::string pass;
    std::int64_t micros = 0;
};

/** Parse "analyze 12us, predicate 3us, ..." into entries, in order.
 *  nullopt when any entry is malformed. */
std::optional<std::vector<PassTiming>> parseTimingsNote(
    const std::string &note);

// --------------------------------------------------------- schedules

/** A seeded permutation of 0..n-1 (Fisher-Yates over the repo's
 *  splitmix Rng). */
std::vector<int> visitOrder(std::uint64_t seed, int n);

/** One open-loop request: when it is due (µs after the start),
 *  which mix entry and which tenant. */
struct Arrival
{
    std::int64_t dueMicros = 0;
    int mixIndex = 0;
    int tenant = 0;
};

/** @p count open-loop arrivals at @p rate per second: Poisson
 *  conditioned on round(rate) arrivals in each bin of about one
 *  second (uniform times within the bin); mix entries in exact
 *  proportion to @p weights in a seeded order, tenants drawn
 *  Zipf(1.1) over @p tenants.  Equal arguments give equal
 *  schedules. */
std::vector<Arrival> poissonSchedule(std::uint64_t seed, double rate,
                                     int count,
                                     const std::vector<double> &weights,
                                     int tenants);

// -------------------------------------------------------- host speed

/** What the reference loop takes on an unloaded host of the kind the
 *  benchmark was tuned on (4-vCPU Xeon VM); the scale of the
 *  reference-normalized times. */
inline constexpr double kReferenceNominalMs = 10.0;

/** Wall time (ms) of one pass of a fixed integer loop (random
 *  read-modify-write over a 1 MiB table) that shares no code with
 *  the system under test. */
double referenceMs();

/**
 * Host speed over a window, from reference-loop samples taken while
 * the window runs.  On a shared host the same code runs up to 1.5x
 * slower from one minute to the next; the run-level median of the
 * reference moves with it, so time / factor() is far steadier
 * between runs than time alone.  Thread-safe.
 */
class HostSpeed
{
  public:
    /** Time the reference loop once; returns its wall time (ms) so
     *  a caller sampling inside a timed op can take it out. */
    double sample();

    /** median(samples) / kReferenceNominalMs; 1 without samples. */
    double factor() const;

    std::size_t samples() const;

  private:
    mutable std::mutex mutex_;
    std::vector<double> samples_;
};

// ------------------------------------------------------------ tracing

using Clock = std::chrono::steady_clock;

/** One recorded interval at a layer boundary. */
struct Span
{
    std::uint64_t id = 0;
    /** Span this one ran inside (0 = a root). */
    std::uint64_t parent = 0;
    /** Shared by every span of one kernel or request. */
    std::uint64_t group = 0;
    std::string name;
    /** Layer the span belongs to (compiler, arch, serve, bench). */
    std::string layer;
    /** Timeline the span is drawn on; spans of one track nest.  An
     *  empty track marks an overlapping (async) request span; a
     *  request's service span sits on its lane's track. */
    std::string track;
    std::int64_t startMicros = 0;
    std::int64_t durMicros = 0;
};

/** Per-span-name self-time row of a trace. */
struct SelfTimeRow
{
    std::string name;
    std::string layer;
    std::uint64_t count = 0;
    /** Duration minus the part its child spans cover. */
    double selfMs = 0;
};

/** In-memory span recorder.  Disabled recorders record nothing and
 *  hand out id 0, so untraced runs pay one branch per call. */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Microseconds from the recorder's creation to @p t. */
    std::int64_t at(Clock::time_point t) const;

    /** at(Clock::now()). */
    std::int64_t now() const { return at(Clock::now()); }

    /** A fresh span or group id; 0 when disabled.  Ids are taken
     *  before a span closes so its children can name it. */
    std::uint64_t reserve();

    /** Keep a finished span (ignored when span.id is 0). */
    void record(Span span);

    std::vector<Span> spans() const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t nextId_ = 1;
};

/** Self time per span name, sorted by descending self time. */
std::vector<SelfTimeRow> selfTimes(const std::vector<Span> &spans);

/** Sum of the durations of @p track's top spans, those whose
 *  parent is on another track or absent (µs). */
std::int64_t rootMicros(const std::vector<Span> &spans,
                        const std::string &track);

/** Chrome trace-event JSON (complete "X" events per track, async
 *  "b"/"e" pairs for track-less spans). */
std::string chromeTraceJson(const std::vector<Span> &spans);

// --------------------------------------------------------------- JSON

/** Quote and escape @p s as a JSON string. */
std::string jsonString(const std::string &s);

/** Shortest round-trip decimal form of a finite double. */
std::string jsonNumber(double value);

/** Flat ordered JSON object builder. */
class JsonObject
{
  public:
    JsonObject &add(const std::string &key, const std::string &raw);
    JsonObject &str(const std::string &key, const std::string &value);
    JsonObject &num(const std::string &key, double value);
    std::string render() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
