#include "harness.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "sim/rng.h"

namespace perfbench
{

// ---------------------------------------------------------- percentiles

std::size_t
percentileIndex(std::size_t n, double p)
{
    if (n == 0)
        return 0;
    const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
    const std::size_t index =
        rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return std::min(index, n - 1);
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - 1 - percentileIndex(n, p);
}

std::optional<double>
percentile(std::vector<double> &values, double p)
{
    if (values.empty() || samplesBeyond(values.size(), p) < kMinBeyond)
        return std::nullopt;
    std::sort(values.begin(), values.end());
    return values[percentileIndex(values.size(), p)];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2;
}

double
tailPercentile(std::size_t n)
{
    for (double p : {0.999, 0.99, 0.98, 0.95, 0.90, 0.75, 0.50})
        if (samplesBeyond(n, p) >= kMinBeyond)
            return p;
    return 0;
}

// ------------------------------------------------------ timings note

std::optional<std::vector<PassTiming>>
parseTimingsNote(const std::string &note)
{
    std::vector<PassTiming> out;
    std::size_t pos = 0;
    while (pos < note.size()) {
        std::size_t end = note.find(", ", pos);
        if (end == std::string::npos)
            end = note.size();
        const std::string entry = note.substr(pos, end - pos);
        const std::size_t space = entry.rfind(' ');
        if (space == std::string::npos || space == 0 ||
            entry.size() < space + 4 ||
            entry.compare(entry.size() - 2, 2, "us") != 0)
            return std::nullopt;
        PassTiming t;
        t.pass = entry.substr(0, space);
        for (char c : t.pass)
            if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
                return std::nullopt;
        const char *first = entry.data() + space + 1;
        const char *last = entry.data() + entry.size() - 2;
        const auto [ptr, ec] = std::from_chars(first, last, t.micros);
        if (ec != std::errc() || ptr != last || t.micros < 0)
            return std::nullopt;
        out.push_back(std::move(t));
        pos = end == note.size() ? end : end + 2;
    }
    if (out.empty())
        return std::nullopt;
    return out;
}

// --------------------------------------------------------- schedules

std::vector<int>
visitOrder(std::uint64_t seed, int n)
{
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        order[static_cast<std::size_t>(i)] = i;
    marionette::Rng rng(seed ^ 0x6f72646572ull);
    for (int i = n - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(
            rng.nextBounded(static_cast<std::uint64_t>(i + 1)));
        std::swap(order[static_cast<std::size_t>(i)], order[j]);
    }
    return order;
}

namespace
{

int
drawIndex(marionette::Rng &rng, const std::vector<double> &cdf)
{
    const double draw = rng.nextDouble() * cdf.back();
    int i = 0;
    while (i + 1 < static_cast<int>(cdf.size()) &&
           draw >= cdf[static_cast<std::size_t>(i)])
        ++i;
    return i;
}

} // namespace

std::vector<Arrival>
poissonSchedule(std::uint64_t seed, double rate, int count,
                const std::vector<double> &weights, int tenants)
{
    marionette::Rng rng(seed ^ 0x617272697665ull);
    const auto n = static_cast<std::size_t>(count);

    // Poisson arrivals conditioned on their count per bin: each
    // bin of round(rate) requests spreads uniformly over exactly one
    // bin length (about a second).  Within a bin the arrivals are
    // as bursty as Poisson; across bins the offered rate is exact,
    // so a 25 s window does not swing between seeds on whether it
    // drew a multi-second surge.
    const std::size_t per_bin = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(rate)));
    const double bin_micros = static_cast<double>(per_bin) / rate * 1e6;
    std::vector<double> due;
    due.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double bin = static_cast<double>(i / per_bin);
        due.push_back((bin + rng.nextDouble()) * bin_micros);
    }
    std::sort(due.begin(), due.end());

    // Mix entries in exact proportion (largest remainder), in a
    // seeded order.
    double total = 0;
    for (double w : weights)
        total += w;
    std::vector<int> picks;
    std::vector<std::pair<double, int>> remainders;
    for (std::size_t m = 0; m < weights.size(); ++m) {
        const double share = weights[m] / total * count;
        picks.insert(picks.end(), static_cast<std::size_t>(share),
                     static_cast<int>(m));
        remainders.push_back({share - std::floor(share),
                              static_cast<int>(m)});
    }
    std::sort(remainders.rbegin(), remainders.rend());
    for (std::size_t r = 0; picks.size() < n; ++r)
        picks.push_back(remainders[r % remainders.size()].second);
    for (std::size_t i = n; i > 1; --i)
        std::swap(picks[i - 1], picks[rng.nextBounded(i)]);

    std::vector<double> tenant_cdf;
    total = 0;
    for (int t = 0; t < tenants; ++t)
        tenant_cdf.push_back(total += 1.0 / std::pow(t + 1.0, 1.1));

    std::vector<Arrival> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i].dueMicros = static_cast<std::int64_t>(due[i]);
        out[i].mixIndex = picks[i];
        out[i].tenant = drawIndex(rng, tenant_cdf);
    }
    return out;
}

// -------------------------------------------------------- host speed

double
referenceMs()
{
    thread_local std::vector<std::uint32_t> table(1u << 18);
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
    for (int i = 0; i < 1'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t &slot = table[x & (table.size() - 1)];
        if (slot & 1)
            acc += slot;
        else
            slot += static_cast<std::uint32_t>(x);
    }
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    // Consume acc so the loop cannot be optimized away.
    return acc == 1 ? ms + 1e-12 : ms;
}

double
HostSpeed::sample()
{
    const auto t0 = Clock::now();
    const double ms = referenceMs();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        samples_.push_back(ms);
    }
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
HostSpeed::factor() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_.empty() ? 1.0
                            : median(samples_) / kReferenceNominalMs;
}

std::size_t
HostSpeed::samples() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_.size();
}

// ------------------------------------------------------------ tracing

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
}

std::int64_t
Tracer::at(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               t - origin_)
        .count();
}

std::uint64_t
Tracer::reserve()
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
Tracer::record(Span span)
{
    if (!enabled_ || span.id == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<SelfTimeRow>
selfTimes(const std::vector<Span> &spans)
{
    // Child coverage per parent: the union of the children's
    // intervals, clipped to the parent (children of one parent may
    // overlap only on async request spans).
    std::map<std::uint64_t, const Span *> by_id;
    for (const Span &s : spans)
        by_id[s.id] = &s;
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                  std::int64_t>>>
        children;
    for (const Span &s : spans)
        if (s.parent != 0 && by_id.count(s.parent))
            children[s.parent].push_back(
                {s.startMicros, s.startMicros + s.durMicros});

    std::map<std::string, SelfTimeRow> rows;
    for (const Span &s : spans) {
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            const std::int64_t lo = s.startMicros;
            const std::int64_t hi = s.startMicros + s.durMicros;
            std::int64_t cursor = lo;
            for (auto [a, b] : iv) {
                a = std::max(a, cursor);
                b = std::min(b, hi);
                if (b > a) {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        SelfTimeRow &row = rows[s.name];
        row.name = s.name;
        row.layer = s.layer;
        ++row.count;
        row.selfMs +=
            static_cast<double>(s.durMicros - covered) / 1000.0;
    }
    std::vector<SelfTimeRow> out;
    for (auto &entry : rows)
        out.push_back(entry.second);
    std::sort(out.begin(), out.end(),
              [](const SelfTimeRow &a, const SelfTimeRow &b) {
                  return a.selfMs > b.selfMs;
              });
    return out;
}

std::int64_t
rootMicros(const std::vector<Span> &spans, const std::string &track)
{
    std::map<std::uint64_t, const std::string *> track_of;
    for (const Span &s : spans)
        track_of[s.id] = &s.track;
    std::int64_t total = 0;
    for (const Span &s : spans) {
        auto parent = track_of.find(s.parent);
        if (s.track == track &&
            (parent == track_of.end() || *parent->second != track))
            total += s.durMicros;
    }
    return total;
}

std::string
chromeTraceJson(const std::vector<Span> &spans)
{
    std::map<std::string, int> tids;
    for (const Span &s : spans)
        if (!s.track.empty() && !tids.count(s.track))
            tids.emplace(s.track, static_cast<int>(tids.size()) + 1);

    std::ostringstream out;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            out << ",\n";
        first = false;
    };
    for (const auto &[track, tid] : tids) {
        sep();
        out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
            << ",\"name\":\"thread_name\",\"args\":{\"name\":"
            << jsonString(track) << "}}";
    }
    for (const Span &s : spans) {
        const std::string args =
            "{\"id\":" + std::to_string(s.id) +
            ",\"parent\":" + std::to_string(s.parent) +
            ",\"group\":" + std::to_string(s.group) + "}";
        if (!s.track.empty()) {
            sep();
            out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tids[s.track]
                << ",\"name\":" << jsonString(s.name)
                << ",\"cat\":" << jsonString(s.layer)
                << ",\"ts\":" << s.startMicros
                << ",\"dur\":" << s.durMicros << ",\"args\":" << args
                << "}";
        } else {
            // Async pair keyed by the request's group id, so all
            // spans of one request share a Perfetto track.
            for (const char *ph : {"b", "e"}) {
                sep();
                const std::int64_t ts =
                    ph[0] == 'b' ? s.startMicros
                                 : s.startMicros + s.durMicros;
                out << "{\"ph\":\"" << ph << "\",\"pid\":1"
                    << ",\"id\":" << s.group
                    << ",\"name\":" << jsonString(s.name)
                    << ",\"cat\":" << jsonString(s.layer)
                    << ",\"ts\":" << ts << ",\"args\":" << args
                    << "}";
            }
        }
    }
    out << "]}\n";
    return out.str();
}

// --------------------------------------------------------------- JSON

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    const auto [ptr, ec] =
        std::to_chars(buf, buf + sizeof buf, value);
    return ec == std::errc() ? std::string(buf, ptr) : "null";
}

JsonObject &
JsonObject::add(const std::string &key, const std::string &raw)
{
    fields_.emplace_back(key, raw);
    return *this;
}

JsonObject &
JsonObject::str(const std::string &key, const std::string &value)
{
    return add(key, jsonString(value));
}

JsonObject &
JsonObject::num(const std::string &key, double value)
{
    return add(key, jsonNumber(value));
}

std::string
JsonObject::render() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonString(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
}

} // namespace perfbench
