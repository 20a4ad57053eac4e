#include "exp/journal.hh"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "exp/result_table.hh"

namespace asap::exp
{

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

namespace
{

std::string
u64Str(std::uint64_t v)
{
    return strprintf("%llu", static_cast<unsigned long long>(v));
}

/** The one u64 parser of every number the journal reads: a non-empty
 *  run of @p base digits (10, or 16 for the cell key) that fits. No
 *  sign, space or prefix — strtoull would read "-1" as 2^64 - 1. */
bool
parseU64(const std::string &text, int base, std::uint64_t &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out, base);
    return ec == std::errc() && ptr == end;
}

/** A Json number that is an integer in [0, @p limit), as a u64; false
 *  for anything else (negative, fractional, NaN, huge). Checked before
 *  the cast: converting an out-of-range double is undefined. */
bool
integerBelow(const Json &json, double limit, std::uint64_t &out)
{
    if (json.type() != Json::Type::Number)
        return false;
    const double value = json.asNumber();
    if (!(value >= 0.0 && value < limit) || value != std::floor(value))
        return false;
    out = static_cast<std::uint64_t>(value);
    return true;
}

/** A cell's RunStats as journal Json, per schema field type. u64s are
 *  decimal strings: JSON numbers are doubles and lose bits past 2^53.
 *  profile is not in the schema (see journal.hh). */
struct FieldToJson
{
    Json operator()(std::uint64_t value) const { return u64Str(value); }

    Json
    operator()(const SampleStat &stat) const
    {
        Json out = Json::object();
        out.set("count", u64Str(stat.count()));
        out.set("sum", u64Str(stat.sum()));
        out.set("min", u64Str(stat.min()));
        out.set("max", u64Str(stat.max()));
        // The exact second moment, as u64 halves (u128 has no decimal
        // printer); needed so a resumed sweep's variance stays
        // bit-exact.
        out.set("sqHi", u64Str(stat.sumSquaresHi()));
        out.set("sqLo", u64Str(stat.sumSquaresLo()));
        return out;
    }

    Json
    operator()(const LevelDistribution &dist) const
    {
        Json counts = Json::array();
        for (std::size_t i = 0; i < numMemLevels; ++i)
            counts.push(u64Str(dist.count(static_cast<MemLevel>(i))));
        return counts;
    }

    /** Totals plus the non-empty buckets, keyed by index. */
    Json
    operator()(const obs::Histogram &hist) const
    {
        Json out = Json::object();
        out.set("count", u64Str(hist.count()));
        out.set("sum", u64Str(hist.sum()));
        Json buckets = Json::object();
        for (std::size_t i = 0; i < obs::Histogram::numBuckets; ++i) {
            if (hist.bucketCount(i))
                buckets.set(u64Str(i), u64Str(hist.bucketCount(i)));
        }
        out.set("b", std::move(buckets));
        return out;
    }

    template <typename T, std::size_t N>
    Json
    operator()(const std::array<T, N> &items) const
    {
        Json out = Json::array();
        for (const T &item : items)
            out.push((*this)(item));
        return out;
    }

    /** [name, value] pairs, in registration order. */
    Json
    operator()(const Counters &counters) const
    {
        Json out = Json::array();
        for (const auto &[name, value] : counters) {
            Json pair = Json::array();
            pair.push(name);
            pair.push(u64Str(value));
            out.push(std::move(pair));
        }
        return out;
    }

    /** RunStats, AsapEngineStats, OsDynStats: an object keyed by field
     *  name. */
    template <typename Stats>
    auto
    operator()(const Stats &stats) const
        -> decltype(Stats::forEachField(*this, stats), Json())
    {
        Json out = Json::object();
        Stats::forEachField([&](const char *name, const auto &field) {
            out.set(name, (*this)(field));
        }, stats);
        return out;
    }
};

/** The inverse of FieldToJson: false when a member is absent or
 *  malformed (resume then recomputes the cell). */
struct FieldFromJson
{
    /** A decimal u64, stored as a Json string. */
    bool
    operator()(const Json *json, std::uint64_t &value) const
    {
        return json && json->type() == Json::Type::String &&
               parseU64(json->asString(), 10, value);
    }

    bool
    operator()(const Json *json, SampleStat &stat) const
    {
        std::uint64_t count, sum, min, max;
        if (!json || !(*this)(json->find("count"), count) ||
            !(*this)(json->find("sum"), sum) ||
            !(*this)(json->find("min"), min) ||
            !(*this)(json->find("max"), max))
            return false;
        // Absent in journals written before the moment was tracked — an
        // old journal restores with a zero second moment rather than
        // failing its whole cell.
        std::uint64_t sqHi = 0, sqLo = 0;
        const Json *hi = json->find("sqHi");
        const Json *lo = json->find("sqLo");
        if ((hi && !(*this)(hi, sqHi)) || (lo && !(*this)(lo, sqLo)))
            return false;
        stat.restore(count, sum, min, max, sqHi, sqLo);
        return true;
    }

    bool
    operator()(const Json *json, LevelDistribution &dist) const
    {
        if (!json || json->type() != Json::Type::Array ||
            json->items().size() != numMemLevels)
            return false;
        dist.reset();
        for (std::size_t i = 0; i < numMemLevels; ++i) {
            std::uint64_t n;
            if (!(*this)(&json->items()[i], n))
                return false;
            dist.restoreCount(static_cast<MemLevel>(i), n);
        }
        return true;
    }

    bool
    operator()(const Json *json, obs::Histogram &hist) const
    {
        std::uint64_t count, sum;
        if (!json || !(*this)(json->find("count"), count) ||
            !(*this)(json->find("sum"), sum))
            return false;
        const Json *buckets = json->find("b");
        if (!buckets || buckets->type() != Json::Type::Object)
            return false;
        hist.reset();
        for (const auto &[key, value] : buckets->members()) {
            std::uint64_t index, n;
            if (!parseU64(key, 10, index) ||
                index >= obs::Histogram::numBuckets ||
                !(*this)(&value, n))
                return false;
            hist.setBucketCount(index, n);
        }
        hist.setTotals(count, sum);
        return true;
    }

    template <typename T, std::size_t N>
    bool
    operator()(const Json *json, std::array<T, N> &items) const
    {
        if (!json || json->type() != Json::Type::Array ||
            json->items().size() != N)
            return false;
        for (std::size_t i = 0; i < N; ++i) {
            if (!(*this)(&json->items()[i], items[i]))
                return false;
        }
        return true;
    }

    bool
    operator()(const Json *json, Counters &counters) const
    {
        if (!json || json->type() != Json::Type::Array)
            return false;
        counters.clear();
        for (const Json &pair : json->items()) {
            std::uint64_t value;
            if (pair.type() != Json::Type::Array ||
                pair.items().size() != 2 ||
                pair.items()[0].type() != Json::Type::String ||
                !(*this)(&pair.items()[1], value))
                return false;
            counters.emplace_back(pair.items()[0].asString(), value);
        }
        return true;
    }

    template <typename Stats>
    auto
    operator()(const Json *json, Stats &stats) const
        -> decltype(Stats::forEachField(*this, stats), true)
    {
        if (!json || json->type() != Json::Type::Object)
            return false;
        bool ok = true;
        Stats::forEachField([&](const char *name, auto &field) {
            ok = ok && (*this)(json->find(name), field);
        }, stats);
        return ok;
    }
};

bool
statusCodeFromName(const std::string &name, StatusCode &code)
{
    for (unsigned i = 0; i <= static_cast<unsigned>(StatusCode::Internal);
         ++i) {
        const auto candidate = static_cast<StatusCode>(i);
        if (name == statusCodeName(candidate)) {
            code = candidate;
            return true;
        }
    }
    return false;
}

} // namespace

Json
cellResultToJson(const CellResult &result)
{
    Json out = Json::object();
    out.set("row", result.row);
    out.set("column", result.column);
    out.set("measured", result.measured);
    out.set("statusCode", statusCodeName(result.status.code()));
    if (!result.status.message().empty())
        out.set("statusMessage", result.status.message());
    out.set("attempts",
            static_cast<double>(result.attempts));
    if (result.measured)
        out.set("stats", FieldToJson{}(result.stats));
    if (!result.extra.empty()) {
        Json extra = Json::object();
        for (const auto &[key, value] : result.extra)
            extra.set(key, value);
        out.set("extra", std::move(extra));
    }
    return out;
}

bool
cellResultFromJson(const Json &json, CellResult &result)
{
    if (json.type() != Json::Type::Object)
        return false;
    const Json *row = json.find("row");
    const Json *column = json.find("column");
    const Json *measured = json.find("measured");
    const Json *statusCode = json.find("statusCode");
    const Json *attempts = json.find("attempts");
    if (!row || row->type() != Json::Type::String || !column ||
        column->type() != Json::Type::String || !measured ||
        measured->type() != Json::Type::Bool || !statusCode ||
        statusCode->type() != Json::Type::String || !attempts)
        return false;
    std::uint64_t attemptCount = 0;
    if (!integerBelow(*attempts,
                      std::numeric_limits<unsigned>::max() + 1.0,
                      attemptCount))
        return false;
    CellResult out;
    out.row = row->asString();
    out.column = column->asString();
    out.measured = measured->asBool();
    StatusCode code;
    if (!statusCodeFromName(statusCode->asString(), code))
        return false;
    const Json *message = json.find("statusMessage");
    if (message && message->type() != Json::Type::String)
        return false;
    out.status = Status(code, message ? message->asString()
                                      : std::string());
    out.attempts = static_cast<unsigned>(attemptCount);
    if (out.measured) {
        if (!FieldFromJson{}(json.find("stats"), out.stats))
            return false;
    }
    const Json *extra = json.find("extra");
    if (extra) {
        if (extra->type() != Json::Type::Object)
            return false;
        for (const auto &[key, value] : extra->members()) {
            if (value.type() != Json::Type::Number)
                return false;
            out.extra[key] = value.asNumber();
        }
    }
    result = std::move(out);
    return true;
}

// ---------------------------------------------------------------------------
// CellJournal
// ---------------------------------------------------------------------------

namespace
{

std::string
headerLine(const std::string &name, std::size_t cellCount)
{
    Json header = Json::object();
    header.set("journal", "asap-sweep-cells");
    header.set("version", 1);
    header.set("sweep", name);
    header.set("cells", static_cast<double>(cellCount));
    return header.dump() + "\n";
}

std::string
recordLine(std::size_t cellIndex, std::uint64_t key,
           const CellResult &result)
{
    Json record = cellResultToJson(result);
    // Prepend identity by rebuilding in order (Json keeps insertion
    // order; cell/key leading makes the journal greppable).
    Json line = Json::object();
    line.set("cell", static_cast<double>(cellIndex));
    line.set("key", strprintf("%llx",
                              static_cast<unsigned long long>(key)));
    for (const auto &[k, v] : record.members())
        line.set(k, v);
    return line.dump() + "\n";
}

} // namespace

std::string
CellJournal::pathFor(const std::string &name)
{
    const std::string dir = resultsDir();
    if (dir.empty())
        return {};
    return dir + "/" + name + "_cells.journal.jsonl";
}

bool
CellJournal::open(const std::string &name, std::size_t cellCount,
                  bool resume)
{
    close();
    const std::string path = pathFor(name);
    if (path.empty())
        return false;
    name_ = name;
    cellCount_ = cellCount;

    bool headerOk = false;
    std::uint64_t goodBytes = 0;
    if (resume) {
        std::ifstream in(path);
        std::string line;
        bool first = true;
        while (in && std::getline(in, line)) {
            if (line.empty()) {
                goodBytes += 1;
                continue;
            }
            const auto doc = Json::parse(line);
            if (!doc) {
                // A torn final line (killed mid-write) is expected;
                // anything after it would be suspect anyway. New
                // records will overwrite it (goodBytes truncation).
                break;
            }
            goodBytes += line.size() + 1;
            if (first) {
                first = false;
                const Json *kind = doc->find("journal");
                const Json *sweep = doc->find("sweep");
                const Json *cells = doc->find("cells");
                headerOk =
                    kind && kind->type() == Json::Type::String &&
                    kind->asString() == "asap-sweep-cells" && sweep &&
                    sweep->type() == Json::Type::String &&
                    sweep->asString() == name && cells &&
                    cells->type() == Json::Type::Number &&
                    cells->asNumber() == static_cast<double>(cellCount);
                if (!headerOk) {
                    warn("journal %s does not match this sweep; "
                         "recomputing all cells",
                         path.c_str());
                    break;
                }
                continue;
            }
            const Json *cell = doc->find("cell");
            const Json *key = doc->find("key");
            std::uint64_t index = 0;
            if (!cell ||
                !integerBelow(*cell, static_cast<double>(cellCount),
                              index) ||
                !key || key->type() != Json::Type::String)
                continue;
            std::uint64_t keyValue = 0;
            CellResult result;
            if (!parseU64(key->asString(), 16, keyValue) ||
                !cellResultFromJson(*doc, result))
                continue;
            result.resumed = true;
            loaded_[index] = {keyValue, std::move(result)};
        }
        if (!headerOk)
            loaded_.clear();
        // The final parsed line may lack its newline; never claim more
        // bytes than the file has.
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        if (!ec && goodBytes > size)
            goodBytes = size;
    }

    {
        std::error_code ec;
        std::filesystem::create_directories(resultsDir(), ec);
        if (ec) {
            warn("cannot create results dir %s: %s (running "
                 "unjournaled)",
                 resultsDir().c_str(), ec.message().c_str());
            return false;
        }
    }

    // A resume that salvaged nothing (no journal, or a mismatched one)
    // starts the file over rather than appending after stale records.
    const bool append = resume && !loaded_.empty();
    const int flags = O_WRONLY | O_CREAT | (append ? O_APPEND : O_TRUNC);
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0) {
        warn("cannot open sweep journal %s: %s (running unjournaled)",
             path.c_str(), std::strerror(errno));
        return false;
    }
    if (append && ::ftruncate(fd_, static_cast<off_t>(goodBytes)) != 0) {
        warn("cannot trim sweep journal %s: %s (running unjournaled)",
             path.c_str(), std::strerror(errno));
        ::close(fd_);
        fd_ = -1;
        loaded_.clear();
        return false;
    }
    if (!append) {
        const std::string line = headerLine(name, cellCount);
        if (::write(fd_, line.data(), line.size()) !=
                static_cast<ssize_t>(line.size()) ||
            ::fsync(fd_) != 0) {
            warn("cannot write sweep journal %s: %s (running "
                 "unjournaled)",
                 path.c_str(), std::strerror(errno));
            ::close(fd_);
            fd_ = -1;
            return false;
        }
    }
    return true;
}

const CellResult *
CellJournal::find(std::size_t cellIndex, std::uint64_t key) const
{
    const auto it = loaded_.find(cellIndex);
    if (it == loaded_.end() || it->second.first != key)
        return nullptr;
    return &it->second.second;
}

void
CellJournal::append(std::size_t cellIndex, std::uint64_t key,
                    const CellResult &result)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    if (fd_ < 0)
        return;
    const std::string text = recordLine(cellIndex, key, result);
    if (::write(fd_, text.data(), text.size()) !=
            static_cast<ssize_t>(text.size()) ||
        ::fsync(fd_) != 0) {
        warn("sweep journal write failed: %s (journal disabled for the "
             "rest of this run)",
             std::strerror(errno));
        ::close(fd_);
        fd_ = -1;
    }
}

void
CellJournal::seal(const std::vector<std::uint64_t> &keys,
                  const std::vector<CellResult> &results)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    if (fd_ < 0 || keys.size() != results.size() ||
        results.size() != cellCount_)
        return;
    std::string text = headerLine(name_, cellCount_);
    for (std::size_t i = 0; i < results.size(); ++i)
        text += recordLine(i, keys[i], results[i]);
    if (::ftruncate(fd_, 0) != 0 ||
        ::lseek(fd_, 0, SEEK_SET) != 0 ||
        ::write(fd_, text.data(), text.size()) !=
            static_cast<ssize_t>(text.size()) ||
        ::fsync(fd_) != 0) {
        warn("sweep journal seal failed: %s (a resume will recompute)",
             std::strerror(errno));
        ::close(fd_);
        fd_ = -1;
    }
}

void
CellJournal::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    loaded_.clear();
}

} // namespace asap::exp
