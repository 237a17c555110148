#include "replay/session_log.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <sstream>

#include "support/io.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace pruner {

namespace {

/** Split @p s on tabs. */
std::vector<std::string>
splitTabs(const std::string& s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        const size_t tab = s.find('\t', start);
        if (tab == std::string::npos) {
            out.push_back(s.substr(start));
            return out;
        }
        out.push_back(s.substr(start, tab - start));
        start = tab + 1;
    }
}

} // namespace

void
appendHex16(std::string& out, uint64_t value)
{
    // Two lowercase hex digits per byte value, so the 16 digits take
    // eight table lookups.
    static constexpr auto kPairs = [] {
        constexpr char kDigits[] = "0123456789abcdef";
        std::array<char, 512> pairs{};
        for (size_t b = 0; b < 256; ++b) {
            pairs[2 * b] = kDigits[b >> 4];
            pairs[2 * b + 1] = kDigits[b & 0xF];
        }
        return pairs;
    }();
    char buf[16];
    for (int i = 7; i >= 0; --i) {
        const size_t b = value & 0xFFu;
        buf[2 * i] = kPairs[2 * b];
        buf[2 * i + 1] = kPairs[2 * b + 1];
        value >>= 8;
    }
    out.append(buf, sizeof(buf));
}

std::string
hexU64(uint64_t value)
{
    std::string out;
    appendHex16(out, value);
    return out;
}

uint64_t
parseHexU64(std::string_view hex)
{
    if (hex.empty() || hex.size() > 16) {
        PRUNER_FATAL("session log: malformed hex field '" << hex << "'");
    }
    uint64_t value = 0;
    for (const char c : hex) {
        value <<= 4;
        if (c >= '0' && c <= '9') {
            value |= static_cast<uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            value |= static_cast<uint64_t>(c - 'a' + 10);
        } else if (c >= 'A' && c <= 'F') {
            value |= static_cast<uint64_t>(c - 'A' + 10);
        } else {
            PRUNER_FATAL("session log: malformed hex field '" << hex << "'");
        }
    }
    return value;
}

std::string_view
TokenReader::next()
{
    while (pos_ < line_.size() && line_[pos_] == ' ') {
        ++pos_;
    }
    const size_t begin = pos_;
    while (pos_ < line_.size() && line_[pos_] != ' ') {
        ++pos_;
    }
    if (pos_ == begin) {
        PRUNER_FATAL("truncated line '" << line_.substr(0, 64) << "'");
    }
    return line_.substr(begin, pos_ - begin);
}

uint64_t
TokenReader::dec()
{
    const std::string_view t = next();
    uint64_t value = 0;
    for (const char c : t) {
        if (c < '0' || c > '9') {
            PRUNER_FATAL("bad integer '" << t << "'");
        }
        const auto digit = static_cast<uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10) {
            PRUNER_FATAL("integer '" << t << "' overflows 64 bits");
        }
        value = value * 10 + digit;
    }
    return value;
}

int64_t
TokenReader::sdec()
{
    while (pos_ < line_.size() && line_[pos_] == ' ') {
        ++pos_;
    }
    bool neg = false;
    if (pos_ < line_.size() && line_[pos_] == '-') {
        neg = true;
        ++pos_;
    }
    const uint64_t mag = dec();
    if (mag > static_cast<uint64_t>(INT64_MAX) + (neg ? 1 : 0)) {
        PRUNER_FATAL("integer overflows 64 bits");
    }
    return neg ? static_cast<int64_t>(0 - mag) : static_cast<int64_t>(mag);
}

std::string
doubleBits(double value)
{
    return hexU64(std::bit_cast<uint64_t>(value));
}

double
bitsToDouble(std::string_view hex)
{
    return std::bit_cast<double>(parseHexU64(hex));
}

uint64_t
paramsHash(const std::vector<double>& params)
{
    uint64_t h = splitmix64(0x9A8A'7557'0C0D'E115ull ^ params.size());
    for (const double p : params) {
        h = hashCombine(h, std::bit_cast<uint64_t>(p));
    }
    return h;
}

std::string
SessionLog::versionLine()
{
    return "#pruner-session-log v" + std::to_string(kVersion);
}

void
SessionLog::append(std::string line)
{
    PRUNER_CHECK(!line.empty() && line.find('\n') == std::string::npos);
    const size_t tab = line.find('\t');
    std::string kind =
        tab == std::string::npos ? line : line.substr(0, tab);
    events_.push_back({std::move(kind), std::move(line)});
}

bool
SessionLog::complete() const
{
    return !events_.empty() && events_.back().kind == "end";
}

const SessionEvent*
SessionLog::find(const std::string& kind) const
{
    for (const auto& event : events_) {
        if (event.kind == kind) {
            return &event;
        }
    }
    return nullptr;
}

std::string
SessionLog::serialize() const
{
    std::string out = versionLine();
    out.push_back('\n');
    for (const auto& event : events_) {
        out += event.line;
        out.push_back('\n');
    }
    return out;
}

SessionLog
SessionLog::parse(const std::string& text)
{
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line)) {
        PRUNER_FATAL("session log: empty input");
    }
    constexpr const char* kPrefix = "#pruner-session-log v";
    if (line.rfind(kPrefix, 0) != 0) {
        PRUNER_FATAL("session log: missing version marker (got '" << line
                                                                  << "')");
    }
    const std::string version_text = line.substr(std::string(kPrefix).size());
    if (version_text != std::to_string(kVersion)) {
        PRUNER_FATAL("session log: unsupported version 'v"
                     << version_text << "' (this build reads v" << kVersion
                     << ")");
    }
    SessionLog log;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') {
            line.pop_back();
        }
        if (line.empty()) {
            PRUNER_FATAL("session log: blank event line " << log.size() + 1);
        }
        log.append(std::move(line));
    }
    if (!log.complete()) {
        PRUNER_FATAL(
            "session log: truncated — no terminal 'end' event after "
            << log.size() << " events");
    }
    return log;
}

SessionLog
SessionLog::load(const std::string& path)
{
    const std::optional<std::string> file = io::readFile(path);
    if (!file) {
        PRUNER_FATAL("session log: cannot open '" << path << "'");
    }
    const std::string& bytes = *file;

    // Only complete lines are trustworthy: a crash mid-write leaves a
    // final line without its newline. Drop it rather than parse garbage;
    // parse() still rejects the log if the surviving prefix has no
    // terminal end event.
    size_t usable = bytes.size();
    if (usable > 0 && bytes[usable - 1] != '\n') {
        const size_t last_nl = bytes.find_last_of('\n');
        const size_t keep = last_nl == std::string::npos ? 0 : last_nl + 1;
        PRUNER_WARN("session log '" << path << "' has a torn final line ("
                                    << usable - keep
                                    << " bytes); ignoring it");
        usable = keep;
    }

    // Verify and strip per-line CRC framing. The first line without a
    // valid suffix truncates the log there: everything after a corrupt
    // line is untrusted, and replay of a half-corrupt session would
    // diverge anyway.
    std::string text;
    text.reserve(usable);
    size_t pos = 0;
    size_t line_no = 0;
    while (pos < usable) {
        const size_t eol = bytes.find('\n', pos);
        std::string line = bytes.substr(pos, eol - pos);
        pos = eol + 1;
        ++line_no;
        if (!line.empty() && line.back() == '\r') {
            line.pop_back();
        }
        if (!io::checkLineCrc(line)) {
            PRUNER_WARN("session log '" << path << "': line " << line_no
                                        << " has no valid CRC suffix; "
                                           "truncating the log there");
            break;
        }
        text += line;
        text.push_back('\n');
    }
    return parse(text);
}

void
SessionLog::save(const std::string& path) const
{
    std::string out = io::withLineCrc(versionLine());
    out.push_back('\n');
    for (const auto& event : events_) {
        out += io::withLineCrc(event.line);
        out.push_back('\n');
    }
    if (!io::atomicWriteFile(path, out)) {
        PRUNER_FATAL("session log: cannot write '" << path << "'");
    }
}

EventFields::EventFields(const std::string& line)
{
    const auto parts = splitTabs(line);
    for (size_t i = 1; i < parts.size(); ++i) { // parts[0] is the kind tag
        const size_t eq = parts[i].find('=');
        if (eq == std::string::npos) {
            PRUNER_FATAL("session log: field without '=' in line '" << line
                                                                    << "'");
        }
        fields_.emplace_back(parts[i].substr(0, eq), parts[i].substr(eq + 1));
    }
}

const std::string&
EventFields::get(const std::string& key) const
{
    for (const auto& [k, v] : fields_) {
        if (k == key) {
            return v;
        }
    }
    PRUNER_FATAL("session log: missing field '" << key << "'");
}

uint64_t
EventFields::getU64(const std::string& key) const
{
    return parseHexU64(get(key));
}

int64_t
EventFields::getInt(const std::string& key) const
{
    const std::string& text = get(key);
    try {
        size_t used = 0;
        const long long value = std::stoll(text, &used);
        if (used != text.size()) {
            throw std::invalid_argument(text);
        }
        return static_cast<int64_t>(value);
    } catch (const std::exception&) {
        PRUNER_FATAL("session log: malformed integer field '"
                     << key << "=" << text << "'");
    }
}

double
EventFields::getDoubleBits(const std::string& key) const
{
    return bitsToDouble(get(key));
}

std::string
ReplayDiff::describe() const
{
    if (identical) {
        return "identical";
    }
    PRUNER_CHECK(divergence.has_value());
    std::ostringstream out;
    out << "first divergence at event " << divergence->event_index << ":\n"
        << "  recorded: "
        << (divergence->recorded.empty() ? "<log ended>"
                                         : divergence->recorded)
        << "\n  replayed: "
        << (divergence->replayed.empty() ? "<log ended>"
                                         : divergence->replayed);
    return out.str();
}

ReplayDiff
replayDiff(const SessionLog& recorded, const SessionLog& replayed)
{
    const auto& a = recorded.events();
    const auto& b = replayed.events();
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
        if (a[i].line != b[i].line) {
            return {false, ReplayDivergence{i, a[i].line, b[i].line}};
        }
    }
    if (a.size() != b.size()) {
        return {false,
                ReplayDivergence{n, n < a.size() ? a[n].line : std::string(),
                                 n < b.size() ? b[n].line : std::string()}};
    }
    return {true, std::nullopt};
}

} // namespace pruner
