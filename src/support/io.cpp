#include "support/io.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "support/rng.hpp"

namespace pruner::io {

namespace fs = std::filesystem;

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/** Slice-by-8 tables for the reflected CRC-32 (IEEE 802.3 polynomial).
 *  Table 0 is the classic bytewise table; table k advances a byte's
 *  contribution by k further zero bytes, so eight table lookups fold
 *  eight input bytes at once. */
const CrcTables&
crcTables()
{
    static const CrcTables tables = [] {
        CrcTables t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k) {
                c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            }
            t[0][i] = c;
        }
        for (size_t k = 1; k < t.size(); ++k) {
            for (size_t i = 0; i < 256; ++i) {
                const uint32_t prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
            }
        }
        return t;
    }();
    return tables;
}

constexpr char kCrcPrefix[] = "\tcrc=";
constexpr size_t kCrcPrefixLen = 5;  // "\tcrc="
constexpr size_t kCrcSuffixLen = 13; // "\tcrc=" + 8 hex digits

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9') {
        return c - '0';
    }
    if (c >= 'a' && c <= 'f') {
        return c - 'a' + 10;
    }
    return -1;
}

/** The installed plan. Written only by setIoFaultPlan/clearIoFaultPlan
 *  (before any concurrent writers start); g_fault_active publishes it. */
IoFaultPlan g_fault_plan;                      // NOLINT
std::atomic<bool> g_fault_active{false};       // NOLINT
std::atomic<uint64_t> g_write_ops{0};          // NOLINT

IoFaultKind
currentFault(uint64_t op, uint32_t attempt)
{
    if (!g_fault_active.load(std::memory_order_acquire)) {
        return IoFaultKind::None;
    }
    return g_fault_plan.faultFor(op, attempt);
}

/** Tiny deterministic-length backoff between retries of one write op. */
void
backoff(int attempt)
{
    if (attempt > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(attempt));
    }
}

void
removeQuiet(const std::string& path)
{
    std::error_code ec;
    fs::remove(path, ec);
}

[[noreturn]] void
crashNow()
{
    // Raw _exit: no destructors, no stream flushes — the closest safe
    // approximation of a kill -9 the process can inflict on itself.
    ::_exit(IoFaultPlan::kCrashExitCode);
}

} // namespace

uint32_t
crc32(const void* data, size_t size)
{
    const CrcTables& t = crcTables();
    const auto* bytes = static_cast<const unsigned char*>(data);
    uint32_t crc = 0xFFFFFFFFu;
    // Bytes are assembled explicitly (little-endian order), so the result
    // is independent of host endianness and input alignment.
    for (; size >= 8; size -= 8, bytes += 8) {
        const uint32_t lo = crc ^ (static_cast<uint32_t>(bytes[0]) |
                                   static_cast<uint32_t>(bytes[1]) << 8 |
                                   static_cast<uint32_t>(bytes[2]) << 16 |
                                   static_cast<uint32_t>(bytes[3]) << 24);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][bytes[4]] ^
              t[2][bytes[5]] ^ t[1][bytes[6]] ^ t[0][bytes[7]];
    }
    for (; size > 0; --size, ++bytes) {
        crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
    }
    return crc ^ 0xFFFFFFFFu;
}

uint32_t
crc32(const std::string& data)
{
    return crc32(data.data(), data.size());
}

std::string
withLineCrc(const std::string& line)
{
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "\tcrc=%08x", crc32(line));
    return line + suffix;
}

bool
checkLineCrc(std::string& line)
{
    if (line.size() < kCrcSuffixLen ||
        line.compare(line.size() - kCrcSuffixLen, kCrcPrefixLen, kCrcPrefix,
                     kCrcPrefixLen) != 0) {
        return false;
    }
    uint32_t stored = 0;
    for (size_t i = line.size() - 8; i < line.size(); ++i) {
        const int digit = hexDigit(line[i]);
        if (digit < 0) {
            return false;
        }
        stored = (stored << 4) | static_cast<uint32_t>(digit);
    }
    const size_t payload_len = line.size() - kCrcSuffixLen;
    if (crc32(line.data(), payload_len) != stored) {
        return false;
    }
    line.resize(payload_len);
    return true;
}

std::optional<std::string>
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return std::nullopt;
    }
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

IoFaultKind
IoFaultPlan::faultFor(uint64_t op, uint32_t attempt) const
{
    if (fault_kind == IoFaultKind::None) {
        return IoFaultKind::None;
    }
    bool hit = false;
    for (const int64_t listed : fail_ops) {
        if (listed >= 0 && static_cast<uint64_t>(listed) == op) {
            hit = true;
            break;
        }
    }
    if (!hit && fault_rate > 0.0) {
        const uint64_t bits = splitmix64(hashCombine(seed, op));
        const double u =
            static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
        hit = u < fault_rate;
    }
    if (!hit) {
        return IoFaultKind::None;
    }
    if (recover_after_attempts > 0 && attempt >= recover_after_attempts) {
        return IoFaultKind::None;
    }
    return fault_kind;
}

void
setIoFaultPlan(const IoFaultPlan& plan)
{
    g_fault_plan = plan;
    g_write_ops.store(0, std::memory_order_relaxed);
    g_fault_active.store(true, std::memory_order_release);
}

void
clearIoFaultPlan()
{
    g_fault_active.store(false, std::memory_order_release);
    g_write_ops.store(0, std::memory_order_relaxed);
}

bool
atomicWriteFile(const std::string& path, const std::string& contents,
                int max_attempts)
{
    const std::string tmp = path + ".tmp";
    const uint64_t op = g_write_ops.fetch_add(1, std::memory_order_relaxed);
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        backoff(attempt);
        const IoFaultKind fault =
            currentFault(op, static_cast<uint32_t>(attempt));
        if (fault == IoFaultKind::NoSpace) {
            removeQuiet(tmp);
            continue;
        }
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            continue;
        }
        if (fault == IoFaultKind::ShortWrite) {
            // The write(2) came back short: a torn tmp is on disk. The
            // target is untouched; discard the tmp and retry.
            out.write(contents.data(),
                      static_cast<std::streamsize>(contents.size() / 2));
            out.close();
            continue;
        }
        out.write(contents.data(),
                  static_cast<std::streamsize>(contents.size()));
        out.flush();
        const bool wrote = out.good();
        out.close();
        if (!wrote) {
            removeQuiet(tmp);
            continue;
        }
        if (fault == IoFaultKind::CrashAfterWrite) {
            crashNow();
        }
        if (fault == IoFaultKind::RenameFail) {
            removeQuiet(tmp);
            continue;
        }
        std::error_code ec;
        fs::rename(tmp, path, ec);
        if (ec) {
            removeQuiet(tmp);
            continue;
        }
        if (fault == IoFaultKind::CrashAfterRename) {
            crashNow();
        }
        return true;
    }
    removeQuiet(tmp);
    return false;
}

bool
appendFile(const std::string& path, const std::string& contents,
           int max_attempts)
{
    const uint64_t op = g_write_ops.fetch_add(1, std::memory_order_relaxed);
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        backoff(attempt);
        const IoFaultKind fault =
            currentFault(op, static_cast<uint32_t>(attempt));
        if (fault == IoFaultKind::NoSpace) {
            continue;
        }
        std::error_code ec;
        const uintmax_t before =
            fs::exists(path, ec) ? fs::file_size(path, ec) : 0;
        std::ofstream out(path, std::ios::binary | std::ios::app);
        if (!out) {
            continue;
        }
        if (fault == IoFaultKind::ShortWrite) {
            // Crash mid-append: a prefix of the chunk lands on disk and
            // nobody is left to repair it. The torn tail stays — that is
            // the exact hazard the append-only loaders truncate away.
            out.write(contents.data(),
                      static_cast<std::streamsize>(contents.size() / 2));
            out.close();
            return false;
        }
        out.write(contents.data(),
                  static_cast<std::streamsize>(contents.size()));
        out.flush();
        const bool wrote = out.good();
        out.close();
        if (fault == IoFaultKind::CrashAfterWrite) {
            crashNow();
        }
        if (wrote) {
            return true;
        }
        // Real partial write: roll back to the pre-append size so a
        // retry cannot duplicate the chunk.
        fs::resize_file(path, before, ec);
    }
    return false;
}

std::string
quarantineFile(const std::string& path)
{
    const std::string target = path + ".corrupt";
    std::error_code ec;
    fs::remove(target, ec);
    ec.clear();
    fs::rename(path, target, ec);
    if (ec) {
        return "";
    }
    return target;
}

} // namespace pruner::io
