#pragma once

/**
 * @file io.hpp
 * Durable-write primitives with deterministic fault injection.
 *
 * Every artifact the library persists (record-log shards, measure-cache
 * snapshots, model checkpoints, session logs, tuning checkpoints) goes
 * through this layer, which provides:
 *
 *  - crc32(): the standard reflected CRC-32 (IEEE 802.3 polynomial),
 *    used to frame every persisted line and file so loaders can detect
 *    torn writes and bit flips instead of parsing garbage.
 *  - line CRC framing: withLineCrc() suffixes a payload line with
 *    "\tcrc=XXXXXXXX"; checkLineCrc() verifies and strips the suffix.
 *    A line without a well-formed, matching suffix is rejected, so the
 *    CRC guards the suffix itself as well as the payload.
 *  - readFile(): the whole of one artifact, read back in one piece.
 *  - atomicWriteFile(): tmp + rename whole-file replacement with bounded
 *    retry-with-backoff for transient failures. Returns success instead
 *    of throwing — callers degrade gracefully (warn + drop) when storage
 *    misbehaves.
 *  - quarantineFile(): rename a corrupt artifact to "<path>.corrupt" so
 *    the next load starts cold instead of tripping over the same poison.
 *  - IoFaultPlan: a process-global, deterministic failure plan (seeded,
 *    keyed on a monotonically increasing write-op counter) that injects
 *    short writes, ENOSPC, rename failures, and post-write crashes.
 *    Purely for tests and the crash_resume harness; the default plan
 *    injects nothing and adds one relaxed atomic load per write.
 *
 * The injection points mirror FaultPlan's philosophy from the measurement
 * layer: faults are a pure function of (plan seed, op index), so a failing
 * run replays exactly, and the plan is never consulted on the read path.
 */

#include <cstdint>
#include <optional>
#include <string>

namespace pruner::io {

/** CRC-32 (reflected, poly 0xEDB88320) of a byte range. */
uint32_t crc32(const void* data, size_t size);

/** CRC-32 of a string's bytes. */
uint32_t crc32(const std::string& data);

/** Append "\tcrc=XXXXXXXX" (lowercase hex of crc32(line)) to @p line. */
std::string withLineCrc(const std::string& line);

/** Verify and strip the "\tcrc=XXXXXXXX" suffix of @p line in place.
 *  Returns true only for a well-formed suffix whose CRC matches the
 *  payload; a missing, malformed or mismatched suffix returns false and
 *  leaves @p line unchanged. */
bool checkLineCrc(std::string& line);

/** The whole of @p path as bytes; nullopt when it cannot be opened. */
std::optional<std::string> readFile(const std::string& path);

/** Kinds of injectable storage failures. */
enum class IoFaultKind : uint8_t
{
    None = 0,
    ShortWrite,      ///< write truncated partway (torn tail on disk)
    NoSpace,         ///< write fails entirely (ENOSPC-style), tmp removed
    RenameFail,      ///< data written but the atomic rename fails
    CrashAfterWrite, ///< process _exit()s right after the tmp write
    CrashAfterRename, ///< process _exit()s right after the rename
};

/** Deterministic storage-failure plan. Faults are a pure function of
 *  (seed, write-op index): op i fails with kind fault_kind iff
 *  hashCombine(seed, i) maps below fault_rate, or unconditionally when i
 *  is listed in fail_ops. A default-constructed plan injects nothing. */
struct IoFaultPlan
{
    uint64_t seed = 0;
    double fault_rate = 0.0;           ///< probability a write op faults
    IoFaultKind fault_kind = IoFaultKind::None;
    /** Explicit op indices to fault (checked before fault_rate). -1 ends
     *  the list; kept as a fixed array so the plan stays trivially
     *  copyable across fork(). */
    static constexpr size_t kMaxFailOps = 8;
    int64_t fail_ops[kMaxFailOps] = {-1, -1, -1, -1, -1, -1, -1, -1};
    /** Ops that fault transiently recover after this many retries
     *  (0 = the fault is permanent for that op). */
    uint32_t recover_after_attempts = 0;

    /** Exit code used by CrashAfterWrite/CrashAfterRename _exit(). */
    static constexpr int kCrashExitCode = 42;

    /** The fault (if any) for write op @p op, attempt @p attempt. */
    IoFaultKind faultFor(uint64_t op, uint32_t attempt) const;
};

/** Install a process-global fault plan (tests / crash harness only).
 *  Resets the write-op counter so plans are reproducible. */
void setIoFaultPlan(const IoFaultPlan& plan);

/** Remove any installed fault plan and reset the write-op counter. */
void clearIoFaultPlan();

/** Durably replace @p path with @p contents via tmp + rename.
 *
 *  Transient injected faults are retried up to @p max_attempts times with
 *  a tiny bounded backoff; on persistent failure the tmp file is removed
 *  and false is returned (never throws, never leaves a torn @p path —
 *  the old contents survive any failure short of a mid-rename crash,
 *  which POSIX rename makes atomic anyway). */
bool atomicWriteFile(const std::string& path, const std::string& contents,
                     int max_attempts = 3);

/** Append @p contents to @p path (creating it if absent).
 *
 *  Transient injected faults retry with the same bounded backoff. An
 *  injected ShortWrite emulates a crash mid-append: a prefix of the
 *  chunk lands on disk, no repair is attempted, and false is returned —
 *  exactly the torn-tail hazard the append-only loaders must survive.
 *  A real (non-injected) partial write is rolled back by truncating the
 *  file to its pre-append size before retrying. */
bool appendFile(const std::string& path, const std::string& contents,
                int max_attempts = 3);

/** Move a corrupt artifact aside to "<path>.corrupt" (overwriting any
 *  previous quarantine) so subsequent loads start cold. Returns the
 *  quarantine path, or "" if the rename failed (the caller should then
 *  ignore the file's contents anyway). */
std::string quarantineFile(const std::string& path);

} // namespace pruner::io
