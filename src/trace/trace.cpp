#include "trace/trace.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace epf
{

namespace
{

// ---------------------------------------------------------------------------
// Fixed-width header.  All multi-byte fields little-endian; the patchable
// counters live at fixed offsets so finalize() can rewrite them in place.
// ---------------------------------------------------------------------------

constexpr char kMagic[8] = {'E', 'P', 'F', 'T', 'R', 'C', '0', '1'};
constexpr std::size_t kOffRecordCount = 32;
constexpr std::size_t kOffStreamChecksum = 40;
constexpr std::size_t kOffWorkloadChecksum = 48;
constexpr std::size_t kOffFinalTick = 56;

void
putU16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/** LEB128 unsigned. */
void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Bounds-checked little-endian / varint decoding cursor. */
struct Cursor
{
    const std::uint8_t *p;
    std::size_t len;
    std::size_t at = 0;

    void
    need(std::size_t n) const
    {
        // Written to stay correct even if at + n would wrap.
        if (n > len || at > len - n)
            throw std::runtime_error("trace file truncated");
    }

    std::uint16_t
    u16()
    {
        need(2);
        std::uint16_t v = static_cast<std::uint16_t>(
            p[at] | (static_cast<std::uint16_t>(p[at + 1]) << 8));
        at += 2;
        return v;
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(p[at + i]) << (8 * i);
        at += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[at + i]) << (8 * i);
        at += 8;
        return v;
    }

    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        unsigned shift = 0;
        for (;;) {
            need(1);
            const std::uint8_t b = p[at++];
            if (shift >= 64)
                throw std::runtime_error("trace varint overflow");
            v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
            if ((b & 0x80) == 0)
                return v;
            shift += 7;
        }
    }

    std::string
    str(std::size_t n)
    {
        need(n);
        std::string s(reinterpret_cast<const char *>(p + at), n);
        at += n;
        return s;
    }
};

// Record byte 0: kind in the low 3 bits, presence flags above.
constexpr std::uint8_t kRecKindMask = 0x07;
constexpr std::uint8_t kRecHasAddr = 1u << 3;
constexpr std::uint8_t kRecHasPayload = 1u << 4;
constexpr std::uint8_t kRecHasProduces = 1u << 5;
constexpr std::uint8_t kRecHasDep0 = 1u << 6;
constexpr std::uint8_t kRecHasDep1 = 1u << 7;

constexpr unsigned kNumKinds = 6;

// Header sanity bounds.  A trace file is untrusted input (it may be
// truncated, bit-flipped, or not a trace at all), and its region table
// sizes replay-side allocations: without caps a single flipped bit in a
// region size turns open() into a multi-terabyte allocation.  The caps
// are far above anything a real capture produces.
constexpr std::uint32_t kMaxTraceRegions = 4096;
constexpr std::uint64_t kMaxTraceRegionBytes = 1ULL << 32; // 4 GiB total
constexpr double kMaxTraceScale = 1e6;

std::uint64_t
fnvUpdate(std::uint64_t h, const std::uint8_t *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ULL;
    }
    return h;
}

} // namespace

// ---------------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------------

TraceWriter::TraceWriter(const std::string &path, const GuestMemory &gmem,
                         const std::string &source_workload,
                         double scale_factor, std::uint64_t seed,
                         bool with_swpf)
    : gmem_(gmem)
{
    meta_.flags = with_swpf ? kTraceFlagSwpf : 0;
    meta_.seed = seed;
    meta_.scaleFactor = scale_factor;
    meta_.sourceWorkload = source_workload;
    for (const auto &r : gmem.regions())
        meta_.regions.push_back({r.name, r.base, r.size});

    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr)
        throw std::runtime_error("TraceWriter: cannot open " + path);

    std::vector<std::uint8_t> hdr(kMagic, kMagic + sizeof kMagic);
    putU32(hdr, kTraceVersion);
    putU32(hdr, meta_.flags);
    putU64(hdr, meta_.seed);
    std::uint64_t scale_bits;
    static_assert(sizeof scale_bits == sizeof meta_.scaleFactor);
    std::memcpy(&scale_bits, &meta_.scaleFactor, sizeof scale_bits);
    putU64(hdr, scale_bits);
    putU64(hdr, 0); // record count, patched
    putU64(hdr, 0); // stream checksum, patched
    putU64(hdr, 0); // workload checksum, patched
    putU64(hdr, 0); // final tick, patched
    putU16(hdr, static_cast<std::uint16_t>(meta_.sourceWorkload.size()));
    hdr.insert(hdr.end(), meta_.sourceWorkload.begin(),
               meta_.sourceWorkload.end());
    putU32(hdr, static_cast<std::uint32_t>(meta_.regions.size()));
    for (const auto &r : meta_.regions) {
        putU16(hdr, static_cast<std::uint16_t>(r.name.size()));
        hdr.insert(hdr.end(), r.name.begin(), r.name.end());
        putU64(hdr, r.base);
        putU64(hdr, r.size);
    }
    if (std::fwrite(hdr.data(), 1, hdr.size(), file_) != hdr.size())
        throw std::runtime_error("TraceWriter: header write failed");

    buf_.reserve(1 << 20);
}

TraceWriter::~TraceWriter()
{
    // Last-resort finalize only; a capture already failing (e.g. disk
    // full mid-flush) must not escalate to std::terminate during the
    // unwind that is reporting it.
    if (!finalized_ && file_ != nullptr) {
        try {
            finalize(meta_.workloadChecksum);
        } catch (...) {
        }
    }
    if (file_ != nullptr)
        std::fclose(file_);
}

void
TraceWriter::onMicroOp(Tick now, const MicroOp &op)
{
    TraceRecord rec;
    rec.tick = now;
    rec.kind = op.kind;
    rec.instrs = op.instrs;
    rec.addr = op.vaddr;
    rec.streamId = op.streamId;
    rec.produces = op.produces;
    rec.deps = {op.deps[0], op.deps[1]};

    std::uint8_t b0 = static_cast<std::uint8_t>(op.kind);
    const bool has_addr = TraceRecord::hasAddr(op.kind);
    if (has_addr)
        b0 |= kRecHasAddr;
    if (op.kind == MicroOp::Kind::PfConfig)
        meta_.flags |= kTraceFlagPfConfig;

    // Snapshot the mapped span of the touched line, deduped against the
    // last capture of that line: replay re-applies these snapshots at
    // the same fetch instants, keeping the data the PPF observes in
    // sync with the live run.
    if (has_addr) {
        const Addr line = lineAlign(op.vaddr);
        std::array<std::byte, kLineBytes> cur{};
        const std::size_t n = gmem_.readSpan(line, cur.data(), kLineBytes);
        if (n > 0) {
            auto [it, fresh] = lastLine_.try_emplace(line, cur);
            if (fresh || std::memcmp(it->second.data(), cur.data(), n) != 0) {
                it->second = cur;
                rec.payloadLen = static_cast<std::uint8_t>(n);
                rec.payload = cur;
                b0 |= kRecHasPayload;
            }
        }
    }

    if (op.produces != 0)
        b0 |= kRecHasProduces;
    if (op.deps[0] != 0)
        b0 |= kRecHasDep0;
    if (op.deps[1] != 0)
        b0 |= kRecHasDep1;

    buf_.push_back(b0);
    putVarint(buf_, now - prevTick_);
    prevTick_ = now;
    putVarint(buf_, op.instrs);
    if (has_addr) {
        putVarint(buf_, zigzag(static_cast<std::int64_t>(op.vaddr) -
                               static_cast<std::int64_t>(prevAddr_)));
        prevAddr_ = op.vaddr;
        putVarint(buf_, zigzag(op.streamId));
    }
    if (op.produces != 0)
        putVarint(buf_, op.produces);
    if (op.deps[0] != 0)
        putVarint(buf_, op.deps[0]);
    if (op.deps[1] != 0)
        putVarint(buf_, op.deps[1]);
    if (rec.payloadLen > 0) {
        putVarint(buf_, rec.payloadLen);
        const auto *pp = reinterpret_cast<const std::uint8_t *>(
            rec.payload.data());
        buf_.insert(buf_.end(), pp, pp + rec.payloadLen);
    }

    ++meta_.recordCount;
    meta_.finalTick = now;
    if (buf_.size() >= (1 << 20))
        flushBuffer();
}

void
TraceWriter::flushBuffer()
{
    if (buf_.empty())
        return;
    fnv_ = fnvUpdate(fnv_, buf_.data(), buf_.size());
    if (std::fwrite(buf_.data(), 1, buf_.size(), file_) != buf_.size())
        throw std::runtime_error("TraceWriter: record write failed");
    buf_.clear();
}

void
TraceWriter::finalize(std::uint64_t workload_checksum)
{
    if (finalized_)
        return;
    flushBuffer();
    meta_.streamChecksum = fnv_;
    meta_.workloadChecksum = workload_checksum;
    patchHeader();
    finalized_ = true;
}

void
TraceWriter::patchHeader()
{
    auto patch = [&](long off, std::uint64_t v) {
        std::uint8_t b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        if (std::fseek(file_, off, SEEK_SET) != 0 ||
            std::fwrite(b, 1, 8, file_) != 8)
            throw std::runtime_error("TraceWriter: header patch failed");
    };
    patch(kOffRecordCount, meta_.recordCount);
    patch(kOffStreamChecksum, meta_.streamChecksum);
    patch(kOffWorkloadChecksum, meta_.workloadChecksum);
    patch(kOffFinalTick, meta_.finalTick);
    // The PfConfig flag is only known once records exist.
    std::uint8_t fb[4];
    for (int i = 0; i < 4; ++i)
        fb[i] = static_cast<std::uint8_t>(meta_.flags >> (8 * i));
    if (std::fseek(file_, 12, SEEK_SET) != 0 ||
        std::fwrite(fb, 1, 4, file_) != 4)
        throw std::runtime_error("TraceWriter: header patch failed");
    std::fflush(file_);
}

// ---------------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------------

TraceReader::TraceReader(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw std::runtime_error("TraceReader: cannot open " + path);
    std::fseek(f, 0, SEEK_END);
    const long sz = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    bytes_.resize(sz > 0 ? static_cast<std::size_t>(sz) : 0);
    if (!bytes_.empty() &&
        std::fread(bytes_.data(), 1, bytes_.size(), f) != bytes_.size()) {
        std::fclose(f);
        throw std::runtime_error("TraceReader: read failed on " + path);
    }
    std::fclose(f);

    Cursor c{bytes_.data(), bytes_.size()};
    c.need(sizeof kMagic);
    if (std::memcmp(c.p, kMagic, sizeof kMagic) != 0)
        throw std::runtime_error("TraceReader: bad magic in " + path);
    c.at = sizeof kMagic;
    meta_.version = c.u32();
    if (meta_.version != kTraceVersion)
        throw std::runtime_error("TraceReader: unsupported trace version " +
                                 std::to_string(meta_.version));
    meta_.flags = c.u32();
    meta_.seed = c.u64();
    const std::uint64_t scale_bits = c.u64();
    std::memcpy(&meta_.scaleFactor, &scale_bits, sizeof meta_.scaleFactor);
    // The scale factor seeds workload regeneration on replay; a NaN or
    // absurd value (a bit-flipped header) would propagate into input
    // sizing, so reject it here with a diagnosable error instead.
    if (!std::isfinite(meta_.scaleFactor) || meta_.scaleFactor <= 0.0 ||
        meta_.scaleFactor > kMaxTraceScale)
        throw std::runtime_error(
            "TraceReader: corrupt scale factor in " + path);
    meta_.recordCount = c.u64();
    meta_.streamChecksum = c.u64();
    meta_.workloadChecksum = c.u64();
    meta_.finalTick = c.u64();
    meta_.sourceWorkload = c.str(c.u16());
    const std::uint32_t nregions = c.u32();
    if (nregions > kMaxTraceRegions)
        throw std::runtime_error(
            "TraceReader: corrupt region count in " + path);
    std::uint64_t region_bytes = 0;
    for (std::uint32_t i = 0; i < nregions; ++i) {
        TraceRegion r;
        r.name = c.str(c.u16());
        r.base = c.u64();
        r.size = c.u64();
        // Replay allocates a buffer per region; cap the total so a
        // bit-flipped size fails cleanly instead of as an OOM.  The
        // individual check runs first so the sum cannot wrap.
        if (r.size > kMaxTraceRegionBytes)
            throw std::runtime_error(
                "TraceReader: corrupt region size in " + path);
        region_bytes += r.size;
        if (region_bytes > kMaxTraceRegionBytes)
            throw std::runtime_error(
                "TraceReader: corrupt region size in " + path);
        meta_.regions.push_back(std::move(r));
    }
    recordsBegin_ = c.at;

    // Every record costs at least three bytes (flag byte plus two
    // varints), so a record count exceeding the record-byte budget can
    // only come from a corrupt header — next() would otherwise walk off
    // the end mid-stream with a less specific error.
    if (meta_.recordCount > (bytes_.size() - recordsBegin_ + 2) / 3)
        throw std::runtime_error(
            "TraceReader: corrupt record count in " + path);

    const std::uint64_t actual = fnvUpdate(
        0xCBF29CE484222325ULL, bytes_.data() + recordsBegin_,
        bytes_.size() - recordsBegin_);
    if (actual != meta_.streamChecksum)
        throw std::runtime_error("TraceReader: stream checksum mismatch in " +
                                 path + " (file corrupt or truncated)");
    rewind();
}

void
TraceReader::rewind()
{
    pos_ = recordsBegin_;
    decoded_ = 0;
    prevTick_ = 0;
    prevAddr_ = 0;
}

bool
TraceReader::next(TraceRecord &out)
{
    if (decoded_ >= meta_.recordCount)
        return false;
    Cursor c{bytes_.data(), bytes_.size(), pos_};

    c.need(1);
    const std::uint8_t b0 = c.p[c.at++];
    const unsigned kind = b0 & kRecKindMask;
    if (kind >= kNumKinds)
        throw std::runtime_error("TraceReader: invalid op kind");
    out.kind = static_cast<MicroOp::Kind>(kind);

    out.tick = prevTick_ + c.varint();
    prevTick_ = out.tick;
    out.instrs = static_cast<std::uint32_t>(c.varint());
    if ((b0 & kRecHasAddr) != 0) {
        out.addr = static_cast<Addr>(
            static_cast<std::int64_t>(prevAddr_) +
            unzigzag(c.varint()));
        prevAddr_ = out.addr;
        out.streamId = static_cast<std::int16_t>(unzigzag(c.varint()));
    } else {
        out.addr = 0;
        out.streamId = -1;
    }
    out.produces = (b0 & kRecHasProduces) != 0
                       ? static_cast<std::uint32_t>(c.varint())
                       : 0;
    out.deps[0] = (b0 & kRecHasDep0) != 0
                      ? static_cast<std::uint32_t>(c.varint())
                      : 0;
    out.deps[1] = (b0 & kRecHasDep1) != 0
                      ? static_cast<std::uint32_t>(c.varint())
                      : 0;
    if ((b0 & kRecHasPayload) != 0) {
        const std::uint64_t n = c.varint();
        if (n == 0 || n > kLineBytes)
            throw std::runtime_error("TraceReader: bad payload length");
        c.need(n);
        out.payloadLen = static_cast<std::uint8_t>(n);
        std::memcpy(out.payload.data(), c.p + c.at, n);
        c.at += n;
    } else {
        out.payloadLen = 0;
    }

    pos_ = c.at;
    ++decoded_;
    return true;
}

} // namespace epf
