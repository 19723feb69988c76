// Binary (de)serialisation of traces — see trace_binary.hpp for the layout.
//
// The loader is written around one principle: pay for validation once, then
// analyze in place.  It scans every event block; a block whose records all
// validate is adopted zero-copy via Trace::set_external_events (the span
// points into the mmap/byte buffer, which the Trace keeps alive), while a
// block with defects — or a misaligned buffer — degrades to copying the
// surviving records in through Trace::append.  Each record is checked by
// check_event, the same record check the text loader runs, so both
// containers report the same defects.
#include "trace/trace_binary.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define ATS_TRACE_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define ATS_TRACE_HAS_MMAP 0
#endif

namespace ats::trace {

// The event payload is memcpy'd Event structs, so the container is
// little-endian by construction on every supported target.  A big-endian
// port would need byte-swapping load/save paths; fail loudly instead of
// writing files that lie about their endianness.
static_assert(std::endian::native == std::endian::little,
              "the binary trace container is little-endian (TRACE_FORMAT.md "
              "§7); this platform needs a byte-swapping port");

namespace {

constexpr std::size_t kHeaderBytes = 16;  // magic + version + reserved

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_i32(std::string& out, std::int32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_name(std::string& out, const std::string& name) {
  put_u32(out, static_cast<std::uint32_t>(name.size()));
  out += name;
}

}  // namespace

void Trace::save_binary(std::ostream& os) const {
  std::string out;
  out.append(kBinaryMagic, sizeof kBinaryMagic);
  put_u32(out, kBinaryVersion);
  put_u32(out, 0);  // reserved
  put_u64(out, regions_.size());
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const RegionInfo& r = regions_.info(static_cast<RegionId>(i));
    put_u8(out, static_cast<std::uint8_t>(r.kind));
    put_name(out, r.name);
  }
  put_u64(out, locations_.size());
  for (const LocationInfo& l : locations_) {
    put_i32(out, l.parent);
    put_u8(out, static_cast<std::uint8_t>(l.kind));
    put_i32(out, l.rank);
    put_i32(out, l.thread);
    put_name(out, l.name);
  }
  put_u64(out, comms_.size());
  for (const CommInfo& c : comms_) {
    put_u8(out, static_cast<std::uint8_t>(c.kind));
    put_u32(out, static_cast<std::uint32_t>(c.members.size()));
    for (LocId m : c.members) put_i32(out, m);
    put_name(out, c.name);
  }
  while (out.size() % alignof(Event) != 0) out.push_back('\0');
  put_u64(out, locations_.size());
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
  // Event blocks go straight to the stream: for_each_chunk_of hands over
  // resident/mapped buffers directly and streams spilled segments back
  // through a bounded scratch, so saving never re-materialises the trace.
  for (std::size_t l = 0; l < locations_.size(); ++l) {
    const std::uint64_t count = loc_event_count(static_cast<LocId>(l));
    os.write(reinterpret_cast<const char*>(&count), sizeof count);
    for_each_chunk_of(static_cast<LocId>(l),
                      [&](const Event* ev, std::size_t n) {
                        os.write(reinterpret_cast<const char*>(ev),
                                 static_cast<std::streamsize>(
                                     n * sizeof(Event)));
                      });
  }
  if (!os) throw TraceError("binary trace write failed");
}

// ----------------------------------------------------------------- loading

namespace {

/// Thrown internally for defects; converted to a diagnostic (lenient) or a
/// TraceError (strict), mirroring the text loader.
struct BinFail {
  DiagnosticKind kind;
  std::uint64_t offset;  // byte offset of the defect
  std::string message;
};

class BinaryLoader {
 public:
  BinaryLoader(const char* data, std::size_t size,
               std::shared_ptr<const void> owner, const LoadOptions& opt)
      : data_(data), size_(size), owner_(std::move(owner)), opt_(opt) {}

  LoadResult run() {
    try {
      header();
    } catch (const BinFail& f) {
      fail(f);
      return std::move(res_);
    }
    try {
      tables();
      events();
    } catch (const BinFail& f) {
      // Structural damage (truncated tables, block-count mismatch): the
      // stream cannot be resynchronised, so report and return what loaded.
      ++res_.records_dropped;
      fail(f);
    }
    return std::move(res_);
  }

 private:
  void fail(const BinFail& f) {
    ParseDiagnostic d;
    d.kind = f.kind;
    d.binary = true;
    d.line = static_cast<int>(
        std::min<std::uint64_t>(record_, std::numeric_limits<int>::max()));
    d.column = static_cast<int>(
        std::min<std::uint64_t>(f.offset, std::numeric_limits<int>::max()));
    d.message = f.message;
    if (opt_.strict) throw TraceError(d.str());
    if (res_.diagnostics.size() < opt_.max_diagnostics) {
      res_.diagnostics.push_back(std::move(d));
    }
  }

  void need(std::uint64_t n, const char* what) {
    if (size_ - pos_ < n) {
      throw BinFail{DiagnosticKind::kTruncated, pos_,
                    std::string("stream ends inside ") + what};
    }
  }

  template <typename T>
  T raw(const char* what) {
    need(sizeof(T), what);
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string name_field(const char* what) {
    const std::uint64_t at = pos_;
    const auto len = raw<std::uint32_t>(what);
    if (len > size_ - pos_) {
      throw BinFail{DiagnosticKind::kMalformedRecord, at,
                    std::string("implausible ") + what + " length " +
                        std::to_string(len)};
    }
    std::string s(data_ + pos_, len);
    pos_ += len;
    return s;
  }

  void header() {
    if (size_ < kHeaderBytes ||
        std::memcmp(data_, kBinaryMagic, sizeof kBinaryMagic) != 0) {
      throw BinFail{DiagnosticKind::kBadHeader, 0,
                    "missing binary trace magic"};
    }
    std::uint32_t version;
    std::memcpy(&version, data_ + sizeof kBinaryMagic, sizeof version);
    if (version != kBinaryVersion) {
      throw BinFail{DiagnosticKind::kBadHeader, sizeof kBinaryMagic,
                    "unsupported binary trace version " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kBinaryVersion) + ")"};
    }
    pos_ = kHeaderBytes;
    res_.header_ok = true;
  }

  void tables() {
    Trace& t = res_.trace;
    const auto nregions = raw<std::uint64_t>("region table");
    check_count(nregions, "region");
    for (std::uint64_t i = 0; i < nregions; ++i) {
      ++record_;
      const std::uint64_t at = pos_;
      const auto kind = raw<std::uint8_t>("region kind");
      if (kind > static_cast<std::uint8_t>(RegionKind::kIdle)) {
        throw BinFail{DiagnosticKind::kBadEnum, at,
                      "bad region kind byte " + std::to_string(kind)};
      }
      const std::string name = name_field("region name");
      t.regions().intern(name, static_cast<RegionKind>(kind));
      ++res_.records_ok;
    }
    const auto nlocs = raw<std::uint64_t>("location table");
    check_count(nlocs, "location");
    for (std::uint64_t i = 0; i < nlocs; ++i) {
      ++record_;
      LocationInfo li;
      li.id = static_cast<LocId>(i);
      li.parent = raw<std::int32_t>("location parent");
      const std::uint64_t at = pos_;
      const auto kind = raw<std::uint8_t>("location kind");
      if (kind > static_cast<std::uint8_t>(LocKind::kThread)) {
        throw BinFail{DiagnosticKind::kBadEnum, at,
                      "bad location kind byte " + std::to_string(kind)};
      }
      li.kind = static_cast<LocKind>(kind);
      li.rank = raw<std::int32_t>("location rank");
      li.thread = raw<std::int32_t>("location thread");
      li.name = name_field("location name");
      t.add_location(std::move(li));
      ++res_.records_ok;
    }
    const auto ncomms = raw<std::uint64_t>("comm table");
    check_count(ncomms, "comm");
    for (std::uint64_t i = 0; i < ncomms; ++i) {
      ++record_;
      const std::uint64_t at = pos_;
      const auto kind = raw<std::uint8_t>("comm kind");
      if (kind > static_cast<std::uint8_t>(CommKind::kOmpTeam)) {
        throw BinFail{DiagnosticKind::kBadEnum, at,
                      "bad comm kind byte " + std::to_string(kind)};
      }
      const auto nmembers = raw<std::uint32_t>("comm member count");
      if (static_cast<std::uint64_t>(nmembers) * sizeof(std::int32_t) >
          size_ - pos_) {
        throw BinFail{DiagnosticKind::kMalformedRecord, at,
                      "implausible member count " + std::to_string(nmembers)};
      }
      std::vector<LocId> members(nmembers);
      for (auto& m : members) m = raw<std::int32_t>("comm member");
      for (LocId m : members) {
        if (m < 0 || static_cast<std::size_t>(m) >= t.location_count()) {
          throw BinFail{DiagnosticKind::kUnknownLocation, at,
                        "comm member " + std::to_string(m) +
                            " was never declared"};
        }
      }
      const std::string name = name_field("comm name");
      t.add_comm(static_cast<CommKind>(kind), std::move(members), name);
      ++res_.records_ok;
    }
    // Zero padding to the next 8-byte boundary (see the layout comment).
    while (pos_ % alignof(Event) != 0) {
      need(1, "alignment padding");
      ++pos_;
    }
  }

  /// A declared entry count larger than the bytes left cannot be honest;
  /// rejecting it here also guards table loops against absurd iteration.
  void check_count(std::uint64_t n, const char* what) {
    if (n > size_ - pos_) {
      throw BinFail{DiagnosticKind::kMalformedRecord, pos_,
                    std::string("implausible ") + what + " count " +
                        std::to_string(n)};
    }
  }

  void events() {
    Trace& t = res_.trace;
    const auto nblocks = raw<std::uint64_t>("event block count");
    if (nblocks != t.location_count()) {
      throw BinFail{DiagnosticKind::kMalformedRecord, pos_ - 8,
                    "event block count " + std::to_string(nblocks) +
                        " does not match " +
                        std::to_string(t.location_count()) +
                        " declared locations"};
    }
    for (std::uint64_t l = 0; l < nblocks; ++l) {
      const std::uint64_t count_at = pos_;
      const auto declared = raw<std::uint64_t>("event block header");
      std::uint64_t count = declared;
      if (count > (size_ - pos_) / sizeof(Event)) {
        // Corrupt length or truncated file: keep the whole records that are
        // actually present, report the rest as lost.
        count = (size_ - pos_) / sizeof(Event);
        ++res_.records_dropped;
        fail(BinFail{DiagnosticKind::kTruncated, count_at,
                     "event block for location " + std::to_string(l) +
                         " declares " + std::to_string(declared) +
                         " records but only " + std::to_string(count) +
                         " fit in the remaining bytes"});
      }
      block(static_cast<LocId>(l), count);
    }
    if (pos_ != size_) {
      fail(BinFail{DiagnosticKind::kMalformedRecord, pos_,
                   std::to_string(size_ - pos_) +
                       " trailing bytes after the last event block"});
      ++res_.records_dropped;
    }
  }

  /// Validates one location's record block.  All-valid and 8-aligned →
  /// zero-copy adoption; otherwise the surviving records are copied in
  /// through Trace::append, starting at the first defect.
  void block(LocId loc, std::uint64_t count) {
    Trace& t = res_.trace;
    const char* base = data_ + pos_;
    const auto record = [&](std::uint64_t i) {
      Event e;
      std::memcpy(&e, base + i * sizeof(Event), sizeof(Event));
      return e;
    };
    bool copy = reinterpret_cast<std::uintptr_t>(base) % alignof(Event) != 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      ++record_;
      if (!validate(loc, record(i), pos_ + i * sizeof(Event))) {
        ++res_.records_dropped;
        // Every record before the first defect validated.
        for (std::uint64_t j = 0; !copy && j < i; ++j) t.append(record(j));
        copy = true;
        continue;
      }
      ++res_.records_ok;
      if (copy) t.append(record(i));
    }
    if (!copy && count > 0) {
      t.set_external_events(
          loc,
          std::span<const Event>(reinterpret_cast<const Event*>(base),
                                 static_cast<std::size_t>(count)),
          owner_);
    }
    pos_ += count * sizeof(Event);
  }

  /// Checks one record, emitting a diagnostic for its first defect: a bad
  /// type byte, then a record filed under another location's block, then
  /// check_event's findings.  Returns whether the record is usable.
  bool validate(LocId loc, const Event& e, std::uint64_t at) {
    const EventDefect d = check_event(res_.trace, e);
    if (!(d && d.field == nullptr) && e.loc != loc) {
      fail(BinFail{DiagnosticKind::kMalformedRecord, at,
                   "record loc " + std::to_string(e.loc) +
                       " inside the block of location " +
                       std::to_string(loc)});
      return false;
    }
    if (!d) return true;
    fail(BinFail{d.kind, at, describe(d)});
    return false;
  }

  const char* data_;
  std::size_t size_;
  std::shared_ptr<const void> owner_;
  LoadOptions opt_;
  LoadResult res_;
  std::uint64_t pos_ = 0;
  std::uint64_t record_ = 0;  ///< 1-based ordinal across tables and events
};

LoadResult load_binary_impl(const char* data, std::size_t size,
                            std::shared_ptr<const void> owner,
                            const LoadOptions& options) {
  BinaryLoader loader(data, size, std::move(owner), options);
  return loader.run();
}

#if ATS_TRACE_HAS_MMAP
/// Owns a read-only file mapping; Traces loaded zero-copy hold a
/// shared_ptr to one of these, so the mapping outlives every span.
struct MappedFile {
  void* addr = MAP_FAILED;
  std::size_t len = 0;
  ~MappedFile() {
    if (addr != MAP_FAILED && len > 0) ::munmap(addr, len);
  }
};
#endif

LoadResult load_whole_file(const std::string& path,
                           const LoadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceError("cannot open trace file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto data = std::make_shared<const std::string>(std::move(buf).str());
  return load_trace_binary(data, options);
}

}  // namespace

TraceFormat detect_trace_format(std::istream& is) {
  char head[sizeof kBinaryMagic] = {};
  const std::streampos at = is.tellg();
  is.read(head, sizeof head);
  const bool binary = is.gcount() == sizeof head &&
                      std::memcmp(head, kBinaryMagic, sizeof head) == 0;
  is.clear();
  is.seekg(at);
  return binary ? TraceFormat::kBinary : TraceFormat::kText;
}

LoadResult load_trace_binary(std::shared_ptr<const std::string> data,
                             const LoadOptions& options) {
  const char* p = data->data();
  const std::size_t n = data->size();
  return load_binary_impl(p, n, std::move(data), options);
}

LoadResult load_trace_binary_file(const std::string& path,
                                  const LoadOptions& options) {
#if ATS_TRACE_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw TraceError("cannot open trace file: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw TraceError("cannot stat trace file: " + path);
  }
  const auto len = static_cast<std::size_t>(st.st_size);
  if (len == 0) {
    ::close(fd);
    return load_binary_impl(nullptr, 0, nullptr, options);
  }
  void* addr = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) return load_whole_file(path, options);
  auto mf = std::make_shared<MappedFile>();
  mf->addr = addr;
  mf->len = len;
  return load_binary_impl(static_cast<const char*>(addr), len, std::move(mf),
                          options);
#else
  return load_whole_file(path, options);
#endif
}

LoadResult load_trace_auto_file(const std::string& path,
                                const LoadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceError("cannot open trace file: " + path);
  if (detect_trace_format(in) == TraceFormat::kBinary) {
    in.close();
    return load_trace_binary_file(path, options);
  }
  return load_trace(in, options);
}

}  // namespace ats::trace
