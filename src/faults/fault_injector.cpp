#include "faults/fault_injector.hpp"

#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/trace_io.hpp"

namespace ats::faults {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kClockSkew: return "clock-skew";
    case FaultKind::kTimestampJitter: return "timestamp-jitter";
    case FaultKind::kDropEvent: return "drop-event";
    case FaultKind::kDuplicateEvent: return "duplicate-event";
    case FaultKind::kReorderEvents: return "reorder-events";
    case FaultKind::kDropRecv: return "drop-recv";
    case FaultKind::kDropSend: return "drop-send";
    case FaultKind::kCorruptRecord: return "corrupt-record";
    case FaultKind::kBogusLocation: return "bogus-location";
    case FaultKind::kTruncateFile: return "truncate-file";
    case FaultKind::kCount_: break;
  }
  return "?";
}

std::size_t InjectionReport::total() const {
  std::size_t n = 0;
  for (const std::size_t c : counts) n += c;
  return n;
}

std::string InjectionReport::str() const {
  std::string out;
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    if (counts[k] == 0) continue;
    out += to_string(static_cast<FaultKind>(k));
    out += ": ";
    out += std::to_string(counts[k]);
    out += '\n';
  }
  if (out.empty()) out = "(no faults injected)\n";
  return out;
}

FaultInjector::FaultInjector(const FaultConfig& config)
    : cfg_(config), rng_(SplitSeed(config.seed).child("fault-injector").rng()) {}

namespace {

/// True for the serialised event records (docs/TRACE_FORMAT.md §4).
bool is_event_line(const std::string& line) {
  const std::size_t sp = line.find(' ');
  return sp != std::string::npos &&
         trace::find_event_record(std::string_view(line).substr(0, sp));
}

}  // namespace

trace::Trace FaultInjector::apply(const trace::Trace& t) {
  trace::Trace out;
  // Metadata survives intact: real corruption hits the bulky event payload
  // first, and the loader-level faults (corrupt_text) cover damaged
  // metadata separately.
  for (std::size_t r = 0; r < t.regions().size(); ++r) {
    const trace::RegionInfo& info =
        t.regions().info(static_cast<trace::RegionId>(r));
    out.regions().intern(info.name, info.kind);
  }
  for (std::size_t l = 0; l < t.location_count(); ++l) {
    out.add_location(t.location(static_cast<trace::LocId>(l)));
  }
  for (std::size_t c = 0; c < t.comm_count(); ++c) {
    const trace::CommInfo& info = t.comm(static_cast<trace::CommId>(c));
    out.add_comm(info.kind, info.members, info.name);
  }

  // One constant offset per skewed location — the "this node's clock was
  // wrong" failure mode, distinct from per-event jitter.
  std::vector<std::int64_t> skew(t.location_count(), 0);
  if (cfg_.clock_skew_ns > 0 && cfg_.skew_locations > 0.0) {
    for (auto& s : skew) {
      if (!chance(cfg_.skew_locations)) continue;
      s = rng_.next_in(-cfg_.clock_skew_ns, cfg_.clock_skew_ns);
      if (s != 0) note(FaultKind::kClockSkew);
    }
  }

  for (std::size_t l = 0; l < t.location_count(); ++l) {
    std::vector<trace::Event> kept;
    const auto& events = t.events_of(static_cast<trace::LocId>(l));
    kept.reserve(events.size());
    for (trace::Event e : events) {
      if (e.type == trace::EventType::kRecv && chance(cfg_.drop_recv)) {
        note(FaultKind::kDropRecv);
        continue;
      }
      if (e.type == trace::EventType::kSend && chance(cfg_.drop_send)) {
        note(FaultKind::kDropSend);
        continue;
      }
      if (chance(cfg_.drop_event)) {
        note(FaultKind::kDropEvent);
        continue;
      }
      if (skew[l] != 0) {
        e.t = VTime(e.t.ns() + skew[l]);
        if (e.type == trace::EventType::kCollEnd) {
          e.enter_t = VTime(e.enter_t.ns() + skew[l]);
        }
      }
      if (cfg_.jitter_ns > 0 && chance(cfg_.jitter_events)) {
        e.t = VTime(e.t.ns() +
                           rng_.next_in(-cfg_.jitter_ns, cfg_.jitter_ns));
        note(FaultKind::kTimestampJitter);
      }
      kept.push_back(e);
      if (chance(cfg_.duplicate_event)) {
        kept.push_back(e);
        note(FaultKind::kDuplicateEvent);
      }
    }
    for (std::size_t i = 1; i < kept.size(); ++i) {
      if (chance(cfg_.reorder_events)) {
        std::swap(kept[i - 1], kept[i]);
        note(FaultKind::kReorderEvents);
      }
    }
    for (const trace::Event& e : kept) out.append(e);
  }
  return out;
}

std::string FaultInjector::corrupt_text(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      if (start < text.size()) lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }

  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::string& line = lines[i];
    // Only event lines are garbled: they are the overwhelming bulk of a
    // trace, and a single damaged metadata record cascades into dozens of
    // follow-on diagnostics, which would make the injected-vs-detected
    // reconciliation in the fuzz test meaningless.
    if (!is_event_line(line)) continue;
    if (chance(cfg_.bogus_location)) {
      // Rewrite the loc field (second token) to an undeclared id.
      const std::size_t sp = line.find(' ');
      const std::size_t end = line.find(' ', sp + 1);
      if (sp != std::string::npos && end != std::string::npos) {
        line = line.substr(0, sp + 1) +
               std::to_string(1000000 + rng_.next_below(1000)) +
               line.substr(end);
        note(FaultKind::kBogusLocation);
      }
      continue;
    }
    if (chance(cfg_.corrupt_record)) {
      const std::size_t pos = rng_.next_below(line.size());
      switch (rng_.next_below(3)) {
        case 0:  // flip a character
          line[pos] = static_cast<char>('!' + rng_.next_below(90));
          break;
        case 1:  // delete a chunk
          line.erase(pos, rng_.next_below(8) + 1);
          break;
        default:  // splice in junk
          line.insert(pos, "#7z");
          break;
      }
      note(FaultKind::kCorruptRecord);
    }
  }

  std::string out;
  out.reserve(text.size() + 16);
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  if (cfg_.truncate_fraction > 0.0 && cfg_.truncate_fraction < 1.0) {
    const auto keep = static_cast<std::size_t>(
        static_cast<double>(out.size()) * cfg_.truncate_fraction);
    // Never cut into the header: a headless file is total loss, not
    // degradation.
    const std::size_t header_end = out.find('\n');
    if (header_end != std::string::npos && keep > header_end) {
      out.resize(keep);
      note(FaultKind::kTruncateFile);
    }
  }
  return out;
}

std::string FaultInjector::corrupt_binary(const std::string& bin) {
  std::string out = bin;
  // Walk the container structure (docs/TRACE_FORMAT.md §7) far enough to
  // find the event area; bail out unchanged if the input is malformed
  // already (a pre-damaged file is a different experiment).
  std::size_t pos = 16;  // magic + version + reserved
  const auto get_u32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    std::memcpy(&v, out.data() + at, sizeof v);
    return v;
  };
  const auto get_u64 = [&](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, out.data() + at, sizeof v);
    return v;
  };
  const auto fits = [&](std::size_t n) { return n <= out.size() - pos; };
  if (out.size() < pos + 8) return bin;

  // regions: u64 count · per region u8 kind + u32 name_len + name
  std::uint64_t n = get_u64(pos);
  pos += 8;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!fits(5)) return bin;
    const std::uint32_t len = get_u32(pos + 1);
    if (!fits(5 + len)) return bin;
    pos += 5 + len;
  }
  // locations: u64 count · per loc i32 parent + u8 kind + i32 rank +
  // i32 thread + u32 name_len + name
  if (!fits(8)) return bin;
  n = get_u64(pos);
  pos += 8;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!fits(17)) return bin;
    const std::uint32_t len = get_u32(pos + 13);
    if (!fits(17 + len)) return bin;
    pos += 17 + len;
  }
  // comms: u64 count · per comm u8 kind + u32 member_count + i32 members[]
  // + u32 name_len + name
  if (!fits(8)) return bin;
  n = get_u64(pos);
  pos += 8;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!fits(5)) return bin;
    const std::uint64_t members = get_u32(pos + 1);
    if (!fits(5 + 4 * members + 4)) return bin;
    const std::uint32_t len = get_u32(pos + 5 + 4 * members);
    if (!fits(5 + 4 * members + 4 + len)) return bin;
    pos += 5 + 4 * members + 4 + len;
  }
  pos = (pos + 7) & ~std::size_t{7};  // zero padding to 8-byte alignment
  if (!fits(8)) return bin;
  const std::uint64_t blocks = get_u64(pos);
  pos += 8;
  const std::size_t event_area = pos;

  // Garble event records in place.  The two corruptions are chosen to be
  // *guaranteed* defects (the loader must diagnose every one), so the
  // reconciliation tests can compare planted vs dropped exactly:
  // corrupt_record writes an invalid type byte (offset 64 in the record),
  // bogus_location an undeclared location id (offset 40).
  constexpr std::size_t kRecord = 72;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    if (!fits(8)) break;
    const std::uint64_t count = get_u64(pos);
    pos += 8;
    for (std::uint64_t i = 0; i < count && fits(kRecord); ++i, pos += kRecord) {
      if (chance(cfg_.bogus_location)) {
        const std::uint32_t bogus =
            1000000 + static_cast<std::uint32_t>(rng_.next_below(1000));
        std::memcpy(out.data() + pos + 40, &bogus, sizeof bogus);
        note(FaultKind::kBogusLocation);
        continue;
      }
      if (chance(cfg_.corrupt_record)) {
        out[pos + 64] =
            static_cast<char>(0xC0 + rng_.next_below(0x40));
        note(FaultKind::kCorruptRecord);
      }
    }
  }

  if (cfg_.truncate_fraction > 0.0 && cfg_.truncate_fraction < 1.0) {
    const auto keep = static_cast<std::size_t>(
        static_cast<double>(out.size()) * cfg_.truncate_fraction);
    // Never cut into the tables: a headless file is total loss, not
    // degradation (same policy as corrupt_text).
    if (keep > event_area && keep < out.size()) {
      out.resize(keep);
      note(FaultKind::kTruncateFile);
    }
  }
  return out;
}

FaultConfig FaultInjector::random_config(std::uint64_t seed) {
  Rng r = SplitSeed(seed).child("fault-config").rng();
  FaultConfig c;
  c.seed = seed;
  c.drop_event = r.next_double() * 0.05;
  c.duplicate_event = r.next_double() * 0.05;
  c.reorder_events = r.next_double() * 0.05;
  c.drop_recv = r.next_double() * 0.03;
  c.drop_send = r.next_double() * 0.03;
  if (r.next_double() < 0.5) {
    c.clock_skew_ns = r.next_in(std::int64_t{1}, std::int64_t{20'000'000});
    c.skew_locations = r.next_double();
  }
  if (r.next_double() < 0.5) {
    c.jitter_ns = r.next_in(std::int64_t{1}, std::int64_t{2'000'000});
    c.jitter_events = r.next_double() * 0.25;
  }
  c.corrupt_record = r.next_double() * 0.05;
  c.bogus_location = r.next_double() * 0.02;
  if (r.next_double() < 0.25) {
    c.truncate_fraction = 0.5 + r.next_double() * 0.45;
  }
  return c;
}

}  // namespace ats::faults
