#include "service/recovery.hpp"

#include <algorithm>

#include "common/strutil.hpp"

namespace ats::service {

RecoveryLog::RecoveryLog(std::string path)
    : journal_(std::move(path),
               [this](std::string_view line) { apply_line_locked(line); }) {
  if (!enabled()) return;
  // One pending entry per unique id, however many times it was admitted:
  // recovery re-admits exactly once.
  for (Entry& e : table_) e.count = std::min(e.count, 1);
  compact_locked();
}

void RecoveryLog::apply_locked(std::uint64_t id, std::string_view payload) {
  auto it = std::find_if(table_.begin(), table_.end(),
                         [&](const Entry& e) { return e.id == id; });
  if (it == table_.end()) {
    it = table_.insert(it, Entry{id, 0, std::string(payload)});
  }
  it->count += payload.empty() ? -1 : 1;
  if (it->count == 0) table_.erase(it);
}

void RecoveryLog::apply_line_locked(std::string_view line) {
  // "admit <hex> <line...>" / "done <hex>".  Anything else is skipped
  // (AtomicJournal drops a torn last line, but a hand-edited journal
  // degrades gracefully).
  const bool is_admit = starts_with(line, "admit ");
  if (!is_admit && !starts_with(line, "done ")) return;
  line.remove_prefix(is_admit ? 6 : 5);
  const auto sp = line.find(' ');
  std::uint64_t id = 0;
  if (!parse_hex64(line.substr(0, sp), &id)) return;
  const std::string_view payload =
      sp == std::string_view::npos ? "" : line.substr(sp + 1);
  if (is_admit && payload.empty()) return;
  apply_locked(id, is_admit ? payload : "");
}

std::vector<std::string> RecoveryLog::pending() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  for (const Entry& e : table_) {
    if (e.count > 0) out.push_back(e.payload);
  }
  return out;
}

void RecoveryLog::admit(std::uint64_t id, const std::string& canonical_line) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  journal_.append("admit " + hex64(id) + " " + canonical_line);
  apply_locked(id, canonical_line);
}

void RecoveryLog::done(std::uint64_t id) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  journal_.append("done " + hex64(id));
  apply_locked(id, "");
  if (++dones_since_compact_ >= 64) compact_locked();
}

void RecoveryLog::compact_locked() {
  // Dones without an admission (possible only in a hand-edited journal)
  // are forgotten with the lines that held them.
  std::erase_if(table_, [](const Entry& e) { return e.count < 0; });
  std::vector<std::string> lines;
  for (const Entry& e : table_) {
    lines.insert(lines.end(), static_cast<std::size_t>(e.count),
                 "admit " + hex64(e.id) + " " + e.payload);
  }
  journal_.rewrite(lines);
  dones_since_compact_ = 0;
}

}  // namespace ats::service
