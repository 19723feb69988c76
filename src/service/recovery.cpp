#include "service/recovery.hpp"

#include <map>
#include <sstream>

#include "common/strutil.hpp"

namespace ats::service {

namespace {

std::string hex_id(std::uint64_t id) {
  std::ostringstream os;
  os << std::hex << id;
  return os.str();
}

/// Parses "admit <hex> <line...>" / "done <hex>".  Returns false for
/// anything else (AtomicJournal drops a torn last line, but a hand-edited
/// journal degrades gracefully).
bool parse_entry(const std::string& line, bool* is_admit, std::uint64_t* id,
                 std::string* payload) {
  std::string rest;
  if (starts_with(line, "admit ")) {
    *is_admit = true;
    rest = line.substr(6);
  } else if (starts_with(line, "done ")) {
    *is_admit = false;
    rest = line.substr(5);
  } else {
    return false;
  }
  const auto sp = rest.find(' ');
  const std::string hex = sp == std::string::npos ? rest : rest.substr(0, sp);
  try {
    *id = std::stoull(hex, nullptr, 16);
  } catch (const std::exception&) {
    return false;
  }
  *payload = sp == std::string::npos ? "" : rest.substr(sp + 1);
  return *is_admit ? !payload->empty() : true;
}

}  // namespace

RecoveryLog::RecoveryLog(std::string path) : journal_(std::move(path)) {
  if (!enabled()) return;
  // Net admit count and first-seen payload per id, in admission order.
  std::map<std::uint64_t, int> balance;
  std::map<std::uint64_t, std::string> payloads;
  std::vector<std::uint64_t> order;
  for (const std::string& line : journal_.lines()) {
    bool is_admit = false;
    std::uint64_t id = 0;
    std::string payload;
    if (!parse_entry(line, &is_admit, &id, &payload)) continue;
    if (is_admit) {
      if (balance[id]++ == 0) order.push_back(id);
      if (payloads.find(id) == payloads.end()) payloads[id] = payload;
    } else {
      --balance[id];
    }
  }
  std::vector<std::string> compacted;
  for (const std::uint64_t id : order) {
    if (balance[id] <= 0) continue;
    // One pending entry per unique id, however many times it was
    // admitted: recovery re-admits exactly once.
    pending_.push_back(payloads[id]);
    compacted.push_back("admit " + hex_id(id) + " " + payloads[id]);
  }
  journal_.rewrite(std::move(compacted));
}

void RecoveryLog::admit(std::uint64_t id, const std::string& canonical_line) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  journal_.append("admit " + hex_id(id) + " " + canonical_line);
}

void RecoveryLog::done(std::uint64_t id) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  journal_.append("done " + hex_id(id));
  if (++dones_since_compact_ >= 64) compact_locked();
}

void RecoveryLog::compact_locked() {
  std::map<std::uint64_t, int> balance;
  std::map<std::uint64_t, std::string> payloads;
  std::vector<std::uint64_t> order;
  for (const std::string& line : journal_.lines()) {
    bool is_admit = false;
    std::uint64_t id = 0;
    std::string payload;
    if (!parse_entry(line, &is_admit, &id, &payload)) continue;
    if (is_admit) {
      if (balance[id]++ == 0) order.push_back(id);
      if (payloads.find(id) == payloads.end()) payloads[id] = payload;
    } else {
      --balance[id];
    }
  }
  std::vector<std::string> compacted;
  for (const std::uint64_t id : order) {
    for (int i = 0; i < balance[id]; ++i) {
      compacted.push_back("admit " + hex_id(id) + " " + payloads[id]);
    }
  }
  journal_.rewrite(std::move(compacted));
  dones_since_compact_ = 0;
}

}  // namespace ats::service
