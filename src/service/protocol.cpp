#include "service/protocol.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/strutil.hpp"

namespace ats::service {

namespace {

/// Splits on single spaces, dropping empty tokens (robust against
/// double spaces and trailing whitespace).
std::vector<std::string> tokens(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

int parse_int_field(const std::string& key, const std::string& value, int lo,
                    int hi) {
  if (const auto v = parse_decimal<int>(value, lo, hi)) return *v;
  throw UsageError("request: " + key + " is not an integer in [" +
                   std::to_string(lo) + ", " + std::to_string(hi) + "]: '" +
                   value + "'");
}

}  // namespace

const char* to_string(Op op) {
  switch (op) {
    case Op::kAnalyze: return "analyze";
    case Op::kSweep: return "sweep";
    case Op::kGenerate: return "generate";
    case Op::kDiff: return "diff";
    case Op::kStatus: return "status";
    case Op::kPing: return "ping";
    case Op::kShutdown: return "shutdown";
  }
  return "?";
}

const char* to_string(RequestClass c) {
  switch (c) {
    case RequestClass::kControl: return "control";
    case RequestClass::kGenerate: return "generate";
    case RequestClass::kAnalyze: return "analyze";
    case RequestClass::kSweep: return "sweep";
  }
  return "?";
}

RequestClass request_class(Op op) {
  switch (op) {
    case Op::kAnalyze: return RequestClass::kAnalyze;
    case Op::kSweep: return RequestClass::kSweep;
    case Op::kGenerate: return RequestClass::kGenerate;
    case Op::kDiff:  // pure cache reads: answered inline, never queued
    case Op::kStatus:
    case Op::kPing:
    case Op::kShutdown: return RequestClass::kControl;
  }
  return RequestClass::kControl;
}

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kShed: return "shed";
    case Status::kError: return "error";
  }
  return "?";
}

Request parse_request(const std::string& line) {
  require(line.size() <= kMaxRequestLine, "request: line too long");
  const std::vector<std::string> toks = tokens(line);
  require(!toks.empty(), "request: empty line");

  Request req;
  const std::string& opname = toks[0];
  if (opname == "analyze") {
    req.op = Op::kAnalyze;
  } else if (opname == "sweep") {
    req.op = Op::kSweep;
  } else if (opname == "generate") {
    req.op = Op::kGenerate;
  } else if (opname == "diff") {
    req.op = Op::kDiff;
  } else if (opname == "status") {
    req.op = Op::kStatus;
  } else if (opname == "ping") {
    req.op = Op::kPing;
  } else if (opname == "shutdown") {
    req.op = Op::kShutdown;
  } else {
    throw UsageError("request: unknown operation '" + opname + "'");
  }

  for (std::size_t i = 1; i < toks.size(); ++i) {
    const std::string& t = toks[i];
    const auto eq = t.find('=');
    require(eq != std::string::npos && eq > 0,
            "request: expected key=value, got '" + t + "'");
    const std::string key = t.substr(0, eq);
    const std::string value = t.substr(eq + 1);
    if (key == "prop") {
      req.prop = value;
    } else if (key == "np") {
      req.np = parse_int_field("np", value, 1, 1 << 20);
    } else if (key == "deadline_ms") {
      req.deadline = std::chrono::milliseconds(
          parse_int_field("deadline_ms", value, 0, 86'400'000));
    } else if (key == "axis") {
      req.axis = value;
    } else if (key == "values") {
      req.values = split(value, ',');
    } else if (key == "fp_a" || key == "fp_b") {
      require(parse_hex64(value, key == "fp_a" ? &req.fp_a : &req.fp_b),
              "request: " + key + " is not a hex fingerprint: '" + value + "'");
    } else {
      require(!value.empty(), "request: empty value for '" + key + "'");
      req.params.set(key, value);
    }
  }

  const bool needs_prop =
      req.op == Op::kAnalyze || req.op == Op::kSweep || req.op == Op::kGenerate;
  require(!needs_prop || !req.prop.empty(),
          "request: '" + std::string(to_string(req.op)) + "' needs prop=");
  if (req.op == Op::kSweep) {
    require(!req.axis.empty(), "request: sweep needs axis=");
    require(!req.values.empty(), "request: sweep needs values=");
    for (const auto& v : req.values) {
      require(!v.empty(), "request: sweep values contain an empty entry");
    }
  }
  if (req.op == Op::kDiff) {
    require(req.fp_a != 0, "request: diff needs fp_a=");
    require(req.fp_b != 0, "request: diff needs fp_b=");
    require(!req.values.empty(), "request: diff needs values=");
    for (const auto& v : req.values) {
      require(!v.empty(), "request: diff values contain an empty entry");
    }
  }
  return req;
}

std::string canonical_request_line(const Request& req) {
  std::ostringstream os;
  os << to_string(req.op);
  if (!req.prop.empty()) os << " prop=" << req.prop;
  if (req.op == Op::kAnalyze || req.op == Op::kSweep) os << " np=" << req.np;
  if (req.op == Op::kSweep) {
    os << " axis=" << req.axis << " values=" << join(req.values, ",");
  }
  if (req.op == Op::kDiff) {
    os << " fp_a=" << hex64(req.fp_a) << " fp_b=" << hex64(req.fp_b)
       << " values=" << join(req.values, ",");
  }
  for (const std::string& k : req.params.keys()) {
    os << ' ' << k << '=' << req.params.get_raw(k, "");
  }
  return os.str();
}

std::string Response::get(const std::string& key, const std::string& def) const {
  const auto it = fields.find(key);
  return it == fields.end() ? def : it->second;
}

std::int64_t Response::get_int(const std::string& key, std::int64_t def) const {
  const auto it = fields.find(key);
  if (it == fields.end()) return def;
  return parse_decimal<std::int64_t>(it->second).value_or(def);
}

Response parse_response_line(const std::string& line) {
  Response r;
  r.first_line = line;
  const auto sp = line.find(' ');
  const std::string status = line.substr(0, sp);
  if (status == "ok") {
    r.status = Status::kOk;
  } else if (status == "shed") {
    r.status = Status::kShed;
  } else if (status == "error") {
    r.status = Status::kError;
  } else {
    throw Error("response: unknown status token in '" + line + "'");
  }
  std::string rest = sp == std::string::npos ? "" : line.substr(sp + 1);
  while (!rest.empty()) {
    // msg= swallows the rest of the line (free text with spaces).
    if (starts_with(rest, "msg=")) {
      r.fields["msg"] = rest.substr(4);
      break;
    }
    const auto end = rest.find(' ');
    const std::string tok = rest.substr(0, end);
    rest = end == std::string::npos ? "" : rest.substr(end + 1);
    if (tok.empty()) continue;
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) continue;  // tolerate junk
    r.fields[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return r;
}

std::string format_fields(
    Status s, const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = to_string(s);
  for (const auto& [k, v] : kv) {
    out += ' ';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

}  // namespace ats::service
