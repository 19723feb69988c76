#include "gen/params.hpp"

#include <algorithm>

#include "common/strutil.hpp"

namespace ats::gen {

const char* to_string(ParamKind k) {
  switch (k) {
    case ParamKind::kDouble: return "double";
    case ParamKind::kInt: return "int";
    case ParamKind::kDistr: return "distribution";
  }
  return "?";
}

namespace {

double parse_double(const std::string& s, const std::string& what) {
  if (const auto v = parse_finite(s)) return *v;
  throw UsageError("cannot parse '" + s + "' as a number for " + what);
}

int parse_int(const std::string& s, const std::string& what) {
  if (const auto v = parse_decimal<int>(s)) return *v;
  throw UsageError("cannot parse '" + s + "' as an integer for " + what);
}

}  // namespace

core::Distribution parse_distribution(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string fname = spec.substr(0, colon);
  core::Distribution d;
  d.fn = core::distr_func_by_name(fname);

  std::map<std::string, std::string> fields;
  if (colon != std::string::npos) {
    for (const std::string& part : split(spec.substr(colon + 1), ',')) {
      if (part.empty()) continue;
      const auto eq = part.find('=');
      if (eq == std::string::npos) {
        throw UsageError("bad distribution field '" + part + "' in '" +
                         spec + "'");
      }
      fields[part.substr(0, eq)] = part.substr(eq + 1);
    }
  }
  auto field = [&](const char* name, double def) {
    const auto it = fields.find(name);
    return it == fields.end() ? def : parse_double(it->second, name);
  };

  if (fname == "same") {
    d.desc = core::Val1{field("val", 0.0)};
  } else if (fname == "peak") {
    core::Val2N v;
    v.low = field("low", 0.0);
    v.high = field("high", 0.0);
    const auto it = fields.find("n");
    v.n = it == fields.end() ? 0 : parse_int(it->second, "n");
    d.desc = v;
  } else if (fname == "cyclic3" || fname == "block3") {
    core::Val3 v;
    v.low = field("low", 0.0);
    v.med = field("med", 0.0);
    v.high = field("high", 0.0);
    d.desc = v;
  } else if (fname == "custom") {
    const auto it = fields.find("values");
    if (it == fields.end()) {
      throw UsageError("custom distribution needs values=v1;v2;...");
    }
    core::ValTable table;
    for (const std::string& s : split(it->second, ';')) {
      if (!s.empty()) table.push_back(parse_double(s, "values"));
    }
    d.desc = std::move(table);
  } else {
    d.desc = core::Val2{field("low", 0.0), field("high", 0.0)};
  }
  return d;
}

std::string format_distribution(const core::Distribution& d) {
  const std::string fname = core::distr_func_name(d.fn);
  std::string out = fname;
  if (const auto* v1 = std::get_if<core::Val1>(&d.desc)) {
    out += ":val=" + fmt_double(v1->val, 6);
  } else if (const auto* v2 = std::get_if<core::Val2>(&d.desc)) {
    out += ":low=" + fmt_double(v2->low, 6) + ",high=" +
           fmt_double(v2->high, 6);
  } else if (const auto* v2n = std::get_if<core::Val2N>(&d.desc)) {
    out += ":low=" + fmt_double(v2n->low, 6) + ",high=" +
           fmt_double(v2n->high, 6) + ",n=" + std::to_string(v2n->n);
  } else if (const auto* v3 = std::get_if<core::Val3>(&d.desc)) {
    out += ":low=" + fmt_double(v3->low, 6) + ",med=" +
           fmt_double(v3->med, 6) + ",high=" + fmt_double(v3->high, 6);
  } else if (const auto* t = std::get_if<core::ValTable>(&d.desc)) {
    out += ":values=";
    for (std::size_t i = 0; i < t->size(); ++i) {
      if (i != 0) out += ';';
      out += fmt_double((*t)[i], 6);
    }
  }
  return out;
}

ParamMap ParamMap::parse(std::span<const std::string> args) {
  ParamMap m;
  for (const std::string& a : args) {
    const auto eq = a.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw UsageError("expected key=value, got '" + a + "'");
    }
    m.kv_[a.substr(0, eq)] = a.substr(eq + 1);
  }
  return m;
}

void ParamMap::set(const std::string& key, const std::string& value) {
  kv_[key] = value;
}

bool ParamMap::has(const std::string& key) const {
  return kv_.count(key) != 0;
}

std::vector<std::string> ParamMap::keys() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) out.push_back(k);
  return out;
}

double ParamMap::get_double(const std::string& key, double def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : parse_double(it->second, key);
}

int ParamMap::get_int(const std::string& key, int def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : parse_int(it->second, key);
}

core::Distribution ParamMap::get_distr(const std::string& key,
                                       const std::string& def_spec) const {
  const auto it = kv_.find(key);
  return parse_distribution(it == kv_.end() ? def_spec : it->second);
}

std::string ParamMap::get_raw(const std::string& key,
                              const std::string& def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

void ParamMap::check_against(std::span<const ParamSpec> specs) const {
  for (const auto& [k, v] : kv_) {
    const bool known =
        std::any_of(specs.begin(), specs.end(),
                    [&](const ParamSpec& s) { return s.name == k; });
    if (!known) {
      std::string names;
      for (const auto& s : specs) {
        if (!names.empty()) names += ", ";
        names += s.name;
      }
      throw UsageError("unknown parameter '" + k + "' (expected one of: " +
                       names + ")");
    }
  }
}

}  // namespace ats::gen
