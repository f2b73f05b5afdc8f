#include "scope.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <istream>
#include <set>
#include <sstream>

namespace iotml::fleetscope {

// ---- Minimal JSON ----------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string& error) : text_(text), error_(error) {}

  bool parse(Json& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after value");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    std::ostringstream msg;
    msg << what << " at offset " << pos_;
    error_ = msg.str();
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool value(Json& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out.kind = Json::Kind::kString;
      return string(out.str);
    }
    if (c == 't' || c == 'f') return boolean(out);
    if (c == 'n') return null(out);
    return number(out);
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) return fail("bad literal");
    pos_ += n;
    return true;
  }

  bool boolean(Json& out) {
    out.kind = Json::Kind::kBool;
    out.boolean = text_[pos_] == 't';
    return literal(out.boolean ? "true" : "false");
  }

  bool null(Json& out) {
    out.kind = Json::Kind::kNull;
    return literal("null");
  }

  bool number(Json& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected a number");
    const std::string token = text_.substr(start, pos_ - start);
    try {
      out.number = std::stod(token);
    } catch (...) {
      return fail("unparseable number '" + token + "'");
    }
    out.kind = Json::Kind::kNumber;
    out.integer = 0;
    if (integral && token[0] != '-') {
      try {
        out.integer = std::stoull(token);
      } catch (...) {
        out.integer = static_cast<std::uint64_t>(out.number);
      }
    } else {
      out.integer = static_cast<std::uint64_t>(out.number < 0 ? 0 : out.number);
    }
    return true;
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'u': {
          // The artifacts only escape control characters; decode BMP scalars
          // to UTF-8 and reject surrogate fiddling as malformed.
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape digit");
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool array(Json& out) {
    out.kind = Json::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json elem;
      skip_ws();
      if (!value(elem)) return false;
      out.arr.push_back(std::move(elem));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool object(Json& out) {
    out.kind = Json::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key");
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      Json val;
      if (!value(val)) return false;
      out.obj.emplace_back(std::move(key), std::move(val));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::string& error_;
  std::size_t pos_ = 0;
};

std::string read_all(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Json::num_or(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
}

std::uint64_t Json::u64_or(const std::string& key, std::uint64_t fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->integer : fallback;
}

std::string Json::str_or(const std::string& key, const std::string& fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->kind == Kind::kString ? v->str : fallback;
}

bool parse_json(const std::string& text, Json& out, std::string& error) {
  out = Json{};
  Parser p(text, error);
  return p.parse(out);
}

// ---- Artifact parsers ------------------------------------------------------

bool parse_journeys(std::istream& in, JourneyFile& out, std::string& error) {
  out = JourneyFile{};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    Json row;
    if (!parse_json(line, row, error)) {
      error = "journeys.jsonl line " + std::to_string(line_no) + ": " + error;
      return false;
    }
    if (const Json* meta = row.find("meta"); meta != nullptr) {
      out.meta_present = true;
      out.meta_records = meta->u64_or("records", 0);
      out.meta_dropped = meta->u64_or("dropped", 0);
      continue;
    }
    ScopeRecord rec;
    rec.trace = row.u64_or("trace", 0);
    rec.hop = static_cast<std::uint32_t>(row.u64_or("hop", 0));
    rec.kind = row.str_or("kind", "");
    rec.stream = row.str_or("stream", "");
    rec.src = static_cast<std::size_t>(row.u64_or("src", 0));
    rec.dst = static_cast<std::size_t>(row.u64_or("dst", 0));
    rec.t0_s = row.num_or("t0", 0.0);
    rec.t1_s = row.num_or("t1", 0.0);
    rec.rows = static_cast<std::size_t>(row.u64_or("rows", 0));
    rec.bytes = static_cast<std::size_t>(row.u64_or("bytes", 0));
    rec.attempts = static_cast<std::uint32_t>(row.u64_or("attempts", 0));
    rec.outcome = row.str_or("outcome", "");
    if (const Json* parents = row.find("parents");
        parents != nullptr && parents->kind == Json::Kind::kArray) {
      for (const Json& p : parents->arr) rec.parents.push_back(p.integer);
    }
    out.records.push_back(std::move(rec));
  }
  return true;
}

bool parse_timeseries(std::istream& in, SeriesFile& out, std::string& error) {
  out = SeriesFile{};
  Json root;
  if (!parse_json(read_all(in), root, error)) {
    error = "timeseries.json: " + error;
    return false;
  }
  out.capacity = static_cast<std::size_t>(root.u64_or("capacity", 0));
  const Json* series = root.find("series");
  if (series == nullptr || series->kind != Json::Kind::kArray) {
    error = "timeseries.json: missing \"series\" array";
    return false;
  }
  for (const Json& row : series->arr) {
    SeriesEntry entry;
    entry.metric = row.str_or("metric", "");
    entry.entity = row.str_or("entity", "");
    entry.tier = row.str_or("tier", "");
    entry.total = row.u64_or("total", 0);
    if (const Json* samples = row.find("samples");
        samples != nullptr && samples->kind == Json::Kind::kArray) {
      for (const Json& pair : samples->arr) {
        if (pair.kind != Json::Kind::kArray || pair.arr.size() != 2) {
          error = "timeseries.json: sample is not a [t, value] pair";
          return false;
        }
        entry.samples.emplace_back(pair.arr[0].number, pair.arr[1].number);
      }
    }
    out.series.push_back(std::move(entry));
  }
  return true;
}

bool parse_flightrec(std::istream& in, FlightFile& out, std::string& error) {
  out = FlightFile{};
  Json root;
  if (!parse_json(read_all(in), root, error)) {
    error = "flightrec.json: " + error;
    return false;
  }
  out.ring_capacity = static_cast<std::size_t>(root.u64_or("ring_capacity", 0));
  const Json* entities = root.find("entities");
  if (entities == nullptr || entities->kind != Json::Kind::kArray) {
    error = "flightrec.json: missing \"entities\" array";
    return false;
  }
  for (const Json& row : entities->arr) {
    FlightEntity entity;
    entity.entity = static_cast<std::size_t>(row.u64_or("entity", 0));
    entity.total = row.u64_or("total", 0);
    if (const Json* events = row.find("events");
        events != nullptr && events->kind == Json::Kind::kArray) {
      for (const Json& ev : events->arr) {
        std::ostringstream line;
        char t_buf[64];
        std::snprintf(t_buf, sizeof t_buf, "%.17g", ev.num_or("t", 0.0));
        line << "t=" << t_buf << " " << ev.str_or("kind", "?") << " a="
             << ev.u64_or("a", 0) << " b=" << ev.u64_or("b", 0);
        entity.lines.push_back(line.str());
      }
    }
    out.entities.push_back(std::move(entity));
  }
  return true;
}

bool parse_ota(std::istream& in, OtaFile& out, std::string& error) {
  out = OtaFile{};
  Json root;
  if (!parse_json(read_all(in), root, error)) {
    error = "ota.json: " + error;
    return false;
  }
  const Json* enabled = root.find("enabled");
  out.enabled = enabled != nullptr && enabled->boolean;
  out.epochs = root.u64_or("epochs", 0);
  out.versions_published = root.u64_or("versions_published", 0);
  if (const Json* bytes = root.find("bytes"); bytes != nullptr) {
    out.delta_downlink_bytes = bytes->u64_or("delta_downlink", 0);
    out.full_broadcast_bytes = bytes->u64_or("full_broadcast_counterfactual", 0);
    out.probe_uplink_bytes = bytes->u64_or("probe_uplink", 0);
  }
  out.promotions = root.u64_or("promotions", 0);
  out.rollbacks = root.u64_or("rollbacks", 0);
  out.last_commit_t_s = root.num_or("last_commit_t_s", 0.0);
  if (const Json* devices = root.find("devices"); devices != nullptr) {
    out.devices_on_head = devices->u64_or("on_head", 0);
    out.devices_behind = devices->u64_or("behind", 0);
    out.devices_unprovisioned = devices->u64_or("unprovisioned", 0);
    out.devices_stuck = devices->u64_or("stuck", 0);
  }
  const Json* verified = root.find("all_devices_verified");
  out.all_devices_verified = verified != nullptr && verified->boolean;
  if (const Json* histogram = root.find("version_histogram");
      histogram != nullptr && histogram->kind == Json::Kind::kObject) {
    for (const auto& [id, count] : histogram->obj) {
      std::uint32_t version = 0;
      try {
        version = static_cast<std::uint32_t>(std::stoul(id));
      } catch (...) {
        error = "ota.json: non-numeric version_histogram key '" + id + "'";
        return false;
      }
      out.version_histogram.emplace_back(version, count.integer);
    }
  }
  if (const Json* log = root.find("epochs_log");
      log != nullptr && log->kind == Json::Kind::kArray) {
    for (const Json& row : log->arr) {
      OtaEpoch e;
      e.epoch = row.u64_or("epoch", 0);
      e.t_s = row.num_or("t_s", 0.0);
      e.version_id = static_cast<std::uint32_t>(row.u64_or("version_id", 0));
      e.outcome = row.str_or("outcome", "");
      e.train_rows = row.u64_or("train_rows", 0);
      e.image_bytes = row.u64_or("image_bytes", 0);
      e.patch_bytes = row.u64_or("patch_bytes", 0);
      e.delta_downlink_bytes = row.u64_or("delta_downlink_bytes", 0);
      e.full_broadcast_bytes = row.u64_or("full_broadcast_bytes", 0);
      e.canary_devices = row.u64_or("canary_devices", 0);
      e.devices_reporting = row.u64_or("devices_reporting", 0);
      e.accuracy_old = row.num_or("accuracy_old", 0.0);
      e.accuracy_new = row.num_or("accuracy_new", 0.0);
      e.devices_updated = row.u64_or("devices_updated", 0);
      e.devices_rolled_back = row.u64_or("devices_rolled_back", 0);
      e.full_fallbacks = row.u64_or("full_fallbacks", 0);
      e.devices_stuck = row.u64_or("devices_stuck", 0);
      out.epochs_log.push_back(std::move(e));
    }
  }
  return true;
}

bool parse_degradation(std::istream& in, DegradeFile& out, std::string& error) {
  out = DegradeFile{};
  Json root;
  if (!parse_json(read_all(in), root, error)) {
    error = "degradation.json: " + error;
    return false;
  }
  const Json* enabled = root.find("enabled");
  out.enabled = enabled != nullptr && enabled->boolean;
  out.pin_level = static_cast<int>(root.num_or("pin_level", -1.0));
  out.duration_s = root.num_or("duration_s", 0.0);
  if (const Json* rows = root.find("rows"); rows != nullptr) {
    out.rows_exact = rows->u64_or("exact", 0);
    out.rows_approx = rows->u64_or("approx", 0);
    out.rows_sampled_out = rows->u64_or("sampled_out", 0);
  }
  if (const Json* windows = root.find("windows"); windows != nullptr) {
    out.windows_exact = windows->u64_or("exact", 0);
    out.windows_sampled = windows->u64_or("sampled", 0);
    out.windows_sketch = windows->u64_or("sketch", 0);
    out.windows_summary = windows->u64_or("summary", 0);
  }
  if (const Json* transitions = root.find("transitions"); transitions != nullptr) {
    out.transitions_up = transitions->u64_or("up", 0);
    out.transitions_down = transitions->u64_or("down", 0);
  }
  if (const Json* summaries = root.find("summaries"); summaries != nullptr) {
    out.summaries_sent = summaries->u64_or("sent", 0);
    out.summaries_delivered = summaries->u64_or("delivered", 0);
    out.summary_bytes = summaries->u64_or("bytes", 0);
  }
  if (const Json* ci = root.find("ci"); ci != nullptr) {
    out.ci_windows = ci->u64_or("windows", 0);
    out.ci_covered = ci->u64_or("covered", 0);
    out.coverage = ci->num_or("coverage", 0.0);
    out.mean_half_width = ci->num_or("mean_half_width", 0.0);
    out.mean_abs_error = ci->num_or("mean_abs_error", 0.0);
    out.max_abs_error = ci->num_or("max_abs_error", 0.0);
  }
  out.windows_truncated = root.u64_or("windows_truncated", 0);
  if (const Json* edges = root.find("edges");
      edges != nullptr && edges->kind == Json::Kind::kArray) {
    for (const Json& row : edges->arr) {
      DegradeEdge e;
      e.edge = static_cast<std::size_t>(row.u64_or("edge", 0));
      e.final_level = static_cast<int>(row.num_or("final_level", 0.0));
      if (const Json* times = row.find("time_at_level_s");
          times != nullptr && times->kind == Json::Kind::kArray) {
        for (std::size_t i = 0; i < times->arr.size() && i < 4; ++i) {
          e.time_at_level_s[i] = times->arr[i].number;
        }
      }
      if (const Json* moves = row.find("transitions");
          moves != nullptr && moves->kind == Json::Kind::kArray) {
        for (const Json& move : moves->arr) {
          DegradeTransition t;
          t.t_s = move.num_or("t_s", 0.0);
          t.from = static_cast<int>(move.num_or("from", 0.0));
          t.to = static_cast<int>(move.num_or("to", 0.0));
          e.transitions.push_back(t);
        }
      }
      out.edges.push_back(std::move(e));
    }
  }
  if (const Json* estimates = root.find("window_estimates");
      estimates != nullptr && estimates->kind == Json::Kind::kArray) {
    for (const Json& row : estimates->arr) {
      DegradeWindow w;
      w.edge = static_cast<std::size_t>(row.u64_or("edge", 0));
      w.t_s = row.num_or("t_s", 0.0);
      w.level = static_cast<int>(row.num_or("level", 0.0));
      w.rows_window = row.u64_or("rows_window", 0);
      w.rows_used = row.u64_or("rows_used", 0);
      w.estimate = row.num_or("estimate", 0.0);
      w.half_width = row.num_or("half_width", 0.0);
      w.exact = row.num_or("exact", 0.0);
      const Json* covered = row.find("covered");
      w.covered = covered != nullptr && covered->boolean;
      out.windows.push_back(w);
    }
  }
  return true;
}

// ---- Journey reconstruction ------------------------------------------------

double Journey::end_to_end_s() const noexcept {
  if (!complete()) return 0.0;
  return core_arrival->t1_s - origin_rec->t0_s;
}

double Completeness::origin_fraction() const noexcept {
  return origins_delivered == 0
             ? 1.0
             : static_cast<double>(origins_complete) /
                   static_cast<double>(origins_delivered);
}

double Completeness::row_fraction() const noexcept {
  return rows_delivered == 0 ? 1.0
                             : static_cast<double>(rows_complete) /
                                   static_cast<double>(rows_delivered);
}

Reconstruction::Reconstruction(const JourneyFile& file) {
  std::map<std::uint64_t, const ScopeRecord*> origins;
  // Per origin id, the row-stream sends carrying it, split by wire hop.
  std::map<std::uint64_t, std::vector<const ScopeRecord*>> hop0_sends;
  std::map<std::uint64_t, std::vector<const ScopeRecord*>> hop1_sends;
  std::map<std::uint64_t, std::size_t> failed_frames;
  // Frame trace -> its accepted arrival record.
  std::map<std::uint64_t, const ScopeRecord*> accepted;

  for (const ScopeRecord& rec : file.records) {
    outcome_counts_[rec.stream][rec.kind + "/" + rec.outcome] += 1;
    if (rec.stream != "rows") continue;
    if (rec.kind == "origin") {
      origins.emplace(rec.trace, &rec);
      ++completeness_.origins_total;
    } else if (rec.kind == "send") {
      auto& by_hop = rec.hop == 0 ? hop0_sends : hop1_sends;
      for (const std::uint64_t parent : rec.parents) {
        if (rec.outcome == "delivered") {
          by_hop[parent].push_back(&rec);
        } else {
          failed_frames[parent] += 1;
        }
      }
    } else if (rec.kind == "arrive" && rec.outcome == "accepted") {
      accepted.emplace(rec.trace, &rec);
    }
  }

  // An origin window was delivered iff a delivered hop-1 frame naming it as a
  // parent was accepted at the core. std::map iteration keeps the journey
  // list in origin-trace order, so output is deterministic.
  for (const auto& [origin, sends] : hop1_sends) {
    Journey j;
    j.origin = origin;
    for (const ScopeRecord* send : sends) {
      const auto it = accepted.find(send->trace);
      if (it != accepted.end()) {
        j.hop1 = send;
        j.core_arrival = it->second;
        break;
      }
    }
    if (j.hop1 == nullptr) continue;  // never accepted at the core
    const auto origin_it = origins.find(origin);
    if (origin_it != origins.end()) j.origin_rec = origin_it->second;
    const auto h0 = hop0_sends.find(origin);
    if (h0 != hop0_sends.end()) {
      for (const ScopeRecord* send : h0->second) {
        if (accepted.count(send->trace) != 0) {
          j.hop0 = send;
          break;
        }
      }
    }
    const auto failed = failed_frames.find(origin);
    j.failed_frames = failed == failed_frames.end() ? 0 : failed->second;

    ++completeness_.origins_delivered;
    const std::uint64_t weight =
        j.origin_rec != nullptr ? static_cast<std::uint64_t>(j.origin_rec->rows) : 1;
    completeness_.rows_delivered += weight;
    if (j.complete()) {
      ++completeness_.origins_complete;
      completeness_.rows_complete += weight;
    }
    journeys_.push_back(j);
  }
}

// ---- Rendering -------------------------------------------------------------

namespace {

std::string format_seconds(double s) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3fs", s);
  return buf;
}

void render_leg(std::ostream& out, const char* label, const ScopeRecord* send) {
  out << "  " << label << " ";
  if (send == nullptr) {
    out << "(missing: chain breaks here)\n";
    return;
  }
  out << "node" << send->src << " -> node" << send->dst << "  sent t="
      << format_seconds(send->t0_s) << "  arrived t=" << format_seconds(send->t1_s)
      << "  (+" << format_seconds(send->t1_s - send->t0_s) << ", attempts="
      << send->attempts << ", " << send->rows << " rows, " << send->bytes
      << " bytes)\n";
}

}  // namespace

std::string render_journeys(const Reconstruction& recon, std::size_t limit) {
  std::ostringstream out;
  const auto& journeys = recon.journeys();
  out << "journeys (" << journeys.size() << " delivered origin windows, showing "
      << std::min(limit, journeys.size()) << ")\n";
  std::size_t shown = 0;
  for (const Journey& j : journeys) {
    if (shown++ >= limit) break;
    out << "journey origin#" << j.origin;
    if (j.origin_rec != nullptr) {
      out << "  (device node" << j.origin_rec->src << ", flushed t="
          << format_seconds(j.origin_rec->t0_s) << ", " << j.origin_rec->rows
          << " rows)";
    } else {
      out << "  (origin record missing)";
    }
    out << "\n";
    render_leg(out, "hop0", j.hop0);
    render_leg(out, "hop1", j.hop1);
    if (j.complete()) {
      out << "  end-to-end " << format_seconds(j.end_to_end_s());
      if (j.failed_frames > 0) out << "  (" << j.failed_frames << " failed frames)";
      out << "\n";
    } else {
      out << "  incomplete journey";
      if (j.failed_frames > 0) out << "  (" << j.failed_frames << " failed frames)";
      out << "\n";
    }
  }
  return out.str();
}

std::string render_heatmap(const SeriesFile& series, std::size_t columns) {
  static const char kRamp[] = " .:-=+*#%@";
  constexpr std::size_t kRampMax = sizeof(kRamp) - 2;  // index of densest glyph
  std::ostringstream out;

  // Group entries by metric; each metric gets its own table.
  std::map<std::string, std::vector<const SeriesEntry*>> by_metric;
  for (const SeriesEntry& entry : series.series) {
    by_metric[entry.metric].push_back(&entry);
  }
  for (const auto& [metric, entries] : by_metric) {
    double t_min = 0.0;
    double t_max = 0.0;
    double v_max = 0.0;
    bool any = false;
    for (const SeriesEntry* entry : entries) {
      for (const auto& [t, v] : entry->samples) {
        if (!any) {
          t_min = t_max = t;
          any = true;
        }
        t_min = std::min(t_min, t);
        t_max = std::max(t_max, t);
        v_max = std::max(v_max, std::fabs(v));
      }
    }
    out << "metric " << metric << "  (t=" << format_seconds(t_min) << " .. "
        << format_seconds(t_max) << ", max=" << v_max << ")\n";
    const double span = t_max > t_min ? t_max - t_min : 1.0;
    for (const SeriesEntry* entry : entries) {
      std::vector<double> sums(columns, 0.0);
      std::vector<std::uint64_t> counts(columns, 0);
      for (const auto& [t, v] : entry->samples) {
        auto col = static_cast<std::size_t>((t - t_min) / span *
                                            static_cast<double>(columns));
        col = std::min(col, columns - 1);
        sums[col] += std::fabs(v);
        counts[col] += 1;
      }
      std::string heat(columns, ' ');
      for (std::size_t c = 0; c < columns; ++c) {
        if (counts[c] == 0) continue;
        const double mean = sums[c] / static_cast<double>(counts[c]);
        const double frac = v_max > 0.0 ? mean / v_max : 0.0;
        const auto idx = static_cast<std::size_t>(frac * static_cast<double>(kRampMax));
        heat[c] = kRamp[1 + std::min(idx, kRampMax - 1)];
      }
      char label[96];
      std::snprintf(label, sizeof label, "  %-12s %-7s |%s|  total=%llu",
                    entry->entity.c_str(), entry->tier.c_str(), heat.c_str(),
                    static_cast<unsigned long long>(entry->total));
      out << label << "\n";
    }
    out << "\n";
  }
  return out.str();
}

std::string render_health(const JourneyFile& file, const Reconstruction& recon,
                          const FlightFile& flight) {
  std::ostringstream out;
  out << "health\n";
  out << "  journey log: " << file.records.size() << " records";
  if (file.meta_present) out << " (writer claims " << file.meta_records << ")";
  out << ", " << file.meta_dropped << " dropped\n";
  for (const auto& [stream, kinds] : recon.outcome_counts()) {
    out << "  stream " << stream << ":";
    for (const auto& [key, count] : kinds) out << "  " << key << "=" << count;
    out << "\n";
  }
  const Completeness& c = recon.completeness();
  char pct[128];
  std::snprintf(pct, sizeof pct,
                "  completeness: %zu/%zu delivered origins reconstruct (%.2f%%), "
                "%llu/%llu rows (%.2f%%)",
                c.origins_complete, c.origins_delivered, 100.0 * c.origin_fraction(),
                static_cast<unsigned long long>(c.rows_complete),
                static_cast<unsigned long long>(c.rows_delivered),
                100.0 * c.row_fraction());
  out << pct << "\n";
  std::uint64_t flight_total = 0;
  for (const FlightEntity& e : flight.entities) flight_total += e.total;
  out << "  flight recorder: " << flight.entities.size() << " active entities, "
      << flight_total << " events noted (ring=" << flight.ring_capacity << ")\n";
  return out.str();
}

std::string render_flight(const FlightFile& flight, std::size_t limit) {
  std::ostringstream out;
  out << "flight rings (showing " << std::min(limit, flight.entities.size()) << " of "
      << flight.entities.size() << " active entities)\n";
  std::size_t shown = 0;
  for (const FlightEntity& e : flight.entities) {
    if (shown++ >= limit) break;
    out << "  entity " << e.entity << " (" << e.total << " events total):\n";
    for (const std::string& line : e.lines) out << "    " << line << "\n";
  }
  return out.str();
}

std::string render_versions(const OtaFile& ota) {
  std::ostringstream out;
  if (!ota.enabled) {
    out << "ota versions: OTA was not enabled for this run\n";
    return out.str();
  }
  char head[160];
  const double saved =
      ota.full_broadcast_bytes > 0
          ? 100.0 * (1.0 - static_cast<double>(ota.delta_downlink_bytes) /
                               static_cast<double>(ota.full_broadcast_bytes))
          : 0.0;
  std::snprintf(head, sizeof head,
                "ota versions (%llu epochs, %llu promoted, %llu rolled back; "
                "downlink %llu B vs %llu B counterfactual, %.1f%% saved)",
                static_cast<unsigned long long>(ota.epochs),
                static_cast<unsigned long long>(ota.promotions),
                static_cast<unsigned long long>(ota.rollbacks),
                static_cast<unsigned long long>(ota.delta_downlink_bytes),
                static_cast<unsigned long long>(ota.full_broadcast_bytes), saved);
  out << head << "\n";

  out << "timeline\n";
  for (const OtaEpoch& e : ota.epochs_log) {
    char line[192];
    std::snprintf(line, sizeof line, "  epoch %llu  t=%-8s v%-3u %-11s",
                  static_cast<unsigned long long>(e.epoch),
                  format_seconds(e.t_s).c_str(), e.version_id,
                  e.outcome.c_str());
    out << line;
    if (e.canary_devices > 0) {
      char canary[128];
      std::snprintf(canary, sizeof canary,
                    " canary %llu/%llu reporting, acc %.3f -> %.3f,",
                    static_cast<unsigned long long>(e.devices_reporting),
                    static_cast<unsigned long long>(e.canary_devices),
                    e.accuracy_old, e.accuracy_new);
      out << canary;
    }
    out << " " << e.devices_updated << " updated";
    if (e.devices_rolled_back > 0) out << ", " << e.devices_rolled_back << " rolled back";
    if (e.full_fallbacks > 0) out << ", " << e.full_fallbacks << " full fallbacks";
    if (e.devices_stuck > 0) out << ", " << e.devices_stuck << " STUCK";
    out << "\n";
  }

  out << "fleet versions\n";
  std::uint64_t max_count = 1;
  std::uint64_t total = 0;
  std::uint32_t head_id = 0;
  for (const auto& [id, count] : ota.version_histogram) {
    max_count = std::max(max_count, count);
    total += count;
    head_id = std::max(head_id, id);
  }
  constexpr std::size_t kBarWidth = 24;
  for (const auto& [id, count] : ota.version_histogram) {
    const auto width = static_cast<std::size_t>(
        static_cast<double>(count) / static_cast<double>(max_count) *
        static_cast<double>(kBarWidth));
    char label[32];
    if (id == 0) {
      std::snprintf(label, sizeof label, "  none");
    } else {
      std::snprintf(label, sizeof label, "  v%-4u", id);
    }
    out << label << " " << std::string(std::max<std::size_t>(width, 1), '#')
        << std::string(kBarWidth - std::max<std::size_t>(width, 1), ' ') << " "
        << count << " devices" << (id != 0 && id == head_id ? "  (head)" : "")
        << "\n";
  }
  char tail[192];
  std::snprintf(tail, sizeof tail,
                "  %llu devices: on-head %llu, behind %llu, unprovisioned %llu, "
                "stuck %llu; last commit t=%s; verified %s",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(ota.devices_on_head),
                static_cast<unsigned long long>(ota.devices_behind),
                static_cast<unsigned long long>(ota.devices_unprovisioned),
                static_cast<unsigned long long>(ota.devices_stuck),
                format_seconds(ota.last_commit_t_s).c_str(),
                ota.all_devices_verified ? "yes" : "NO");
  out << tail << "\n";
  return out.str();
}

std::string render_degradation(const DegradeFile& d) {
  std::ostringstream out;
  if (!d.enabled) {
    out << "degradation: the ladder was not enabled for this run\n";
    return out.str();
  }
  char head[224];
  std::snprintf(
      head, sizeof head,
      "degradation ladder (%s; windows exact %llu / sampled %llu / sketch "
      "%llu / summary %llu; %llu up, %llu down)",
      d.pin_level >= 0
          ? ("pinned L" + std::to_string(d.pin_level)).c_str()
          : "free-running",
      static_cast<unsigned long long>(d.windows_exact),
      static_cast<unsigned long long>(d.windows_sampled),
      static_cast<unsigned long long>(d.windows_sketch),
      static_cast<unsigned long long>(d.windows_summary),
      static_cast<unsigned long long>(d.transitions_up),
      static_cast<unsigned long long>(d.transitions_down));
  out << head << "\n";

  // Per-edge ladder strips: one character per time bucket, deeper rungs
  // darker (L0 '.', L1 '-', L2 '=', L3 '#'). The horizon covers the settle
  // tail, so a healthy edge always ends in '.'.
  double horizon = d.duration_s;
  for (const DegradeEdge& e : d.edges) {
    for (const DegradeTransition& t : e.transitions) {
      horizon = std::max(horizon, t.t_s);
    }
  }
  constexpr std::size_t kStripWidth = 48;
  constexpr char kLevelChar[4] = {'.', '-', '=', '#'};
  out << "ladder timeline (0.." << format_seconds(horizon) << ")\n";
  for (const DegradeEdge& e : d.edges) {
    std::string strip(kStripWidth, kLevelChar[0]);
    // Walk the step function transition by transition; the level before the
    // first move is that move's `from` rung.
    int level = e.transitions.empty() ? e.final_level : e.transitions.front().from;
    std::size_t bucket = 0;
    for (const DegradeTransition& t : e.transitions) {
      const auto until = horizon > 0.0
          ? std::min(kStripWidth, static_cast<std::size_t>(
                t.t_s / horizon * static_cast<double>(kStripWidth)))
          : kStripWidth;
      for (; bucket < until; ++bucket) {
        strip[bucket] = kLevelChar[std::clamp(level, 0, 3)];
      }
      level = t.to;
    }
    for (; bucket < kStripWidth; ++bucket) {
      strip[bucket] = kLevelChar[std::clamp(level, 0, 3)];
    }
    char line[224];
    std::snprintf(line, sizeof line,
                  "  edge %-3zu %s final L%d  t@[%s %s %s %s] %zu moves",
                  e.edge, strip.c_str(), e.final_level,
                  format_seconds(e.time_at_level_s[0]).c_str(),
                  format_seconds(e.time_at_level_s[1]).c_str(),
                  format_seconds(e.time_at_level_s[2]).c_str(),
                  format_seconds(e.time_at_level_s[3]).c_str(),
                  e.transitions.size());
    out << line << "\n";
  }

  char rows[224];
  std::snprintf(rows, sizeof rows,
                "rows: exact %llu, approx %llu (%llu sampled out); summaries "
                "%llu sent / %llu delivered, %llu B",
                static_cast<unsigned long long>(d.rows_exact),
                static_cast<unsigned long long>(d.rows_approx),
                static_cast<unsigned long long>(d.rows_sampled_out),
                static_cast<unsigned long long>(d.summaries_sent),
                static_cast<unsigned long long>(d.summaries_delivered),
                static_cast<unsigned long long>(d.summary_bytes));
  out << rows << "\n";
  if (d.ci_windows > 0) {
    char ci[224];
    std::snprintf(ci, sizeof ci,
                  "error bound: 95%% CI covered %llu/%llu windows (%.1f%%), "
                  "mean half-width %.4f, mean |err| %.4f, max |err| %.4f",
                  static_cast<unsigned long long>(d.ci_covered),
                  static_cast<unsigned long long>(d.ci_windows),
                  100.0 * d.coverage, d.mean_half_width, d.mean_abs_error,
                  d.max_abs_error);
    out << ci << "\n";
  }
  if (!d.windows.empty()) {
    out << "window estimates";
    if (d.windows_truncated > 0) {
      out << " (first " << d.windows.size() << "; "
          << d.windows_truncated << " more truncated)";
    }
    out << "\n";
    constexpr std::size_t kWindowLimit = 8;
    for (std::size_t i = 0; i < d.windows.size() && i < kWindowLimit; ++i) {
      const DegradeWindow& w = d.windows[i];
      char line[224];
      std::snprintf(line, sizeof line,
                    "  t=%-8s edge %-3zu L%d %llu/%llu rows  est %.4f +/- "
                    "%.4f  exact %.4f  %s",
                    format_seconds(w.t_s).c_str(), w.edge, w.level,
                    static_cast<unsigned long long>(w.rows_used),
                    static_cast<unsigned long long>(w.rows_window),
                    w.estimate, w.half_width, w.exact,
                    w.covered ? "covered" : "MISSED");
      out << line << "\n";
    }
  }
  return out.str();
}

}  // namespace iotml::fleetscope
