#include "serve/protocol.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/text_format.hpp"
#include "workload/floorplan.hpp"
#include "workload/netgen.hpp"
#include "workload/padring.hpp"

namespace gcr::serve {

namespace {

std::vector<std::string> split_words(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

/// Strict non-negative integer parse with token context in the error.
unsigned long long parse_count(const std::string& tok,
                               const std::string& what) {
  if (tok.empty() || tok.find_first_not_of("0123456789") != std::string::npos) {
    throw std::runtime_error(what + ": expected a non-negative integer, got '" +
                             tok + "'");
  }
  try {
    return std::stoull(tok);
  } catch (const std::exception&) {
    throw std::runtime_error(what + ": value out of range: '" + tok + "'");
  }
}

/// Splits a `nets=` value on commas.  Empty items (leading, trailing, or
/// doubled commas) are malformed — they would silently route nothing.
std::vector<std::string> split_net_list(const std::string& value,
                                        const std::string& what) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = value.find(',', start);
    const std::string item = value.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (item.empty()) {
      throw std::runtime_error(what + ": empty net name in list");
    }
    out.push_back(item);
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

/// parse_count plus the 24-hour cap shared by deadline_ms and budget_ms:
/// std::chrono::milliseconds has a signed rep, so an uncapped ULLONG_MAX
/// count would narrow to a negative duration, and adding it to
/// steady_clock::now() overflows the clock rep (signed-overflow UB).
unsigned long long parse_duration_ms(const std::string& tok,
                                     const std::string& what) {
  const unsigned long long ms = parse_count(tok, what);
  if (ms > kMaxDeadlineMs) {
    throw std::runtime_error(what + ": at most " +
                             std::to_string(kMaxDeadlineMs) + " ms (24h)");
  }
  return ms;
}

constexpr unsigned long long kNoCap = ~0ull;

// ------------------------------------------------------- the shared parser

/// One validated knob value.  Which member is meaningful follows from the
/// KnobSpec's type; keeping them side by side beats a variant for a parser
/// this small.
struct KnobValue {
  unsigned long long num = 0;                               ///< kCount/kDuration
  bool flag = false;                                        ///< kBool
  double real = 0.0;                                        ///< kScale
  route::NetlistMode mode = route::NetlistMode::kIndependent;  ///< kMode
  std::vector<std::string> list;                            ///< kNets
};

struct ParsedArgs {
  std::vector<std::string> positionals;
  std::map<std::string, KnobValue> values;

  [[nodiscard]] const KnobValue* find(const char* key) const {
    const auto it = values.find(key);
    return it == values.end() ? nullptr : &it->second;
  }
};

/// Parses one knob value per its spec.  Every error message is derived
/// uniformly from `<verb> <key>` + the spec's range, so all verbs reject
/// with identical shapes.
KnobValue parse_knob(const KnobSpec& spec, const char* verb,
                     const std::string& value) {
  const std::string what = std::string(verb) + " " + spec.key;
  KnobValue out;
  switch (spec.type) {
    case KnobType::kCount: {
      const unsigned long long n = parse_count(value, what);
      if (spec.hi != kNoCap && (n < spec.lo || n > spec.hi)) {
        throw std::runtime_error(
            spec.lo == 0
                ? what + ": at most " + std::to_string(spec.hi)
                : what + ": must be " + std::to_string(spec.lo) + ".." +
                      std::to_string(spec.hi));
      }
      out.num = n;
      break;
    }
    case KnobType::kDuration:
      out.num = parse_duration_ms(value, what);
      break;
    case KnobType::kBool:
      if (value != "0" && value != "1") {
        throw std::runtime_error(what + " must be 0 or 1");
      }
      out.flag = value == "1";
      break;
    case KnobType::kMode:
      if (value == "independent") {
        out.mode = route::NetlistMode::kIndependent;
      } else if (value == "sequential") {
        out.mode = route::NetlistMode::kSequential;
      } else {
        throw std::runtime_error(what + " must be independent or sequential, "
                                 "got '" + value + "'");
      }
      break;
    case KnobType::kScale: {
      // The charset filter pins the grammar (no signs, exponents, inf/nan,
      // whitespace); the pos check then rejects tokens std::stod would
      // silently truncate to a numeric prefix, like "1.2.3".
      if (value.empty() ||
          value.find_first_not_of("0123456789.") != std::string::npos) {
        throw std::runtime_error(what + ": expected a number, got '" + value +
                                 "'");
      }
      double s = 0.0;
      std::size_t pos = 0;
      try {
        s = std::stod(value, &pos);
      } catch (const std::out_of_range&) {
        throw std::runtime_error(what + ": value out of range");
      } catch (const std::exception&) {
        throw std::runtime_error(what + ": expected a number, got '" + value +
                                 "'");
      }
      if (pos != value.size()) {
        throw std::runtime_error(what + ": expected a number, got '" + value +
                                 "'");
      }
      if (!(s >= 0.0625 && s <= 64.0)) {
        throw std::runtime_error(what + ": must be in [0.0625, 64]");
      }
      out.real = s;
      break;
    }
    case KnobType::kNets:
      out.list = split_net_list(value, what);
      break;
  }
  return out;
}

/// The generic tokenizer/validator every verb shares: positional arity,
/// key=value shape, knob lookup, per-type value validation, required-knob
/// presence.  Word order is preserved — the first malformed word wins.
ParsedArgs parse_args(const VerbSpec& verb, const std::string& args) {
  const std::vector<std::string> words = split_words(args);
  if (words.size() < verb.min_args) {
    throw std::runtime_error(std::string(verb.name) + " needs " +
                             verb.args_doc);
  }
  ParsedArgs out;
  out.positionals.assign(words.begin(),
                         words.begin() + static_cast<std::ptrdiff_t>(
                                             verb.min_args));
  for (std::size_t i = verb.min_args; i < words.size(); ++i) {
    const std::string& w = words[i];
    const std::size_t eq = w.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == w.size()) {
      throw std::runtime_error(std::string(verb.name) + " option '" + w +
                               "' is not of the form key=value");
    }
    const std::string key = w.substr(0, eq);
    const std::string value = w.substr(eq + 1);
    const KnobSpec* spec = nullptr;
    for (const KnobSpec& k : verb.knobs) {
      if (key == k.key) {
        spec = &k;
        break;
      }
    }
    if (spec == nullptr) {
      throw std::runtime_error(std::string(verb.name) + ": unknown option '" +
                               key + "'");
    }
    if (spec->reject_msg != nullptr) {
      throw std::runtime_error(spec->reject_msg);
    }
    out.values.insert_or_assign(key, parse_knob(*spec, verb.name, value));
  }
  for (const KnobSpec& k : verb.knobs) {
    if (k.required && out.values.find(k.key) == out.values.end()) {
      throw std::runtime_error(std::string(verb.name) + " needs " + k.key +
                               "=" + k.missing_doc);
    }
  }
  return out;
}

const VerbSpec& verb_for(CommandKind kind) {
  for (const VerbSpec& v : verb_table()) {
    if (v.kind == kind) return v;
  }
  throw std::logic_error("verb_table: no row for command kind");
}

// Table-row factories: KnobSpec/VerbSpec carry defaulted fields, and the
// build treats partially-designated aggregate init as an error.
KnobSpec knob(const char* key, KnobType type = KnobType::kCount,
              unsigned long long lo = 0, unsigned long long hi = kNoCap) {
  KnobSpec k;
  k.key = key;
  k.type = type;
  k.lo = lo;
  k.hi = hi;
  return k;
}

KnobSpec required(KnobSpec k, const char* missing_doc) {
  k.required = true;
  k.missing_doc = missing_doc;
  return k;
}

KnobSpec rejected(const char* key, const char* msg) {
  KnobSpec k;
  k.key = key;
  k.reject_msg = msg;
  return k;
}

VerbSpec verb(const char* name, CommandKind kind, std::size_t min_args = 0,
              const char* args_doc = "", std::vector<KnobSpec> knobs = {}) {
  VerbSpec v;
  v.name = name;
  v.kind = kind;
  v.min_args = min_args;
  v.args_doc = args_doc;
  v.knobs = std::move(knobs);
  return v;
}

}  // namespace

const std::vector<VerbSpec>& verb_table() {
  static const std::vector<VerbSpec> table = [] {
    const KnobSpec deadline = knob("deadline_ms", KnobType::kDuration);
    // trace=1 asks the server to echo the span breakdown in the response
    // meta; accepted by every verb that flows through the worker pool.
    const KnobSpec trace = knob("trace", KnobType::kBool);
    std::vector<VerbSpec> t;
    t.push_back(verb("HELLO", CommandKind::kHello));
    // LOAD's byte count is parsed by parse_load_count (the body framing
    // needs it before any generic tokenization); the row classifies and
    // advertises the verb.
    t.push_back(verb("LOAD", CommandKind::kLoad, 1, "exactly one byte count"));
    t.push_back(verb("ROUTE", CommandKind::kRoute, 1, "a session key",
                     {knob("mode", KnobType::kMode),
                      knob("threads", KnobType::kCount, 0, 1024), deadline,
                      knob("sorted", KnobType::kBool),
                      knob("segments", KnobType::kBool),
                      knob("nets", KnobType::kNets), trace}));
    t.push_back(verb(
        "REROUTE", CommandKind::kReroute, 1, "a session key",
        {rejected("mode", "REROUTE is always sequential; mode= is not "
                          "accepted"),
         knob("threads", KnobType::kCount, 0, 1024), deadline,
         knob("sorted", KnobType::kBool), knob("segments", KnobType::kBool),
         required(knob("nets", KnobType::kNets),
                  "<name>[,<name>]... (the rip-up set)"),
         trace}));
    t.push_back(verb("OPTIMIZE", CommandKind::kOptimize, 1, "a session key",
                     {knob("passes", KnobType::kCount, 1, 1024),
                      knob("budget_ms", KnobType::kDuration), deadline,
                      knob("segments", KnobType::kBool), trace}));
    t.push_back(verb("DETAIL", CommandKind::kDetail, 1, "a session key",
                     {knob("window", KnobType::kCount, 1, 1'000'000),
                      knob("pitch", KnobType::kCount, 1, 1'000'000),
                      deadline, trace}));
    t.push_back(verb("CONGEST", CommandKind::kCongest, 1, "a session key",
                     {knob("penalty", KnobType::kCount, 0, 1'000'000'000),
                      knob("iterations", KnobType::kCount, 1, 64),
                      knob("wire_pitch", KnobType::kCount, 1, 1'000'000),
                      knob("max_gap", KnobType::kCount, 0, 1'000'000),
                      deadline, trace}));
    t.push_back(verb("VERIFY", CommandKind::kVerify, 1, "a session key",
                     {knob("all_routed", KnobType::kBool), deadline, trace}));
    t.push_back(verb("SVG", CommandKind::kSvg, 1, "a session key",
                     {knob("scale", KnobType::kScale),
                      knob("pins", KnobType::kBool),
                      knob("names", KnobType::kBool), deadline, trace}));
    t.push_back(verb("GEN", CommandKind::kGen, 1,
                     "a kind (floorplan, standard, or padring)",
                     {required(knob("seed"), "<n>"),
                      knob("cells", KnobType::kCount, 1, 4096),
                      knob("extent", KnobType::kCount, 64, 1'048'576),
                      knob("nets", KnobType::kCount, 0, 65'536),
                      knob("pads", KnobType::kCount, 1, 256)}));
    t.push_back(verb("PIN", CommandKind::kPin, 1,
                     "a session key or pin handle"));
    t.push_back(verb("UNPIN", CommandKind::kUnpin, 1, "a pin handle"));
    t.push_back(verb("COMMIT", CommandKind::kCommit, 1, "a pin handle",
                     {required(knob("nets", KnobType::kNets),
                               "<name>[,<name>]...")}));
    t.push_back(verb("UNCOMMIT", CommandKind::kUncommit, 1, "a pin handle",
                     {required(knob("nets", KnobType::kNets),
                               "<name>[,<name>]...")}));
    t.push_back(verb("SAVE", CommandKind::kSave, 2,
                     "a pin handle and a file name"));
    t.push_back(verb("STATS", CommandKind::kStats));
    t.push_back(verb("TRACE", CommandKind::kTrace, 0, "",
                     {knob("n", KnobType::kCount, 1, 256)}));
    t.push_back(verb("QUIT", CommandKind::kQuit));
    return t;
  }();
  return table;
}

ClassifiedCommand classify_command(const std::string& line) {
  ClassifiedCommand out;
  const std::size_t start = line.find_first_not_of(" \t");
  if (start == std::string::npos) return out;  // kBlank
  std::size_t end = line.find_first_of(" \t", start);
  if (end == std::string::npos) end = line.size();
  out.keyword = line.substr(start, end - start);
  out.args = line.substr(end);
  out.kind = CommandKind::kUnknown;
  for (const VerbSpec& v : verb_table()) {
    if (out.keyword == v.name) {
      out.kind = v.kind;
      break;
    }
  }
  return out;
}

namespace {

/// The knob -> field application every route-family verb shares.  A knob
/// its verb row does not list is never found, so the rows alone decide
/// what each verb accepts (REROUTE: nets= required, mode= rejected).
RouteRequest route_request(const ParsedArgs& pa) {
  RouteRequest req;
  req.session_key = pa.positionals[0];
  if (const KnobValue* v = pa.find("mode")) req.opts.mode = v->mode;
  if (const KnobValue* v = pa.find("threads")) {
    req.opts.threads = static_cast<unsigned>(v->num);
  }
  if (const KnobValue* v = pa.find("deadline_ms")) {
    req.deadline = std::chrono::milliseconds(v->num);
  }
  if (const KnobValue* v = pa.find("sorted")) {
    req.opts.sorted_dispatch = v->flag;
  }
  if (const KnobValue* v = pa.find("segments")) {
    req.opts.steiner.connect_to_segments = v->flag;
  }
  if (const KnobValue* v = pa.find("nets")) req.nets = v->list;
  if (const KnobValue* v = pa.find("trace")) req.trace = v->flag;
  return req;
}

}  // namespace

RouteRequest parse_route_command(const std::string& args) {
  return route_request(parse_args(verb_for(CommandKind::kRoute), args));
}

RouteRequest parse_reroute_command(const std::string& args) {
  RouteRequest req =
      route_request(parse_args(verb_for(CommandKind::kReroute), args));
  req.opts.mode = route::NetlistMode::kSequential;
  req.reroute = true;
  return req;
}

RouteRequest parse_optimize_command(const std::string& args) {
  const ParsedArgs pa = parse_args(verb_for(CommandKind::kOptimize), args);
  RouteRequest req = route_request(pa);
  req.optimize = true;
  req.opts.mode = route::NetlistMode::kSequential;
  if (const KnobValue* v = pa.find("passes")) {
    req.passes = static_cast<std::size_t>(v->num);
  }
  if (const KnobValue* v = pa.find("budget_ms")) {
    req.budget = std::chrono::milliseconds(v->num);
  }
  return req;
}

RouteRequest parse_stage_command(pipeline::StageKind kind,
                                 const std::string& args) {
  const CommandKind ck = kind == pipeline::StageKind::kDetail
                             ? CommandKind::kDetail
                         : kind == pipeline::StageKind::kCongest
                             ? CommandKind::kCongest
                         : kind == pipeline::StageKind::kVerify
                             ? CommandKind::kVerify
                             : CommandKind::kSvg;
  const ParsedArgs pa = parse_args(verb_for(ck), args);
  RouteRequest req = route_request(pa);
  pipeline::StageOptions sopts;
  sopts.kind = kind;
  if (const KnobValue* v = pa.find("window")) {
    sopts.channel_window = static_cast<geom::Coord>(v->num);
  }
  if (const KnobValue* v = pa.find("pitch")) {
    sopts.track_pitch = static_cast<geom::Coord>(v->num);
  }
  if (const KnobValue* v = pa.find("penalty")) {
    sopts.penalty_dbu = static_cast<geom::Cost>(v->num);
  }
  if (const KnobValue* v = pa.find("iterations")) {
    sopts.max_iterations = static_cast<std::size_t>(v->num);
  }
  if (const KnobValue* v = pa.find("wire_pitch")) {
    sopts.wire_pitch = static_cast<geom::Coord>(v->num);
  }
  if (const KnobValue* v = pa.find("max_gap")) {
    sopts.max_gap = static_cast<geom::Coord>(v->num);
  }
  if (const KnobValue* v = pa.find("all_routed")) {
    sopts.require_all_routed = v->flag;
  }
  if (const KnobValue* v = pa.find("scale")) sopts.scale = v->real;
  if (const KnobValue* v = pa.find("pins")) sopts.draw_pins = v->flag;
  if (const KnobValue* v = pa.find("names")) sopts.draw_cell_names = v->flag;
  req.stage = sopts;
  return req;
}

const char* to_string(GenCommand::Kind k) noexcept {
  switch (k) {
    case GenCommand::Kind::kFloorplan: return "floorplan";
    case GenCommand::Kind::kStandard: return "standard";
    case GenCommand::Kind::kPadring: return "padring";
  }
  return "?";
}

GenCommand parse_gen_command(const std::string& args) {
  const ParsedArgs pa = parse_args(verb_for(CommandKind::kGen), args);
  GenCommand cmd;
  const std::string& kind = pa.positionals[0];
  if (kind == "floorplan") {
    cmd.kind = GenCommand::Kind::kFloorplan;
  } else if (kind == "standard") {
    cmd.kind = GenCommand::Kind::kStandard;
  } else if (kind == "padring") {
    cmd.kind = GenCommand::Kind::kPadring;
  } else {
    throw std::runtime_error("GEN kind must be floorplan, standard, or "
                             "padring, got '" + kind + "'");
  }
  // seed= is required (enforced by the table): a defaulted seed would
  // silently alias every unseeded GEN onto one session.
  cmd.seed = pa.find("seed")->num;
  if (const KnobValue* v = pa.find("cells")) {
    cmd.cells = static_cast<std::size_t>(v->num);
  }
  if (const KnobValue* v = pa.find("extent")) {
    cmd.extent = static_cast<geom::Coord>(v->num);
  }
  if (const KnobValue* v = pa.find("nets")) {
    cmd.nets = static_cast<std::size_t>(v->num);
  }
  if (const KnobValue* v = pa.find("pads")) {
    cmd.pads = static_cast<std::size_t>(v->num);
  }
  return cmd;
}

PinRequest parse_pin_command(CommandKind kind, const std::string& args) {
  const ParsedArgs pa = parse_args(verb_for(kind), args);
  PinRequest req;
  req.key = pa.positionals[0];
  switch (kind) {
    case CommandKind::kPin:
      req.op = PinRequest::Op::kPin;
      break;
    case CommandKind::kUnpin:
      req.op = PinRequest::Op::kUnpin;
      break;
    case CommandKind::kCommit:
      req.op = PinRequest::Op::kCommit;
      req.nets = pa.find("nets")->list;
      break;
    case CommandKind::kUncommit:
      req.op = PinRequest::Op::kUncommit;
      req.nets = pa.find("nets")->list;
      break;
    case CommandKind::kSave:
      req.op = PinRequest::Op::kSave;
      req.save_name = pa.positionals[1];
      break;
    default:
      throw std::logic_error("parse_pin_command: not a pin verb");
  }
  return req;
}

std::string generate_workload_text(const GenCommand& cmd) {
  switch (cmd.kind) {
    case GenCommand::Kind::kFloorplan: {
      workload::FloorplanOptions fp;
      fp.cell_count = cmd.cells;
      fp.boundary = geom::Rect{0, 0, cmd.extent, cmd.extent};
      fp.seed = cmd.seed;
      return io::write_layout_string(workload::random_floorplan(fp));
    }
    case GenCommand::Kind::kStandard:
      return io::write_layout_string(
          workload::standard_workload(cmd.cells, cmd.extent, cmd.nets,
                                      cmd.seed));
    case GenCommand::Kind::kPadring: {
      layout::Layout lay = workload::standard_workload(
          cmd.cells, cmd.extent, cmd.nets, cmd.seed);
      workload::PadRingOptions pr;
      pr.pads_per_side = cmd.pads;
      pr.seed = cmd.seed + 3;  // seed..seed+2 are standard_workload's
      workload::add_pad_ring(lay, pr);
      return io::write_layout_string(lay);
    }
  }
  throw std::runtime_error("GEN: unhandled kind");
}

unsigned long long parse_load_count(const std::string& line) {
  const std::vector<std::string> words = split_words(line);
  if (words.size() != 2) {
    throw std::runtime_error("LOAD needs exactly one byte count");
  }
  return parse_count(words[1], "LOAD byte count");
}

std::string format_ok(const std::string& meta, const std::string& body) {
  std::string out = "OK " + std::to_string(body.size());
  if (!meta.empty()) {
    out += ' ';
    out += meta;
  }
  out += '\n';
  out += body;
  return out;
}

std::string format_err(const std::string& reason) {
  // The reason may echo untrusted request bytes: clamp to short printable
  // ASCII (terminal-escape and amplification defence, text_format-style)
  // and flatten whitespace so no embedded newline can fabricate frames.
  constexpr std::size_t kMaxReason = 256;
  std::string out = "ERR ";
  const std::size_t limit = std::min(reason.size(), kMaxReason);
  for (std::size_t i = 0; i < limit; ++i) {
    const unsigned char c = static_cast<unsigned char>(reason[i]);
    if (c == '\n' || c == '\r' || c == '\t') {
      out += ' ';
    } else {
      out += (c >= 0x20 && c < 0x7f) ? reason[i] : '?';
    }
  }
  if (reason.size() > limit) out += "...";
  out += '\n';
  return out;
}

std::string format_hello(std::uint64_t uptime_s) {
  std::string body;
  for (const VerbSpec& v : verb_table()) {
    body += "verb ";
    body += v.name;
    body += " args=" + std::to_string(v.min_args);
    std::string knobs;
    for (const KnobSpec& k : v.knobs) {
      if (k.reject_msg != nullptr) continue;  // rejected, not a capability
      if (!knobs.empty()) knobs += ',';
      knobs += k.key;
      if (k.required) knobs += '!';
    }
    if (!knobs.empty()) body += " knobs=" + knobs;
    body += '\n';
  }
  return format_ok(MetaBuilder()
                       .add("version", kProtocolVersion)
                       .add("verbs", verb_table().size())
                       .add("uptime_s", uptime_s)
                       .str(),
                   body);
}

std::string load_meta(const LayoutSession& session, bool cached) {
  return MetaBuilder()
      .add("session", session.key)
      .add("cells", session.layout.cells().size())
      .add("nets", session.layout.nets().size())
      .add("cached", cached ? 1 : 0)
      .str();
}

std::string meta_value(const std::string& meta, std::string_view key) {
  const std::string needle = " " + std::string(key) + "=";
  const std::size_t at = (" " + meta).find(needle);
  if (at == std::string::npos) return {};
  const std::size_t start = at + needle.size() - 1;  // index into meta
  return meta.substr(start, meta.find(' ', start) - start);
}

std::string format_response(const Response& resp) {
  if (!resp.ok()) return format_err(resp.error);
  MetaBuilder meta;
  meta.raw(resp.meta);
  if (resp.timed) {
    meta.add("queue_us", resp.trace.dequeue_us)
        .add("total_us", resp.trace.total_us);
  }
  std::string line = meta.str();
  if (resp.traced) line += resp.trace.render_meta();
  return format_ok(line, resp.body);
}

std::string exec_stats(RoutingService& service) {
  // The render itself is metered into the stats verb shard: STATS traffic
  // (dashboards poll it) must not hide in the global latency picture, and a
  // render that regresses shows up in the very body it produces.
  const auto begin = std::chrono::steady_clock::now();
  std::string out = format_ok("", service.stats_text());
  const auto end = std::chrono::steady_clock::now();
  service.record_verb_latency(
      VerbKind::kStats,
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(end - begin)
              .count()));
  return out;
}

std::size_t parse_trace_count(const std::string& args) {
  const ParsedArgs pa = parse_args(verb_for(CommandKind::kTrace), args);
  if (const KnobValue* v = pa.find("n")) {
    return static_cast<std::size_t>(v->num);
  }
  return 32;
}

std::string exec_trace(RoutingService& service, std::size_t n) {
  const std::vector<SlowRecord> records = service.slow_requests(n);
  std::ostringstream body;
  for (const SlowRecord& r : records) {
    const RequestTrace& t = r.trace;
    body << "trace " << r.id << " verb=" << to_string(r.verb)
         << " session=" << r.session << " status=" << r.status
         << " total_us=" << t.total_us << " queue_us="
         << (t.dequeue_us - t.enqueue_us) << " env_us="
         << (t.env_us - t.dequeue_us) << " exec_us="
         << (t.exec_us - t.env_us) << " finish_us="
         << (t.total_us - t.exec_us);
    for (const RequestTrace::Sub& sub : t.subs) {
      body << " sub_" << sub.label << "_us=" << sub.at_us;
    }
    body << '\n';
  }
  return format_ok(MetaBuilder()
                       .add("count", records.size())
                       .add("threshold_ms", service.slow_threshold_ms())
                       .str(),
                   body.str());
}

std::string format_pass_progress(const route::OptimizePassStats& stats) {
  std::ostringstream os;
  os << "PASS " << stats.pass << " wirelength=" << stats.wirelength
     << " overflow=" << stats.overflow << '\n';
  return os.str();
}

}  // namespace gcr::serve
