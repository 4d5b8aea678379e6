#pragma once

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <variant>
#include <vector>

#include "common/output_file.hpp"

namespace smiless::json {

class ArrayWriter;

/// Minimal JSON document model used by the experiment-config layer. Objects
/// preserve insertion order so that dumping a parsed document (or a config
/// built in a fixed code path) is byte-stable — the sweep runner's
/// "parallel == serial" contract compares emitted JSON for exact equality.
///
/// Non-finite numbers (which JSON cannot represent) dump as the strings
/// "inf" / "-inf" / "nan"; the typed getters below convert them back, so an
/// infinite timeout round-trips through a config file.
class Value {
 public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  using Array = std::vector<Value>;
  using Member = std::pair<std::string, Value>;
  using Object = std::vector<Member>;

  Value() = default;
  Value(bool b) : v_(std::in_place_type<bool>, b) {}
  Value(int v) : v_(std::in_place_type<long long>, v) {}
  Value(long v) : v_(std::in_place_type<long long>, v) {}
  Value(long long v) : v_(std::in_place_type<long long>, v) {}
  Value(unsigned long long v) : v_(std::in_place_type<long long>, static_cast<long long>(v)) {}
  Value(unsigned long v) : v_(std::in_place_type<long long>, static_cast<long long>(v)) {}
  Value(double v) : v_(std::in_place_type<double>, v) {}
  Value(const char* s) : v_(std::in_place_type<std::string>, s) {}
  Value(std::string s) : v_(std::in_place_type<std::string>, std::move(s)) {}
  /// An object with exactly these members, in this order (keys are not
  /// checked for duplicates).
  explicit Value(Object members) : v_(std::in_place_type<Object>, std::move(members)) {}

  static Value array() {
    Value v;
    v.v_.emplace<Array>();
    return v;
  }
  static Value object() {
    Value v;
    v.v_.emplace<Object>();
    return v;
  }

  Kind kind() const { return static_cast<Kind>(v_.index()); }
  bool is_null() const { return kind() == Kind::Null; }
  bool is_object() const { return kind() == Kind::Object; }
  bool is_array() const { return kind() == Kind::Array; }

  // --- object interface ----------------------------------------------------

  /// Insert-or-find a member; turns a Null value into an Object.
  Value& operator[](const std::string& key) {
    if (is_null()) v_.emplace<Object>();
    require(Kind::Object, "operator[] on non-object");
    Object& members = std::get<Object>(v_);
    for (auto& m : members)
      if (m.first == key) return m.second;
    members.emplace_back(key, Value{});
    return members.back().second;
  }

  const Value* find(const std::string& key) const {
    const Object* members = std::get_if<Object>(&v_);
    if (members == nullptr) return nullptr;
    for (const auto& m : *members)
      if (m.first == key) return &m.second;
    return nullptr;
  }

  const Object& members() const {
    require(Kind::Object, "members() on non-object");
    return std::get<Object>(v_);
  }

  // --- array interface -----------------------------------------------------

  // g++ 12 warns, falsely, that moving a variant just built as a number
  // reads the other alternatives' bytes (-Wmaybe-uninitialized at every
  // push_back(Value(x)) call site).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  void push_back(Value v) {
    if (is_null()) v_.emplace<Array>();
    require(Kind::Array, "push_back on non-array");
    std::get<Array>(v_).push_back(std::move(v));
  }
#pragma GCC diagnostic pop

  /// The elements; throws unless this is an array, naming `key` (when
  /// given) and the value.
  const Array& items(std::string_view key = {}) const {
    if (const Array* a = std::get_if<Array>(&v_)) return *a;
    type_error(key, "an array");
  }

  // --- typed getters (with the "inf"/"nan" string convention) --------------
  //
  // Each throws on a value of the wrong type, naming `key` (when given) and
  // the value: `json: 'sla': expected a number, got "fast"`.

  bool as_bool(std::string_view key = {}) const {
    if (const bool* b = std::get_if<bool>(&v_)) return *b;
    if (const long long* i = std::get_if<long long>(&v_)) return *i != 0;
    type_error(key, "a bool");
  }

  /// The value as an integer in [lo, hi]. A double converts only when it
  /// is integral and a long long holds it; anything else throws, naming
  /// `key` (when given) and the value. Casting 1e999 or 1e30 to an integer
  /// would be undefined behaviour, and casting 7.9 would truncate silently.
  long long as_int(std::string_view key = {},
                   long long lo = std::numeric_limits<long long>::min(),
                   long long hi = std::numeric_limits<long long>::max()) const {
    // [-2^63, 2^63) are exactly the doubles a long long holds; both bounds
    // are powers of two, so the comparisons are exact. NaN fails them all.
    constexpr double kTwo63 = 9223372036854775808.0;
    const long long* i = std::get_if<long long>(&v_);
    const double* d = std::get_if<double>(&v_);
    bool integral = i != nullptr;
    long long v = integral ? *i : 0;
    if (d != nullptr && *d == std::trunc(*d) && *d >= -kTwo63 && *d < kTwo63) {
      integral = true;
      v = static_cast<long long>(*d);
    }
    if (integral && v >= lo && v <= hi) return v;
    type_error(key, "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }

  double as_double(std::string_view key = {}) const {
    if (const double* d = std::get_if<double>(&v_)) return *d;
    if (const long long* i = std::get_if<long long>(&v_)) return static_cast<double>(*i);
    if (const std::string* s = std::get_if<std::string>(&v_)) {
      if (*s == "inf") return std::numeric_limits<double>::infinity();
      if (*s == "-inf") return -std::numeric_limits<double>::infinity();
      if (*s == "nan") return std::numeric_limits<double>::quiet_NaN();
    }
    type_error(key, "a number");
  }

  const std::string& as_string(std::string_view key = {}) const {
    if (const std::string* s = std::get_if<std::string>(&v_)) return *s;
    type_error(key, "a string");
  }

  /// Getters for optional object members: the default wins when the key is
  /// absent, so old config files keep loading as the schema grows.
  double get(const std::string& key, double def) const {
    const Value* v = find(key);
    return v == nullptr ? def : v->as_double(key);
  }
  long long get(const std::string& key, long long def) const {
    const Value* v = find(key);
    return v == nullptr ? def : v->as_int(key);
  }
  int get(const std::string& key, int def) const {
    const Value* v = find(key);
    return v == nullptr ? def
                        : static_cast<int>(v->as_int(key, std::numeric_limits<int>::min(),
                                                     std::numeric_limits<int>::max()));
  }
  bool get(const std::string& key, bool def) const {
    const Value* v = find(key);
    return v == nullptr ? def : v->as_bool(key);
  }
  std::string get(const std::string& key, const std::string& def) const {
    const Value* v = find(key);
    return v == nullptr ? def : v->as_string(key);
  }
  std::string get(const std::string& key, const char* def) const {
    return get(key, std::string(def));
  }

  // --- serialization -------------------------------------------------------

  /// Render the document. `indent > 0` pretty-prints; the output for a given
  /// document is byte-stable (object order preserved, shortest round-trip
  /// number formatting).
  std::string dump(int indent = 0) const {
    std::string out;
    write(out, nullptr, indent, 0);
    return out;
  }

  /// dump(indent) into `os`, 64 KiB at a time, so that a large document (a
  /// sweep's Perfetto trace runs to tens of MB) never exists as one string.
  void dump(std::ostream& os, int indent = 0) const {
    std::string out;
    write(out, &os, indent, 0);
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
  }

  /// parse() accepts arrays and objects nested at most this deep. The
  /// parser recurses once per level, so an unbounded depth would let a
  /// hostile document overflow the stack; no real config comes close.
  static constexpr int kMaxDepth = 256;

  static Value parse(const std::string& text) {
    Parser p{text, 0};
    Value v = p.parse_value();
    p.skip_ws();
    if (p.pos != text.size()) p.fail("trailing characters");
    return v;
  }

  /// The shortest "%.*g" rendering that reads back as `v` exactly, or
  /// "%.1f" when `v` is integral and |v| < 1e15 ("120.0" reads better in a
  /// config file than "1.2e+02"). Non-finite values are the quoted strings
  /// "inf", "-inf" and "nan".
  static std::string format_double(double v) {
    std::string out;
    append_double(out, v);
    return out;
  }

 private:
  friend class ArrayWriter;

  // One alternative per Kind, in Kind order, so kind() is the index.
  using Storage =
      std::variant<std::monostate, bool, long long, double, std::string, Array, Object>;

  void require(Kind k, const char* what) const {
    if (kind() != k) throw std::runtime_error(std::string("json: ") + what);
  }

  /// Throw `json: ['key': ]expected <what>, got <value>`.
  [[noreturn]] void type_error(std::string_view key, const std::string& what) const {
    std::string shown = dump();
    // A non-finite double dumps as a quoted string; show it bare.
    if (kind() == Kind::Double && shown.front() == '"') shown = shown.substr(1, shown.size() - 2);
    std::string msg = "json: ";
    if (!key.empty()) msg += "'" + std::string(key) + "': ";
    throw std::runtime_error(msg + "expected " + what + ", got " + shown);
  }

  /// Append format_double(v) to `out`. The "%.*g" search starts at the
  /// digit count of the shortest round-trip form (std::to_chars without a
  /// precision): no "%.*g" with fewer digits can read back as `v`, so the
  /// first step usually succeeds. std::to_chars with a precision is
  /// printf's "%.*g", and std::from_chars rounds correctly like strtod, so
  /// the result is the one a search from one digit up finds.
  static void append_double(std::string& out, double v) {
    if (!std::isfinite(v)) {
      out += std::isnan(v) ? "\"nan\"" : v > 0 ? "\"inf\"" : "\"-inf\"";
      return;
    }
    char buf[40];
    char* const last = buf + sizeof(buf);
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
      out.append(buf, std::to_chars(buf, last, v, std::chars_format::fixed, 1).ptr);
      return;
    }
    const char* const shortest = std::to_chars(buf, last, v, std::chars_format::scientific).ptr;
    int prec = 0;
    for (const char* p = buf; p != shortest && *p != 'e'; ++p)
      if (*p >= '0' && *p <= '9') ++prec;
    char* end = buf;
    for (;; ++prec) {
      end = std::to_chars(buf, last, v, std::chars_format::general, prec).ptr;
      double back = 0.0;
      if ((std::from_chars(buf, end, back).ec == std::errc() && back == v) || prec >= 17) break;
    }
    out.append(buf, end);
    // Ensure the token reads back as a double-typed value.
    if (std::string_view(buf, static_cast<std::size_t>(end - buf)).find_first_of(".e") ==
        std::string_view::npos)
      out += ".0";
  }

  static void write_string(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
  }

  /// Start a line at `depth` levels of `indent` (nothing when compact).
  static void newline(std::string& out, int indent, int depth) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
  }

  /// With `os` given, hand it `out` once `out` holds 64 KiB.
  static void hand_off(std::string& out, std::ostream* os) {
    if (os == nullptr || out.size() < (std::size_t{1} << 16)) return;
    os->write(out.data(), static_cast<std::streamsize>(out.size()));
    out.clear();
  }

  /// Append the document to `out`; with `os` given, hand `out` to it after
  /// any element that takes it past 64 KiB.
  void write(std::string& out, std::ostream* os, int indent, int depth) const {
    switch (kind()) {
      case Kind::Null: out += "null"; break;
      case Kind::Bool: out += std::get<bool>(v_) ? "true" : "false"; break;
      case Kind::Int: {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), std::get<long long>(v_)).ptr);
        break;
      }
      case Kind::Double: append_double(out, std::get<double>(v_)); break;
      case Kind::String: write_string(out, std::get<std::string>(v_)); break;
      case Kind::Array: {
        const Array& array = std::get<Array>(v_);
        if (array.empty()) {
          out += "[]";
          break;
        }
        out += '[';
        for (std::size_t i = 0; i < array.size(); ++i) {
          if (i > 0) out += ',';
          newline(out, indent, depth + 1);
          array[i].write(out, os, indent, depth + 1);
          hand_off(out, os);
        }
        newline(out, indent, depth);
        out += ']';
        break;
      }
      case Kind::Object: {
        const Object& object = std::get<Object>(v_);
        if (object.empty()) {
          out += "{}";
          break;
        }
        out += '{';
        for (std::size_t i = 0; i < object.size(); ++i) {
          if (i > 0) out += ',';
          newline(out, indent, depth + 1);
          write_string(out, object[i].first);
          out += indent > 0 ? ": " : ":";
          object[i].second.write(out, os, indent, depth + 1);
          hand_off(out, os);
        }
        newline(out, indent, depth);
        out += '}';
        break;
      }
    }
  }

  struct Parser {
    const std::string& text;
    std::size_t pos;
    int depth = 0;

    [[noreturn]] void fail(const std::string& what) const {
      throw std::runtime_error("json parse error at offset " + std::to_string(pos) + ": " +
                               what);
    }

    void skip_ws() {
      while (pos < text.size() &&
             std::isspace(static_cast<unsigned char>(text[pos])))
        ++pos;
    }

    char peek() {
      skip_ws();
      if (pos >= text.size()) fail("unexpected end of input");
      return text[pos];
    }

    void expect(char c) {
      if (peek() != c) fail(std::string("expected '") + c + "'");
      ++pos;
    }

    bool consume(const char* lit) {
      const std::size_t n = std::strlen(lit);
      if (text.compare(pos, n, lit) != 0) return false;
      pos += n;
      return true;
    }

    /// Parse one array or object, failing past kMaxDepth levels.
    Value parse_nested(Value (Parser::*parse)()) {
      if (++depth > kMaxDepth)
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      Value v = (this->*parse)();
      --depth;
      return v;
    }

    Value parse_value() {
      switch (peek()) {
        case '{': return parse_nested(&Parser::parse_object);
        case '[': return parse_nested(&Parser::parse_array);
        case '"': return Value(parse_string());
        case 't':
          if (consume("true")) return Value(true);
          fail("bad literal");
        case 'f':
          if (consume("false")) return Value(false);
          fail("bad literal");
        case 'n':
          if (consume("null")) return Value();
          fail("bad literal");
        default: return parse_number();
      }
    }

    Value parse_object() {
      expect('{');
      Value out = Value::object();
      if (peek() == '}') {
        ++pos;
        return out;
      }
      while (true) {
        if (peek() != '"') fail("expected member name");
        std::string key = parse_string();
        expect(':');
        out[key] = parse_value();
        const char c = peek();
        ++pos;
        if (c == '}') return out;
        if (c != ',') fail("expected ',' or '}'");
      }
    }

    Value parse_array() {
      expect('[');
      Value out = Value::array();
      if (peek() == ']') {
        ++pos;
        return out;
      }
      while (true) {
        out.push_back(parse_value());
        const char c = peek();
        ++pos;
        if (c == ']') return out;
        if (c != ',') fail("expected ',' or ']'");
      }
    }

    std::string parse_string() {
      expect('"');
      std::string out;
      while (pos < text.size()) {
        const char c = text[pos++];
        if (c == '"') return out;
        if (c != '\\') {
          out += c;
          continue;
        }
        if (pos >= text.size()) fail("bad escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos + 4 > text.size()) fail("bad \\u escape");
            const unsigned code =
                static_cast<unsigned>(std::strtoul(text.substr(pos, 4).c_str(), nullptr, 16));
            pos += 4;
            // ASCII-only escapes are what we emit; pass others through UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape");
        }
      }
      fail("unterminated string");
    }

    Value parse_number() {
      const std::size_t start = pos;
      bool is_double = false;
      if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
      while (pos < text.size()) {
        const char c = text[pos];
        if (std::isdigit(static_cast<unsigned char>(c))) {
          ++pos;
        } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
          is_double = true;
          ++pos;
        } else {
          break;
        }
      }
      if (pos == start) fail("expected value");
      const std::string tok = text.substr(start, pos - start);
      if (is_double) return Value(std::strtod(tok.c_str(), nullptr));
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(tok.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') fail("bad number");
      if (errno == ERANGE) fail("integer " + tok + " does not fit in 64 bits");
      return Value(v);
    }
  };

  Storage v_;
};

/// Throw unless `v` is an object whose every key is one of `known`. Each
/// config reader calls this first, so a misspelt key is an error naming the
/// key and the object (`json: unknown key 'seeed' in config`) instead of a
/// knob that silently keeps its default.
inline void expect_keys(const Value& v, const std::string& object,
                        std::initializer_list<std::string_view> known) {
  if (!v.is_object()) throw std::runtime_error("json: " + object + " must be an object");
  for (const Value::Member& m : v.members()) {
    bool found = false;
    for (const std::string_view k : known) found = found || k == m.first;
    if (!found) throw std::runtime_error("json: unknown key '" + m.first + "' in " + object);
  }
}

/// Throw `json: 'key' must be <rule>, got <value>`: a config reader's
/// error for a number of the right type but out of range.
[[noreturn]] inline void reject(std::string_view key, const std::string& rule, double got) {
  std::string shown = Value::format_double(got);
  if (shown.front() == '"') shown = shown.substr(1, shown.size() - 2);
  throw std::runtime_error("json: '" + std::string(key) + "' must be " + rule + ", got " + shown);
}

/// Read a whole file into a parsed document; throws std::runtime_error with
/// the path on failure.
inline Value load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) throw std::runtime_error("json: cannot read " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  try {
    return Value::parse(buf.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

/// Write `v.dump(indent)` plus a trailing newline to `path`; throws
/// `cannot write <path>` unless every byte reached the file.
inline void save_file(const Value& v, const std::string& path, int indent = 2) {
  OutputFile file(path);
  v.dump(file.stream(), indent);
  file.stream() << "\n";
  file.close();
}

/// Receives values one at a time: the elements of an array that a
/// producer streams instead of building it whole.
using Sink = std::function<void(Value&&)>;

/// Writes one array to `path` an element at a time, so that a document of
/// any length costs about one element of memory. The file receives exactly
/// the bytes save_file writes for the whole array or, given a `key`, for
/// the object {key: array}; each element goes through Value::write and the
/// same 64 KiB hand-off. close() finishes the document; a writer destroyed
/// without it leaves the file truncated.
class ArrayWriter {
 public:
  explicit ArrayWriter(const std::string& path, const std::string& key = "")
      : file_(path), depth_(key.empty() ? 0 : 1) {
    if (!key.empty()) {
      out_ += '{';
      Value::newline(out_, kIndent, 1);
      Value::write_string(out_, key);
      out_ += ": ";
    }
    out_ += '[';
  }

  /// Append `element`; nothing of it is kept once this returns.
  void push(const Value& element) {
    if (count_++ > 0) out_ += ',';
    Value::newline(out_, kIndent, depth_ + 1);
    element.write(out_, &file_.stream(), kIndent, depth_ + 1);
    Value::hand_off(out_, &file_.stream());
  }

  /// Close the array (and the object), end with a newline and close the
  /// file; throws `cannot write <path>` unless every byte reached it.
  void close() {
    if (count_ > 0) Value::newline(out_, kIndent, depth_);
    out_ += ']';
    if (depth_ > 0) {
      Value::newline(out_, kIndent, 0);
      out_ += '}';
    }
    out_ += '\n';
    file_.stream().write(out_.data(), static_cast<std::streamsize>(out_.size()));
    file_.close();
  }

 private:
  static constexpr int kIndent = 2;  ///< save_file's default

  OutputFile file_;
  std::string out_;
  int depth_;  ///< the array's own depth: 0 bare, 1 as the key's value
  std::size_t count_ = 0;
};

}  // namespace smiless::json
