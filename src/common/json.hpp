#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace smiless::json {

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

  Value() : kind_(Kind::Null) {}
  Value(bool b) : kind_(Kind::Bool), bool_(b) {}
  Value(int v) : kind_(Kind::Int), int_(v) {}
  Value(long v) : kind_(Kind::Int), int_(v) {}
  Value(long long v) : kind_(Kind::Int), int_(v) {}
  Value(unsigned long long v) : kind_(Kind::Int), int_(static_cast<long long>(v)) {}
  Value(unsigned long v) : kind_(Kind::Int), int_(static_cast<long long>(v)) {}
  Value(double v) : kind_(Kind::Double), double_(v) {}
  Value(const char* s) : kind_(Kind::String), string_(s) {}
  Value(std::string s) : kind_(Kind::String), string_(std::move(s)) {}

  static Value array() {
    Value v;
    v.kind_ = Kind::Array;
    return v;
  }
  static Value object() {
    Value v;
    v.kind_ = Kind::Object;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }

  // --- object interface ----------------------------------------------------

  /// Insert-or-find a member; turns a Null value into an Object.
  Value& operator[](const std::string& key) {
    if (kind_ == Kind::Null) kind_ = Kind::Object;
    require(Kind::Object, "operator[] on non-object");
    for (auto& m : object_)
      if (m.first == key) return m.second;
    object_.emplace_back(key, Value{});
    return object_.back().second;
  }

  const Value* find(const std::string& key) const {
    if (kind_ != Kind::Object) return nullptr;
    for (const auto& m : object_)
      if (m.first == key) return &m.second;
    return nullptr;
  }

  const Object& members() const {
    require(Kind::Object, "members() on non-object");
    return object_;
  }

  // --- array interface -----------------------------------------------------

  void push_back(Value v) {
    if (kind_ == Kind::Null) kind_ = Kind::Array;
    require(Kind::Array, "push_back on non-array");
    array_.push_back(std::move(v));
  }

  const Array& items() const {
    require(Kind::Array, "items() on non-array");
    return array_;
  }

  // --- typed getters (with the "inf"/"nan" string convention) --------------

  bool as_bool() const {
    if (kind_ == Kind::Bool) return bool_;
    if (kind_ == Kind::Int) return int_ != 0;
    throw std::runtime_error("json: expected bool");
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
    bool integral = kind_ == Kind::Int;
    long long v = int_;
    if (kind_ == Kind::Double && double_ == std::trunc(double_) && double_ >= -kTwo63 &&
        double_ < kTwo63) {
      integral = true;
      v = static_cast<long long>(double_);
    }
    if (integral && v >= lo && v <= hi) return v;
    std::string shown = dump();
    if (kind_ == Kind::Double && shown.front() == '"') shown = shown.substr(1, shown.size() - 2);
    std::string msg = "json: ";
    if (!key.empty()) msg += "'" + std::string(key) + "': ";
    throw std::runtime_error(msg + "expected an integer in [" + std::to_string(lo) + ", " +
                             std::to_string(hi) + "], got " + shown);
  }

  double as_double() const {
    if (kind_ == Kind::Double) return double_;
    if (kind_ == Kind::Int) return static_cast<double>(int_);
    if (kind_ == Kind::String) {
      if (string_ == "inf") return std::numeric_limits<double>::infinity();
      if (string_ == "-inf") return -std::numeric_limits<double>::infinity();
      if (string_ == "nan") return std::numeric_limits<double>::quiet_NaN();
    }
    throw std::runtime_error("json: expected number");
  }

  const std::string& as_string() const {
    if (kind_ != Kind::String) throw std::runtime_error("json: expected string");
    return string_;
  }

  /// Getters for optional object members: the default wins when the key is
  /// absent, so old config files keep loading as the schema grows.
  double get(const std::string& key, double def) const {
    const Value* v = find(key);
    return v == nullptr ? def : v->as_double();
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
    return v == nullptr ? def : v->as_bool();
  }
  std::string get(const std::string& key, const std::string& def) const {
    const Value* v = find(key);
    return v == nullptr ? def : v->as_string();
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
    write(out, indent, 0);
    return out;
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

  /// Shortest decimal string that round-trips the double exactly.
  static std::string format_double(double v) {
    if (std::isnan(v)) return "\"nan\"";
    if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
    char buf[40];
    // Integral doubles print as "N.0" — friendlier in config files than the
    // "1.2e+02" a shortest-digits search would pick for 120.
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
      std::snprintf(buf, sizeof(buf), "%.1f", v);
      return buf;
    }
    for (int prec = 1; prec <= 17; ++prec) {
      std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
      if (std::strtod(buf, nullptr) == v) break;
    }
    std::string s(buf);
    // Ensure the token reads back as a double-typed value.
    if (s.find_first_of(".eE") == std::string::npos &&
        s.find_first_of("n") == std::string::npos)
      s += ".0";
    return s;
  }

 private:
  void require(Kind k, const char* what) const {
    if (kind_ != k) throw std::runtime_error(std::string("json: ") + what);
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

  void write(std::string& out, int indent, int depth) const {
    const auto newline = [&](int d) {
      if (indent <= 0) return;
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    };
    switch (kind_) {
      case Kind::Null: out += "null"; break;
      case Kind::Bool: out += bool_ ? "true" : "false"; break;
      case Kind::Int: out += std::to_string(int_); break;
      case Kind::Double: out += format_double(double_); break;
      case Kind::String: write_string(out, string_); break;
      case Kind::Array: {
        if (array_.empty()) {
          out += "[]";
          break;
        }
        out += '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
          if (i > 0) out += ',';
          newline(depth + 1);
          array_[i].write(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      }
      case Kind::Object: {
        if (object_.empty()) {
          out += "{}";
          break;
        }
        out += '{';
        for (std::size_t i = 0; i < object_.size(); ++i) {
          if (i > 0) out += ',';
          newline(depth + 1);
          write_string(out, object_[i].first);
          out += indent > 0 ? ": " : ":";
          object_[i].second.write(out, indent, depth + 1);
        }
        newline(depth);
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

  Kind kind_;
  bool bool_ = false;
  long long int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
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

/// Write `v.dump(indent)` plus a trailing newline to `path`.
inline void save_file(const Value& v, const std::string& path, int indent = 2) {
  std::ofstream os(path);
  if (!os.good()) throw std::runtime_error("json: cannot write " + path);
  os << v.dump(indent) << "\n";
}

}  // namespace smiless::json
