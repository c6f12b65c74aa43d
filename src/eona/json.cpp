#include "eona/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace eona::core {

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

JsonValue JsonValue::boolean(bool v) {
  JsonValue value;
  value.kind_ = Kind::kBool;
  value.bool_ = v;
  return value;
}
JsonValue JsonValue::number(double v) {
  JsonValue value;
  value.kind_ = Kind::kNumber;
  value.number_ = v;
  return value;
}
JsonValue JsonValue::string(std::string v) {
  JsonValue value;
  value.kind_ = Kind::kString;
  value.string_ = std::move(v);
  return value;
}
JsonValue JsonValue::array() {
  JsonValue value;
  value.kind_ = Kind::kArray;
  return value;
}
JsonValue JsonValue::object() {
  JsonValue value;
  value.kind_ = Kind::kObject;
  return value;
}

namespace {
[[noreturn]] void kind_error(const char* want) {
  throw CodecError(std::string("json: expected ") + want);
}
}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool");
  return bool_;
}
double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("number");
  return number_;
}
const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("string");
  return string_;
}
const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("array");
  return array_;
}
const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) kind_error("object");
  return object_;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ != Kind::kArray) kind_error("array");
  array_.push_back(std::move(v));
}
void JsonValue::set(const std::string& key, JsonValue v) {
  if (kind_ != Kind::kObject) kind_error("object");
  object_[key] = std::move(v);
}
const JsonValue& JsonValue::at(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) throw CodecError("json: missing field '" + key + "'");
  return it->second;
}
bool JsonValue::has(const std::string& key) const {
  return as_object().count(key) > 0;
}

// --- serialisation -----------------------------------------------------------

namespace {

void escape_into(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void number_into(std::ostringstream& out, double v) {
  if (!std::isfinite(v)) throw CodecError("json: non-finite number");
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    out << static_cast<long long>(v);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << buf;
  }
}

void dump_into(std::ostringstream& out, const JsonValue& value, int indent,
               int depth) {
  auto pad = [&](int d) {
    if (indent > 0) {
      out << '\n';
      for (int i = 0; i < indent * d; ++i) out << ' ';
    }
  };
  switch (value.kind()) {
    case JsonValue::Kind::kNull: out << "null"; break;
    case JsonValue::Kind::kBool: out << (value.as_bool() ? "true" : "false"); break;
    case JsonValue::Kind::kNumber: number_into(out, value.as_number()); break;
    case JsonValue::Kind::kString: escape_into(out, value.as_string()); break;
    case JsonValue::Kind::kArray: {
      const auto& items = value.as_array();
      if (items.empty()) {
        out << "[]";
        break;
      }
      out << '[';
      bool first = true;
      for (const auto& item : items) {
        if (!first) out << ',';
        first = false;
        pad(depth + 1);
        dump_into(out, item, indent, depth + 1);
      }
      pad(depth);
      out << ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      const auto& fields = value.as_object();
      if (fields.empty()) {
        out << "{}";
        break;
      }
      out << '{';
      bool first = true;
      for (const auto& [key, item] : fields) {
        if (!first) out << ',';
        first = false;
        pad(depth + 1);
        escape_into(out, key);
        out << (indent > 0 ? ": " : ":");
        dump_into(out, item, indent, depth + 1);
      }
      pad(depth);
      out << '}';
      break;
    }
  }
}

}  // namespace

std::string JsonValue::dump(int indent) const {
  std::ostringstream out;
  dump_into(out, *this, indent, 0);
  return out.str();
}

// --- parsing -------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue run() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw CodecError("json: trailing garbage");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) throw CodecError("json: unexpected end");
    return text_[pos_];
  }

  char take() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c)
      throw CodecError(std::string("json: expected '") + c + "'");
  }

  void expect_literal(const char* literal) {
    for (const char* p = literal; *p; ++p) expect(*p);
  }

  JsonValue parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::string(parse_string());
      case 't':
        expect_literal("true");
        return JsonValue::boolean(true);
      case 'f':
        expect_literal("false");
        return JsonValue::boolean(false);
      case 'n':
        expect_literal("null");
        return JsonValue{};
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      take();
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      char c = take();
      if (c == '}') return obj;
      if (c != ',') throw CodecError("json: expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      take();
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      char c = take();
      if (c == ']') return arr;
      if (c != ',') throw CodecError("json: expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        char esc = take();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else throw CodecError("json: bad \\u escape");
            }
            if (code > 0x7F)
              throw CodecError("json: non-ASCII \\u escape unsupported");
            out += static_cast<char>(code);
            break;
          }
          default: throw CodecError("json: bad escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        throw CodecError("json: raw control character in string");
      } else {
        out += c;
      }
    }
  }

  JsonValue parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      std::size_t before = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
      if (pos_ == before) throw CodecError("json: bad number");
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      digits();
    }
    return JsonValue::number(std::stod(text_.substr(start, pos_ - start)));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).run();
}

}  // namespace eona::core
