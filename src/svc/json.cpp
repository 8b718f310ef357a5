#include "svc/json.h"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace ctaver::svc {

namespace {

const Json& null_value() {
  static const Json* v = new Json;
  return *v;
}

}  // namespace

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(const char* w) {
    std::size_t n = 0;
    while (w[n] != '\0') ++n;
    if (text_.compare(pos_, n, w) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Json v;
        v.type_ = Json::Type::kString;
        v.str_ = parse_string();
        return v;
      }
      case 't':
        if (!consume_word("true")) fail("bad literal");
        {
          Json v;
          v.type_ = Json::Type::kBool;
          v.bool_ = true;
          return v;
        }
      case 'f':
        if (!consume_word("false")) fail("bad literal");
        {
          Json v;
          v.type_ = Json::Type::kBool;
          return v;
        }
      case 'n':
        if (!consume_word("null")) fail("bad literal");
        return {};
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json v;
    v.type_ = Json::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object_[key] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json parse_array() {
    expect('[');
    Json v;
    v.type_ = Json::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode (the protocol only emits \u for control chars, but
          // accept the full BMP; surrogate pairs are passed through raw).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  /// RFC 8259: [ "-" ] ( "0" / [1-9] *DIGIT ) [ "." 1*DIGIT ]
  /// [ ( "e" / "E" ) [ "-" / "+" ] 1*DIGIT ].
  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else if (!digits()) {
      fail("bad number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("bad fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) fail("bad exponent");
    }
    Json v;
    v.type_ = Json::Type::kNumber;
    v.num_ = std::strtod(text_.c_str() + start, nullptr);
    return v;
  }

  /// Consumes a run of decimal digits; false when there is none.
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    return pos_ > start;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

bool Json::as_bool(bool fallback) const {
  return type_ == Type::kBool ? bool_ : fallback;
}

double Json::as_number(double fallback) const {
  return type_ == Type::kNumber ? num_ : fallback;
}

long long Json::as_int(long long fallback) const {
  return type_ == Type::kNumber ? static_cast<long long>(num_) : fallback;
}

const std::string& Json::as_string() const {
  static const std::string* empty = new std::string;
  return type_ == Type::kString ? str_ : *empty;
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  return 0;
}

const Json& Json::operator[](const std::string& key) const {
  if (type_ == Type::kObject) {
    auto it = object_.find(key);
    if (it != object_.end()) return it->second;
  }
  return null_value();
}

const Json& Json::at(std::size_t i) const {
  if (type_ == Type::kArray && i < array_.size()) return array_[i];
  return null_value();
}

std::string Json::get(const std::string& key,
                      const std::string& fallback) const {
  const Json& v = (*this)[key];
  return v.is_string() ? v.as_string() : fallback;
}

}  // namespace ctaver::svc
