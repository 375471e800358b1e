#pragma once
// A small JSON reader for checking replies. It is the benchmark's own,
// so a fault in the server's codec cannot hide a wrong reply. Nodes live
// in one vector that is reused from reply to reply; strings are views
// into the reply text (escapes are kept raw, which is enough to compare
// the ASCII names and codes the checks look at).

#include <charconv>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

namespace perfbench {

class JsonDoc {
 public:
  enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };

  struct Node {
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string_view text;  // string payload
    std::string_view key;   // member name when the parent is an object
    std::int32_t first = -1;  // first child
    std::int32_t next = -1;   // next sibling
    std::int32_t count = 0;   // children
  };

  /// Parses `text`; false on any syntax error. Node 0 is the root.
  bool parse(std::string_view text) {
    nodes_.clear();
    s_ = text;
    pos_ = 0;
    if (value() < 0) return false;
    skip_ws();
    return pos_ == s_.size();
  }

  [[nodiscard]] const Node& at(std::int32_t i) const { return nodes_[i]; }
  [[nodiscard]] const Node& root() const { return nodes_[0]; }

  /// Member `key` of object node `obj`, or -1.
  [[nodiscard]] std::int32_t find(std::int32_t obj, std::string_view key) const {
    if (obj < 0 || nodes_[obj].type != Type::Object) return -1;
    for (std::int32_t c = nodes_[obj].first; c >= 0; c = nodes_[c].next)
      if (nodes_[c].key == key) return c;
    return -1;
  }

  /// Number member, or NaN when absent or not a number.
  [[nodiscard]] double num(std::int32_t obj, std::string_view key) const {
    const std::int32_t i = find(obj, key);
    return (i >= 0 && nodes_[i].type == Type::Number)
               ? nodes_[i].number
               : std::numeric_limits<double>::quiet_NaN();
  }

  [[nodiscard]] std::string_view str(std::int32_t obj,
                                     std::string_view key) const {
    const std::int32_t i = find(obj, key);
    return (i >= 0 && nodes_[i].type == Type::String) ? nodes_[i].text
                                                      : std::string_view{};
  }

  /// True only for a present boolean member equal to true.
  [[nodiscard]] bool is_true(std::int32_t obj, std::string_view key) const {
    const std::int32_t i = find(obj, key);
    return i >= 0 && nodes_[i].type == Type::Bool && nodes_[i].boolean;
  }

  [[nodiscard]] bool is_null(std::int32_t obj, std::string_view key) const {
    const std::int32_t i = find(obj, key);
    return i >= 0 && nodes_[i].type == Type::Null;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool string_token(std::string_view& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    const std::size_t start = ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    out = s_.substr(start, pos_ - start);
    ++pos_;
    return true;
  }

  // Returns the new node's index, or -1 on a syntax error.
  std::int32_t value() {
    skip_ws();
    if (pos_ >= s_.size()) return -1;
    const auto index = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      const bool object = c == '{';
      nodes_[index].type = object ? Type::Object : Type::Array;
      ++pos_;
      skip_ws();
      const char close = object ? '}' : ']';
      if (pos_ < s_.size() && s_[pos_] == close) {
        ++pos_;
        return index;
      }
      std::int32_t last = -1;
      for (;;) {
        std::string_view key;
        if (object) {
          skip_ws();
          if (!string_token(key)) return -1;
          skip_ws();
          if (pos_ >= s_.size() || s_[pos_++] != ':') return -1;
        }
        const std::int32_t child = value();
        if (child < 0) return -1;
        nodes_[child].key = key;
        if (last < 0)
          nodes_[index].first = child;
        else
          nodes_[last].next = child;
        last = child;
        ++nodes_[index].count;
        skip_ws();
        if (pos_ >= s_.size()) return -1;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_++] != close) return -1;
        return index;
      }
    }
    if (c == '"') {
      nodes_[index].type = Type::String;
      std::string_view text;
      if (!string_token(text)) return -1;
      nodes_[index].text = text;
      return index;
    }
    if (literal("true") || literal("false")) {
      nodes_[index].type = Type::Bool;
      nodes_[index].boolean = s_[pos_ - 1] == 'e' && s_[pos_ - 2] == 'u';
      return index;
    }
    if (literal("null")) return index;
    double v = 0.0;
    const char* begin = s_.data() + pos_;
    const auto [end, ec] = std::from_chars(begin, s_.data() + s_.size(), v);
    if (ec != std::errc() || end == begin) return -1;
    nodes_[index].type = Type::Number;
    nodes_[index].number = v;
    pos_ += static_cast<std::size_t>(end - begin);
    return index;
  }

  std::vector<Node> nodes_;
  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace perfbench
