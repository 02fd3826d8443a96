#include "orch/yaml.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/strings.hpp"

namespace microedge {

namespace {

struct Line {
  int indent = 0;
  std::string content;
  int number = 0;  // 1-based source line, for error messages
};

// Removes an unquoted trailing comment.
std::string stripComment(const std::string& line) {
  char quote = '\0';
  for (std::size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quote != '\0') {
      if (c == quote) quote = '\0';
    } else if (c == '\'' || c == '"') {
      quote = c;
    } else if (c == '#' && (i == 0 || std::isspace(static_cast<unsigned char>(
                                          line[i - 1])))) {
      return line.substr(0, i);
    }
  }
  return line;
}

std::string unquote(std::string_view s) {
  s = trim(s);
  if (s.size() >= 2 && (s.front() == '"' || s.front() == '\'') &&
      s.back() == s.front()) {
    return std::string(s.substr(1, s.size() - 2));
  }
  return std::string(s);
}

Status yamlError(int line, const std::string& message) {
  return invalidArgument(strCat("yaml line ", line, ": ", message));
}

class Parser {
 public:
  explicit Parser(std::vector<Line> lines) : lines_(std::move(lines)) {}

  StatusOr<YamlNode> parseDocument() {
    if (lines_.empty()) return YamlNode{};
    StatusOr<YamlNode> root = parseBlock(lines_[0].indent);
    if (!root.isOk()) return root;
    if (pos_ != lines_.size()) {
      return yamlError(lines_[pos_].number, "unexpected de-indented content");
    }
    return root;
  }

 private:
  bool atEnd() const { return pos_ >= lines_.size(); }
  const Line& cur() const { return lines_[pos_]; }

  static bool isSequenceItem(const std::string& content) {
    return content == "-" || startsWith(content, "- ");
  }

  StatusOr<YamlNode> parseBlock(int indent) {
    if (atEnd()) return YamlNode{};
    if (cur().indent != indent) {
      return yamlError(cur().number, "inconsistent indentation");
    }
    if (isSequenceItem(cur().content)) return parseSequence(indent);
    return parseMapping(indent);
  }

  StatusOr<YamlNode> parseSequence(int indent) {
    YamlNode seq = YamlNode::makeSequence();
    while (!atEnd() && cur().indent == indent && isSequenceItem(cur().content)) {
      std::string rest(trim(std::string_view(cur().content).substr(1)));
      if (rest.empty()) {
        // Nested block on following, deeper-indented lines.
        ++pos_;
        if (atEnd() || cur().indent <= indent) {
          seq.addItem(YamlNode{});
        } else {
          auto item = parseBlock(cur().indent);
          if (!item.isOk()) return item;
          seq.addItem(std::move(item).value());
        }
      } else if (looksLikeMappingEntry(rest)) {
        // "- key: value": rewrite as a virtual mapping line two columns in.
        lines_[pos_].indent = indent + 2;
        lines_[pos_].content = rest;
        auto item = parseMapping(indent + 2);
        if (!item.isOk()) return item;
        seq.addItem(std::move(item).value());
      } else {
        seq.addItem(YamlNode::makeScalar(unquote(rest)));
        ++pos_;
      }
    }
    if (!atEnd() && cur().indent > indent) {
      return yamlError(cur().number, "unexpected indent inside sequence");
    }
    return seq;
  }

  // "key: value", "key:" — with the colon outside quotes.
  static bool looksLikeMappingEntry(const std::string& s) {
    char quote = '\0';
    for (std::size_t i = 0; i < s.size(); ++i) {
      char c = s[i];
      if (quote != '\0') {
        if (c == quote) quote = '\0';
      } else if (c == '\'' || c == '"') {
        quote = c;
      } else if (c == ':') {
        return i + 1 == s.size() || s[i + 1] == ' ';
      }
    }
    return false;
  }

  static std::size_t findKeyColon(const std::string& s) {
    char quote = '\0';
    for (std::size_t i = 0; i < s.size(); ++i) {
      char c = s[i];
      if (quote != '\0') {
        if (c == quote) quote = '\0';
      } else if (c == '\'' || c == '"') {
        quote = c;
      } else if (c == ':' && (i + 1 == s.size() || s[i + 1] == ' ')) {
        return i;
      }
    }
    return std::string::npos;
  }

  StatusOr<YamlNode> parseMapping(int indent) {
    YamlNode map = YamlNode::makeMapping();
    while (!atEnd() && cur().indent == indent) {
      if (isSequenceItem(cur().content)) {
        return yamlError(cur().number, "sequence item inside mapping");
      }
      std::size_t colon = findKeyColon(cur().content);
      if (colon == std::string::npos) {
        return yamlError(cur().number, "expected 'key: value'");
      }
      std::string key = unquote(std::string_view(cur().content).substr(0, colon));
      if (key.empty()) return yamlError(cur().number, "empty mapping key");
      if (map.has(key)) {
        return yamlError(cur().number, strCat("duplicate key '", key, "'"));
      }
      std::string rest(trim(std::string_view(cur().content).substr(colon + 1)));
      int lineNo = cur().number;
      (void)lineNo;
      ++pos_;
      if (!rest.empty()) {
        map.addEntry(std::move(key), YamlNode::makeScalar(unquote(rest)));
      } else if (!atEnd() && cur().indent > indent) {
        auto child = parseBlock(cur().indent);
        if (!child.isOk()) return child;
        map.addEntry(std::move(key), std::move(child).value());
      } else {
        map.addEntry(std::move(key), YamlNode{});
      }
    }
    if (!atEnd() && cur().indent > indent) {
      return yamlError(cur().number, "unexpected indent inside mapping");
    }
    return map;
  }

  std::vector<Line> lines_;
  std::size_t pos_ = 0;
};

}  // namespace

YamlNode YamlNode::makeScalar(std::string value) {
  YamlNode n;
  n.kind_ = Kind::kScalar;
  n.scalar_ = std::move(value);
  return n;
}

YamlNode YamlNode::makeMapping() {
  YamlNode n;
  n.kind_ = Kind::kMapping;
  return n;
}

YamlNode YamlNode::makeSequence() {
  YamlNode n;
  n.kind_ = Kind::kSequence;
  return n;
}

void YamlNode::addEntry(std::string key, YamlNode value) {
  kind_ = Kind::kMapping;
  entries_.emplace_back(std::move(key), std::move(value));
}

void YamlNode::addItem(YamlNode value) {
  kind_ = Kind::kSequence;
  items_.push_back(std::move(value));
}

const YamlNode* YamlNode::find(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

StatusOr<double> YamlNode::asDouble() const {
  if (!isScalar()) return invalidArgument("yaml: not a scalar");
  const char* begin = scalar_.c_str();
  char* end = nullptr;
  double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || !std::isfinite(v)) {
    return invalidArgument(
        strCat("yaml: '", scalar_, "' is not a finite number"));
  }
  return v;
}

StatusOr<long> YamlNode::asLong() const {
  if (!isScalar()) return invalidArgument("yaml: not a scalar");
  const char* begin = scalar_.c_str();
  char* end = nullptr;
  long v = std::strtol(begin, &end, 10);
  if (end == begin || *end != '\0') {
    return invalidArgument(strCat("yaml: '", scalar_, "' is not an integer"));
  }
  return v;
}

StatusOr<bool> YamlNode::asBool() const {
  if (!isScalar()) return invalidArgument("yaml: not a scalar");
  if (scalar_ == "true" || scalar_ == "yes" || scalar_ == "on") return true;
  if (scalar_ == "false" || scalar_ == "no" || scalar_ == "off") return false;
  return invalidArgument(strCat("yaml: '", scalar_, "' is not a boolean"));
}

StatusOr<YamlNode> parseYaml(const std::string& text) {
  std::vector<Line> lines;
  int number = 0;
  for (const auto& raw : splitLines(text)) {
    ++number;
    std::string noComment = stripComment(raw);
    std::string_view body = trim(noComment);
    if (body.empty()) continue;
    std::size_t indent = 0;
    while (indent < noComment.size() && noComment[indent] == ' ') ++indent;
    if (indent < noComment.size() && noComment[indent] == '\t') {
      return yamlError(number, "tabs are not allowed for indentation");
    }
    lines.push_back(
        Line{static_cast<int>(indent), std::string(body), number});
  }
  Parser parser(std::move(lines));
  return parser.parseDocument();
}

}  // namespace microedge
