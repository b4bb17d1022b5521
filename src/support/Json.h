//===- support/Json.h - Minimal JSON DOM parser -----------------*- C++ -*-===//
///
/// \file
/// A small recursive-descent JSON parser producing an immutable DOM. Used
/// by the observability tests and the `denali_explain` tool to validate and
/// query the Chrome trace / metrics artifacts the obs layer writes; it is
/// a consumer-side checker, not a serializer (the obs exporters format
/// their JSON directly).
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_SUPPORT_JSON_H
#define DENALI_SUPPORT_JSON_H

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace denali {
namespace support {
namespace json {

/// One parsed JSON value.
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool boolValue() const { return B; }
  double numberValue() const { return Num; }
  const std::string &stringValue() const { return Str; }
  const std::vector<Value> &array() const { return Arr; }
  const std::map<std::string, Value> &object() const { return Obj; }

  /// The object field named \p Name, or null if absent / not an object.
  const Value *field(const std::string &Name) const {
    if (K != Kind::Object)
      return nullptr;
    auto It = Obj.find(Name);
    return It == Obj.end() ? nullptr : &It->second;
  }

  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<Value> Arr;
  std::map<std::string, Value> Obj;
};

/// Parses \p Text as a single JSON document. \returns the value, or null
/// with \p Err set (when non-null) on malformed input. Trailing
/// whitespace is allowed; trailing garbage is an error.
std::unique_ptr<Value> parse(const std::string &Text, std::string *Err);

} // namespace json
} // namespace support
} // namespace denali

#endif // DENALI_SUPPORT_JSON_H
