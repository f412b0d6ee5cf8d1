#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file strings.hpp
/// Small string utilities shared by the DOT parser, CLI and table printers.

namespace cawo {

/// Strict numeric parsing: the whole token must be consumed and in range,
/// or a PreconditionError is thrown whose message starts with `what`
/// (e.g. `campaign key "tasks"`). Shared by the campaign parser and the
/// profile-spec parser so both layers reject malformed values identically.
double parseDoubleStrict(const std::string& what, const std::string& token);
std::int64_t parseInt64Strict(const std::string& what,
                              const std::string& token);
std::uint64_t parseUint64Strict(const std::string& what,
                                const std::string& token);

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// Split on a single character; empty fields are kept.
std::vector<std::string> split(std::string_view s, char sep);

/// True if `s` starts with `prefix`.
bool startsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool endsWith(std::string_view s, std::string_view suffix);

/// Glob match with `*` (any run) and `?` (any one char); linear-time
/// two-pointer algorithm, no backtracking blowup. Shared by the solver
/// registry's selection strings and the result-store query filters, so
/// `--algos` and `query --solvers` accept the same patterns.
bool globMatch(const std::string& pattern, const std::string& text);

/// True if `s` contains glob metacharacters (`*` or `?`).
bool isGlob(const std::string& s);

/// Render a double with fixed precision (for tables).
std::string formatFixed(double value, int precision);

/// `prefix` followed by the decimal `index` ("t", 7 → "t7"). Appends, so
/// GCC 12 raises no false -Wrestrict as on `"t" + std::to_string(7)`.
std::string indexedName(std::string_view prefix, std::int64_t index);

/// Left-pad / right-pad a string to the given width.
std::string padLeft(std::string s, std::size_t width);
std::string padRight(std::string s, std::size_t width);

} // namespace cawo
