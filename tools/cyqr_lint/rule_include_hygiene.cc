#include "rules.h"

#include <filesystem>

namespace cyqr_lint {

namespace {

bool IsHeaderPath(const std::string& path) {
  const std::string ext = std::filesystem::path(path).extension().string();
  return ext == ".h" || ext == ".hpp";
}

bool IsSourcePath(const std::string& path) {
  const std::string ext = std::filesystem::path(path).extension().string();
  return ext == ".cc" || ext == ".cpp";
}

/// Strips the quotes/angle brackets from an #include payload.
std::string IncludeTarget(const std::string& payload) {
  if (payload.size() >= 2 &&
      ((payload.front() == '"' && payload.back() == '"') ||
       (payload.front() == '<' && payload.back() == '>'))) {
    return payload.substr(1, payload.size() - 2);
  }
  return payload;
}

class IncludeHygieneRule : public Rule {
 public:
  const char* name() const override { return "include-hygiene"; }

  void Check(const ParsedFile& file, const LintContext& /*ctx*/,
             std::vector<Diagnostic>* out) const override {
    if (IsHeaderPath(file.lex.path)) {
      CheckGuard(file.lex, out);
    } else if (IsSourcePath(file.lex.path)) {
      CheckSelfIncludeFirst(file.lex, out);
    }
  }

 private:
  /// Headers must open with `#pragma once` or an #ifndef/#define guard
  /// pair before any other directive or code token.
  void CheckGuard(const LexedFile& file,
                  std::vector<Diagnostic>* out) const {
    for (const Token& tok : file.tokens) {
      if (tok.kind != TokKind::kDirective) break;  // Code before a guard.
      if (tok.text == "pragma" && tok.aux == "once") return;
      if (tok.text == "ifndef") return;  // Paired #define assumed next.
      if (tok.text == "include" || tok.text == "define") break;
    }
    Diagnostic d;
    d.file = file.path;
    d.line = file.tokens.empty() ? 1 : file.tokens.front().line;
    d.rule = name();
    d.message =
        "header has no include guard; start with #ifndef/#define or "
        "#pragma once";
    out->push_back(std::move(d));
  }

  /// foo.cc must include its own foo.h before any other include, so the
  /// header is proven self-contained by every build.
  void CheckSelfIncludeFirst(const LexedFile& file,
                             std::vector<Diagnostic>* out) const {
    const std::string stem =
        std::filesystem::path(file.path).stem().string();
    int first_line = 0;
    bool first_seen = false;
    for (const Token& tok : file.tokens) {
      if (tok.kind != TokKind::kDirective || tok.text != "include") {
        continue;
      }
      const std::filesystem::path target(IncludeTarget(tok.aux));
      const bool is_self = target.stem().string() == stem &&
                           IsHeaderPath(target.string());
      if (!first_seen) {
        first_seen = true;
        first_line = tok.line;
        if (is_self) return;  // Own header is first: clean.
      } else if (is_self) {
        Diagnostic d;
        d.file = file.path;
        d.line = tok.line;
        d.rule = name();
        d.message = "own header '" + target.string() +
                    "' must be the first include (currently line " +
                    std::to_string(first_line) + " comes first)";
        out->push_back(std::move(d));
        return;
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> MakeIncludeHygieneRule() {
  return std::make_unique<IncludeHygieneRule>();
}

}  // namespace cyqr_lint
