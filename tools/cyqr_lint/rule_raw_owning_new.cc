#include "rules.h"

namespace cyqr_lint {

namespace {

class RawOwningNewRule : public Rule {
 public:
  const char* name() const override { return "raw-owning-new"; }

  void Check(const ParsedFile& file, const LintContext& /*ctx*/,
             std::vector<Diagnostic>* out) const override {
    const std::vector<Token>& toks = file.lex.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent) continue;
      const bool is_new = toks[i].text == "new";
      const bool is_delete = toks[i].text == "delete";
      if (!is_new && !is_delete) continue;
      // `operator new` / `operator delete` declarations and `= delete`
      // function deletion are not ownership transfers.
      if (i > 0 && IsIdent(toks, i - 1, "operator")) continue;
      if (is_delete && i > 0 && IsPunct(toks, i - 1, "=")) continue;
      Diagnostic d;
      d.file = file.lex.path;
      d.line = toks[i].line;
      d.rule = name();
      d.message = std::string("raw owning '") + toks[i].text +
                  "'; use std::make_unique/std::make_shared or a "
                  "container, or mark a deliberate one "
                  "NOLINT(cyqr-raw-owning-new)";
      out->push_back(std::move(d));
    }
  }
};

}  // namespace

std::unique_ptr<Rule> MakeRawOwningNewRule() {
  return std::make_unique<RawOwningNewRule>();
}

}  // namespace cyqr_lint
