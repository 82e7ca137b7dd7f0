#include "rules.h"

#include <set>

namespace cyqr_lint {

std::vector<std::unique_ptr<Rule>> BuildAllRules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(MakeUncheckedStreamRule());
  rules.push_back(MakeBannedFunctionsRule());
  rules.push_back(MakeUnseededRngRule());
  rules.push_back(MakeRawOwningNewRule());
  rules.push_back(MakeIncludeHygieneRule());
  rules.push_back(MakeMetricsNamingRule());
  rules.push_back(MakeLockScopeRule());
  rules.push_back(MakeDeadlinePropagationRule());
  rules.push_back(MakeLockHeldBlockingCallRule());
  rules.push_back(MakeAtomicOrderingAuditRule());
  rules.push_back(MakeResultUnwrapCheckRule());
  rules.push_back(MakeGuardedFieldAccessRule());
  rules.push_back(MakeRequiresNotHeldRule());
  rules.push_back(MakeLockOrderCycleRule());
  return rules;
}

bool IsControlKeyword(const std::string& ident) {
  static const std::set<std::string> kKeywords = {
      "if",       "while",     "for",    "switch",  "catch",
      "return",   "co_return", "sizeof", "alignof", "decltype",
      "operator", "throw",     "new",    "delete",  "static_assert",
      "typeid",   "alignas",   "noexcept"};
  return kKeywords.count(ident) > 0;
}

bool IsIdent(const std::vector<Token>& toks, size_t i, const char* text) {
  return i < toks.size() && toks[i].kind == TokKind::kIdent &&
         toks[i].text == text;
}

bool IsPunct(const std::vector<Token>& toks, size_t i, const char* text) {
  return i < toks.size() && toks[i].kind == TokKind::kPunct &&
         toks[i].text == text;
}

size_t MatchForward(const std::vector<Token>& toks, size_t open,
                    const char* open_text, const char* close_text) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (IsPunct(toks, i, open_text)) {
      ++depth;
    } else if (IsPunct(toks, i, close_text)) {
      if (--depth == 0) return i;
    }
  }
  return toks.size();
}

void MarkValueUseContexts(const std::vector<Token>& toks,
                          std::vector<bool>* flags) {
  flags->assign(toks.size(), false);
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& t = toks[i].text;
    if (t == "if" || t == "while" || t == "for" || t == "switch") {
      // Mark the parenthesized condition.
      size_t open = i + 1;
      if (IsIdent(toks, open, "constexpr")) ++open;  // if constexpr (...)
      if (!IsPunct(toks, open, "(")) continue;
      const size_t close = MatchForward(toks, open, "(", ")");
      for (size_t j = open; j <= close && j < toks.size(); ++j) {
        (*flags)[j] = true;
      }
    } else if (t == "return" || t == "co_return") {
      // Mark up to the statement-ending ';' at this nesting level.
      int paren = 0;
      for (size_t j = i; j < toks.size(); ++j) {
        (*flags)[j] = true;
        if (IsPunct(toks, j, "(")) ++paren;
        if (IsPunct(toks, j, ")")) --paren;
        if (paren == 0 &&
            (IsPunct(toks, j, ";") || IsPunct(toks, j, "{"))) {
          break;
        }
      }
    }
  }
}

}  // namespace cyqr_lint
