#ifndef CYQR_LINT_RULES_H_
#define CYQR_LINT_RULES_H_

#include <string>
#include <vector>

#include "lexer.h"
#include "lint.h"

namespace cyqr_lint {

/// Shared token-walking helpers for the rule implementations. All indices
/// are positions into LexedFile::tokens.

/// True for an identifier token with exactly this text.
bool IsIdent(const std::vector<Token>& toks, size_t i, const char* text);

/// True for a punct token with exactly this text.
bool IsPunct(const std::vector<Token>& toks, size_t i, const char* text);

/// Index of the ')' matching the '(' at `open`, or toks.size() when
/// unbalanced. Also used for '{'/'}' and '<'/'>' via the bracket pair.
size_t MatchForward(const std::vector<Token>& toks, size_t open,
                    const char* open_text, const char* close_text);

/// Marks every token index that sits inside an if/while/for/switch
/// condition or a return expression — positions where using a value means
/// the value is NOT discarded. `flags` is resized to toks.size().
void MarkValueUseContexts(const std::vector<Token>& toks,
                          std::vector<bool>* flags);

/// True for identifiers that introduce control flow or otherwise can
/// never be the name of a function definition or call (if, while, return,
/// sizeof, operator, ...). Shared by the parse layer and rules.
bool IsControlKeyword(const std::string& ident);

/// Rule factories (one translation unit per rule).
std::unique_ptr<Rule> MakeUncheckedStreamRule();
std::unique_ptr<Rule> MakeBannedFunctionsRule();
std::unique_ptr<Rule> MakeUnseededRngRule();
std::unique_ptr<Rule> MakeRawOwningNewRule();
std::unique_ptr<Rule> MakeIncludeHygieneRule();
std::unique_ptr<Rule> MakeMetricsNamingRule();
std::unique_ptr<Rule> MakeLockScopeRule();
std::unique_ptr<Rule> MakeDeadlinePropagationRule();
std::unique_ptr<Rule> MakeLockHeldBlockingCallRule();
std::unique_ptr<Rule> MakeAtomicOrderingAuditRule();
std::unique_ptr<Rule> MakeResultUnwrapCheckRule();
std::unique_ptr<Rule> MakeGuardedFieldAccessRule();
std::unique_ptr<Rule> MakeRequiresNotHeldRule();
std::unique_ptr<Rule> MakeLockOrderCycleRule();

}  // namespace cyqr_lint

#endif  // CYQR_LINT_RULES_H_
