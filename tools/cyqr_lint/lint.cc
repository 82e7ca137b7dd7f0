#include "lint.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <sstream>
#include <tuple>
#include <utility>

#include "core/file_util.h"

namespace cyqr_lint {

namespace {

namespace fs = std::filesystem;

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Maps a mutex expression to its node in the global lock graph. Plain
/// member names are qualified by the owning class ("mu_" in a
/// MetricsRegistry method -> "MetricsRegistry::mu_") so same-named
/// mutexes in different classes never alias; already-qualified paths
/// ("waiter->mu", "Shard::mu") pass through, with an explicit `this->`
/// prefix folded into the class qualifier.
std::string QualifyMutex(const std::string& class_name, std::string path) {
  if (path.rfind("this->", 0) == 0) path = path.substr(6);
  if (path.find("::") != std::string::npos ||
      path.find("->") != std::string::npos ||
      path.find('.') != std::string::npos) {
    return path;
  }
  if (class_name.empty()) return path;
  return class_name + "::" + path;
}

/// Appends `mutexes` to `(*dest)[key]`, skipping any already listed.
void AddMutexes(const std::string& key,
                const std::vector<std::string>& mutexes,
                std::map<std::string, std::vector<std::string>>* dest) {
  std::vector<std::string>& listed = (*dest)[key];
  for (const std::string& m : mutexes) {
    if (std::find(listed.begin(), listed.end(), m) == listed.end()) {
      listed.push_back(m);
    }
  }
}

bool HasLintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

bool IsExcluded(const std::string& path,
                const std::vector<std::string>& exclude) {
  for (const std::string& fragment : exclude) {
    if (path.find(fragment) != std::string::npos) return true;
  }
  return false;
}

bool RuleEnabled(const LintOptions& options, const std::string& rule) {
  return options.enabled_rules.empty() ||
         options.enabled_rules.count(rule) != 0;
}

/// Merges one file's declarations into the context: its Deadline-taking
/// functions, CYQR_GUARDED_BY fields, and CYQR_REQUIRES / CYQR_ACQUIRE
/// attachments (keyed both plain, "GetFamily", and class-qualified,
/// "MetricsRegistry::GetFamily").
void CollectDeclarations(const ParsedFile& file, LintContext* ctx) {
  CollectDeadlineFunctions(file.lex, &ctx->deadline_functions);
  for (const GuardedFieldDecl& gf : file.guarded_fields) {
    ctx->guarded_fields[gf.class_name + "::" + gf.field] = gf.mutex;
  }
  for (const AnnotationSite& site : file.annotations) {
    std::map<std::string, std::vector<std::string>>* dest = nullptr;
    std::vector<std::string> mutexes = site.args;
    if (site.macro == "CYQR_REQUIRES") {
      // Mutexes stay as written: matched against the caller's own lock
      // regions and REQUIRES lists.
      dest = &ctx->requires_functions;
    } else if (site.macro == "CYQR_ACQUIRE") {
      // Mutexes become graph nodes: qualify them.
      dest = &ctx->acquire_functions;
      for (std::string& m : mutexes) m = QualifyMutex(site.class_name, m);
    } else {
      continue;  // RELEASE/EXCLUDES carry no cross-file obligations yet.
    }
    AddMutexes(site.function, mutexes, dest);
    if (!site.class_name.empty()) {
      AddMutexes(site.class_name + "::" + site.function, mutexes, dest);
    }
  }
}

/// Appends one file's lock acquisition-order edges to the context: direct
/// nesting of lock regions, calls to CYQR_ACQUIRE functions made while a
/// lock is held, and lock regions inside CYQR_REQUIRES functions. Resolves
/// against the merged maps, so it runs only after every file's
/// declarations are in. A line carrying NOLINT(cyqr-lock-order-cycle)
/// contributes no edge.
void CollectLockOrderEdges(const ParsedFile& file, LintContext* ctx) {
  const char* kCycleRule = "lock-order-cycle";
  const std::string& path = file.lex.path;
  std::vector<LockOrderEdge>& edges = ctx->lock_order_edges;
  for (const FunctionDef& fn : file.functions) {
    auto qualify = [&fn](const std::string& m) {
      return QualifyMutex(fn.class_name, m);
    };
    // Mutexes held for the whole body via the definition's own REQUIRES.
    std::vector<std::string> held_always;
    for (const std::string& m : fn.requires_locks) {
      held_always.push_back(qualify(m));
    }
    // A CYQR_REQUIRES declared for this function anywhere in the tree:
    // its mutexes are held before every acquisition in the body.
    auto required = ctx->requires_functions.end();
    if (!fn.class_name.empty()) {
      required = ctx->requires_functions.find(fn.class_name + "::" + fn.name);
    }
    if (required == ctx->requires_functions.end()) {
      required = ctx->requires_functions.find(fn.name);
    }
    for (const LockRegion& outer : fn.locks) {
      // Direct nesting: a region opened inside another held region means
      // outer's mutexes were held when inner's were acquired. Segments of
      // the same guard are sequential, never nested.
      for (const LockRegion& inner : fn.locks) {
        if (&inner == &outer || inner.name == outer.name) continue;
        if (inner.begin <= outer.begin || inner.end > outer.end) continue;
        if (IsSuppressed(file.lex, inner.line, kCycleRule)) continue;
        for (const std::string& mo : outer.mutexes) {
          for (const std::string& mi : inner.mutexes) {
            edges.push_back({qualify(mo), qualify(mi), path, inner.line});
          }
        }
      }
      if (required == ctx->requires_functions.end()) continue;
      if (IsSuppressed(file.lex, outer.line, kCycleRule)) continue;
      for (const std::string& m : outer.mutexes) {
        const std::string acquired = qualify(m);
        for (const std::string& r : required->second) {
          const std::string from = qualify(r);
          if (from == acquired) continue;  // REQUIRES(m) + re-guard of m is
                                           // the lock-scope rule's domain.
          edges.push_back({from, acquired, path, outer.line});
        }
      }
    }
    // Calls made while a lock is held: a callee that is a CYQR_ACQUIRE
    // function anywhere in the tree adds held -> acquired.
    for (const CallSite& call : fn.calls) {
      auto acquires = ctx->acquire_functions.find(call.callee);
      if (acquires == ctx->acquire_functions.end()) continue;
      if (IsSuppressed(file.lex, call.line, kCycleRule)) continue;
      std::vector<std::string> held = held_always;
      for (const LockRegion& region : fn.locks) {
        if (call.name_index < region.begin || call.name_index >= region.end) {
          continue;
        }
        for (const std::string& m : region.mutexes) held.push_back(qualify(m));
      }
      for (const std::string& h : held) {
        for (const std::string& acquired : acquires->second) {
          edges.push_back({h, acquired, path, call.line});
        }
      }
    }
  }
}

/// The whole-tree lock-order-cycle pass: finds strongly connected
/// components in the merged acquisition-order graph and reports each
/// cycle once, with the full witness path (every edge's file:line) in the
/// message. Deterministic: edges are deduplicated and ordered before
/// detection.
std::vector<Diagnostic> CheckLockOrderCycles(const LintContext& ctx) {
  std::vector<Diagnostic> out;
  // Deduplicate edges, keeping the lexicographically first witness so
  // reports do not depend on the order files were visited.
  std::vector<LockOrderEdge> edges = ctx.lock_order_edges;
  std::sort(edges.begin(), edges.end(),
            [](const LockOrderEdge& a, const LockOrderEdge& b) {
              return std::tie(a.from, a.to, a.file, a.line) <
                     std::tie(b.from, b.to, b.file, b.line);
            });
  std::map<std::pair<std::string, std::string>, LockOrderEdge> uniq;
  for (const LockOrderEdge& e : edges) {
    uniq.emplace(std::make_pair(e.from, e.to), e);
  }
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& entry : uniq) {
    const LockOrderEdge& e = entry.second;
    if (e.from == e.to) {
      // Length-1 cycle: the same mutex acquired while already held.
      Diagnostic d;
      d.file = e.file;
      d.line = e.line;
      d.rule = "lock-order-cycle";
      d.message = "mutex '" + e.from +
                  "' acquired while already held (self-deadlock for a "
                  "non-recursive mutex)";
      out.push_back(std::move(d));
      continue;
    }
    adj[e.from].push_back(e.to);
  }
  auto reachable = [&adj](const std::string& from, const std::string& to) {
    std::set<std::string> visited{from};
    std::deque<std::string> queue{from};
    while (!queue.empty()) {
      const std::string node = queue.front();
      queue.pop_front();
      auto it = adj.find(node);
      if (it == adj.end()) continue;
      for (const std::string& next : it->second) {
        if (next == to) return true;
        if (visited.insert(next).second) queue.push_back(next);
      }
    }
    return false;
  };
  // Group mutually reachable nodes; report each component once, anchored
  // at its lexicographically smallest node.
  std::set<std::string> reported;
  for (const auto& entry : adj) {
    const std::string& a = entry.first;
    if (reported.count(a) != 0) continue;
    std::vector<std::string> component;
    for (const auto& other : adj) {
      const std::string& b = other.first;
      if (b == a) continue;
      if (reachable(a, b) && reachable(b, a)) component.push_back(b);
    }
    if (component.empty()) continue;
    reported.insert(a);
    for (const std::string& b : component) reported.insert(b);
    // Shortest cycle through `a` by BFS with parent links.
    std::map<std::string, std::string> parent;
    std::deque<std::string> queue{a};
    std::string closer;  // Node with an edge back to `a`.
    while (!queue.empty() && closer.empty()) {
      const std::string node = queue.front();
      queue.pop_front();
      auto it = adj.find(node);
      if (it == adj.end()) continue;
      for (const std::string& next : it->second) {
        if (next == a && node != a) {
          closer = node;
          break;
        }
        if (next != a && parent.emplace(next, node).second) {
          queue.push_back(next);
        }
      }
    }
    if (closer.empty()) continue;  // Only possible via self-edges.
    std::vector<std::string> cycle{a};
    for (std::string node = closer; node != a;) {
      cycle.insert(cycle.begin() + 1, node);
      auto it = parent.find(node);
      if (it == parent.end()) break;
      node = it->second;
    }
    cycle.push_back(a);  // A -> ... -> closer -> A.
    std::string order;
    for (const std::string& node : cycle) {
      if (!order.empty()) order += " -> ";
      order += "'" + node + "'";
    }
    std::string witnesses;
    const LockOrderEdge* first = nullptr;
    for (size_t i = 0; i + 1 < cycle.size(); ++i) {
      auto it = uniq.find(std::make_pair(cycle[i], cycle[i + 1]));
      if (it == uniq.end()) continue;
      const LockOrderEdge& e = it->second;
      if (first == nullptr) first = &e;
      if (!witnesses.empty()) witnesses += "; ";
      witnesses += "'" + e.from + "' held while acquiring '" + e.to + "' (" +
                   e.file + ":" + std::to_string(e.line) + ")";
    }
    Diagnostic d;
    d.file = first != nullptr ? first->file : "";
    d.line = first != nullptr ? first->line : 0;
    d.rule = "lock-order-cycle";
    d.message = "potential deadlock: lock acquisition order cycle " + order +
                "; witness: " + witnesses +
                "; establish one global acquisition order";
    out.push_back(std::move(d));
  }
  std::sort(out.begin(), out.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.message) <
                     std::tie(b.file, b.line, b.message);
            });
  return out;
}

}  // namespace

std::vector<std::string> ExpandPaths(const std::vector<std::string>& paths,
                                     const std::vector<std::string>& exclude,
                                     std::vector<std::string>* errors) {
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec) && HasLintableExtension(it->path())) {
          files.push_back(it->path().lexically_normal().string());
        }
      }
      if (ec) errors->push_back("cannot walk directory: " + p);
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(fs::path(p).lexically_normal().string());
    } else {
      errors->push_back("no such file or directory: " + p);
    }
  }
  files.erase(std::remove_if(files.begin(), files.end(),
                             [&exclude](const std::string& f) {
                               return IsExcluded(f, exclude);
                             }),
              files.end());
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

LintResult RunLint(const std::vector<std::string>& paths,
                   const LintOptions& options) {
  LintResult result;
  std::vector<ParsedFile> files;
  for (const std::string& path :
       ExpandPaths(paths, options.exclude, &result.errors)) {
    const cyqr::Result<std::string> source = cyqr::ReadFileToString(path);
    if (!source.ok()) {
      result.errors.push_back("cannot read: " + path);
      continue;
    }
    files.push_back(ParseFile(LexFile(path, source.value())));
  }
  result.files_scanned = static_cast<int>(files.size());

  // Every file's declarations must be in before any rule runs or any
  // lock-order edge is resolved.
  LintContext ctx;
  for (const ParsedFile& file : files) CollectDeclarations(file, &ctx);

  const std::vector<std::unique_ptr<Rule>> rules = BuildAllRules();
  for (const ParsedFile& file : files) {
    CollectLockOrderEdges(file, &ctx);
    for (const auto& rule : rules) {
      if (!RuleEnabled(options, rule->name())) continue;
      std::vector<Diagnostic> found;
      rule->Check(file, ctx, &found);
      for (Diagnostic& d : found) {
        if (IsSuppressed(file.lex, d.line, d.rule)) continue;
        result.diagnostics.push_back(std::move(d));
      }
    }
  }
  // Whole-tree pass over the merged acquisition-order graph; NOLINT was
  // applied where the edges were collected.
  if (RuleEnabled(options, "lock-order-cycle")) {
    for (Diagnostic& d : CheckLockOrderCycles(ctx)) {
      result.diagnostics.push_back(std::move(d));
    }
  }
  std::sort(result.diagnostics.begin(), result.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return result;
}

std::string FormatText(const LintResult& result) {
  std::ostringstream out;
  for (const Diagnostic& d : result.diagnostics) {
    out << d.file << ':' << d.line << ": [" << d.rule << "] " << d.message
        << '\n';
  }
  return out.str();
}

std::string FormatJson(const LintResult& result) {
  std::ostringstream out;
  out << "[\n";
  for (size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    out << "  {\"file\": \"" << JsonEscape(d.file)
        << "\", \"line\": " << d.line << ", \"rule\": \""
        << JsonEscape(d.rule) << "\", \"message\": \""
        << JsonEscape(d.message) << "\"}";
    if (i + 1 < result.diagnostics.size()) out << ',';
    out << '\n';
  }
  out << "]\n";
  return out.str();
}

std::string FormatSarif(const LintResult& result) {
  const std::vector<std::unique_ptr<Rule>> rules = BuildAllRules();
  std::map<std::string, size_t> rule_index;
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"cyqr_lint\",\n"
      << "          \"rules\": [\n";
  for (size_t i = 0; i < rules.size(); ++i) {
    rule_index[rules[i]->name()] = i;
    out << "            {\"id\": \"cyqr-" << JsonEscape(rules[i]->name())
        << "\"}";
    if (i + 1 < rules.size()) out << ',';
    out << '\n';
  }
  out << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
  for (size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    out << "        {\n"
        << "          \"ruleId\": \"cyqr-" << JsonEscape(d.rule) << "\",\n";
    auto it = rule_index.find(d.rule);
    if (it != rule_index.end()) {
      out << "          \"ruleIndex\": " << it->second << ",\n";
    }
    out << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": \"" << JsonEscape(d.message)
        << "\"},\n"
        << "          \"locations\": [\n"
        << "            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": {\"uri\": \""
        << JsonEscape(d.file) << "\"},\n"
        << "                \"region\": {\"startLine\": "
        << (d.line > 0 ? d.line : 1) << "}\n"
        << "              }\n"
        << "            }\n"
        << "          ]\n"
        << "        }";
    if (i + 1 < result.diagnostics.size()) out << ',';
    out << '\n';
  }
  out << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace cyqr_lint
