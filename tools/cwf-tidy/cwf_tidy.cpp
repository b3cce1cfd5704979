// cwf_tidy: portable, dependency-free enforcement of the repository's
// concurrency and schema lint rules. It needs nothing but a C++ compiler, so
// check.sh and ctest gate on it on every image, gcc-only ones included.
//
// Checks:
//
//   cwf-raw-mutex            std::mutex / std::recursive_mutex /
//                            std::lock_guard / std::condition_variable and
//                            friends outside common/lock_registry. Engine
//                            code must use OrderedMutex / ScopedLock /
//                            std::condition_variable_any so every lock takes
//                            part in lock-order checking and thread-safety
//                            annotation.
//
//   cwf-blocking-under-lock  sleeping, joining, socket I/O or CWF_LOG /
//                            CWF_CLOG while a scoped lock guard is live in
//                            the enclosing scope. Logging takes the global
//                            logging mutex and sockets block indefinitely;
//                            neither belongs inside an engine critical
//                            section.
//
//   cwf-assert-side-effects  assignments or ++/-- inside CWF_ASSERT /
//                            CWF_CHECK / CWF_DCHECK conditions. The DCHECK
//                            family compiles out in release builds, so a
//                            side effect in the condition changes behavior
//                            between build types.
//
//   cwf-stringly-field       Field("...") accessor literals that appear in
//                            no declared schema across the scanned files.
//                            Stringly-typed field reads bypass the schema
//                            pass (CWF70xx) entirely, so a typo like
//                            Field("speeed") only dies at runtime; every
//                            accessed name must match some RecordSchema
//                            builder declaration (.Int("x")/.Double("x")/
//                            .Bool("x")/.Str("x")/Field("x", type)). The
//                            check needs the whole file set in one pass to
//                            build the declared-name universe.
//
//   cwf-unbounded-wait       condition-variable waits that can hang on a
//                            spurious wakeup or missed notification:
//                            `cv.wait(lock)` with no predicate, and
//                            `wait_for`/`wait_until` calls whose result is
//                            discarded with no predicate (nothing observes
//                            why the wait ended). Deliberate timed polls
//                            inside re-checking loops carry a
//                            cwf-tidy-allow rationale.
//
// Suppressions, in source:
//   // NOLINT(cwf-raw-mutex)            this line, named check
//   // NOLINTNEXTLINE(cwf-raw-mutex)    next line, named check
//   // cwf-tidy-allow(cwf-raw-mutex): <rationale>   this line, with a
//      required human-readable justification (preferred for durable exempt
//      leaf locks; the bare NOLINT forms are for fixture/test code).
// A NOLINT without a check list suppresses every check on that line.
//
// Usage: cwf_tidy [--check <name>]... <file>...
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Finding {
  std::string file;
  int line = 0;
  std::string check;
  std::string message;
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// ---------------------------------------------------------------------------
// Source preparation: blank out comments and string/character literals
// (preserving line structure and byte offsets) so the checks never match
// text inside them, and collect the suppression directives comments carry.
// ---------------------------------------------------------------------------

struct PreparedSource {
  /// Original text with comments and literal bodies replaced by spaces.
  std::string code;
  /// line (1-based) -> suppressed check names; "" means all checks.
  std::map<int, std::set<std::string>> suppressed;
};

/// Parse "NOLINT(a, b)" / "NOLINTNEXTLINE(a)" / "cwf-tidy-allow(a): why"
/// inside one comment's text and record the suppressions.
void ParseDirectives(const std::string& comment, int line,
                     std::map<int, std::set<std::string>>* suppressed) {
  struct Directive {
    const char* token;
    int line_offset;
  };
  static const Directive kDirectives[] = {
      {"NOLINTNEXTLINE", 1},  // must precede NOLINT in the scan below
      {"NOLINT", 0},
      {"cwf-tidy-allow", 0},
  };
  size_t pos = 0;
  while (pos < comment.size()) {
    const Directive* hit = nullptr;
    size_t at = std::string::npos;
    for (const Directive& d : kDirectives) {
      const size_t found = comment.find(d.token, pos);
      if (found < at) {
        at = found;
        hit = &d;
      }
    }
    if (hit == nullptr || at == std::string::npos) {
      return;
    }
    size_t after = at + std::strlen(hit->token);
    // "NOLINTNEXTLINE" contains "NOLINT": skip the shorter token when the
    // longer one matched at the same position earlier in the list.
    if (std::strcmp(hit->token, "NOLINT") == 0 &&
        comment.compare(at, std::strlen("NOLINTNEXTLINE"),
                        "NOLINTNEXTLINE") == 0) {
      pos = at + std::strlen("NOLINTNEXTLINE");
      continue;
    }
    std::set<std::string> checks;
    if (after < comment.size() && comment[after] == '(') {
      const size_t close = comment.find(')', after);
      if (close != std::string::npos) {
        std::string list = comment.substr(after + 1, close - after - 1);
        std::istringstream in(list);
        std::string name;
        while (std::getline(in, name, ',')) {
          name.erase(std::remove_if(name.begin(), name.end(), ::isspace),
                     name.end());
          if (!name.empty()) {
            checks.insert(name);
          }
        }
        after = close + 1;
      }
    } else {
      checks.insert("");  // no check list: suppress everything
    }
    const int target = line + hit->line_offset;
    (*suppressed)[target].insert(checks.begin(), checks.end());
    // A rationale comment usually sits on its own line above the exempt
    // declaration, so cwf-tidy-allow also covers the following line.
    if (std::strcmp(hit->token, "cwf-tidy-allow") == 0) {
      (*suppressed)[target + 1].insert(checks.begin(), checks.end());
    }
    pos = after;
  }
}

PreparedSource Prepare(const std::string& text) {
  PreparedSource out;
  out.code = text;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  int line = 1;
  std::string comment;       // text of the comment being consumed
  int comment_line = 1;      // line the current comment started on
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment.clear();
          comment_line = line;
          out.code[i] = out.code[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment.clear();
          comment_line = line;
          out.code[i] = out.code[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          // Raw string literal?
          if (i > 0 && text[i - 1] == 'R' &&
              (i < 2 || !IsIdentChar(text[i - 2]))) {
            size_t dpos = i + 1;
            while (dpos < text.size() && text[dpos] != '(') {
              ++dpos;
            }
            const std::string delim =
                ")" + text.substr(i + 1, dpos - i - 1) + "\"";
            const size_t end = text.find(delim, dpos);
            const size_t stop =
                end == std::string::npos ? text.size() : end + delim.size();
            for (size_t j = i; j < stop; ++j) {
              if (text[j] == '\n') {
                ++line;
              } else {
                out.code[j] = ' ';
              }
            }
            i = stop - 1;
          } else {
            state = State::kString;
            out.code[i] = ' ';
          }
        } else if (c == '\'') {
          state = State::kChar;
          out.code[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          ParseDirectives(comment, comment_line, &out.suppressed);
          state = State::kCode;
        } else {
          comment += c;
          out.code[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          ParseDirectives(comment, comment_line, &out.suppressed);
          state = State::kCode;
          out.code[i] = out.code[i + 1] = ' ';
          ++i;
        } else {
          comment += c;
          if (c != '\n') {
            out.code[i] = ' ';
          }
        }
        break;
      case State::kString:
        if (c == '\\') {
          out.code[i] = ' ';
          if (next != '\0' && next != '\n') {
            out.code[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          state = State::kCode;
          out.code[i] = ' ';
        } else if (c != '\n') {
          out.code[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out.code[i] = ' ';
          if (next != '\0' && next != '\n') {
            out.code[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          state = State::kCode;
          out.code[i] = ' ';
        } else if (c != '\n') {
          out.code[i] = ' ';
        }
        break;
    }
    if (text[i] == '\n') {
      ++line;
    }
  }
  if (state == State::kLineComment || state == State::kBlockComment) {
    ParseDirectives(comment, comment_line, &out.suppressed);
  }
  return out;
}

bool Suppressed(const PreparedSource& src, int line, const std::string& check) {
  auto it = src.suppressed.find(line);
  if (it == src.suppressed.end()) {
    return false;
  }
  return it->second.count("") > 0 || it->second.count(check) > 0;
}

/// Occurrences of `token` in `code` as whole words (no identifier character
/// on either side), reported as byte offsets.
std::vector<size_t> WordOccurrences(const std::string& code,
                                    const std::string& token) {
  std::vector<size_t> out;
  size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= code.size() || !IsIdentChar(code[end]);
    if (left_ok && right_ok) {
      out.push_back(pos);
    }
    pos = end;
  }
  return out;
}

int LineOf(const std::string& code, size_t offset) {
  return 1 + static_cast<int>(std::count(code.begin(), code.begin() + offset,
                                         '\n'));
}

// ---------------------------------------------------------------------------
// cwf-raw-mutex
// ---------------------------------------------------------------------------

void CheckRawMutex(const std::string& path, const PreparedSource& src,
                   std::vector<Finding>* findings) {
  static const char kCheck[] = "cwf-raw-mutex";
  // The lock-order registry implements the primitives; the annotation header
  // documents them.
  if (path.find("common/lock_registry") != std::string::npos ||
      path.find("common/thread_annotations") != std::string::npos) {
    return;
  }
  struct Banned {
    const char* token;
    const char* advice;
  };
  static const Banned kBanned[] = {
      {"std::mutex", "use cwf::OrderedMutex"},
      {"std::recursive_mutex", "use cwf::OrderedRecursiveMutex"},
      {"std::timed_mutex", "use cwf::OrderedMutex"},
      {"std::recursive_timed_mutex", "use cwf::OrderedRecursiveMutex"},
      {"std::shared_mutex", "use cwf::OrderedMutex"},
      {"std::shared_timed_mutex", "use cwf::OrderedMutex"},
      {"std::lock_guard", "use cwf::ScopedLock"},
      {"std::condition_variable",
       "use std::condition_variable_any (waitable on OrderedMutex)"},
  };
  for (const Banned& b : kBanned) {
    for (size_t at : WordOccurrences(src.code, b.token)) {
      const int line = LineOf(src.code, at);
      if (Suppressed(src, line, kCheck)) {
        continue;
      }
      findings->push_back(
          {path, line, kCheck,
           std::string(b.token) +
               " bypasses lock-order checking and thread-safety "
               "annotation; " +
               b.advice});
    }
  }
}

// ---------------------------------------------------------------------------
// cwf-blocking-under-lock
// ---------------------------------------------------------------------------

void CheckBlockingUnderLock(const std::string& path, const PreparedSource& src,
                            std::vector<Finding>* findings) {
  static const char kCheck[] = "cwf-blocking-under-lock";
  struct Marker {
    const char* token;
    bool needs_member_access;  // only flag `.token(` / `->token(` / `::token(`
    const char* what;
  };
  static const Marker kBlocking[] = {
      {"CWF_CLOG", false, "logging takes the global logging mutex"},
      {"CWF_LOG", false, "logging takes the global logging mutex"},
      {"sleep_for", true, "sleeping"},
      {"sleep_until", true, "sleeping"},
      {"join", true, "joining a thread"},
      {"accept", true, "socket I/O"},
      {"connect", true, "socket I/O"},
      {"send", true, "socket I/O"},
      {"recv", true, "socket I/O"},
  };
  static const char* kGuards[] = {
      "ScopedLock",
      "std::unique_lock",
      "std::lock_guard",
      "std::scoped_lock",
  };

  const std::string& code = src.code;
  // Event-merge over the file: brace depth transitions, guard declarations
  // and blocking calls, processed in byte order.
  enum class Kind { kOpen, kClose, kGuard, kBlocking };
  struct Event {
    size_t at;
    Kind kind;
    const Marker* marker = nullptr;
  };
  std::vector<Event> events;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i] == '{') {
      events.push_back({i, Kind::kOpen, nullptr});
    } else if (code[i] == '}') {
      events.push_back({i, Kind::kClose, nullptr});
    }
  }
  for (const char* guard : kGuards) {
    for (size_t at : WordOccurrences(code, guard)) {
      events.push_back({at, Kind::kGuard, nullptr});
    }
  }
  for (const Marker& m : kBlocking) {
    for (size_t at : WordOccurrences(code, m.token)) {
      // Must be a call.
      size_t after = at + std::strlen(m.token);
      while (after < code.size() &&
             std::isspace(static_cast<unsigned char>(code[after]))) {
        ++after;
      }
      if (after >= code.size() || code[after] != '(') {
        continue;
      }
      if (m.needs_member_access) {
        size_t before = at;
        while (before > 0 && std::isspace(static_cast<unsigned char>(
                                 code[before - 1]))) {
          --before;
        }
        const bool member =
            (before >= 1 && code[before - 1] == '.') ||
            (before >= 2 && code[before - 2] == '-' &&
             code[before - 1] == '>') ||
            (before >= 2 && code[before - 2] == ':' &&
             code[before - 1] == ':');
        if (!member) {
          continue;
        }
      }
      events.push_back({at, Kind::kBlocking, &m});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.at < b.at; });

  int depth = 0;
  std::vector<int> guard_depths;  // brace depth each live guard was taken at
  for (const Event& ev : events) {
    switch (ev.kind) {
      case Kind::kOpen:
        ++depth;
        break;
      case Kind::kClose:
        --depth;
        while (!guard_depths.empty() && guard_depths.back() > depth) {
          guard_depths.pop_back();
        }
        break;
      case Kind::kGuard:
        guard_depths.push_back(depth);
        break;
      case Kind::kBlocking: {
        if (guard_depths.empty()) {
          break;
        }
        const int line = LineOf(code, ev.at);
        if (Suppressed(src, line, kCheck)) {
          break;
        }
        findings->push_back(
            {path, line, kCheck,
             std::string(ev.marker->token) +
                 " while a lock guard is live: " + ev.marker->what +
                 " — move it outside the critical section"});
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// cwf-unbounded-wait
// ---------------------------------------------------------------------------

/// Count the top-level comma-separated arguments of the call whose opening
/// '(' is at `open`. Commas inside nested parens, brackets or braces (e.g.
/// a predicate lambda's body) do not count. Returns SIZE_MAX when the call
/// never closes (macro soup): the caller skips it.
size_t CountCallArgs(const std::string& code, size_t open) {
  int paren = 0;
  int other = 0;  // [] and {} nesting
  size_t args = 0;
  bool any = false;
  for (size_t i = open; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '(') {
      ++paren;
    } else if (c == ')') {
      if (--paren == 0) {
        return any ? args + 1 : 0;
      }
    } else if (c == '[' || c == '{') {
      ++other;
    } else if (c == ']' || c == '}') {
      --other;
    } else if (c == ',' && paren == 1 && other == 0) {
      ++args;
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      any = true;
    }
  }
  return static_cast<size_t>(-1);
}

void CheckUnboundedWait(const std::string& path, const PreparedSource& src,
                        std::vector<Finding>* findings) {
  static const char kCheck[] = "cwf-unbounded-wait";
  const std::string& code = src.code;
  struct Wait {
    const char* token;
    bool timed;
  };
  static const Wait kWaits[] = {
      {"wait", false},
      {"wait_for", true},
      {"wait_until", true},
  };
  for (const Wait& w : kWaits) {
    for (size_t at : WordOccurrences(code, w.token)) {
      // Member call only: `cv.wait(` / `cv->wait(`. A `::wait(` is a
      // definition or qualified mention, not a blocking call site.
      size_t before = at;
      while (before > 0 &&
             std::isspace(static_cast<unsigned char>(code[before - 1]))) {
        --before;
      }
      const bool member = (before >= 1 && code[before - 1] == '.') ||
                          (before >= 2 && code[before - 2] == '-' &&
                           code[before - 1] == '>');
      if (!member) {
        continue;
      }
      size_t open = at + std::strlen(w.token);
      while (open < code.size() &&
             std::isspace(static_cast<unsigned char>(code[open]))) {
        ++open;
      }
      if (open >= code.size() || code[open] != '(') {
        continue;
      }
      const size_t args = CountCallArgs(code, open);
      if (args == static_cast<size_t>(-1)) {
        continue;
      }
      // With a predicate (wait: 2 args; timed waits: 3 args) the wakeup
      // condition is re-checked inside the wait — always safe.
      const size_t no_predicate_args = w.timed ? 2 : 1;
      if (args != no_predicate_args) {
        continue;
      }
      if (w.timed) {
        // A predicate-free timed wait is a poll; it is only unbounded when
        // the caller also discards the result (nothing re-checks why the
        // wait ended). Walk left across the object expression: reaching a
        // statement boundary means the value was dropped.
        size_t scan = before;
        while (scan > 0) {
          const char c = code[scan - 1];
          if (IsIdentChar(c) || std::isspace(static_cast<unsigned char>(c)) ||
              c == '.' || c == ':' || c == '>' || c == '-') {
            --scan;
            continue;
          }
          break;
        }
        const char boundary = scan > 0 ? code[scan - 1] : ';';
        const bool statement_context =
            boundary == ';' || boundary == '{' || boundary == '}';
        const std::string walked = code.substr(scan, at - scan);
        const bool returned =
            walked.find("return") != std::string::npos;
        if (!statement_context || returned) {
          continue;
        }
      }
      const int line = LineOf(code, at);
      if (Suppressed(src, line, kCheck)) {
        continue;
      }
      findings->push_back(
          {path, line, kCheck,
           w.timed
               ? std::string(w.token) +
                     " result discarded and no predicate: a stolen wakeup "
                     "or timeout is indistinguishable from success — check "
                     "the result or re-test the condition in a loop"
               : std::string(w.token) +
                     " without a predicate: spurious wakeups and missed "
                     "notifications hang the waiter — pass a predicate or "
                     "re-check the condition in an enclosing loop"});
    }
  }
}

// ---------------------------------------------------------------------------
// cwf-stringly-field
// ---------------------------------------------------------------------------

/// The first argument of the call whose opening '(' is at `open`, when that
/// argument starts with a string literal. Reads the ORIGINAL text — Prepare
/// blanks literal bodies, which is exactly what makes the prepared offsets
/// safe to carry over (byte positions are preserved).
bool FirstArgLiteral(const std::string& original, size_t open,
                     std::string* literal) {
  size_t i = open + 1;
  while (i < original.size() &&
         std::isspace(static_cast<unsigned char>(original[i]))) {
    ++i;
  }
  if (i >= original.size() || original[i] != '"') {
    return false;
  }
  std::string out;
  for (++i; i < original.size(); ++i) {
    const char c = original[i];
    if (c == '\\' && i + 1 < original.size()) {
      out += original[++i];
    } else if (c == '"') {
      *literal = std::move(out);
      return true;
    } else {
      out += c;
    }
  }
  return false;
}

size_t OpenParenAfter(const std::string& code, size_t at, size_t token_len) {
  size_t i = at + token_len;
  while (i < code.size() &&
         std::isspace(static_cast<unsigned char>(code[i]))) {
    ++i;
  }
  return (i < code.size() && code[i] == '(') ? i : std::string::npos;
}

bool IsMemberAccess(const std::string& code, size_t at) {
  size_t before = at;
  while (before > 0 &&
         std::isspace(static_cast<unsigned char>(code[before - 1]))) {
    --before;
  }
  return (before >= 1 && code[before - 1] == '.') ||
         (before >= 2 && code[before - 2] == '-' && code[before - 1] == '>');
}

/// Pass 1: record every field name the file declares through the
/// RecordSchema builder — `.Int("x")` / `.Double("x")` / `.Bool("x")` /
/// `.Str("x")` and the 2+-argument `Field("x", type, ...)` form. The
/// declared set is global across the scanned file set: schemas commonly
/// live in one file and accessors in another.
void CollectDeclaredFields(const std::string& original,
                           const PreparedSource& src,
                           std::set<std::string>* declared) {
  static const char* kBuilders[] = {"Int", "Double", "Bool", "Str"};
  const std::string& code = src.code;
  for (const char* builder : kBuilders) {
    for (size_t at : WordOccurrences(code, builder)) {
      if (!IsMemberAccess(code, at)) {
        continue;
      }
      const size_t open = OpenParenAfter(code, at, std::strlen(builder));
      if (open == std::string::npos) {
        continue;
      }
      std::string name;
      if (FirstArgLiteral(original, open, &name)) {
        declared->insert(std::move(name));
      }
    }
  }
  for (size_t at : WordOccurrences(code, "Field")) {
    const size_t open = OpenParenAfter(code, at, std::strlen("Field"));
    if (open == std::string::npos) {
      continue;
    }
    const size_t args = CountCallArgs(code, open);
    if (args < 2 || args == static_cast<size_t>(-1)) {
      continue;  // 1-arg Field() is the accessor, handled below
    }
    std::string name;
    if (FirstArgLiteral(original, open, &name)) {
      declared->insert(std::move(name));
    }
  }
}

/// Pass 2: flag 1-argument `x.Field("name")` accessors whose literal is in
/// no declared schema anywhere in the scanned set.
void CheckStringlyField(const std::string& path, const std::string& original,
                        const PreparedSource& src,
                        const std::set<std::string>& declared,
                        std::vector<Finding>* findings) {
  static const char kCheck[] = "cwf-stringly-field";
  const std::string& code = src.code;
  for (size_t at : WordOccurrences(code, "Field")) {
    if (!IsMemberAccess(code, at)) {
      continue;
    }
    const size_t open = OpenParenAfter(code, at, std::strlen("Field"));
    if (open == std::string::npos) {
      continue;
    }
    // In the prepared code the literal body is blanked, so a sole
    // string-literal argument counts as zero args; anything more is the
    // declaration form or a computed name.
    if (CountCallArgs(code, open) != 0) {
      continue;
    }
    std::string name;
    if (!FirstArgLiteral(original, open, &name)) {
      continue;  // name comes through a variable/constant: not checkable
    }
    if (declared.count(name) > 0) {
      continue;
    }
    const int line = LineOf(code, at);
    if (Suppressed(src, line, kCheck)) {
      continue;
    }
    findings->push_back(
        {path, line, kCheck,
         "Field(\"" + name +
             "\") reads a field no declared schema defines; declare it in "
             "a RecordSchema (OutputPort::set_schema) or fix the name — "
             "stringly accesses bypass the CWF70xx schema pass"});
  }
}

// ---------------------------------------------------------------------------
// cwf-assert-side-effects
// ---------------------------------------------------------------------------

/// Whether a condition expression contains an assignment or ++/--.
bool HasSideEffect(const std::string& expr) {
  for (size_t i = 0; i < expr.size(); ++i) {
    const char c = expr[i];
    const char prev = i > 0 ? expr[i - 1] : '\0';
    const char next = i + 1 < expr.size() ? expr[i + 1] : '\0';
    if ((c == '+' && next == '+') || (c == '-' && next == '-')) {
      return true;
    }
    if (c == '=') {
      if (next == '=') {
        ++i;  // "==": skip both
        continue;
      }
      if (prev == '=' || prev == '!' || prev == '<' || prev == '>') {
        continue;  // second char of ==, !=, <=, >=
      }
      // Plain or compound assignment (a = b, a += b, a &= b, ...).
      return true;
    }
  }
  return false;
}

void CheckAssertSideEffects(const std::string& path, const PreparedSource& src,
                            std::vector<Finding>* findings) {
  static const char kCheck[] = "cwf-assert-side-effects";
  static const char* kMacros[] = {
      "CWF_ASSERT", "CWF_ASSERT_MSG", "CWF_CHECK",
      "CWF_CHECK_MSG", "CWF_DCHECK",  "CWF_DCHECK_MSG",
  };
  const std::string& code = src.code;
  for (const char* macro : kMacros) {
    for (size_t at : WordOccurrences(code, macro)) {
      size_t open = at + std::strlen(macro);
      while (open < code.size() &&
             std::isspace(static_cast<unsigned char>(code[open]))) {
        ++open;
      }
      if (open >= code.size() || code[open] != '(') {
        continue;  // the macro's own #define, not an invocation
      }
      // Extract the first top-level argument (the condition).
      int paren = 0;
      size_t end = open;
      for (size_t i = open; i < code.size(); ++i) {
        if (code[i] == '(') {
          ++paren;
        } else if (code[i] == ')') {
          if (--paren == 0) {
            end = i;
            break;
          }
        } else if (code[i] == ',' && paren == 1) {
          end = i;
          break;
        }
      }
      if (end == open) {
        continue;
      }
      const std::string condition = code.substr(open + 1, end - open - 1);
      if (!HasSideEffect(condition)) {
        continue;
      }
      const int line = LineOf(code, at);
      if (Suppressed(src, line, kCheck)) {
        continue;
      }
      findings->push_back(
          {path, line, kCheck,
           std::string(macro) +
               " condition has a side effect (assignment or ++/--); the "
               "checked family compiles out in release builds"});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::set<std::string> enabled;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      if (i + 1 >= argc) {
        std::cerr << "cwf_tidy: --check needs a name\n";
        return 2;
      }
      enabled.insert(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: cwf_tidy [--check <name>]... <file>...\n"
                << "checks: cwf-raw-mutex cwf-blocking-under-lock "
                   "cwf-assert-side-effects cwf-unbounded-wait "
                   "cwf-stringly-field\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "cwf_tidy: unknown flag " << arg << "\n";
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::cerr << "usage: cwf_tidy [--check <name>]... <file>...\n";
    return 2;
  }
  auto on = [&](const char* name) {
    return enabled.empty() || enabled.count(name) > 0;
  };

  // The stringly-field check needs the declared-name universe before any
  // file can be judged, so all sources are loaded and prepared up front.
  struct Input {
    std::string path;
    std::string original;
    PreparedSource src;
  };
  std::vector<Input> inputs;
  inputs.reserve(files.size());
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "cwf_tidy: cannot read " << path << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Input input;
    input.path = path;
    input.original = buffer.str();
    input.src = Prepare(input.original);
    inputs.push_back(std::move(input));
  }

  std::set<std::string> declared_fields;
  if (on("cwf-stringly-field")) {
    for (const Input& input : inputs) {
      CollectDeclaredFields(input.original, input.src, &declared_fields);
    }
  }

  std::vector<Finding> findings;
  for (const Input& input : inputs) {
    const std::string& path = input.path;
    const PreparedSource& src = input.src;
    if (on("cwf-raw-mutex")) {
      CheckRawMutex(path, src, &findings);
    }
    if (on("cwf-blocking-under-lock")) {
      CheckBlockingUnderLock(path, src, &findings);
    }
    if (on("cwf-unbounded-wait")) {
      CheckUnboundedWait(path, src, &findings);
    }
    if (on("cwf-assert-side-effects")) {
      CheckAssertSideEffects(path, src, &findings);
    }
    if (on("cwf-stringly-field")) {
      CheckStringlyField(path, input.original, src, declared_fields,
                         &findings);
    }
  }

  for (const Finding& f : findings) {
    std::cerr << f.file << ":" << f.line << ": [" << f.check << "] "
              << f.message << "\n";
  }
  if (!findings.empty()) {
    std::cerr << findings.size() << " finding(s)\n";
    return 1;
  }
  return 0;
}
